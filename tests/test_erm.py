import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert.complexity import loss_matrix, rademacher_expected
from chaincert.config import build_generator
from chaincert.erm import _replica_means, erm, true_risk_table
from chaincert.errors import InvalidInputError
from chaincert.generators import (
    affine_ifs_generator,
    analytic_lip_factor,
    burn_in_allowance,
    burn_in_steps,
    exact_invariant_atoms,
    identity_label,
    sample_chain,
)
from chaincert.hypotheses import (
    HypothesisClass,
    constant_grid,
    constant_hypothesis,
    finalize_env,
    linear_hypothesis,
    make_abs_loss,
)
from chaincert.metric import SeedSpec

from test_generators import make_halving, make_iid


def halving_setup():
    gen = make_halving()
    cls = HypothesisClass(
        (
            linear_hypothesis("ident", [[1.0]], [0.0]),
            constant_hypothesis("half", [0.5]),
            constant_hypothesis("zero", [0.0]),
            linear_hypothesis("step", [[0.5]], [0.25]),
        )
    )
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    return gen, cls, env


def test_empirical_risk_frozen_hand_values():
    gen, cls, env = halving_setup()
    traj = sample_chain(gen, 3, SeedSpec(0))
    # path is (1.0,1.0), (0.75,0.75), (0.625,0.625): labels equal features
    risks = loss_matrix(cls, traj, env).values.mean(axis=1)
    assert risks[0] == pytest.approx(0.0, abs=0)  # identity predicts its own label
    # |0.5 - y| over y in {1.0, 0.75, 0.625}: mean of 0.5, 0.25, 0.125
    assert risks[1] == pytest.approx((0.5 + 0.25 + 0.125) / 3, abs=1e-15)
    # zero predictor pays y itself
    assert risks[2] == pytest.approx((1.0 + 0.75 + 0.625) / 3, abs=1e-15)
    # step map h(x) = x/2 + 1/4: |h(y) - y| = |y/4 - ... | -> 0.25, 0.125, 0.0625
    assert risks[3] == pytest.approx((0.25 + 0.125 + 0.0625) / 3, abs=1e-15)


def test_window_restricts_the_mean():
    gen, cls, env = halving_setup()
    traj = sample_chain(gen, 3, SeedSpec(0))
    r_tail = loss_matrix(cls, traj, env, window=(1, 3)).values[2].mean()
    assert r_tail == pytest.approx((0.75 + 0.625) / 2, abs=1e-15)
    with pytest.raises(InvalidInputError):
        loss_matrix(cls, traj, env, window=(0, 9))
    with pytest.raises(InvalidInputError):
        loss_matrix(cls, traj, env, window=(2, 2))
    # a bool is no window bound, though True == 1 and False == 0
    for window in ((True, 3), (False, True)):
        with pytest.raises(InvalidInputError, match="no integer pair"):
            loss_matrix(cls, traj, env, window=window)


def test_erm_exact_selection_and_report():
    gen, cls, env = halving_setup()
    traj = sample_chain(gen, 6, SeedSpec(1))
    report = erm(cls, loss_matrix(cls, traj, env))
    assert report.hypothesis_id == "ident"
    assert report.hypothesis_index == 0
    assert report.empirical_risk == pytest.approx(0.0, abs=0)
    assert report.achieved_gap == 0.0
    assert [hid for hid, _ in report.risk_table] == cls.ids()


def test_erm_epsilon_feasible_lowest_index():
    gen, cls, env = halving_setup()
    traj = sample_chain(gen, 3, SeedSpec(0))
    # risks in class order: 0, 0.29166..., 0.79166..., 0.14583...
    report = erm(cls, loss_matrix(cls, traj, env), epsilon=0.3, tie_break="lowest_index")
    assert report.hypothesis_id == "ident"  # index 0 is always feasible
    # reorder so a strictly suboptimal member sits first and inside the slack
    cls_flip = HypothesisClass(tuple(reversed(cls.members)))
    flip = loss_matrix(cls_flip, traj, env)
    report_flip = erm(cls_flip, flip, epsilon=0.3, tie_break="lowest_index")
    assert report_flip.hypothesis_id == "step"
    assert report_flip.achieved_gap == pytest.approx((0.25 + 0.125 + 0.0625) / 3, abs=1e-15)
    assert report_flip.achieved_gap <= 0.3
    # first_found still insists on the exact minimum
    exact_flip = erm(cls_flip, flip, epsilon=0.3, tie_break="first_found")
    assert exact_flip.hypothesis_id == "ident"
    assert exact_flip.achieved_gap == 0.0


def test_erm_rejects_bad_knobs():
    gen, cls, env = halving_setup()
    matrix = loss_matrix(cls, sample_chain(gen, 3, SeedSpec(0)), env)
    with pytest.raises(InvalidInputError):
        erm(cls, matrix, epsilon=-0.1)
    with pytest.raises(InvalidInputError):
        erm(cls, matrix, tie_break="random")
    with pytest.raises(InvalidInputError):
        erm(constant_grid([0.0]), matrix)  # one row per class member


@settings(max_examples=40, deadline=None)
@given(
    risks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    epsilon=st.floats(0.0, 0.5),
)
def test_erm_gap_never_exceeds_epsilon(risks, epsilon):
    gen = make_iid()
    cls = constant_grid(np.linspace(0.0, 1.0, len(risks)))
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    traj = sample_chain(gen, 12, SeedSpec(9))
    report = erm(cls, loss_matrix(cls, traj, env), epsilon=epsilon)
    assert 0.0 <= report.achieved_gap <= epsilon
    table = dict(report.risk_table)
    assert report.empirical_risk == table[report.hypothesis_id]
    assert report.min_risk == min(table.values())


def test_true_risk_iid_atom_expectation():
    gen = make_iid()  # atoms (0.2, 0.2) and (0.7, 0.7), equal weight
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    (est,) = true_risk_table(cls, gen, env)
    assert est.method == "atom_expectation"
    assert est.se == 0.0 and est.bias_bound == 0.0
    assert est.value == pytest.approx(0.5 * 0.2 + 0.5 * 0.7, abs=1e-15)


def test_true_risk_fixed_point():
    gen = make_halving()
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    (est,) = true_risk_table(cls, gen, env)
    assert est.method == "fixed_point"
    assert est.se == 0.0 and est.bias_bound == 0.0
    assert est.value == pytest.approx(0.5, abs=1e-9)  # fixed point of x/2 + 1/4


def test_true_risk_ergodic_mode_agrees_with_exact():
    # the replica chains behind an ergodic table, run on a generator whose
    # table is exact, land within their own error bars of the exact value
    gen = make_iid()
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    (exact,) = true_risk_table(cls, gen, env)
    means = _replica_means(cls, gen, env, 16, 128, 1e-3, SeedSpec(6))[0]
    se = means.std(ddof=1) / np.sqrt(16)
    bias = env.ell_H * analytic_lip_factor(gen) ** burn_in_steps(gen, 1e-3)
    assert se > 0.0
    assert abs(means.mean() - exact.value) <= 3.0 * se + bias


def _ifs_setup():
    gen = affine_ifs_generator(
        mats=[0.2 * np.eye(2), 0.3 * np.eye(2)],
        vecs=[np.array([0.3, 0.0]), np.array([0.0, 0.2])],
        weights=[0.5, 0.5],
        label_map=identity_label(),
        attractor_radius=0.5,
        z0_x=np.array([0.0, 0.0]),
    )
    cls = constant_grid([[0.0, 0.0], [0.2, 0.1]])
    return gen, cls, finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)


def test_true_risk_table_is_ergodic_without_closed_form():
    gen, cls, env = _ifs_setup()
    table = true_risk_table(cls, gen, env, seed=SeedSpec(5))
    means = _replica_means(cls, gen, env, 32, 256, 1e-3, SeedSpec(5))
    for est, m in zip(table, means):
        assert est.method == "ergodic_mc"
        assert est.value == float(m.mean()) and est.se > 0.0 and est.bias_bound > 0.0


def test_one_map_affine_config_takes_the_fixed_point():
    # one affine map is a deterministic map, though no deterministic_map
    # constructor built it: its invariant law is the point mass at
    # x* = (I - A)^{-1} b, labelled by the identity
    mat, vec = [[0.5, 0.1], [0.0, 0.4]], [0.2, -0.1]
    gen = build_generator({"kind": "affine_ifs", "mats": [mat], "vecs": [vec], "weights": [1.0],
                           "attractor_radius": 0.5, "z0_x": [0.3, 0.3],
                           "label": {"kind": "identity"}})
    x_star = np.linalg.solve(np.eye(2) - np.array(mat), np.array(vec))
    xs, ys, weights = exact_invariant_atoms(gen)
    assert np.abs(xs - x_star).max() <= 1e-12 and np.abs(ys - x_star).max() <= 1e-12
    assert weights.tolist() == [1.0]
    cls = HypothesisClass((linear_hypothesis("ident", np.eye(2), [0.0, 0.0]),
                           constant_hypothesis("zero", [0.0, 0.0]),
                           linear_hypothesis("half", 0.5 * np.eye(2), [0.1, 0.0])))
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    table = true_risk_table(cls, gen, env)
    assert all(est.method == "fixed_point" and est.se == 0.0 for est in table)
    assert rademacher_expected(cls, gen, env, 8).method == "exact_fixed_point"
    # the replica chains all run the one orbit, within its burn-in bias
    means = _replica_means(cls, gen, env, 16, 128, 1e-3, SeedSpec(6))
    se = means.std(axis=1, ddof=1) / np.sqrt(16)
    bias = burn_in_allowance(gen, 1e-3, env.ell_H)
    for est, m, e in zip(table, means, se):
        assert abs(m.mean() - est.value) <= 3.0 * e + bias


def test_true_risk_table_matches_singletons():
    gen = make_iid()
    cls = constant_grid([0.0, 0.45, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    table = true_risk_table(cls, gen, env)
    for h, est in zip(cls.members, table):
        assert (est,) == true_risk_table(HypothesisClass((h,)), gen, env)


def test_opt_risk_prefers_true_minimizer():
    gen = make_iid()
    cls = constant_grid([0.0, 0.45, 1.0])  # 0.45 sits between the atoms
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    values = [est.value for est in true_risk_table(cls, gen, env)]
    assert int(np.argmin(values)) == 1
    assert min(values) == pytest.approx(0.5 * 0.25 + 0.5 * 0.25, abs=1e-15)


def test_opt_risk_deterministic_seeded():
    gen, cls, env = _ifs_setup()
    a = true_risk_table(cls, gen, env, seed=SeedSpec(4))
    assert a == true_risk_table(cls, gen, env, seed=SeedSpec(4))
    assert a != true_risk_table(cls, gen, env, seed=SeedSpec(5))
