import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaincert.errors import AssumptionViolationError, InvalidInputError
from chaincert.hypotheses import (
    HypothesisClass,
    compose_ell_h,
    constant_grid,
    constant_hypothesis,
    finalize_env,
    linear_hypothesis,
    make_abs_loss,
    make_squared_loss,
    tabulated_hypothesis,
    verify_a2,
    window_loss_values,
)
from chaincert.metric import MetricSpec, SeedSpec, ZPoint
from chaincert.presets import load_preset
from oracles import empirical_contraction_probe
from test_generators import make_halving, make_iid


def unit_square():
    return MetricSpec(dim_x=1, dim_y=1, kappa=2.0)


def loss_of(env, h, z):
    """Composite loss of one hypothesis at one state: a one-row window."""
    return window_loss_values(HypothesisClass((h,)), z.x[None], z.y[None], env)[0, 0]


def test_predictions_by_kind():
    xs = np.array([[0.0], [0.5], [1.0]])
    h_const = constant_hypothesis("c", [0.3])
    assert np.array_equal(h_const.predict(xs), np.full((3, 1), 0.3))

    h_lin = linear_hypothesis("l", [[0.5]], [0.25])
    assert np.allclose(h_lin.predict(xs), [[0.25], [0.5], [0.75]], atol=0, rtol=0)

    h_tab = tabulated_hypothesis(
        "t", table_x=[[0.0], [1.0]], table_y=[[0.1], [0.9]], declared_lip=0.8
    )
    # min_i (y_i + 0.8 |x - x_i|): the table's rows, and the line between them
    assert np.array_equal(h_tab.predict(xs), [[0.1], [0.5], [0.9]])
    # no jump at the midpoint of (0, 0) and (1, 1) under lip 1
    h_tab = tabulated_hypothesis("t", [[0.0], [1.0]], [[0.0], [1.0]], declared_lip=1.0)
    assert np.array_equal(h_tab.predict(np.array([[0.4999], [0.5001]])), [[0.4999], [0.5001]])
    with pytest.raises(InvalidInputError, match="one label column; table_y has 2"):
        tabulated_hypothesis("t", [[0.0], [1.0]], [[0.0, 0.0], [0.5, 0.5]], declared_lip=1.0)


_TABLE_COORD = st.integers(-16, 16).map(lambda k: k / 8)  # table rows 1/8 apart or more


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim_x=st.integers(1, 3), scale=st.floats(1.0, 4.0))
def test_tabulated_prediction_ratio_never_exceeds_lip(data, dim_x, scale):
    table_x = np.array(data.draw(st.lists(st.tuples(*[_TABLE_COORD] * dim_x),
                                          min_size=1, max_size=6, unique=True)))
    rows = len(table_x)
    table_y = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=rows,
                                          max_size=rows)))[:, None]
    # lip is the table's largest ratio times scale: a tight table at scale 1
    gaps = np.linalg.norm(table_x[:, None] - table_x[None], axis=2)
    apart = gaps > 0
    lip = scale * (np.abs(table_y - table_y.T)[apart] / gaps[apart]).max(initial=0.0)
    h = tabulated_hypothesis("t", table_x, table_y, lip)
    # pairs a short step apart, so that a jump between cells would show
    point = st.lists(st.floats(-2.5, 2.5), min_size=dim_x, max_size=dim_x)
    step = st.lists(st.floats(-0.1, 0.1), min_size=dim_x, max_size=dim_x)
    a = np.array(data.draw(st.lists(point, min_size=1, max_size=16)))
    b = a + np.array(data.draw(st.lists(step, min_size=len(a), max_size=len(a))))
    gap = np.abs(h.predict(a) - h.predict(b))[:, 0]
    # each prediction is a min of sums y_i + lip * |x - x_i|, with |x - x_i| < 12,
    # exact to a few units in the last place of the largest sum
    rounding = 4 * np.spacing(float(np.abs(table_y).max()) + lip * 12.0)
    assert np.all(gap <= lip * np.linalg.norm(a - b, axis=1) * (1 + 1e-9) + rounding)


def test_declared_lip_is_checked():
    with pytest.raises(InvalidInputError):
        linear_hypothesis("l", [[2.0]], [0.0], declared_lip=1.0)
    with pytest.raises(InvalidInputError):
        tabulated_hypothesis("t", [[0.0], [1.0]], [[0.0], [5.0]], declared_lip=1.0)
    with pytest.raises(InvalidInputError):
        tabulated_hypothesis("t", [[0.0], [0.0]], [[0.0], [1.0]], declared_lip=9.0)
    # pairs in row order: (0, 1) has ratio 0.5, (0, 2) 1.5, (1, 2) 2.5
    with pytest.raises(InvalidInputError, match=r"table ratio 1\.5 "):
        tabulated_hypothesis("t", [[0.0], [1.0], [2.0]], [[0.0], [0.5], [3.0]], declared_lip=1.0)
    # spectral norm of [[3,4]] is 5
    h = linear_hypothesis("ok", [[3.0, 4.0]], [0.0])
    assert h.declared_lip == pytest.approx(5.0, abs=1e-12)


def test_class_requires_distinct_ids():
    a = constant_hypothesis("a", [0.0])
    with pytest.raises(InvalidInputError):
        HypothesisClass((a, constant_hypothesis("a", [1.0])))
    cls = constant_grid([0.0, 0.5, 1.0])
    assert len(cls) == 3
    assert cls.ids() == ["const_0", "const_1", "const_2"]
    assert cls.sup_lip == 0.0


def test_compose_frozen_values():
    spec = unit_square()
    cls_const = constant_grid([0.0, 1.0])
    env_abs = make_abs_loss(clip=1.0)
    # constants only: max(1, 1 * max(0,1) * 2) = 2
    assert compose_ell_h(env_abs, cls_const, spec) == pytest.approx(2.0, abs=0)

    cls_mixed = HypothesisClass(
        (constant_hypothesis("c", [0.5]), linear_hypothesis("l", [[1.5]], [0.0]))
    )
    # max(1, 1 * 1.5 * 2) = 3
    assert compose_ell_h(env_abs, cls_mixed, spec) == pytest.approx(3.0, abs=0)

    env_sq = make_squared_loss(clip=1.0, domain_diameter=2.0)
    # max(1, 4 * 1.5 * 2) = 12
    assert compose_ell_h(env_sq, cls_mixed, spec) == pytest.approx(12.0, abs=0)


def test_compose_scales_linearly_in_loss_lip():
    spec = unit_square()
    cls = HypothesisClass((linear_hypothesis("l", [[2.0]], [0.0]),))
    base = make_squared_loss(clip=1e-6, domain_diameter=0.5)
    doubled = make_squared_loss(clip=1e-6, domain_diameter=1.0)
    assert compose_ell_h(doubled, cls, spec) == pytest.approx(
        2.0 * compose_ell_h(base, cls, spec), rel=1e-15
    )


def test_finalize_env_and_value_guard():
    spec = unit_square()
    cls = constant_grid([0.0, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, spec)
    assert env.ell_H == pytest.approx(2.0, abs=0)
    assert env.clip == pytest.approx(1.0, abs=0)

    z = ZPoint(x=np.array([0.25]), y=np.array([0.9]))
    h = cls.members[0]
    assert loss_of(env, h, z) == pytest.approx(0.9, abs=1e-15)

    # clip engages exactly at the declared level
    env_tight = finalize_env(make_abs_loss(clip=0.5), cls, spec)
    assert loss_of(env_tight, h, z) == pytest.approx(0.5, abs=0)


def test_squared_loss_worked_values_on_each_side_of_the_clip():
    # min(|gap|^2, clip) of the Euclidean label gap: 0.5^2 = 0.25 is below
    # the clip 2, and 5^2 = 25 is cut to it
    env = make_squared_loss(clip=2.0, domain_diameter=3.0)
    rows = env.loss_rows(np.array([[0.5, 0.0], [3.0, 4.0]]), np.zeros((2, 2)))
    assert rows.tolist() == [0.25, 2.0]


def test_squared_loss_lip_flows_through_finalize_env():
    # loss_lip = 2 * diameter, and ell_H = max(clip, loss_lip * max(sup_lip, 1) * kappa)
    env = make_squared_loss(clip=0.5, domain_diameter=1.5)
    assert (env.kind, env.loss_lip) == ("squared_clipped", 3.0)
    spec = MetricSpec(dim_x=1, dim_y=1, kappa=0.25)
    steep = HypothesisClass((linear_hypothesis("l", [[2.0]], [0.0]),))
    assert finalize_env(env, steep, spec).ell_H == 3.0 * 2.0 * 0.25
    assert finalize_env(env, constant_grid([0.0]), spec).ell_H == 3.0 * 1.0 * 0.25
    assert finalize_env(dataclasses.replace(env, clip=5.0), steep, spec).ell_H == 5.0


def test_loss_rows_match_pointwise():
    spec = unit_square()
    cls = HypothesisClass(
        (
            constant_hypothesis("c", [0.5]),
            linear_hypothesis("l", [[0.5]], [0.25]),
        )
    )
    env = finalize_env(make_abs_loss(clip=1.0), cls, spec)
    rng = np.random.default_rng(7)
    xs = rng.random((9, 1))
    ys = rng.random((9, 1))
    rows = window_loss_values(cls, xs, ys, env)
    assert rows.shape == (2, 9)
    for hi, h in enumerate(cls.members):
        for t in range(9):
            z = ZPoint(x=xs[t], y=ys[t])
            assert rows[hi, t] == pytest.approx(loss_of(env, h, z), abs=0)


@settings(max_examples=30, deadline=None)
@given(
    clip=st.floats(0.1, 3.0),
    lip=st.floats(0.0, 4.0),
    kappa=st.floats(0.5, 8.0),
)
@example(clip=1.0, lip=5.243106953923926e-160, kappa=1.0)  # a squared gap here is subnormal
def test_compose_dominates_both_parts(clip, lip, kappa):
    spec = MetricSpec(dim_x=1, dim_y=1, kappa=kappa)
    cls = HypothesisClass(
        (tabulated_hypothesis("t", [[0.0], [1.0]], [[0.0], [min(lip, 4.0)]], declared_lip=lip),)
    )
    env = make_abs_loss(clip=clip)
    ell = compose_ell_h(env, cls, spec)
    assert ell >= clip
    assert ell >= env.loss_lip * max(lip, 1.0) * kappa - 1e-12


def test_verify_a2_accepts_halving_class():
    gen = make_halving()
    cls = HypothesisClass(
        (
            linear_hypothesis("ident", [[1.0]], [0.0]),
            constant_hypothesis("half", [0.5]),
            linear_hypothesis("step", [[0.5]], [0.25]),
        )
    )
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = verify_a2(env, cls, gen, num_pairs=96, chain_len=10, seed=SeedSpec(11))
    assert report.pairs_checked > 0
    assert report.max_value <= env.ell_H + 1e-12
    assert report.max_ratio <= env.ell_H * (1.0 + 1e-9)


def test_verify_a2_rejects_understated_bound():
    gen = make_iid()
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    # shrink the declared constant below the real Lipschitz ratio
    broken = type(env)(kind=env.kind, clip=env.clip, loss_lip=env.loss_lip,
                       ell_H=0.05)
    with pytest.raises(AssumptionViolationError):
        verify_a2(broken, cls, gen, num_pairs=64, chain_len=8, seed=SeedSpec(3))


def test_verify_a2_rejects_a_lipschitz_ratio_above_ell_h():
    # halving_map's losses stay at or below 0.9, so a declared ell_H of 0.9
    # passes the value check; along a chain its loss moves one to one with
    # the state, a ratio of 1, which the ratio check refuses with its pair
    bundle = load_preset("halving_map")
    env = dataclasses.replace(bundle.env, ell_H=0.9)
    with pytest.raises(AssumptionViolationError,
                       match=r"^loss Lipschitz ratio 1\.0 exceeds ell_H = 0\.9 at pair \(ZPoint"):
        verify_a2(env, bundle.cls, bundle.gen, num_pairs=64, chain_len=12, seed=SeedSpec(0))


def test_verify_a2_requires_finalized_env():
    gen = make_iid()
    cls = constant_grid([0.0])
    env = make_abs_loss(clip=1.0)
    with pytest.raises(InvalidInputError):
        verify_a2(env, cls, gen)


def _a2_on_halving(num_pairs, chain_len):
    gen = make_halving()
    cls = constant_grid([0.5])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    verify_a2(env, cls, gen, num_pairs=num_pairs, chain_len=chain_len)


def _probe_on_halving(num_pairs, chain_len):
    empirical_contraction_probe(make_halving(), num_pairs=num_pairs, chain_len=chain_len)


@pytest.mark.parametrize("check", [_a2_on_halving, _probe_on_halving])
@pytest.mark.parametrize(
    "num_pairs, chain_len, field",
    [(0, 8, "num_pairs"), (-3, 8, "num_pairs"), (-2, 8, "num_pairs"), (3.0, 8, "num_pairs"),
     (8, 1, "chain_len"), (8, 0, "chain_len"), (8, 4.0, "chain_len")],
)
def test_sampled_checks_reject_bad_pair_budgets(check, num_pairs, chain_len, field):
    with pytest.raises(InvalidInputError, match=field):
        check(num_pairs, chain_len)


@pytest.mark.parametrize("check", [_a2_on_halving, _probe_on_halving])
@pytest.mark.parametrize("num_pairs, chain_len, field",
                         [(True, 8, "num_pairs"), (8, True, "chain_len")])
def test_sampled_checks_reject_a_bool_budget(check, num_pairs, chain_len, field):
    # True is an int, and 1 pair would be a valid budget
    with pytest.raises(InvalidInputError, match=f"^{field} must be"):
        check(num_pairs, chain_len)
