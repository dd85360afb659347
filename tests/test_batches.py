"""Batched scoring equals one-at-a-time scoring bit for bit.

The validators score their trials a batch of chains at a time: one loss call
over the stacked window states (``loss_matrices``), one column grouping pass
over the stacked matrices (``_column_groups``) and one estimator pick per
batch (``rademacher_estimates``). Each check here sets a batched call beside
the per-item computation it replaced, written out in the test.
"""
from dataclasses import replace

import numpy as np
import pytest

from chaincert import complexity, generators
from chaincert.certificates import (
    certify_empirical,
    coverage_experiment,
    validate_lemma1,
    validate_lemma2,
    validate_lemma3,
)
from chaincert.complexity import (
    EXACT_N_CAP,
    MC_DRAWS,
    LossMatrix,
    _column_groups,
    loss_matrices,
    loss_matrix,
    rademacher_estimate,
    rademacher_estimates,
    rademacher_exact,
    rademacher_grouped,
    rademacher_mc,
)
from chaincert.erm import erm, true_risk_table
from chaincert.errors import AssumptionViolationError, InvalidInputError
from chaincert.generators import (
    Trajectory,
    analytic_lip_factor,
    burn_in_steps,
    chain_batches,
    sample_chain,
    sample_stationary_chain,
)
from chaincert.hypotheses import constant_grid, finalize_env, make_abs_loss, window_loss_values
from chaincert.metric import MetricSpec, SeedSpec, derive_stream
from chaincert.presets import load_preset, preset_names

from oracles import per_trial_reference
from test_complexity import _duplicated_columns


def _groups_one(values: np.ndarray):
    """One matrix's distinct columns and counts: a stable lexsort of its
    columns and a compare of adjacent sorted columns."""
    ordered = values[:, np.lexsort(values)]
    fresh = np.ones(ordered.shape[1], dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return ordered[:, starts], np.diff(starts, append=ordered.shape[1])


# -- loss matrices -----------------------------------------------------------------


@pytest.mark.parametrize("name", preset_names())
def test_loss_matrices_equal_per_trajectory_rows(name):
    bundle = load_preset(name)
    trajs = [traj for batch in chain_batches(bundle.gen, 31, SeedSpec(5), 7)
             for traj in batch]
    ragged = [trajs[0].slice(0, 5), trajs[1], trajs[2].slice(4, 6)]
    for batch, window in ((trajs, None), (trajs, (3, 31)), (trajs, (0, 1)), (ragged, None)):
        mats = loss_matrices(bundle.cls, batch, bundle.env, window)
        assert len(mats) == len(batch)
        for traj, mat in zip(batch, mats):
            start, stop = window or (0, len(traj))
            rows = window_loss_values(bundle.cls, traj.xs[start:stop], traj.ys[start:stop],
                                      bundle.env)
            assert mat.values.flags.c_contiguous and mat.ell_H == bundle.env.ell_H
            assert mat.values.shape == rows.shape
            assert mat.values.tobytes() == rows.tobytes()
            assert loss_matrix(bundle.cls, traj, bundle.env, window).values.tobytes() \
                == rows.tobytes()
    assert loss_matrices(bundle.cls, [], bundle.env) == []


def _probe_trajectories(labels, metric):
    return [Trajectory(np.zeros((len(y), 1)), np.array(y, dtype=float)[:, None],
                       SeedSpec(0), metric) for y in labels]


def test_batch_raises_the_first_failing_trajectorys_own_error():
    metric = MetricSpec(1, 1, 2.0)
    cls = constant_grid([0.0])
    env = replace(finalize_env(make_abs_loss(clip=1.0), cls, metric), ell_H=0.5)
    # the third trajectory breaches ell_H at 0.9; the batch's largest loss is 0.95
    trajs = _probe_trajectories([[0.1, 0.2], [0.3, 0.4], [0.2, 0.9], [0.95, 0.1]], metric)
    with pytest.raises(AssumptionViolationError) as alone:
        loss_matrix(cls, trajs[2], env)
    with pytest.raises(AssumptionViolationError) as batch:
        loss_matrices(cls, trajs, env)
    assert str(batch.value) == str(alone.value)
    assert "0.9 exceeds" in str(batch.value)
    # a window the third trajectory is too short for
    short = _probe_trajectories([[0.1] * 4, [0.1] * 4, [0.1] * 2, [0.1] * 4], metric)
    with pytest.raises(InvalidInputError) as alone:
        loss_matrix(cls, short[2], env, window=(0, 3))
    with pytest.raises(InvalidInputError) as batch:
        loss_matrices(cls, short, env, window=(0, 3))
    assert str(batch.value) == str(alone.value)
    assert "length-2 trajectory" in str(batch.value)


# -- column groups and estimates -------------------------------------------------


@pytest.mark.parametrize("m, h, n", [(1, 1, 1), (4, 1, 1), (1, 3, 21), (5, 3, 21), (7, 2, 45),
                                     (3, 4, 200)])
def test_stacked_column_groups_equal_per_matrix_groups(m, h, n):
    rng = np.random.default_rng(7 * m + h + n)
    stack = np.stack([_duplicated_columns(rng, h, n, 1 + i % 4) for i in range(m)])
    if m > 1:
        stack[1] = stack[0]  # equal columns in two matrices stay in their own groups
        stack[-1] = 0.5
    groups = _column_groups(stack)
    assert len(groups) == m
    for values, (columns, counts) in zip(stack, groups):
        ref_columns, ref_counts = _groups_one(values)
        assert columns.shape == ref_columns.shape and columns.tobytes() == ref_columns.tobytes()
        assert counts.dtype == ref_counts.dtype and counts.tobytes() == ref_counts.tobytes()


def test_batched_estimates_equal_one_matrix_calls():
    rng = np.random.default_rng(2024)
    h = 3
    values = [
        rng.random((h, 7)),                    # plain enumeration
        _duplicated_columns(rng, h, 21, 3),    # grouped
        rng.random((h, 21)),                   # 21 distinct columns: 2^21 grid points, MC
        _duplicated_columns(rng, h, 45, 4),    # grouped
        rng.random((h, 45)),                   # MC
        rng.random((h, EXACT_N_CAP)),          # plain, at the cap
        rng.random((h, 3)),                    # plain
    ]
    values.append(values[1][:, ::-1].copy())   # the groups of matrix 1: one shared enumeration
    values.append(values[2].copy())            # the matrix of matrix 2 under another seed
    values.append(values[1] * 0.5)             # the counts of matrix 1, other columns
    values.append(_duplicated_columns(rng, h, 12, 3))  # grouped below the cap
    mats = [LossMatrix(v, 1.0) for v in values]
    seeds = [SeedSpec(11, i) for i in range(len(mats))]
    batch = rademacher_estimates(mats, 64, seeds)
    assert [e.method for e in batch] == ["exact", "exact", "mc", "exact", "mc", "exact", "exact",
                                         "exact", "mc", "exact", "exact"]
    assert batch[10].draws < 1 << 12
    for mat, seed, est in zip(mats, seeds, batch):
        assert est == rademacher_estimate(mat, 64, seed)
        no_repeats = _groups_one(mat.values)[1].size == mat.num_states
        if no_repeats and mat.num_states <= EXACT_N_CAP:
            assert est == rademacher_exact(mat)
        elif est.method == "mc":
            assert est == rademacher_mc(mat, 64, seed)
        else:
            assert est == rademacher_grouped(*_groups_one(mat.values))
    assert batch[7] == batch[1]
    assert batch[8] != batch[2]  # Monte Carlo follows its own seed
    assert batch[9].value == 0.5 * batch[1].value
    with pytest.raises(InvalidInputError, match="as many seeds"):
        rademacher_estimates(mats, 64, seeds[:-1])


def test_only_matrices_with_no_repeated_column_reach_rademacher_exact(monkeypatch):
    # the benchmark's tracer spans ``complexity.rademacher_exact`` and counts
    # 2^n sign vectors per call, so only a matrix whose 2^n sign vectors are
    # enumerated may reach it: no column repeats, and n <= EXACT_N_CAP
    calls, real = [], complexity.rademacher_exact

    def counting(matrix):
        calls.append(matrix.num_states)
        return real(matrix)

    monkeypatch.setattr(complexity, "rademacher_exact", counting)
    rng = np.random.default_rng(5)
    values = [rng.random((3, 7)), rng.random((3, EXACT_N_CAP)),
              _duplicated_columns(rng, 3, 21, 3), rng.random((3, 45)),
              _duplicated_columns(rng, 3, 12, 4)]
    batch = rademacher_estimates([LossMatrix(v, 1.0) for v in values], 64,
                                 [SeedSpec(5, i) for i in range(len(values))])
    assert [e.method for e in batch] == ["exact", "exact", "exact", "mc", "exact"]
    assert batch[4].draws < 1 << 12  # the grid of its groups, not 2^12 sign vectors
    assert calls == [7, EXACT_N_CAP]


# -- validators against one trial at a time ---------------------------------------


def _risks(bundle, seed):
    return np.array([e.value for e in true_risk_table(bundle.cls, bundle.gen, bundle.env,
                                                      tol=1e-3, seed=seed)])


def _phi(bundle, traj, window, er_values):
    mat = loss_matrix(bundle.cls, traj, bundle.env, window=window)
    return float(np.abs(mat.values.mean(axis=1) - er_values).max())


@pytest.mark.parametrize("name", preset_names())
def test_validators_equal_one_trial_at_a_time(name, monkeypatch):
    bundle = load_preset(name)
    gen, cls, env = bundle.gen, bundle.cls, bundle.env
    seed, trials, eps = SeedSpec(9), 7, 0.3
    ell_F = analytic_lip_factor(gen)

    n = 25
    cov = coverage_experiment(gen, cls, env, n, eps, trials, seed=seed, rad_outer=3)
    er = _risks(bundle, derive_stream(seed, 3))
    batch_seed = derive_stream(seed, 0)
    for t, row in enumerate(cov.rows):
        traj = sample_chain(gen, 2 * n, derive_stream(batch_seed, t))
        mat = loss_matrix(cls, traj, env, window=(n, 2 * n))
        pick = erm(cls, mat, epsilon=eps).hypothesis_index
        est = rademacher_estimate(mat, MC_DRAWS, derive_stream(traj.seed, 1))
        radius = certify_empirical(est.value, env.ell_H, ell_F, n, eps).radius
        assert (row[0], row[1], row[3]) == (t, abs(float(er[pick]) - float(er.min())), radius)

    lem1 = validate_lemma1(gen, cls, env, 10, eps, trials, seed=seed)
    er = _risks(bundle, derive_stream(seed, 2))
    batch_seed = derive_stream(seed, 1)
    for t, row in enumerate(lem1.rows):
        traj = sample_chain(gen, 20, derive_stream(batch_seed, t))
        assert row[1] == _phi(bundle, traj, (10, 20), er)

    lemma3 = {}
    for n in (10, 25):  # plain enumeration, then grouped or Monte Carlo
        lemma3[n] = validate_lemma3(gen, cls, env, n, eps, trials, seed=seed)
        batch_seed = derive_stream(seed, 0)
        for t, row in enumerate(lemma3[n].rows):
            traj = sample_stationary_chain(gen, 2 * n, 1e-3, derive_stream(batch_seed, t))
            rhat = rademacher_estimate(loss_matrix(cls, traj, env, window=(0, n)), MC_DRAWS,
                                       derive_stream(traj.seed, 1)).value
            assert row[1:3] == (_phi(bundle, traj, (n, 2 * n), er), rhat)

    # batches of three chains, the last one short, give the same reports
    monkeypatch.setattr(generators, "_BLOCK_STATES", 3 * 2 * 25 + 1)
    assert coverage_experiment(gen, cls, env, 25, eps, trials, seed=seed, rad_outer=3) == cov
    assert validate_lemma3(gen, cls, env, 25, eps, trials, seed=seed) == lemma3[25]


@pytest.mark.parametrize("name", ["halving_map", "affine_triangle"])
@pytest.mark.parametrize("n", [10, 25])  # plain enumeration, then grouped or Monte Carlo
def test_validators_equal_the_per_trial_oracle(name, n):
    # halving_map's trials share one window, scored once; affine_triangle's differ
    bundle = load_preset(name)
    gen, cls, env = bundle.gen, bundle.cls, bundle.env
    seed, trials, eps = SeedSpec(13), 12, 0.3

    def oracle(stream, er, **kw):
        return per_trial_reference(gen, cls, env, n, eps, trials, derive_stream(seed, stream),
                                   er, **kw)

    er = _risks(bundle, derive_stream(seed, 3))
    for mode, train in (("delayed", (n, 2 * n)), ("paper_literal", (0, n))):
        cov = coverage_experiment(gen, cls, env, n, eps, trials, window_mode=mode, seed=seed,
                                  rad_outer=3)
        ref = oracle(0, er, train=train)
        assert [row[1] for row in cov.rows] == ref.deviations
        assert [row[3] for row in cov.rows] == ref.radii

    er = _risks(bundle, derive_stream(seed, 2))
    lem1 = validate_lemma1(gen, cls, env, n, eps, trials, seed=seed)
    assert [row[1] for row in lem1.rows] == oracle(1, er, train=(n, 2 * n)).phis
    assert dict(lem1.details)["center_mean"] \
        == float(np.mean(oracle(0, er, train=(n, 2 * n)).phis))
    lem2 = validate_lemma2(gen, cls, env, n, trials, seed=seed, rad_outer=3)
    assert [row[1] for row in lem2.rows] == oracle(0, er, train=(n, 2 * n)).phis
    lem3 = validate_lemma3(gen, cls, env, n, eps, trials, seed=seed)
    ref = oracle(0, er, train=(0, n), tol=1e-3)
    assert [row[1] for row in lem3.rows] == ref.phis
    assert [row[2] for row in lem3.rows] == ref.rhats


def test_shared_windows_share_one_matrix():
    # a one-atom law: every chain is one read-only path, so each window is
    # one matrix object, scored once; chains that differ keep their own
    halving, triangle = load_preset("halving_map"), load_preset("affine_triangle")
    for bundle, shared in ((halving, True), (triangle, False)):
        batch = next(chain_batches(bundle.gen, 30, SeedSpec(2), 5))
        for window in ((0, 10), (10, 30)):
            mats = loss_matrices(bundle.cls, batch, bundle.env, window)
            assert len({id(mat) for mat in mats}) == (1 if shared else len(batch))
            assert not any(mat.values.flags.writeable for mat in mats)
    # the same states in other memory, or another span of the same path,
    # are other windows: contents are never compared
    path = next(chain_batches(halving.gen, 30, SeedSpec(2), 1))[0]
    copy = Trajectory(path.xs.copy(), path.ys.copy(), path.seed, path.metric)
    trajs = [path, copy, path.slice(0, 29), path.slice(1, 30), path.slice(0, 10)]
    mats = loss_matrices(halving.cls, trajs, halving.env)
    assert [mats[0] is mat for mat in mats] == [True, False, False, False, False]
    assert len({id(mat) for mat in mats}) == 5
    # under the window (0, 28) the path and its (0, 29) slice cover the same memory
    mats = loss_matrices(halving.cls, trajs[:4], halving.env, (0, 28))
    assert [mats[0] is mat for mat in mats] == [True, False, True, False]
    assert mats[0].values.tobytes() == mats[1].values.tobytes()


def test_a_shared_matrix_draws_from_each_of_its_seeds(monkeypatch):
    values = np.random.default_rng(3).random((3, 40))  # 40 distinct columns: Monte Carlo
    mat = LossMatrix(values, 1.0)
    seeds = [SeedSpec(1), SeedSpec(2)]
    first, second = rademacher_estimates([mat, mat], 64, seeds)
    assert first.method == second.method == "mc"
    assert first == rademacher_estimate(mat, 64, seeds[0])
    assert second == rademacher_estimate(mat, 64, seeds[1])
    assert first != second
    # an exact matrix passed twice is enumerated once, and shared
    calls, real = [], complexity.rademacher_exact
    monkeypatch.setattr(complexity, "rademacher_exact",
                        lambda m: calls.append(m) or real(m))
    small = LossMatrix(values[:, :12], 1.0)
    a, b = rademacher_estimates([small, small], 64, seeds)
    assert a is b and calls == [small] and a == real(small)


def test_batches_hold_at_most_one_block_of_states(monkeypatch):
    seen = []

    def counted(cls, xs, ys, env):
        seen.append(xs.shape[0])
        return window_loss_values(cls, xs, ys, env)

    monkeypatch.setattr(complexity, "window_loss_values", counted)
    # chains that differ: every window of a block is scored
    bundle = load_preset("labeled_affine")
    n, trials = 200, 100
    coverage_experiment(bundle.gen, bundle.cls, bundle.env, n, 0.1, trials, rad_outer=4)
    size = generators._BLOCK_STATES // (2 * n)  # chains per batch: 40
    assert max(seen) <= generators._BLOCK_STATES
    assert seen[-3:] == [size * n, size * n, (trials - 2 * size) * n]

    # a one-atom law: all chains share one path in one list, so its window
    # is scored once, after the fixed point's one state
    seen.clear()
    bundle = load_preset("halving_map")
    coverage_experiment(bundle.gen, bundle.cls, bundle.env, n, 0.1, trials, rad_outer=4)
    assert seen == [1, n]


def test_burned_in_batches_follow_blocks_of_burn_in_plus_n_states(monkeypatch):
    # a burned-in chain steps B + n states and keeps n: its batch is the
    # chains of one block of B + n states per chain
    bundle = load_preset("labeled_affine")
    gen, cls, env = bundle.gen, bundle.cls, bundle.env
    seed, b = SeedSpec(9), burn_in_steps(gen, 1e-3)
    lemma2 = validate_lemma2(gen, cls, env, 25, 7, seed=seed)
    risks = true_risk_table(cls, gen, env, seed=seed)
    seen = []

    def counted(cls, xs, ys, env):
        seen.append(xs.shape[0])
        return window_loss_values(cls, xs, ys, env)

    monkeypatch.setattr(complexity, "window_loss_values", counted)
    # three outer chains of the expected complexity per block, one replica
    monkeypatch.setattr(generators, "_BLOCK_STATES", 3 * (b + 25) + 1)
    assert validate_lemma2(gen, cls, env, 25, 7, seed=seed) == lemma2
    # four of the 32 replica chains of 256 states per block
    monkeypatch.setattr(generators, "_BLOCK_STATES", 5 * 256)
    seen.clear()
    assert true_risk_table(cls, gen, env, seed=seed) == risks
    assert seen == [4 * 256] * 8

    monkeypatch.undo()
    monkeypatch.setattr(complexity, "window_loss_values", counted)
    seen.clear()
    n, trials = 128, 100
    validate_lemma3(gen, cls, env, n, 0.3, trials, seed=seed)
    size = generators._BLOCK_STATES // (b + 2 * n)  # trials per block: 62
    assert max(seen) <= generators._BLOCK_STATES
    assert seen == [32 * 256, size * 2 * n, (trials - size) * 2 * n]
