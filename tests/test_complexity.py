import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert.complexity import (
    EXACT_N_CAP,
    LossMatrix,
    _bit_stats,
    _draw_sign_bits,
    growth_bound,
    loss_matrix,
    rademacher_estimate,
    rademacher_exact,
    rademacher_expected,
    rademacher_mc,
    vc_bound,
)
from chaincert.errors import InvalidInputError, SizeCapError
from chaincert.generators import sample_chain
from chaincert.hypotheses import constant_grid, finalize_env, make_abs_loss
from chaincert.metric import SeedSpec, make_rng

from test_generators import make_halving, make_iid


def test_exact_hand_case_quarter():
    mat = LossMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]), ell_H=1.0)
    est = rademacher_exact(mat)
    # four sign vectors, statistics 0.5, 0.5, 0.5, -0.5
    assert est.value == pytest.approx(0.25, abs=0)
    assert est.se == 0.0
    assert est.draws == 4
    # both rows flip under abs, so every sign vector scores 0.5
    assert est.value_symmetrized == pytest.approx(0.5, abs=0)


def test_exact_single_row_plain_vs_symmetrized():
    # one constant row c: plain complexity is E max = E |mean sigma| * 0? no:
    # statistic is c * mean(sigma), so plain average is 0 by sign symmetry
    mat = LossMatrix(values=np.array([[0.7, 0.7, 0.7, 0.7]]), ell_H=1.0)
    est = rademacher_exact(mat)
    assert est.value == pytest.approx(0.0, abs=1e-15)
    # symmetrized: 0.7 * E|sum sigma|/4 = 0.7 * (2*(4 choose 1)*2 + 4*(4 choose 0)*... )
    # E|sum of 4 signs| = (2*0 count 6... ) enumerate: |4|*2 + |2|*8 + 0*6 over 16 = 24/16
    assert est.value_symmetrized == pytest.approx(0.7 * (24.0 / 16.0) / 4.0, abs=1e-15)


def _brute_force(vals: np.ndarray) -> tuple[float, float]:
    """Plain and symmetrized complexity by scoring one sign vector at a time."""
    n = vals.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    acc = acc_sym = 0.0
    for sigma in signs:
        scores = (vals @ sigma).tolist()
        acc += max(scores) / n
        acc_sym += max(map(abs, scores)) / n
    return acc / (1 << n), acc_sym / (1 << n)


def test_exact_matches_direct_enumeration_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        vals = rng.random((3, 6))
        mat = LossMatrix(values=vals, ell_H=2.0)
        assert rademacher_exact(mat).value == pytest.approx(_brute_force(vals)[0], rel=1e-12)


@pytest.mark.parametrize("h", (1, 3, 8))
def test_exact_matches_brute_force_across_the_split(h):
    # n = 1..16 crosses the point where the columns split into two score tables
    for n in range(1, 17):
        vals = np.random.default_rng(100 * n + h).random((h, n))
        est = rademacher_exact(LossMatrix(values=vals, ell_H=1.0))
        plain, sym = _brute_force(vals)
        assert est.value == pytest.approx(plain, rel=1e-12)
        assert est.value_symmetrized == pytest.approx(sym, rel=1e-12)
        assert est.draws == 1 << n


@pytest.mark.parametrize("h, cap_mib", ((4, 2.0), (64, 16.0)))
def test_exact_memory_stays_flat(h, cap_mib):
    mat = LossMatrix(values=np.random.default_rng(h).random((h, 20)), ell_H=1.0)
    tracemalloc.start()
    try:
        rademacher_exact(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap_mib * 2**20


def test_exact_cap_directs_to_mc():
    mat = LossMatrix(values=np.zeros((2, EXACT_N_CAP + 1)), ell_H=1.0)
    with pytest.raises(SizeCapError):
        rademacher_exact(mat)
    assert rademacher_estimate(mat, 64, SeedSpec(0)).method == "mc"
    small = LossMatrix(values=np.zeros((2, 3)), ell_H=1.0)
    assert rademacher_estimate(small, 64, SeedSpec(0)).method == "exact"


def test_mc_is_consistent_with_exact():
    rng = np.random.default_rng(11)
    vals = rng.random((4, 10))
    mat = LossMatrix(values=vals, ell_H=2.0)
    exact = rademacher_exact(mat).value
    est = rademacher_mc(mat, draws=60_000, seed=SeedSpec(21))
    assert est.se > 0
    assert abs(est.value - exact) <= 3.5 * est.se


@pytest.mark.parametrize("n", (1, 7, 8, 9, 201))
def test_packed_bit_scores_match_direct_signs(n):
    draws = 300
    vals = np.random.default_rng(n).random((5, n))
    bits = _draw_sign_bits(make_rng(SeedSpec(n)), draws, n)
    # bit t of a vector is bit t (most significant first) of its ceil(n/8)
    # bytes; the padding bits of the last byte are dropped
    row_bytes = (n + 7) // 8
    raw = np.frombuffer(make_rng(SeedSpec(n)).bytes(draws * row_bytes), dtype=np.uint8)
    t = np.arange(n)
    expected = (raw.reshape(draws, row_bytes)[:, t // 8] >> (7 - t % 8)) & 1
    assert bits.dtype == float and np.array_equal(bits, expected)
    plain, sym = _bit_stats(vals, bits)
    direct = (1.0 - 2.0 * bits) @ vals.T  # (draws, H)
    np.testing.assert_allclose(plain, direct.max(axis=1) / n, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sym, np.abs(direct).max(axis=1) / n, rtol=0, atol=1e-12)
    # the estimator averages exactly these per-draw scores
    est = rademacher_mc(LossMatrix(values=vals, ell_H=1.0), draws=draws, seed=SeedSpec(n))
    assert est.value == plain.mean() and est.value_symmetrized == sym.mean()


@pytest.mark.parametrize("n", (1, 5, 8, 12))
def test_mc_lands_near_exact_small_n(n):
    vals = np.random.default_rng(40 + n).random((4, n))
    mat = LossMatrix(values=vals, ell_H=1.0)
    exact = rademacher_exact(mat)
    est = rademacher_mc(mat, draws=50_000, seed=SeedSpec(n))
    assert abs(est.value - exact.value) <= 4.0 * est.se
    assert abs(est.value_symmetrized - exact.value_symmetrized) <= 4.0 * est.se


def test_mc_deterministic_and_chunking_invariant():
    vals = np.random.default_rng(5).random((3, 30))
    mat = LossMatrix(values=vals, ell_H=2.0)
    a = rademacher_mc(mat, draws=10_000, seed=SeedSpec(8))
    b = rademacher_mc(mat, draws=10_000, seed=SeedSpec(8))
    assert a == b
    with pytest.raises(InvalidInputError):
        rademacher_mc(mat, draws=1)


def test_loss_matrix_from_trajectory():
    gen = make_halving()
    cls = constant_grid([0.0, 0.5, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    traj = sample_chain(gen, None, 3, SeedSpec(0))
    mat = loss_matrix(cls, traj, env)
    assert mat.num_hypotheses == 3 and mat.num_states == 3
    # states y = 1.0, 0.75, 0.625 against constants 0, 0.5, 1
    assert mat.values[0] == pytest.approx([1.0, 0.75, 0.625], abs=0)
    assert mat.values[2] == pytest.approx([0.0, 0.25, 0.375], abs=1e-15)
    with pytest.raises(InvalidInputError):
        LossMatrix(values=np.array([[0.4, 1.2]]), ell_H=1.0)
    with pytest.raises(InvalidInputError):
        LossMatrix(values=np.array([[-0.1]]), ell_H=1.0)


def test_expected_rademacher_runs_both_modes():
    gen = make_iid()
    cls = constant_grid([0.0, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    est_st = rademacher_expected(cls, gen, env, n=8, outer=6, seed=SeedSpec(2))
    est_pt = rademacher_expected(cls, gen, env, n=8, outer=6, start_mode="point", seed=SeedSpec(2))
    assert est_st.method == "expected_exact_stationary"
    assert est_pt.method == "expected_exact_point"
    assert 0.0 <= est_st.value <= 1.0
    # repeatability
    again = rademacher_expected(cls, gen, env, n=8, outer=6, seed=SeedSpec(2))
    assert again == est_st
    with pytest.raises(InvalidInputError):
        rademacher_expected(cls, gen, env, n=8, outer=1)
    with pytest.raises(InvalidInputError):
        rademacher_expected(cls, gen, env, n=8, outer=4, start_mode="warm")


def test_expected_rademacher_mc_inner_for_large_n():
    gen = make_iid()
    cls = constant_grid([0.0, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    est = rademacher_expected(cls, gen, env, n=24, outer=4, mc_draws=512, seed=SeedSpec(7))
    assert est.method == "expected_mc_stationary"
    assert est.se >= 0.0


def test_growth_bound_frozen_value():
    assert growth_bound(100, 16, 1.0) == pytest.approx(0.23548200450309308, abs=1e-12)
    assert growth_bound(100, 1, 1.0) == 0.0
    with pytest.raises(InvalidInputError):
        growth_bound(0, 4, 1.0)
    with pytest.raises(InvalidInputError):
        growth_bound(10, 4, -1.0)


def test_vc_bound_frozen_value():
    assert vc_bound(100, 1, 1.0) == pytest.approx(0.33481846382743265, abs=1e-12)
    # dim equal to sample size collapses the log to one
    assert vc_bound(64, 64, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    with pytest.raises(InvalidInputError):
        vc_bound(10, 11, 1.0)
    with pytest.raises(InvalidInputError):
        vc_bound(10, 0, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 4),
    n=st.integers(2, 9),
    scale=st.floats(0.1, 2.0),
    data=st.data(),
)
def test_exact_invariants(h, n, scale, data):
    raw = data.draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            min_size=h,
            max_size=h,
        )
    )
    vals = np.array(raw) * scale
    mat = LossMatrix(values=vals, ell_H=scale)
    est = rademacher_exact(mat)
    plain, sym = est.value, est.value_symmetrized
    # the signed max is never above its absolute version, and both respect
    # the growth ceiling; plain is non-negative because -sigma pairs with sigma
    assert -1e-12 <= plain <= sym + 1e-12
    assert sym <= growth_bound(n, max(h, 2), float(scale)) + 1e-9 or h == 1
    assert sym <= scale + 1e-12


def test_exact_scales_linearly():
    vals = np.random.default_rng(2).random((3, 7))
    a = rademacher_exact(LossMatrix(values=vals, ell_H=1.0)).value
    b = rademacher_exact(LossMatrix(values=3.0 * vals, ell_H=3.0)).value
    assert b == pytest.approx(3.0 * a, rel=1e-12)
