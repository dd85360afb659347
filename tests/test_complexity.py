import itertools
import json
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert import complexity
from chaincert.complexity import (
    EXACT_N_CAP,
    LossMatrix,
    _TILE,
    _bit_scores,
    _column_groups,
    _pair_sums,
    _sign_tiles,
    growth_bound,
    loss_matrix,
    rademacher_estimate,
    rademacher_exact,
    rademacher_expected,
    rademacher_grouped,
    rademacher_mc,
)
from chaincert.errors import InvalidInputError, SizeCapError
from chaincert.generators import chain_batches, exact_fixed_point, iid_generator, sample_chain
from chaincert.hypotheses import constant_grid, finalize_env, make_abs_loss, window_loss_values
from chaincert.metric import MetricSpec, SeedSpec, ZPoint, derive_stream, stream_keys
from chaincert.presets import load_preset

from test_generators import UNIT_BOX, make_affine_worked_example, make_halving, make_iid
from oracles import stream_draws


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
    n = EXACT_N_CAP + 1
    # every column distinct: 2^n grid points of group sums, past the cap
    distinct = LossMatrix(values=np.arange(2.0 * n).reshape(2, n) / (2 * n), ell_H=1.0)
    with pytest.raises(SizeCapError):
        rademacher_exact(distinct)
    with pytest.raises(SizeCapError):
        rademacher_grouped(*_column_groups(distinct.values[None])[0])
    est = rademacher_estimate(distinct, 64, SeedSpec(0))
    assert est.method == "mc" and est.draws == 64
    assert est == rademacher_mc(distinct, 64, SeedSpec(0))
    # one column repeated n times: n + 1 grid points, enumerated exactly
    repeated = LossMatrix(values=np.zeros((2, n)), ell_H=1.0)
    est = rademacher_estimate(repeated, 64, SeedSpec(0))
    assert (est.method, est.draws, est.se, est.se_symmetrized) == ("exact", n + 1, 0.0, 0.0)
    # at the cap, distinct columns give the whole grid of 2^n sign vectors
    small = LossMatrix(values=distinct.values[:, :EXACT_N_CAP], ell_H=1.0)
    est = rademacher_estimate(small, 64, SeedSpec(0))
    assert (est.method, est.draws) == ("exact", 1 << EXACT_N_CAP)
    assert est == rademacher_exact(small)
    # and one column repeated gives the grid of its one group's sum
    zeros = LossMatrix(values=np.zeros((2, EXACT_N_CAP)), ell_H=1.0)
    est = rademacher_estimate(zeros, 64, SeedSpec(0))
    assert (est.method, est.draws) == ("exact", EXACT_N_CAP + 1)


def _grid_points(values: np.ndarray) -> int:
    """prod_c (m_c + 1) over the counts m_c of the distinct columns, from
    np.unique and Python integers."""
    return math.prod(m + 1 for m in np.unique(values, axis=1, return_counts=True)[1].tolist())


def _grid_oracle(values: np.ndarray) -> tuple[float, float]:
    """The plain and symmetrized complexity in exact arithmetic, over the
    counts m_c of the distinct columns from np.unique: grid point (k_c)
    weighs prod_c C(m_c, k_c) / 2^n and scores sum_c L(c) (m_c - 2 k_c),
    with each float L(c) an integer over 2^1074."""
    columns, counts = np.unique(values, axis=1, return_counts=True)
    counts, n = counts.tolist(), values.shape[1]
    rows = [[int(Fraction(v) * 2**1074) for v in row] for row in columns.tolist()]
    plain = sym = 0
    for ks in itertools.product(*(range(m + 1) for m in counts)):
        weight = math.prod(math.comb(m, k) for m, k in zip(counts, ks))
        sums = [m - 2 * k for m, k in zip(counts, ks)]
        scores = [sum(map(operator.mul, row, sums)) for row in rows]
        plain += weight * max(scores)
        sym += weight * max(map(abs, scores))
    scale = 2**n * n * 2**1074
    return plain / scale, sym / scale


@pytest.mark.parametrize("name", ("iid_singleton", "iid_two", "iid_four"))
@pytest.mark.parametrize("n", (1, 2, EXACT_N_CAP - 1, EXACT_N_CAP))
def test_repeated_columns_at_short_windows_are_grouped(name, n):
    # the iid presets repeat states, so their short windows repeat columns,
    # and the grid of group sums stands for the 2^n sign vectors
    bundle = load_preset(name)
    for seed in range(4):
        mat = loss_matrix(bundle.cls, sample_chain(bundle.gen, n, SeedSpec(seed)), bundle.env)
        est, plain = rademacher_estimate(mat, 64, SeedSpec(0)), rademacher_exact(mat)
        points, (value, value_sym) = _grid_points(mat.values), _grid_oracle(mat.values)
        assert est.method == "exact" and est.draws == points
        assert points < 1 << n or n <= 2  # at most 8 atoms: longer windows repeat
        # the grouped sum is within 1e-15 of the exact value; the 2^(n-1)
        # terms of the plain one add their own rounding, up to 1.4e-15 apart
        assert est.value == pytest.approx(value, rel=1e-15, abs=0)
        assert est.value_symmetrized == pytest.approx(value_sym, rel=1e-15, abs=0)
        assert est.value == pytest.approx(plain.value, rel=2e-15, abs=0)
        assert est.value_symmetrized == pytest.approx(plain.value_symmetrized, rel=2e-15, abs=0)


def _duplicated_columns(rng, h: int, n: int, distinct: int) -> np.ndarray:
    """An (h, n) matrix whose n columns are drawn from ``distinct`` random ones."""
    base = rng.random((h, distinct))
    return base[:, rng.integers(0, distinct, n)]


def _by_doubling(vals: np.ndarray) -> tuple[float, float]:
    """Plain and symmetrized complexity over all 2^n sign vectors: the score
    table for the first k signs is doubled into the one for k + 1 (one copy
    adds L[:, k], the other subtracts it)."""
    scores = np.zeros((1, vals.shape[0]))
    for col in vals.T:
        scores = np.concatenate([scores + col, scores - col])
    n = vals.shape[1]
    return float(scores.max(axis=1).mean() / n), float(np.abs(scores).max(axis=1).mean() / n)


@pytest.mark.parametrize("h", (1, 3, 8))
def test_grouped_matches_plain_enumeration(h):
    # groups with odd and even counts, last among them too: an even last
    # count puts a slice of sign vectors at S = 0
    rng = np.random.default_rng(40 + h)
    last_parities = set()
    for n in range(1, 17):
        parts = rng.integers(1, 5, n)
        parts = parts[: np.searchsorted(np.cumsum(parts), n) + 1]
        parts[-1] -= parts.sum() - n
        for counts in ([n], [1] * n, parts.tolist(), parts[::-1].tolist()):
            counts = np.array(counts)
            columns = rng.random((h, counts.size))
            plain, sym = _by_doubling(np.repeat(columns, counts, axis=1))
            grouped = rademacher_grouped(columns, counts)
            assert grouped.value == pytest.approx(plain, abs=1e-12)
            assert grouped.value_symmetrized == pytest.approx(sym, abs=1e-12)
            assert grouped.method == "exact" and grouped.se == grouped.se_symmetrized == 0.0
            assert grouped.draws == math.prod(int(m) + 1 for m in counts)
            last_parities.add(int(counts[-1]) % 2)
    assert last_parities == {0, 1}


@pytest.mark.parametrize("h", (1, 3))
def test_grouped_tiling_leaves_the_value(h, monkeypatch):
    # tiles of 4 grid points: the low block stops early, and the high block
    # is scored in runs of a group's sums, with the groups after it fixed
    monkeypatch.setattr(complexity, "_CHUNK", 4)
    rng = np.random.default_rng(70 + h)
    for counts in ([1] * 10, [3, 5, 2, 4], [2, 7, 1, 6], [9, 3], [12]):
        counts = np.array(counts)
        columns = rng.random((h, counts.size))
        plain, sym = _by_doubling(np.repeat(columns, counts, axis=1))
        est = rademacher_grouped(columns, counts)
        assert est.value == pytest.approx(plain, abs=1e-12)
        assert est.value_symmetrized == pytest.approx(sym, abs=1e-12)


@pytest.mark.parametrize("n", (200, 20_000))
def test_grouped_one_distinct_column_closed_form(n):
    # score_h = L_h S with S the sum of n signs, so E max_h L_h S / n is
    # (max L - min L) E|S| / (2n), and E|S| = n C(n-1, (n-1)//2) / 2^(n-1)
    col = [0.1, 0.6, 0.3, 0.0]
    mean_abs = Fraction(n * math.comb(n - 1, (n - 1) // 2), 2 ** (n - 1))
    plain = float((Fraction(max(col)) - Fraction(min(col))) * mean_abs / (2 * n))
    sym = float(Fraction(max(col)) * mean_abs / n)  # E max_h |L_h S| / n
    mat = LossMatrix(values=np.repeat(np.array(col)[:, None], n, axis=1), ell_H=1.0)
    est = rademacher_estimate(mat, 4096, SeedSpec(0))
    assert (est.method, est.draws, est.se, est.se_symmetrized) == ("exact", n + 1, 0.0, 0.0)
    assert est.value == pytest.approx(plain, rel=1e-12)
    assert est.value_symmetrized == pytest.approx(sym, rel=1e-12)
    json.dumps(est.draws)  # 2^n would not fit: json refuses ints past 4,300 digits


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 4), n=st.integers(21, 60),
       distinct=st.integers(1, 4))
def test_grouped_value_ignores_column_order(seed, h, n, distinct):
    rng = np.random.default_rng(seed)
    vals = _duplicated_columns(rng, h, n, distinct)
    est = rademacher_estimate(LossMatrix(values=vals, ell_H=1.0), 64, SeedSpec(0))
    shuffled = vals[:, rng.permutation(n)]
    again = rademacher_estimate(LossMatrix(values=shuffled, ell_H=1.0), 64, SeedSpec(0))
    assert est.method == "exact" and again == est


def test_grouped_memory_stays_flat():
    # 18 single columns and one column three times over: 2^18 * 4 = 2^20
    # grid points at H = 64, which would hold 512 MB scored in one piece
    rng = np.random.default_rng(64)
    vals = rng.random((64, 19))[:, list(range(18)) + [18, 18, 18]]
    columns, counts = _column_groups(vals[None])[0]
    tracemalloc.start()
    try:
        est = rademacher_grouped(columns, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.draws == 1 << EXACT_N_CAP
    assert peak < 16.0 * 2**20


def test_grouped_memory_stays_flat_past_a_tile_wide_group():
    # counts 9,000 and 100: 9,001 * 101 = 909,101 grid points at H = 64; the
    # first group alone has more sums than a tile, so the high table would
    # hold about 235 MB built whole
    columns = np.random.default_rng(65).random((64, 2))
    tracemalloc.start()
    try:
        est = rademacher_grouped(columns, np.array([9_000, 100]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.draws == 9_001 * 101
    assert peak < 32.0 * 2**20


def test_mc_is_consistent_with_exact():
    rng = np.random.default_rng(11)
    vals = rng.random((4, 10))
    mat = LossMatrix(values=vals, ell_H=2.0)
    exact = rademacher_exact(mat).value
    est = rademacher_mc(mat, draws=60_000, seed=SeedSpec(21))
    assert est.se > 0
    assert abs(est.value - exact) <= 3.5 * est.se


def _raw_bits(seed: int, pairs: int, n: int) -> np.ndarray:
    """The bits of ``pairs`` sign vectors cut from one byte string, the
    oracle's stream words in order, 8 little-endian bytes each: bit t of a
    vector is bit t (most significant first) of its ceil(n/8) bytes, and the
    padding bits of the last byte are dropped."""
    row_bytes = (n + 7) // 8
    words = stream_draws(SeedSpec(seed), 0, -(-pairs * row_bytes // 8))
    raw = np.frombuffer(b"".join(w.to_bytes(8, "little") for w in words),
                        dtype=np.uint8)[:pairs * row_bytes]
    t = np.arange(n)
    return (raw.reshape(pairs, row_bytes)[:, t // 8] >> (7 - t % 8)) & 1


@pytest.mark.parametrize("n", (1, 7, 8, 9, 201))
def test_packed_bit_scores_match_direct_signs(n):
    vals = np.random.default_rng(n).random((5, n))
    # pair counts below one tile, exactly one tile, and across three tiles
    # with a partial last one
    for draws in (300, 2 * _TILE, 2 * (2 * _TILE + 7)):
        pairs = draws // 2  # one drawn vector sigma per pair (sigma, -sigma)
        tiles, spread, reach = [], [], []
        for start, bits in _sign_tiles(stream_keys([SeedSpec(n)]), pairs, n):
            # every tile is a view of one reused buffer, in stream order
            assert bits.dtype == float and 1 <= len(bits) <= _TILE
            assert start == sum(map(len, tiles))
            assert not tiles or np.shares_memory(bits, first)
            first = bits
            tiles.append(bits.copy())
            tile_spread, tile_reach = _pair_sums(_bit_scores(vals, bits))
            spread.append(tile_spread)
            reach.append(tile_reach)
        assert len(tiles) == -(-pairs // _TILE)
        bits = np.concatenate(tiles)
        assert np.array_equal(bits, _raw_bits(n, pairs, n))
        plain, sym = np.concatenate(spread) / (2 * n), np.concatenate(reach) / n
        # pair oracle: score sigma and -sigma directly and average the two maxima
        direct = (1.0 - 2.0 * bits) @ vals.T  # (pairs, H)
        np.testing.assert_allclose(
            plain, (direct.max(axis=1) / n + (-direct).max(axis=1) / n) / 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            sym, (np.abs(direct).max(axis=1) / n + np.abs(-direct).max(axis=1) / n) / 2,
            rtol=0, atol=1e-12)
        # the estimator takes exactly the centred mean of these pair statistics
        est = rademacher_mc(LossMatrix(values=vals, ell_H=1.0), draws=draws, seed=SeedSpec(n))
        assert est.value == plain[0] + (plain - plain[0]).mean()
        assert est.value_symmetrized == sym[0] + (sym - sym[0]).mean()


@pytest.mark.parametrize("n", (8, 21, 200, 500))
def test_mc_scores_one_unbroken_byte_stream(n, monkeypatch):
    # the tiles read the random stream exactly as one draw of every pair's
    # bytes would, whatever the row width; no product is compared, so this
    # holds on any BLAS
    import chaincert.complexity as complexity

    scored = []
    real = complexity._bit_scores

    def recording(values, bits):
        scored.append(bits.copy())
        return real(values, bits)

    monkeypatch.setattr(complexity, "_bit_scores", recording)
    pairs = 3 * _TILE + 5
    vals = np.random.default_rng(n).random((3, n))
    rademacher_mc(LossMatrix(values=vals, ell_H=1.0), draws=2 * pairs, seed=SeedSpec(n))
    assert len(scored) == 4
    assert np.array_equal(np.concatenate(scored), _raw_bits(n, pairs, n))


def _warm_mc_peak(mat: LossMatrix, draws: int) -> int:
    rademacher_mc(mat, draws, SeedSpec(1))
    tracemalloc.start()
    try:
        rademacher_mc(mat, draws, SeedSpec(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_is_one_tile():
    mat = LossMatrix(values=np.random.default_rng(4).random((4, 200)), ell_H=1.0)
    peak = _warm_mc_peak(mat, 4096)
    assert peak <= 1.5 * 2**20
    # 16x the draws: the scoring buffers stay one tile; only the two float64
    # statistics the estimator keeps per pair (its error is a second pass
    # over them) grow with the draw count, give or take a few small objects
    kept = 2 * 8 * (65_536 - 4096) // 2
    assert _warm_mc_peak(mat, 65_536) <= peak + kept + 2**16


def test_exact_is_frozen_on_lemma3_inputs():
    # affine_triangle loss matrices at n = EXACT_N_CAP, as lemma 3 scores them;
    # lemma 3's outputs stay byte-identical, so the values are frozen to the bit
    frozen = {
        0: ("0x1.e85ea13220ef3p-6", "0x1.e4667696a267bp-5"),
        1: ("0x1.ffc4a766bc3bap-6", "0x1.fab090e23f3c6p-5"),
        2: ("0x1.f2c9a86212463p-6", "0x1.eefdf15771740p-5"),
    }
    bundle = load_preset("affine_triangle")
    for seed, (plain, sym) in frozen.items():
        traj = sample_chain(bundle.gen, EXACT_N_CAP, SeedSpec(seed))
        est = rademacher_exact(loss_matrix(bundle.cls, traj, bundle.env))
        assert (est.value.hex(), est.value_symmetrized.hex()) == (plain, sym)
        assert est.se == est.se_symmetrized == 0.0


def test_mc_equals_exact_when_every_pair_scores_the_same():
    # n = 1: sigma and -sigma are the only two sign vectors, so every pair
    # statistic is the exact value of both forms
    mat = LossMatrix(values=np.array([[0.3], [0.9], [0.55]]), ell_H=1.0)
    exact = rademacher_exact(mat)
    est = rademacher_mc(mat, draws=50_000, seed=SeedSpec(1))
    assert est.value == exact.value and est.value_symmetrized == exact.value_symmetrized
    assert est.se == 0.0 and est.se_symmetrized == 0.0
    # one hypothesis: top = bottom, so every plain pair statistic is 0, the
    # exact value by sign symmetry
    one = LossMatrix(values=np.random.default_rng(30).random((1, 30)), ell_H=1.0)
    est = rademacher_mc(one, draws=4096, seed=SeedSpec(2))
    assert est.value == 0.0 and est.se == 0.0
    assert est.se_symmetrized > 0.0


@pytest.mark.parametrize("draws", (-4, 0, 1, 2, 3, 5, 4097, 4.0, True))
def test_mc_draw_count_rule(draws):
    mat = LossMatrix(values=np.random.default_rng(0).random((2, 30)), ell_H=1.0)
    with pytest.raises(InvalidInputError, match="even integer >= 4"):
        rademacher_mc(mat, draws=draws)


def test_mc_smallest_draw_count_has_an_error():
    mat = LossMatrix(values=np.random.default_rng(0).random((2, 30)), ell_H=1.0)
    est = rademacher_mc(mat, draws=4, seed=SeedSpec(3))
    assert est.draws == 4 and math.isfinite(est.se) and math.isfinite(est.se_symmetrized)


@pytest.mark.parametrize("n", (1, 5, 8, 12))
def test_mc_lands_near_exact_small_n(n):
    vals = np.random.default_rng(40 + n).random((4, n))
    mat = LossMatrix(values=vals, ell_H=1.0)
    exact = rademacher_exact(mat)
    est = rademacher_mc(mat, draws=50_000, seed=SeedSpec(n))
    assert abs(est.value - exact.value) <= 4.0 * est.se
    # antithetic pairs cut the plain form's variance only, so the
    # symmetrized form is held to its own, larger, standard error
    assert abs(est.value_symmetrized - exact.value_symmetrized) <= 4.0 * est.se_symmetrized


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
    traj = sample_chain(gen, 3, SeedSpec(0))
    mat = loss_matrix(cls, traj, env)
    assert mat.num_hypotheses == 3 and mat.num_states == 3
    assert mat.ell_H == env.ell_H and mat.values.dtype == float
    # states y = 1.0, 0.75, 0.625 against constants 0, 0.5, 1
    assert mat.values[0] == pytest.approx([1.0, 0.75, 0.625], abs=0)
    assert mat.values[2] == pytest.approx([0.0, 0.25, 0.375], abs=1e-15)
    with pytest.raises(InvalidInputError):
        LossMatrix(values=np.array([[0.4, 1.2]]), ell_H=1.0)
    with pytest.raises(InvalidInputError):
        LossMatrix(values=np.array([[-0.1]]), ell_H=1.0)


def test_expected_rademacher_starts_stationary():
    gen = make_iid()
    cls = constant_grid([0.0, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    est_st = rademacher_expected(cls, gen, env, n=8, outer=6, seed=SeedSpec(2))
    assert est_st.method == "expected_exact_stationary"
    assert 0.0 <= est_st.value <= 1.0
    # repeatability
    again = rademacher_expected(cls, gen, env, n=8, outer=6, seed=SeedSpec(2))
    assert again == est_st
    with pytest.raises(InvalidInputError):
        rademacher_expected(cls, gen, env, n=8, outer=1)


def test_expected_rademacher_mc_inner_for_large_n():
    cls = constant_grid([0.0, 1.0])
    # a continuous chain: every column distinct, so the grid is past the cap
    gen = make_affine_worked_example()
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    est = rademacher_expected(cls, gen, env, n=24, outer=4, mc_draws=512, seed=SeedSpec(7))
    assert est.method == "expected_mc_stationary"
    assert est.se >= 0.0
    # two atoms: two distinct columns, so every chain is enumerated exactly
    gen = make_iid()
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    est = rademacher_expected(cls, gen, env, n=24, outer=4, mc_draws=512, seed=SeedSpec(7))
    assert est.method == "expected_exact_stationary"
    assert est.se >= 0.0


def _central_binomial(m):
    """C(m, m/2) for even m, as the product of its prime powers (Legendre's
    formula), multiplied pairwise so the big factors stay balanced: equal to
    ``math.comb(m, m // 2)``, which takes seconds at m = 2^20."""
    k = m // 2
    sieve = np.ones(m + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    factors = [1]
    for p in np.flatnonzero(sieve).tolist():
        e, q = 0, p
        while q <= m:
            e += m // q - 2 * (k // q)
            q *= p
        factors.append(p**e)
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _mean_abs_sign_sum(n):
    """E|S_n| for a sum of n independent signs, from the central binomial
    coefficient: n C(n, n/2) / 2^n for even n, n C(n-1, (n-1)/2) / 2^(n-1)
    for odd n, as one correctly rounded big-integer division."""
    m = n - n % 2
    return n * _central_binomial(m) / 2**m


@pytest.mark.parametrize("n", (1, 2, 19, 20, 200, 201, 2**20 + 1))
def test_expected_rademacher_at_a_fixed_point_is_the_closed_form(n):
    bundle = load_preset("halving_map")
    gen, cls, env = bundle.gen, bundle.cls, bundle.env
    z_star = exact_fixed_point(gen)
    column = window_loss_values(cls, z_star.x[None], z_star.y[None], env)[:, 0]
    assert column.max() > column.min()  # the plain form is not trivially 0
    est = rademacher_expected(cls, gen, env, n, seed=SeedSpec(4))
    assert est.method == "exact_fixed_point"
    assert est.draws == n + 1
    assert est.se == 0.0 and est.se_symmetrized == 0.0
    mean_abs = _mean_abs_sign_sum(n)
    plain = float(column.max() - column.min()) * mean_abs / (2 * n)
    sym = float(column.max()) * mean_abs / n
    assert est.value == pytest.approx(plain, rel=1e-14, abs=0)
    assert est.value_symmetrized == pytest.approx(sym, rel=1e-14, abs=0)
    if n <= 201:
        m = n - n % 2
        assert _central_binomial(m) == math.comb(m, m // 2)
    if n <= 200:
        grouped = rademacher_grouped(column[:, None], np.array([n]))
        assert est.value == pytest.approx(grouped.value, rel=1e-15, abs=0)
        assert est.value_symmetrized == pytest.approx(grouped.value_symmetrized,
                                                      rel=1e-15, abs=0)


def test_expected_rademacher_of_a_one_atom_iid_law_is_the_closed_form():
    atom = ZPoint(0.7, 0.7)
    gen = iid_generator((atom,), [1.0], MetricSpec(1, 1, 2.0), UNIT_BOX, UNIT_BOX)
    cls = constant_grid([0.0, 0.5, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    est = rademacher_expected(cls, gen, env, 30)
    # losses 0.7, 0.2 and 0.3 at the atom
    assert est.method == "exact_fixed_point" and est.se == 0.0
    assert est.value == pytest.approx(0.5 * _mean_abs_sign_sum(30) / 60, rel=1e-14, abs=0)
    assert est.value_symmetrized == pytest.approx(0.7 * _mean_abs_sign_sum(30) / 30,
                                                  rel=1e-14, abs=0)


@pytest.mark.parametrize("name", ("affine_triangle", "labeled_affine", "iid_two"))
def test_expected_rademacher_averages_chains_off_one_atom_laws(name):
    bundle = load_preset(name)
    est = rademacher_expected(bundle.cls, bundle.gen, bundle.env, 8, outer=3,
                              seed=SeedSpec(1))
    assert est.method == "expected_exact_stationary"
    assert est.draws == 3


def test_expected_rademacher_reports_mixed_inner_estimators():
    # iid_four at n = 40: eight distinct columns, whose grid of group sums
    # fits under 2^EXACT_N_CAP points on lopsided windows only
    bundle = load_preset("iid_four")
    n, outer, seed = 40, 8, SeedSpec(1)
    est = rademacher_expected(bundle.cls, bundle.gen, bundle.env, n, outer=outer, seed=seed,
                              mc_draws=64)
    # the outer chains rademacher_expected scores, one at a time, each with
    # the estimator its own grid size picks
    fits, values = 0, []
    for traj in [traj for batch in chain_batches(bundle.gen, n, seed, outer, 1e-3)
                 for traj in batch]:
        mat = loss_matrix(bundle.cls, traj, bundle.env)
        fit = _grid_points(mat.values) <= 2**EXACT_N_CAP
        inner = rademacher_estimate(mat, 64, derive_stream(traj.seed, 1))
        assert inner.method == ("exact" if fit else "mc")
        fits += fit
        values.append(inner.value)
    assert 0 < fits < outer
    assert est.method == "expected_mixed_stationary" and est.draws == outer
    assert est.value == float(np.mean(values))


@pytest.mark.parametrize("name", ("halving_map", "affine_triangle"))
def test_expected_rademacher_rejects_bad_sizes_on_both_paths(name):
    bundle = load_preset(name)
    for bad_n in (True, False, 0, -3, 2.0, "4", None):
        with pytest.raises(InvalidInputError, match="^n must be a positive integer"):
            rademacher_expected(bundle.cls, bundle.gen, bundle.env, bad_n)
    for bad_outer in (1, True, 2.0):
        with pytest.raises(InvalidInputError, match="outer chains"):
            rademacher_expected(bundle.cls, bundle.gen, bundle.env, 8, outer=bad_outer)


def test_growth_bound_frozen_value():
    assert growth_bound(100, 16, 1.0) == pytest.approx(0.23548200450309308, abs=1e-12)
    assert growth_bound(100, 1, 1.0) == 0.0
    with pytest.raises(InvalidInputError):
        growth_bound(0, 4, 1.0)
    with pytest.raises(InvalidInputError):
        growth_bound(10, 4, -1.0)


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


def test_growth_bound_rejects_a_bool_size():
    for n, class_size, field in ((True, 4, "sample size"), (10, True, "class size")):
        with pytest.raises(InvalidInputError, match=f"^{field} must be a positive integer"):
            growth_bound(n, class_size, 1.0)
