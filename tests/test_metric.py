import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaincert
from chaincert.errors import InvalidInputError
from chaincert.metric import (
    MetricSpec,
    SeedSpec,
    ZPoint,
    derive_stream,
    derive_streams,
    dist,
    _triangle_pairs,
    make_rng,
    make_rngs,
    pairwise_dist,
    row_dist,
)


def test_dist_hand_values():
    spec4 = MetricSpec(dim_x=1, dim_y=1, kappa=4.0)
    assert dist(ZPoint(0.0, 0.0), ZPoint(1.0, 0.0), spec4) == 0.25
    spec2 = MetricSpec(dim_x=1, dim_y=1, kappa=2.0)
    assert dist(ZPoint(0.0, 0.0), ZPoint(1.0, 1.0), spec2) == 1.0


def test_zpoint_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        ZPoint(np.nan, 0.0)
    with pytest.raises(InvalidInputError):
        ZPoint(0.0, np.inf)


def test_dimension_mismatch_rejected():
    spec = MetricSpec(dim_x=2, dim_y=1, kappa=4.0)
    with pytest.raises(InvalidInputError):
        dist(ZPoint(0.0, 0.0), ZPoint([0.0, 0.0], 0.0), spec)


def test_kappa_bound_enforced():
    spec = MetricSpec(dim_x=1, dim_y=1, kappa=1.0)
    with pytest.raises(InvalidInputError):
        dist(ZPoint(0.0, 0.0), ZPoint(2.0, 0.0), spec)


def _random_points(rng, count, dim_x, dim_y, scale):
    xs = rng.uniform(-scale, scale, size=(count, dim_x))
    ys = rng.uniform(-scale, scale, size=(count, dim_y))
    return xs, ys


def test_metric_axioms_on_random_triples():
    # 10^4 triples: range, exact symmetry, triangle inequality to 1e-12.
    rng = np.random.default_rng(7)
    spec = MetricSpec(dim_x=2, dim_y=1, kappa=12.0)
    xs, ys = _random_points(rng, 3 * 10**4, 2, 1, 1.4)
    pts = [ZPoint(xs[i], ys[i]) for i in range(xs.shape[0])]
    for i in range(10**4):
        a, b, c = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        dab = dist(a, b, spec)
        dbc = dist(b, c, spec)
        dac = dist(a, c, spec)
        assert 0.0 <= dab <= 1.0
        assert dab == dist(b, a, spec)
        assert dac <= dab + dbc + 1e-12


def test_pairwise_matches_scalar_dist():
    rng = np.random.default_rng(11)
    spec = MetricSpec(dim_x=2, dim_y=2, kappa=10.0)
    xs, ys = _random_points(rng, 6, 2, 2, 1.0)
    mat = pairwise_dist(xs, ys, xs, ys, spec)
    for i in range(6):
        for j in range(6):
            zi, zj = ZPoint(xs[i], ys[i]), ZPoint(xs[j], ys[j])
            assert mat[i, j] == pytest.approx(dist(zi, zj, spec), abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_row_dist_rounds_like_the_norm_of_each_row(dim):
    rng = np.random.default_rng(dim)
    spec = MetricSpec(dim_x=dim, dim_y=dim, kappa=10.0 * dim)
    xs1, ys1 = _random_points(rng, 200, dim, dim, 1.0)
    xs2, ys2 = _random_points(rng, 200, dim, dim, 1.0)
    loop = [(float(np.linalg.norm(xs1[i] - xs2[i])) + float(np.linalg.norm(ys1[i] - ys2[i])))
            / spec.kappa for i in range(200)]
    assert row_dist(xs1, ys1, xs2, ys2, spec).tolist() == loop
    # a one-row side is paired with every row of the other
    anchor = ZPoint(xs2[0], ys2[0])
    assert row_dist(xs1, ys1, xs2[:1], ys2[:1], spec).tolist() == [
        dist(ZPoint(xs1[i], ys1[i]), anchor, spec) for i in range(200)]
    assert row_dist(xs1[:0], ys1[:0], xs2[:0], ys2[:0], spec).shape == (0,)


def test_triangle_pairs_match_the_row_major_loop():
    for m in range(12):
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for first, stride in ((0, 1), (0, 4), (3, 4), (10, 7)):
            i, j = _triangle_pairs(m, first, stride)
            assert list(zip(i.tolist(), j.tolist())) == pairs[first::stride]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_streams_are_reproducible(master, idx):
    a = make_rng(SeedSpec(master, idx)).integers(0, 2**63, size=8)
    b = make_rng(SeedSpec(master, idx)).integers(0, 2**63, size=8)
    assert np.array_equal(a, b)


def test_derived_streams_differ():
    root = SeedSpec(123)
    children = [derive_stream(root, i) for i in range(64)]
    assert len({c.stream_index for c in children}) == 64
    draws = {make_rng(c).integers(0, 2**63) for c in children}
    assert len(draws) == 64


def test_derivation_is_order_sensitive():
    root = SeedSpec(5)
    assert derive_stream(derive_stream(root, 1), 2) != derive_stream(derive_stream(root, 2), 1)


@pytest.mark.parametrize("seed", [SeedSpec(0), SeedSpec(77, 5), SeedSpec(2**64 - 1, 2**64 - 1)])
def test_derive_streams_equal_derive_stream(seed):
    for count in (0, 1, 40):
        streams = derive_streams(seed, count)
        reference = [derive_stream(seed, i) for i in range(count)]
        assert streams == reference
        assert [(hash(s), repr(s)) for s in streams] == [(hash(s), repr(s)) for s in reference]


def _draws(rng):
    # an odd count of 32-bit integers leaves half a 64-bit word buffered; a
    # power-of-two range rejects no draw, so a stale buffered half would show
    return (rng.random(5), rng.normal(size=3), rng.integers(0, 2**20, size=5),
            rng.integers(1, 12, size=3), rng.integers(0, 2**40, size=2))


def test_make_rngs_draws_equal_make_rng():
    rs = np.random.default_rng(2024)
    masters = [0, 2**32 - 1, 2**32, 2**64 - 1] + rs.integers(0, 2**63, size=3).tolist()
    indices = ([0, 1, 2**32 - 1, 2**32, 2**64 - 1] + rs.integers(2**32, 2**63, size=3).tolist()
               + rs.integers(2**63, 2**64, size=2, dtype=np.uint64).tolist())
    seeds = [SeedSpec(int(m), int(k)) for m in masters for k in indices]
    taken = []
    for seed, rng in zip(seeds, make_rngs(seeds), strict=True):
        taken.append(id(rng))
        for a, b in zip(_draws(rng), _draws(make_rng(seed))):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # every stream is set on one reused generator
    assert len(set(taken)) == 1


@pytest.mark.parametrize("count", [1, 15, 16, 64])
def test_make_rngs_on_derived_streams(count):
    # derived streams (indices from 2^32 on but for a 2^-32 chance) in pairs
    # between pairs of small indices, master seeds 0 and 2^64 - 1 in turn
    masters = (0, 2**64 - 1)
    derived = [derive_streams(SeedSpec(m), count) for m in masters]
    seeds = [derived[i % 2][i] if i % 4 < 2 else SeedSpec(masters[i % 2], i)
             for i in range(count)]
    for seed, rng in zip(seeds, make_rngs(seeds), strict=True):
        for a, b in zip(_draws(rng), _draws(make_rng(seed))):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_stream_draws_are_pinned():
    # a change that moves these draws changes every seeded result
    assert make_rng(SeedSpec(0, 0)).integers(0, 2**63, size=3).tolist() == [
        5879850648868882174, 4863246735688647928, 8593662936031458890]
    child = derive_stream(SeedSpec(7), 3)
    assert child == SeedSpec(7, 1203591567212739478)
    assert make_rng(child).integers(0, 2**63, size=3).tolist() == [
        4241821208553452325, 1337895168536506838, 6804185034146666800]


@pytest.mark.parametrize("a,b", [(0, 1), (5, 2**40), (2**64 - 1, 0)])
def test_swapped_seed_fields_draw_different_streams(a, b):
    assert not np.array_equal(make_rng(SeedSpec(a, b)).random(4),
                              make_rng(SeedSpec(b, a)).random(4))


_BOOL_CALLS = {
    "SeedSpec": lambda: SeedSpec(True, False),
    "SeedSpec stream_index": lambda: SeedSpec(0, True),
    "derive_stream": lambda: derive_stream(SeedSpec(3), True),
    "MetricSpec": lambda: MetricSpec(True, True, 1.0),
    "MetricSpec dim_y": lambda: MetricSpec(1, True, 1.0),
}


@pytest.mark.parametrize("call", _BOOL_CALLS.values(), ids=_BOOL_CALLS)
def test_a_bool_is_not_a_seed_or_a_dimension(call):
    with pytest.raises(InvalidInputError, match="got True"):
        call()


def test_uniform_draws_are_prefix_stable():
    # Chain sampling relies on rng.random(k + m)[k:] matching the suffix of a
    # longer fill from the same stream.
    full = make_rng(SeedSpec(99, 3)).random(50)
    head = make_rng(SeedSpec(99, 3)).random(20)
    assert np.array_equal(full[:20], head)


def test_streams_bit_identical_across_processes():
    code = (
        "from chaincert.metric import SeedSpec, make_rng;"
        "print(make_rng(SeedSpec(2024, 17)).integers(0, 2**63, size=5).tolist())"
    )
    # the child imports the same chaincert as this process
    env = dict(os.environ, PYTHONPATH=str(Path(chaincert.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    here = make_rng(SeedSpec(2024, 17)).integers(0, 2**63, size=5).tolist()
    assert out == str(here)
