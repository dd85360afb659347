import json
import math
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
    pairwise_dist,
    row_dist,
    stream_keys,
    stream_uniforms,
    stream_words,
)
from oracles import derived_index, sha256_hex, splitmix64, stream_draws, stream_key


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
    a = stream_words(stream_keys([SeedSpec(master, idx)]), 0, 8)
    b = stream_words(stream_keys([SeedSpec(master, idx)]), 0, 8)
    assert a.dtype == np.uint64 and np.array_equal(a, b)


def test_derived_streams_differ():
    root = SeedSpec(123)
    children = [derive_stream(root, i) for i in range(64)]
    assert len({c.stream_index for c in children}) == 64
    draws = set(stream_words(stream_keys(children), 0, 1)[:, 0].tolist())
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


@pytest.mark.parametrize("count", [-1, True, 2.0])
def test_derive_streams_rejects_a_bad_count(count):
    with pytest.raises(InvalidInputError, match="count must be an integer >= 0"):
        derive_streams(SeedSpec(3), count)


def test_splitmix64_known_answers():
    # SplitMix64's published outputs from states 0 and 1234567
    assert splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert splitmix64(1234567, 2) == [6457827717110365317, 3203168211198807973]
    # a key is the state the stream's counter starts from
    keys = np.array([0, 1234567], dtype=np.uint64)
    assert stream_words(keys, 0, 2).tolist() == [splitmix64(0, 2), splitmix64(1234567, 2)]
    assert stream_words(keys, 1, 1).tolist() == [[0x6E789E6AA1B965F4], [3203168211198807973]]


_EDGE_SEEDS = [SeedSpec(0), SeedSpec(0, 2**64 - 1), SeedSpec(2**64 - 1),
               SeedSpec(2**64 - 1, 2**64 - 1), SeedSpec(2**32, 7)]


def test_block_words_equal_one_stream_words():
    # every row of a block is its stream's own call, and the scalar oracle's
    # words, from the first draw and from counters near 2^64 (no overflow)
    seeds = _EDGE_SEEDS + derive_streams(SeedSpec(2**64 - 1), 11)
    keys = stream_keys(seeds)
    assert keys.tolist() == [stream_key(seed) for seed in seeds]
    for first, count in ((0, 9), (2**40 + 3, 5), (2**64 - 5, 4)):
        block = stream_words(keys, first, count)
        assert block.shape == (len(seeds), count) and block.dtype == np.uint64
        for i, seed in enumerate(seeds):
            assert np.array_equal(block[i], stream_words(stream_keys([seed]), first, count)[0])
            assert block[i].tolist() == stream_draws(seed, first, count)


@pytest.mark.parametrize("count", [1, 15, 16, 64])
def test_block_words_on_derived_streams(count):
    # derived streams in pairs between pairs of small indices, master seeds
    # 0 and 2^64 - 1 in turn; a row's uniforms are its words' top 53 bits
    masters = (0, 2**64 - 1)
    derived = [derive_streams(SeedSpec(m), count) for m in masters]
    seeds = [derived[i % 2][i] if i % 4 < 2 else SeedSpec(masters[i % 2], i)
             for i in range(count)]
    u = stream_uniforms(stream_keys(seeds), 3, 6)
    for i, seed in enumerate(seeds):
        assert u[i].tolist() == [(w >> 11) * 2.0**-53 for w in stream_draws(seed, 3, 6)]
    assert np.all((u >= 0.0) & (u < 1.0))


def test_stream_draws_are_pinned():
    # a change that moves these draws changes every seeded result
    assert stream_words(stream_keys([SeedSpec(0, 0)]), 0, 3).tolist() == [[
        2700287987874323094, 12421776552462850939, 1882008033261520683]]
    child = derive_stream(SeedSpec(7), 3)
    assert child == SeedSpec(7, 1203591567212739478)
    assert stream_words(stream_keys([child]), 0, 3).tolist() == [[
        8890225978161962452, 11206739075917038907, 330273337079831211]]


@pytest.mark.parametrize("a,b", [(0, 1), (5, 2**40), (2**64 - 1, 0)])
def test_swapped_seed_fields_draw_different_streams(a, b):
    keys = stream_keys([SeedSpec(a, b), SeedSpec(b, a)])
    u = stream_uniforms(keys, 0, 4)
    assert not np.array_equal(u[0], u[1])


# -- statistical sanity at fixed seeds ------------------------------------------
# Each bound is five standard deviations of its statistic under independent
# uniform words.


def _sanity_words():
    """64 derived streams of 4,096 words, and 64 streams on the consecutive
    keys 2^63 - 32, ..., 2^63 + 31."""
    derived = stream_words(stream_keys(derive_streams(SeedSpec(2024), 64)), 0, 4096)
    adjacent = np.arange(2**63 - 32, 2**63 + 32, dtype=np.uint64)
    return derived, stream_words(adjacent, 0, 4096)


def _corr(a, b):
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def test_uniform_mean_variance_and_byte_bins():
    for words in _sanity_words():
        u = (words >> 11) * 2.0**-53
        size = u.size
        assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / size)
        assert abs(u.var() - 1 / 12) < 5 * math.sqrt((1 / 80 - 1 / 144) / size)
        counts = np.bincount(words.astype("<u8").view(np.uint8).ravel(), minlength=256)
        expected = counts.sum() / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert abs(chi2 - 255) < 5 * math.sqrt(2 * 255)


def test_adjacent_keys_and_counters_are_uncorrelated():
    for words in _sanity_words():
        u = (words >> 11) * 2.0**-53
        bound = 5 / math.sqrt(u[:-1].size)
        assert abs(_corr(u[:-1], u[1:])) < bound  # stream i against stream i + 1
        assert abs(_corr(u[:, :-1], u[:, 1:])) < bound  # draw t against draw t + 1


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
    # a stream's draw t does not depend on how many draws are taken with it,
    # nor on where the block starts
    keys = stream_keys([SeedSpec(99, 3), SeedSpec(5)])
    full = stream_uniforms(keys, 0, 50)
    assert np.array_equal(full[:, :20], stream_uniforms(keys, 0, 20))
    assert np.array_equal(full[:, 17:31], stream_uniforms(keys, 17, 14))


def test_streams_bit_identical_across_processes():
    code = (
        "from chaincert.metric import SeedSpec, stream_keys, stream_words;"
        "print(stream_words(stream_keys([SeedSpec(2024, 17)]), 0, 5).tolist())"
    )
    # the child imports the same chaincert as this process
    env = dict(os.environ, PYTHONPATH=str(Path(chaincert.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    here = stream_words(stream_keys([SeedSpec(2024, 17)]), 0, 5).tolist()
    assert out == str(here)


_DIGESTS = """
import json, sys
if sys.argv[1] == "fallback":  # no built-in SHA-256: metric takes hashlib's
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from chaincert import metric
from chaincert.config import canonical_dict, canonical_json, config_digest, parse_config
from chaincert.metric import SeedSpec, derive_streams, stream_keys
cfg = parse_config({"preset": "affine_triangle", "n": 40, "epsilon": 0.1, "trials": 4})
print(json.dumps({
    "module": metric.sha256.__module__,
    "keys": stream_keys([SeedSpec(0), SeedSpec(77, 5), SeedSpec(2**64 - 1, 2**64 - 1)]).tolist(),
    "children": [s.stream_index for s in derive_streams(SeedSpec(5, 3), 4)],
    "canonical": canonical_json(canonical_dict(cfg)),
    "digest": config_digest(cfg),
}))
"""


def test_hashlib_fallback_gives_the_same_digests():
    # without CPython's built-in SHA-256 module, metric falls back to
    # hashlib's; stream keys, child indices and config digests stay the same
    env = dict(os.environ, PYTHONPATH=str(Path(chaincert.__file__).parents[1]))
    runs = {mode: json.loads(subprocess.run(
        [sys.executable, "-c", _DIGESTS, mode], capture_output=True, text=True, check=True,
        env=env).stdout) for mode in ("default", "fallback")}
    assert runs["fallback"].pop("module") == "_hashlib"
    assert runs["default"].pop("module") in ("_sha2", "_sha256")
    assert runs["default"] == runs["fallback"]
    seeds = [SeedSpec(0), SeedSpec(77, 5), SeedSpec(2**64 - 1, 2**64 - 1)]
    assert runs["default"]["keys"] == [stream_key(seed) for seed in seeds]
    assert runs["default"]["children"] == [derived_index(SeedSpec(5, 3), i) for i in range(4)]
    assert runs["default"]["digest"] == sha256_hex(runs["default"]["canonical"])
