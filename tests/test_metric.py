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
    dist,
    make_rng,
    pairwise_dist,
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
        assert 0.0 <= dab <= spec.diameter_bound
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
