import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert import generators
from chaincert.config import build_generator
from chaincert.errors import (
    AssumptionViolationError,
    GeneratorContractError,
    InvalidInputError,
)
from chaincert.generators import (
    BallBound,
    BoxBound,
    CategoricalTheta,
    _box_muller,
    _chain_bundle,
    _final_states,
    _step_block,
    affine_ifs_generator,
    analytic_lip_factor,
    burn_in_steps,
    callable_label,
    chain_batches,
    deterministic_map_generator,
    exact_fixed_point,
    identity_label,
    iid_generator,
    invariant_sampler,
    labeled_lipschitz_generator,
    linear_label,
    sample_chain,
    sample_stationary_chain,
)
from chaincert.metric import (
    MetricSpec,
    SeedSpec,
    ZPoint,
    derive_stream,
    derive_streams,
    dist,
    stream_keys,
    stream_uniforms,
)
from chaincert.presets import load_preset, preset_names
from oracles import empirical_contraction_probe, stream_draws

UNIT_BOX = BoxBound([0.0], [1.0])


def halving_map(x, theta):
    return 0.5 * x + 0.25


def make_halving():
    return deterministic_map_generator(
        governing_map=halving_map,
        lip_x=0.5,
        label_map=identity_label(),
        metric=MetricSpec(1, 1, 2.0),
        x_bound=UNIT_BOX,
        y_bound=UNIT_BOX,
        z0=ZPoint(1.0, 1.0),
    )


def make_iid():
    atoms = (ZPoint(0.2, 0.2), ZPoint(0.7, 0.7))
    return iid_generator(atoms, [0.5, 0.5], MetricSpec(1, 1, 2.0), UNIT_BOX, UNIT_BOX)


def make_affine_worked_example():
    # scalar maps with norms 0.5 and 0.3, shifts of norm 0.1, state ball radius 1
    return affine_ifs_generator(
        mats=[[[0.5]], [[0.3]]],
        vecs=[[0.1], [-0.1]],
        weights=[0.5, 0.5],
        label_map=identity_label(),
        attractor_radius=0.9,
        z0_x=[0.5],
    )


def test_halving_path_frozen():
    gen = make_halving()
    traj = sample_chain(gen, n=3, seed=SeedSpec(1))
    assert traj.xs[:, 0].tolist() == [1.0, 0.75, 0.625]
    assert traj.ys[:, 0].tolist() == [1.0, 0.75, 0.625]


def test_halving_fixed_point_and_factor():
    gen = make_halving()
    assert analytic_lip_factor(gen) == 0.5
    fp = exact_fixed_point(gen)
    assert abs(fp.x[0] - 0.5) < 1e-12 and abs(fp.y[0] - 0.5) < 1e-12


@pytest.mark.parametrize("point, error, match", [
    (ZPoint(0.3, 0.3), AssumptionViolationError, "moves it by 0.1000"),  # one step: 0.4
    (ZPoint(5.0, 5.0), GeneratorContractError, "outside the declared bounds"),
    (ZPoint([0.5, 0.5], [0.5]), InvalidInputError, "dimensions"),  # 2-d on a 1-d chain
])
def test_declared_fixed_point_is_checked(point, error, match):
    with pytest.raises(error, match=match):
        dataclasses.replace(make_halving(), fixed_point=point)


def test_only_a_deterministic_map_takes_a_fixed_point():
    with pytest.raises(InvalidInputError, match="needs a deterministic map"):
        dataclasses.replace(make_iid(), fixed_point=ZPoint(0.2, 0.2))


def test_a_one_atom_governing_map_takes_a_fixed_point():
    # whichever constructor built it, a governing map over one atom is a
    # deterministic map; over two atoms it is not, even at a common fixed point
    def one_map(atoms):
        k = len(atoms)
        return labeled_lipschitz_generator(
            governing_map=halving_map, theta_atoms=atoms, weights=np.full(k, 1 / k),
            lip_x_per_theta=[0.5] * k, label_map=identity_label(), metric=MetricSpec(1, 1, 2.0),
            x_bound=UNIT_BOX, y_bound=UNIT_BOX, z0=ZPoint(1.0, 1.0),
        )
    gen = dataclasses.replace(one_map(("a",)), fixed_point=ZPoint(0.5, 0.5))
    assert exact_fixed_point(gen) == ZPoint(0.5, 0.5)
    with pytest.raises(InvalidInputError, match="needs a deterministic map"):
        dataclasses.replace(one_map(("a", "b")), fixed_point=ZPoint(0.5, 0.5))


def test_affine_worked_example_factor():
    gen = make_affine_worked_example()
    # mean norm 0.4, label constant 1, kappa 4: 0.4 * 2 / 4
    assert analytic_lip_factor(gen) == pytest.approx(0.2, abs=1e-15)
    assert gen.metric.kappa == 4.0


def test_iid_step_replaces_state_with_atom():
    gen = make_iid()
    xs, ys = _step_block(gen, [0.2], [0.2], np.array([[1]]))
    out = ZPoint(xs[0, 1], ys[0, 1])
    assert out == ZPoint(0.7, 0.7)
    assert analytic_lip_factor(gen) == 0.0


def test_iid_states_are_atoms_bit_exact():
    gen = make_iid()
    traj = sample_chain(gen, n=40, seed=SeedSpec(5))
    atom_x = {a.x[0] for a in gen.theta.atoms}
    assert set(traj.xs[1:, 0].tolist()) <= atom_x
    for t in range(1, 40):
        assert ZPoint(traj.xs[t], traj.ys[t]) in gen.theta.atoms


def test_chain_is_deterministic_given_seed():
    gen = make_affine_worked_example()
    a = sample_chain(gen, n=25, seed=SeedSpec(9, 2))
    b = sample_chain(gen, n=25, seed=SeedSpec(9, 2))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = sample_chain(gen, n=25, seed=SeedSpec(9, 3))
    assert not np.array_equal(a.xs, c.xs)


def _oracle_uniforms(seed, first, count):
    """Uniforms first, ..., first + count - 1 of a stream, from the scalar
    SplitMix64 oracle: each word's top 53 bits times 2^-53."""
    return np.array([(w >> 11) * 2.0**-53 for w in stream_draws(seed, first, count)])


def _replay(gen, traj, k, offset=0):
    """The tail of ``traj`` from its state k, stepped again from that state
    alone under the draws its stream gave from position ``offset + k`` on."""
    u = _oracle_uniforms(traj.seed, offset + k, len(traj) - 1 - k)
    xs, ys = _step_block(gen, traj.xs[k], traj.ys[k], gen.theta.indices_from_uniform(u)[None])
    return xs[0], ys[0]


def test_suffix_regeneration_bit_exact():
    # the Markov property: state k and the stream's later draws fix the tail
    for gen in (make_halving(), make_iid(), make_affine_worked_example()):
        traj = sample_chain(gen, n=20, seed=SeedSpec(42))
        for k in (0, 1, 7, 19):
            xs, ys = _replay(gen, traj, k)
            assert _same_bits(xs, traj.xs[k:]) and _same_bits(ys, traj.ys[k:])


def test_burn_in_steps():
    assert burn_in_steps(make_halving(), 1e-3) == 10
    assert burn_in_steps(make_iid(), 1e-3) == 1
    with pytest.raises(InvalidInputError):
        burn_in_steps(make_iid(), 0.0)


def test_probe_within_analytic_factor():
    halving = make_halving()
    value = empirical_contraction_probe(halving, num_pairs=32, chain_len=8, seed=SeedSpec(3))
    assert 0.0 < value <= 0.5 + 1e-9
    assert value == pytest.approx(0.5, abs=1e-9)
    assert empirical_contraction_probe(make_iid(), num_pairs=16, seed=SeedSpec(3)) == 0.0


def test_probe_flags_optimistic_declaration():
    # kappa = 4 with an identity label: graph pairs contract at the mean matrix
    # norm (0.4), which exceeds the declared factor 0.2; the probe must say so.
    gen = make_affine_worked_example()
    with pytest.raises(GeneratorContractError):
        empirical_contraction_probe(gen, num_pairs=16, chain_len=6, seed=SeedSpec(8))


def test_invariant_sampler_iid_one_step():
    gen = make_iid()
    measure = invariant_sampler(gen, tol=1e-3, count=50, seed=SeedSpec(11))
    assert len(measure) == 50
    assert all(a in gen.theta.atoms for a in measure.atoms)


def test_invariant_sampler_deterministic_hits_fixed_point():
    gen = make_halving()
    measure = invariant_sampler(gen, tol=1e-13, count=8, seed=SeedSpec(12))
    for a in measure.atoms:
        assert abs(a.x[0] - 0.5) < 1e-12


def test_stationary_chain_slicing():
    gen = make_halving()
    traj = sample_stationary_chain(gen, n=5, tol=1e-3, seed=SeedSpec(2))
    assert len(traj) == 5
    assert abs(traj.xs[0, 0] - 0.5) < 1e-3 * 2  # burned in


def test_image_escape_raises():
    def runaway(x, theta):
        return x + 0.8

    gen = deterministic_map_generator(
        governing_map=runaway,
        lip_x=0.0,
        label_map=identity_label(),
        metric=MetricSpec(1, 1, 2.0),
        x_bound=UNIT_BOX,
        y_bound=UNIT_BOX,
        z0=ZPoint(0.1, 0.1),
    )
    with pytest.raises(GeneratorContractError):
        sample_chain(gen, n=3, seed=SeedSpec(0))


def _unit_box_map_generator(governing_map):
    return deterministic_map_generator(
        governing_map=governing_map,
        lip_x=0.0,
        label_map=identity_label(),
        metric=MetricSpec(1, 1, 2.0),
        x_bound=UNIT_BOX,
        y_bound=UNIT_BOX,
        z0=ZPoint(0.25, 0.25),
    )


def test_escape_names_first_escaping_state_box():
    # 0.25, 0.75, then 1.25 leaves the unit box at step 2; 1.75 ... follow
    gen = _unit_box_map_generator(lambda x, theta: x + 0.5)
    with pytest.raises(GeneratorContractError) as err:
        sample_chain(gen, n=6, seed=SeedSpec(0))
    assert "x=[1.25], y=[1.25]" in str(err.value)
    assert "1.75" not in str(err.value)


def test_escape_names_first_escaping_state_ball():
    # x' = 0.5 x + (0.5, 0.5) from the origin: (0.5, 0.5), then (0.75, 0.75)
    # of norm 1.06 leaves the unit ball at step 2 with both coordinates below one
    ball = BallBound(1.0, 2)
    gen = labeled_lipschitz_generator(
        governing_map=lambda x, theta: x @ theta[0].T + theta[1],
        theta_atoms=[(0.5 * np.eye(2), np.array([0.5, 0.5]))],
        weights=[1.0],
        lip_x_per_theta=[0.5],
        label_map=identity_label(),
        metric=MetricSpec(2, 2, 4.0),
        x_bound=ball,
        y_bound=ball,
        z0=ZPoint([0.0, 0.0], [0.0, 0.0]),
    )
    with pytest.raises(GeneratorContractError) as err:
        sample_chain(gen, n=6, seed=SeedSpec(0))
    assert "x=[0.75, 0.75], y=[0.75, 0.75]" in str(err.value)
    assert "0.875" not in str(err.value)


def test_bound_masks_and_one_point_tests_agree_at_the_limit():
    # rows one ulp inside and one ulp outside each bound's limit, stacked
    # with rows of random direction one ulp of scale around the sphere
    ball = BallBound(0.75, 3)
    limit = 0.75 * (1.0 + generators._BOUND_SLACK)
    rows = [[v, 0.0, 0.0] for v in (np.nextafter(limit, 0.0), limit, np.nextafter(limit, 1.0))]
    for u in np.random.default_rng(3).normal(size=(64, 3)):
        scale = limit / np.linalg.norm(u)
        rows += [u * np.nextafter(scale, 0.0), u * scale, u * np.nextafter(scale, 2.0)]
    rows = np.array(rows)
    mask = ball.inside(rows)
    assert mask.tolist() == [ball.contains(row) for row in rows]
    assert mask[:3].tolist() == [True, True, False]
    assert 0 < mask[3:].sum() < len(rows) - 3

    box = BoxBound([0.0, -1.0], [1.0, 2.0])
    pad = generators._BOUND_SLACK * np.maximum(1.0, box.hi - box.lo)
    rows = []
    for edge, out in ((box.hi + pad, np.inf), (box.lo - pad, -np.inf)):
        rows += [np.nextafter(edge, -out), edge, np.nextafter(edge, out)]
    mask = box.inside(np.array(rows))
    assert mask.tolist() == [box.contains(row) for row in rows]
    assert mask.tolist() == [True, True, False] * 2


def test_escape_reported_when_map_then_fails():
    def partial(x, theta):
        if x[0] > 1.0:
            raise ValueError("map undefined outside the unit interval")
        return x + 0.5

    # 1.25 escapes at step 2, and the map raises when applied to it
    with pytest.raises(GeneratorContractError) as err:
        sample_chain(_unit_box_map_generator(partial), n=6, seed=SeedSpec(0))
    assert "x=[1.25], y=[1.25]" in str(err.value)

    def broken(x, theta):
        raise ValueError("broken map")

    # with no escape before it, the map's own error is what surfaces
    with pytest.raises(ValueError, match="broken map"):
        sample_chain(_unit_box_map_generator(broken), n=6, seed=SeedSpec(0))


def test_a1_rejected_at_construction():
    with pytest.raises(AssumptionViolationError):
        affine_ifs_generator(
            mats=[[[1.0]]], vecs=[[0.1]], weights=[1.0],
            label_map=identity_label(), attractor_radius=0.9, z0_x=[0.0],
        )
    with pytest.raises(AssumptionViolationError):
        deterministic_map_generator(
            governing_map=halving_map, lip_x=1.2, label_map=identity_label(),
            metric=MetricSpec(1, 1, 2.0), x_bound=UNIT_BOX, y_bound=UNIT_BOX,
            z0=ZPoint(1.0, 1.0),
        )


def test_theta_weight_validation():
    with pytest.raises(InvalidInputError):
        CategoricalTheta((1, 2), np.array([0.6, 0.6]))
    with pytest.raises(InvalidInputError):
        CategoricalTheta((1, 2), np.array([1.2, -0.2]))


def test_trajectory_slice_offsets():
    gen = make_iid()
    traj = sample_chain(gen, n=12, seed=SeedSpec(77))
    part = traj.slice(4, 9)
    assert len(part) == 5 and part.seed == traj.seed
    assert np.array_equal(part.xs, traj.xs[4:9])
    # a slice keeps its parent's stream, so its draws start at the slice offset
    xs, ys = _replay(gen, part, 0, offset=4)
    assert _same_bits(xs, part.xs) and _same_bits(ys, part.ys)


@pytest.mark.parametrize("name", preset_names())
def test_stationary_slice_replays_from_its_seed(name):
    gen = load_preset(name).gen
    traj = sample_stationary_chain(gen, 12, 1e-3, SeedSpec(23))
    b = burn_in_steps(gen, 1e-3)
    for k in (0, 5, 11):
        xs, ys = _replay(gen, traj, k, offset=b)
        assert _same_bits(xs, traj.xs[k:]) and _same_bits(ys, traj.ys[k:])


# -- the lockstep stepper against a per-row reference ----------------------------


def _reference_paths(gen, n, seeds, label_row):
    """Each seed's path stepped one state at a time, as the chain is defined:
    mat @ x + vec for the affine IFS, the governing map on the lone row for
    the other maps, and ``label_row`` for the label."""
    paths = []
    for seed in seeds:
        idx = gen.theta.indices_from_uniform(_oracle_uniforms(seed, 0, n - 1))
        xs, ys = [gen.z0.x], [gen.z0.y]
        for i in idx:
            atom = gen.theta.atoms[i]
            if gen.governing_map is None:
                x, y = atom.x, atom.y
            else:
                if gen.governing_map is generators._affine_map:
                    x = atom[0] @ xs[-1] + atom[1]
                else:
                    x = np.asarray(gen.governing_map(xs[-1], atom), dtype=float).reshape(-1)
                y = label_row(x)
            xs.append(x)
            ys.append(y)
        paths.append((np.array(xs), np.array(ys)))
    return paths


def _row_label(gen):
    lab = gen.label_map
    if lab is None or lab.kind == "identity":
        return lambda x: x
    return lambda x: lab.weight @ x + lab.bias


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches_reference(gen, n, count, label_row):
    seeds = [derive_stream(SeedSpec(31), c) for c in range(count)]
    paths = [traj for batch in chain_batches(gen, n, SeedSpec(31), count) for traj in batch]
    assert len(paths) == count
    for traj, seed, (xs, ys) in zip(paths, seeds, _reference_paths(gen, n, seeds, label_row)):
        assert traj.seed == seed
        assert _same_bits(traj.xs, xs) and _same_bits(traj.ys, ys)
    return paths


@pytest.mark.parametrize("name", preset_names())
def test_lockstep_matches_per_row_reference_on_presets(name):
    gen = load_preset(name).gen
    _assert_matches_reference(gen, 60, 7, _row_label(gen))
    _assert_matches_reference(gen, 12, 20, _row_label(gen))
    # the stationary form is the burned-in tail of the same paths
    b = burn_in_steps(gen, 1e-3)
    seeds = [derive_stream(SeedSpec(5), c) for c in range(4)]
    reference = _reference_paths(gen, b + 20, seeds, _row_label(gen))
    batches = list(chain_batches(gen, 20, SeedSpec(5), 4, 1e-3))
    assert [len(batch) for batch in batches] == [4]  # one stepped block
    for traj, seed, (xs, ys) in zip(batches[0], seeds, reference):
        assert traj.seed == seed
        assert _same_bits(traj.xs, xs[b:]) and _same_bits(traj.ys, ys[b:])


# -- batched chain starts against one chain at a time ---------------------------


def _reference_bundle(gen, steps, count, seed):
    """``_chain_bundle`` one chain at a time: each chain's x start from its
    stream alone (``z0``'s x under iid draws, which never read x) and
    ``z0``'s y, which no step reads, then the oracle's uniforms past the x
    and y start words."""
    x0, y0, uniforms = [], [], []
    first = gen.x_bound.start_words + gen.y_bound.start_words
    iid = gen.governing_map is None
    for i in range(count):
        stream = derive_stream(seed, i)
        x0.append(gen.z0.x if iid else gen.x_bound.draw_starts(stream_keys([stream]))[0])
        y0.append(gen.z0.y)
        uniforms.append(_oracle_uniforms(stream, first, steps))
    idx = gen.theta.indices_from_uniform(np.array(uniforms).reshape(count, steps))
    return (idx, *_final_states(gen, np.array(x0), np.array(y0), idx))


def _assert_bundle_matches_reference(gen, steps, count, seed):
    got = _chain_bundle(gen, steps, count, seed)
    for a, b in zip(got, _reference_bundle(gen, steps, count, seed), strict=True):
        assert _same_bits(a, b)


@pytest.mark.parametrize("name", preset_names())
def test_batched_starts_match_per_chain_starts_on_presets(name):
    gen = load_preset(name).gen
    for seed in (SeedSpec(0), SeedSpec(2**40 + 3, 9)):
        for count in (1, 7, 40, 64, 200):
            _assert_bundle_matches_reference(gen, 6, count, seed)


def _overshooting_label_generator():
    # starts fill x in [-1, 1], whose label 2x leaves the y bound [-1, 1] for
    # |x| > 1/2; after one step |x| <= 0.35 and every label lies inside
    return labeled_lipschitz_generator(
        governing_map=lambda x, theta: 0.25 * x + theta, theta_atoms=(-0.1, 0.1),
        weights=[0.5, 0.5], lip_x_per_theta=[0.25, 0.25],
        label_map=linear_label([[2.0]], [0.0]), metric=MetricSpec(1, 1, 4.0),
        x_bound=BoxBound([-1.0], [1.0]), y_bound=BoxBound([-1.0], [1.0]),
        z0=ZPoint(0.0, 0.0),
    )


def test_batched_starts_replay_chains_whose_label_leaves_the_y_bound():
    gen = _overshooting_label_generator()
    # no step reads y, so a start whose label would leave the y bound steps
    # like any other
    for count in (1, 7, 40):
        _assert_bundle_matches_reference(gen, 5, count, SeedSpec(3))


def _scalar_start(bound, seed, first=0):
    """One start by the scalar formulas on the oracle's uniforms: in a box
    lo + (hi - lo) u; in a ball Box-Muller normals by the math module,
    normalized, times radius * u^(1/dim)."""
    u = _oracle_uniforms(seed, first, bound.start_words).tolist()
    if isinstance(bound, BoxBound):
        return bound.lo + (bound.hi - bound.lo) * np.array(u)
    normals = []
    for k in range(0, len(u) - 1, 2):
        r = math.sqrt(-2.0 * math.log(1.0 - u[k]))
        normals += [r * math.cos(2.0 * math.pi * u[k + 1]), r * math.sin(2.0 * math.pi * u[k + 1])]
    direction = np.array(normals[:bound.dim])
    norm = math.sqrt(direction @ direction)
    if norm == 0.0:
        direction, norm = np.ones(bound.dim), math.sqrt(bound.dim)
    return direction / norm * (bound.radius * u[-1] ** (1.0 / bound.dim))


def _box_bounds(dim):
    corners = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    widths = st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)
    return st.builds(lambda lo, w: BoxBound(lo, np.add(lo, w)), corners, widths)


STATE_BOUNDS = st.one_of(st.integers(1, 5).flatmap(_box_bounds),
                         st.builds(BallBound, st.floats(1e-3, 1e3), st.integers(1, 6)))


@settings(max_examples=60, deadline=None)
@given(bound=STATE_BOUNDS, first=st.integers(0, 12), count=st.integers(1, 40),
       master=st.integers(0, 2**64 - 1))
def test_bound_draws_match_one_stream_at_a_time(bound, first, count, master):
    seeds = [derive_stream(SeedSpec(master), i) for i in range(count)]
    starts = bound.draw_starts(stream_keys(seeds), first)
    assert starts.shape == (count, bound.dim)
    for i, seed in enumerate(seeds):
        assert _same_bits(bound.draw_starts(stream_keys([seed]), first)[0], starts[i])
        assert _same_bits(_scalar_start(bound, seed, first), starts[i])


def test_ball_draws_replace_a_zero_direction_by_ones(monkeypatch):
    # u1 = 0 gives a Box-Muller radius of 0, so rows 1 and 3 draw a zero direction
    ball = BallBound(2.0, 3)
    keys = stream_keys([SeedSpec(8, i) for i in range(4)])
    real = generators.stream_uniforms

    def zero_radii(keys, first, count):
        u = real(keys, first, count)
        u[1::2, :-1:2] = 0.0
        return u

    monkeypatch.setattr(generators, "stream_uniforms", zero_radii)
    starts = ball.draw_starts(keys)
    u = real(keys, 0, ball.start_words)
    for i in (1, 3):
        assert _same_bits(starts[i], np.ones(3) / math.sqrt(3) * (2.0 * u[i, -1] ** (1 / 3)))
    for i in (0, 2):
        assert _same_bits(starts[i], _scalar_start(ball, SeedSpec(8, i)))


def test_box_muller_normals_at_fixed_seeds():
    # 64 streams of 4,096 uniforms give 131,072 normals; each bound is five
    # standard deviations of its statistic under independent normals
    u = stream_uniforms(stream_keys(derive_streams(SeedSpec(2024), 64)), 0, 4096)
    z = _box_muller(u)
    assert z.shape == u.shape
    for part in (z, z[:, 0::2], z[:, 1::2]):  # all, the cos and the sin halves
        assert abs(part.mean()) < 5 / math.sqrt(part.size)
        assert abs(part.var() - 1.0) < 5 * math.sqrt(2 / part.size)
    assert abs(np.corrcoef(z[:, 0::2].ravel(), z[:, 1::2].ravel())[0, 1]) < 5 / math.sqrt(z.size / 2)
    # the scalar formula on the oracle's uniforms, bit for bit
    seed = derive_stream(SeedSpec(2024), 63)
    scalar = []
    for u1, u2 in zip(*[iter(_oracle_uniforms(seed, 0, 8).tolist())] * 2):
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        scalar += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    assert z[63, :8].tolist() == scalar


def test_ball_bound_rejects_a_bool_dimension():
    with pytest.raises(InvalidInputError, match="dimension must be a positive integer"):
        BallBound(1.0, True)


def test_box_bound_rejects_a_width_past_the_float_range():
    # starts are lo + (hi - lo) u, which needs a finite width
    with pytest.raises(InvalidInputError, match="finite width"):
        BoxBound([0.0, -1e308], [1.0, 1e308])
    box = BoxBound([-1e307], [1e307])
    assert box.contains(box.draw_starts(stream_keys([SeedSpec(1)]))[0])


def _random_affine_block(rng, dim, label):
    mats = []
    for _ in range(4):
        mat = rng.normal(size=(dim, dim))
        mats.append((mat * (0.7 / np.linalg.norm(mat, 2))).tolist())
    vecs = rng.normal(size=(4, dim))
    return {"kind": "affine_ifs", "mats": mats, "vecs": vecs.tolist(),
            "attractor_radius": 3.0 * float(np.linalg.norm(vecs, axis=1).max()),
            "z0_x": [0.1] * dim, "label": label}


def test_lockstep_matches_per_row_reference_on_random_affine_ifs():
    rng = np.random.default_rng(17)
    linear = {"kind": "linear", "weight": (0.3 * rng.normal(size=(2, 3))).tolist(),
              "bias": [0.1, -0.2]}
    gen = build_generator(_random_affine_block(rng, 3, linear))
    _assert_matches_reference(gen, 80, 9, _row_label(gen))

    # a nearest-row label, a block map that is not affine, built directly
    table_x = 0.5 * rng.normal(size=(9, 3))
    table_y = 0.2 * rng.normal(size=(9, 2))

    def nearest_rows(xs):
        d2 = ((xs[:, None, :] - table_x[None, :, :]) ** 2).sum(axis=2)
        return table_y[np.argmin(d2, axis=1)]

    block = _random_affine_block(rng, 3, None)
    gen = affine_ifs_generator(
        mats=list(np.asarray(block["mats"])), vecs=list(np.asarray(block["vecs"])),
        weights=np.full(4, 0.25),
        label_map=callable_label(nearest_rows, 1.0),
        attractor_radius=block["attractor_radius"], z0_x=np.asarray(block["z0_x"]),
    )

    def nearest_row(x):
        return table_y[int(np.argmin(np.linalg.norm(table_x - x.reshape(1, -1), axis=1)))]

    _assert_matches_reference(gen, 80, 9, nearest_row)


def test_lockstep_spans_several_blocks():
    gen = load_preset("affine_triangle").gen
    n = 40
    count = generators._BLOCK_STATES // n + 3
    paths = _assert_matches_reference(gen, n, count, _row_label(gen))
    assert paths[0].xs.base is not paths[-1].xs.base  # two blocks


def _shift_generator(governing_map):
    # x' = x + theta on the unit interval from 0, with draws 0, 5/16 and 3/2
    return labeled_lipschitz_generator(
        governing_map=governing_map,
        theta_atoms=[0.0, 0.3125, 1.5],
        weights=[0.5, 0.25, 0.25],
        lip_x_per_theta=[0.0, 0.0, 0.0],
        label_map=identity_label(),
        metric=MetricSpec(1, 1, 2.0),
        x_bound=UNIT_BOX,
        y_bound=UNIT_BOX,
        z0=ZPoint(0.0, 0.0),
    )


def _late_and_early_escapes():
    idx = np.zeros((6, 6), dtype=int)
    idx[3, :4] = 1  # chain 3: 0.3125, 0.625, 0.9375, then 1.25 escapes at step 4
    idx[5, 0] = 2  # chain 5: 1.5 escapes at step 1
    return idx


def test_block_escape_names_first_chain_then_first_step():
    gen = _shift_generator(lambda x, theta: x + theta)
    with pytest.raises(GeneratorContractError) as err:
        _step_block(gen, gen.z0.x, gen.z0.y, _late_and_early_escapes())
    assert "x=[1.25], y=[1.25]" in str(err.value)
    assert "1.5" not in str(err.value)


def test_block_escape_reported_when_map_then_raises():
    def partial(x, theta):
        if np.any(x > 1.4):
            raise ValueError("map undefined past 1.4")
        return x + theta

    gen = _shift_generator(partial)
    # chain 5 escapes at step 1 and the map raises on that state at step 2
    idx = np.zeros((6, 6), dtype=int)
    idx[5, 0] = 2
    with pytest.raises(GeneratorContractError) as err:
        _step_block(gen, gen.z0.x, gen.z0.y, idx)
    assert "x=[1.5], y=[1.5]" in str(err.value)
    # chain 3 escapes later in time but comes first in chain order
    with pytest.raises(GeneratorContractError) as err:
        _step_block(gen, gen.z0.x, gen.z0.y, _late_and_early_escapes())
    assert "x=[1.25], y=[1.25]" in str(err.value)


def test_block_map_error_of_an_earlier_chain_wins():
    def poisoned(x, theta):
        if np.any(x == 0.625):
            raise ValueError("poisoned state")
        return x + theta

    gen = _shift_generator(poisoned)
    idx = np.zeros((6, 6), dtype=int)
    idx[1, :2] = 1  # chain 1 reaches 0.625 inside the bounds; the map raises there
    idx[4, 0] = 2  # chain 4 escapes at step 1, before chain 1's map error
    with pytest.raises(ValueError, match="poisoned state"):
        _step_block(gen, gen.z0.x, gen.z0.y, idx)


def test_single_row_map_is_rejected_with_the_row_block_contract():
    ball = BallBound(1.0, 2)
    gen = labeled_lipschitz_generator(
        governing_map=lambda x, theta: theta[0] @ x + theta[1],
        theta_atoms=[(0.5 * np.eye(2), np.array([0.25, 0.25]))],
        weights=[1.0],
        lip_x_per_theta=[0.5],
        label_map=identity_label(),
        metric=MetricSpec(2, 2, 4.0),
        x_bound=ball,
        y_bound=ball,
        z0=ZPoint([0.0, 0.0], [0.0, 0.0]),
    )
    for count in (1, 3):
        with pytest.raises(InvalidInputError, match="act row-wise") as err:
            list(chain_batches(gen, 6, SeedSpec(0), count))
        assert "runs on each row alone" in str(err.value)


def test_wrong_block_shapes_are_rejected():
    # the block fails, and the replay of its first chain alone names the
    # error a one-chain run raises
    flat = _unit_box_map_generator(lambda x, theta: 0.5 * x.ravel())
    with pytest.raises(InvalidInputError, match=r"returned shape \(1,\).*act row-wise"):
        list(chain_batches(flat, 4, SeedSpec(0), 3))

    first_row_label = labeled_lipschitz_generator(
        governing_map=halving_map, theta_atoms=[None], weights=[1.0], lip_x_per_theta=[0.5],
        label_map=callable_label(lambda x: x[0], 1.0), metric=MetricSpec(1, 1, 2.0),
        x_bound=UNIT_BOX, y_bound=UNIT_BOX, z0=ZPoint(1.0, 1.0),
    )
    with pytest.raises(InvalidInputError, match=r"label map returned shape \(1,\)"):
        list(chain_batches(first_row_label, 4, SeedSpec(0), 3))


# -- one-atom laws: one path for every chain -------------------------------------


def _one_atom_iid():
    return iid_generator([ZPoint(0.3, 0.6)], [1.0], MetricSpec(1, 1, 2.0), UNIT_BOX, UNIT_BOX)


_ONE_ATOM = {"halving_map": lambda: load_preset("halving_map").gen, "one_atom_iid": _one_atom_iid}


@pytest.mark.parametrize("make", [*_ONE_ATOM.values(), lambda: load_preset("iid_singleton").gen],
                         ids=[*_ONE_ATOM, "iid_singleton"])
@pytest.mark.parametrize("tol", [None, 1e-3])
def test_chain_batches_match_one_chain_per_stream(make, tol):
    gen = make()
    n, count, seed = 30, 5, SeedSpec(19)
    b = 0 if tol is None else burn_in_steps(gen, tol)
    streams = [derive_stream(seed, i) for i in range(count)]
    reference = _reference_paths(gen, b + n, streams, _row_label(gen))
    paths = [traj for batch in chain_batches(gen, n, seed, count, tol) for traj in batch]
    assert len(paths) == count
    for traj, stream, (xs, ys) in zip(paths, streams, reference):
        assert traj.seed == stream
        one = sample_chain(gen, b + n, stream).slice(b, b + n)
        for got in (traj, one):
            assert _same_bits(got.xs, xs[b:]) and _same_bits(got.ys, ys[b:])


@pytest.mark.parametrize("name", ["affine_triangle", "iid_four", "labeled_affine"])
def test_many_atom_batches_match_one_chain_per_stream(name):
    # 300 states a chain: a stepped block holds 54 chains, so chain 60 is in
    # the second block, and its draws are the same as alone
    gen = load_preset(name).gen
    b = burn_in_steps(gen, 1e-3)
    n, seed = 300 - b, SeedSpec(2**64 - 1, 5)
    batches = list(chain_batches(gen, n, seed, 61, 1e-3))
    assert [len(batch) for batch in batches] == [54, 7]
    for i in (0, 53, 54, 60):
        traj = batches[i // 54][i % 54]
        one = sample_chain(gen, b + n, derive_stream(seed, i)).slice(b, b + n)
        assert _same_bits(traj.xs, one.xs) and _same_bits(traj.ys, one.ys)
    # the first chain of the second block against the scalar oracle's draws
    ((xs, ys),) = _reference_paths(gen, b + n, [derive_stream(seed, 54)], _row_label(gen))
    assert _same_bits(batches[1][0].xs, xs[b:]) and _same_bits(batches[1][0].ys, ys[b:])


@pytest.mark.parametrize("name", _ONE_ATOM)
def test_one_atom_batches_keep_the_block_lengths(name):
    # one list of all the chains, past the 40 chains of 400 states that a
    # stepped block holds: they share one read-only path of 400 states
    gen = _ONE_ATOM[name]()
    n, count = 400, 90
    assert count > generators._BLOCK_STATES // n
    (batch,) = chain_batches(gen, n, SeedSpec(3), count)
    assert len(batch) == count
    assert all(traj.xs.base is batch[0].xs.base for traj in batch)
    assert [traj.seed for traj in batch] == [derive_stream(SeedSpec(3), i) for i in range(count)]


@pytest.mark.parametrize("name", _ONE_ATOM)
def test_one_atom_paths_are_one_read_only_path(name):
    gen = _ONE_ATOM[name]()
    (batch,) = chain_batches(gen, 8, SeedSpec(4), 3, 1e-3)
    for traj in [*batch, sample_chain(gen, 8, SeedSpec(4))]:
        assert not traj.xs.flags.writeable and not traj.ys.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            traj.xs[0] = 0.0
    assert batch[0].xs.base is batch[2].xs.base


@pytest.mark.parametrize("name", _ONE_ATOM)
def test_one_atom_chains_draw_nothing(name, monkeypatch):
    gen = _ONE_ATOM[name]()
    expected = [traj.xs.copy() for batch in chain_batches(gen, 12, SeedSpec(8), 30)
                for traj in batch]

    def no_draws(*args):
        raise AssertionError("a one-atom chain drew from its stream")

    monkeypatch.setattr(generators, "stream_uniforms", no_draws)
    monkeypatch.setattr(CategoricalTheta, "indices_from_uniform", no_draws)
    got = [traj.xs for batch in chain_batches(gen, 12, SeedSpec(8), 30) for traj in batch]
    assert len(got) == 30 and all(_same_bits(a, b) for a, b in zip(got, expected))
    assert sample_chain(gen, 5, SeedSpec(1)).xs.shape == (5, 1)


def test_one_atom_escape_names_the_lockstep_state():
    # 0.25, 0.75, then 1.25 leaves the unit box at step 2
    gen = _unit_box_map_generator(lambda x, theta: x + 0.5)
    with pytest.raises(GeneratorContractError) as lockstep:
        _step_block(gen, gen.z0.x, gen.z0.y, np.zeros((3, 5), dtype=int))
    assert "x=[1.25], y=[1.25]" in str(lockstep.value)
    for count in (1, 3, 50):
        with pytest.raises(GeneratorContractError) as err:
            list(chain_batches(gen, 6, SeedSpec(0), count))
        assert str(err.value) == str(lockstep.value)
    with pytest.raises(GeneratorContractError) as err:
        sample_chain(gen, 6, SeedSpec(0))
    assert str(err.value) == str(lockstep.value)


def test_many_atom_chains_still_differ():
    gen = load_preset("affine_triangle").gen
    (batch,) = chain_batches(gen, 20, SeedSpec(6), 4)
    for i in range(4):
        assert batch[i].xs.flags.writeable
        for j in range(i):
            assert not np.array_equal(batch[i].xs, batch[j].xs)


@pytest.mark.parametrize("bad", [True, False, 0, -1, 2.0, "3", None])
def test_chain_sizes_must_be_positive_ints(bad):
    gen = make_halving()
    for name, call in (
        # chain_batches checks on the call, before its first list is drawn
        ("n", lambda: chain_batches(gen, bad, SeedSpec(0), 3)),
        ("n", lambda: chain_batches(gen, bad, SeedSpec(0), 3, 1e-3)),
        ("count", lambda: chain_batches(gen, 10, SeedSpec(0), bad)),
        ("n", lambda: sample_chain(gen, bad, SeedSpec(0))),
        ("n", lambda: sample_stationary_chain(gen, bad, 1e-3, SeedSpec(0))),
        ("count", lambda: invariant_sampler(gen, 1e-3, bad, SeedSpec(0))),
    ):
        with pytest.raises(InvalidInputError, match=f"^{name} must be a positive integer"):
            call()
