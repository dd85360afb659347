import contextlib
import importlib.machinery
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from chaincert import transport
from chaincert.errors import (
    AssumptionViolationError,
    GeneratorContractError,
    InvalidInputError,
    SizeCapError,
)
from chaincert.generators import (
    SeedSpec,
    affine_ifs_generator,
    invariant_sampler,
    linear_label,
    sample_chain,
)
from chaincert.metric import MetricSpec, ZPoint, dist
from chaincert.presets import load_preset
from chaincert.reporting import write_rows_csv
from chaincert.transport import (
    EmpiricalMeasure,
    _cost_matrix,
    _replicates_cheaply,
    _solve_assignment,
    _solve_lp,
    contraction_curve,
    w1_exact,
)

from chaincert.cli import main
from oracles import distance_probes, kr_dual_lower_bound, w1_bruteforce
from test_generators import make_halving, make_iid

LINE = MetricSpec(1, 1, 1.0)


def line_measure(xs, weights=None):
    xs = np.asarray(xs, dtype=float)[:, None]
    return EmpiricalMeasure(xs, np.zeros_like(xs), LINE, weights)


def random_uniform_measure(rng, count, metric, scale=0.4):
    atoms = [
        ZPoint(rng.uniform(0, scale, metric.dim_x), rng.uniform(0, scale, metric.dim_y))
        for _ in range(count)
    ]
    return EmpiricalMeasure.uniform(atoms, metric)


def test_w1_hand_value():
    a = line_measure([0.0, 0.2])
    b = line_measure([0.1, 0.3])
    cost, plan = w1_exact(a, b)
    assert cost == pytest.approx(0.1, abs=1e-12)
    assert w1_bruteforce(a, b) == pytest.approx(0.1, abs=1e-12)
    assert sum(m for _, _, m in plan.entries) == pytest.approx(1.0, abs=1e-12)


def test_w1_weighted_hand_value():
    a = line_measure([0.0])
    b = line_measure([0.4, 0.8], weights=[0.75, 0.25])
    cost, _ = w1_exact(a, b)
    assert cost == pytest.approx(0.75 * 0.4 + 0.25 * 0.8, abs=1e-9)


def test_exact_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(21)
    metric = MetricSpec(2, 1, 4.0)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = random_uniform_measure(rng, n, metric)
        b = random_uniform_measure(rng, n, metric)
        exact, _ = w1_exact(a, b)
        assert abs(exact - w1_bruteforce(a, b)) <= 1e-9


def test_lp_path_agrees_with_assignment_path():
    rng = np.random.default_rng(5)
    metric = MetricSpec(1, 1, 2.0)
    a = random_uniform_measure(rng, 6, metric)
    p1, p2, p3 = (ZPoint(rng.uniform(0, 0.4), rng.uniform(0, 0.4)) for _ in range(3))
    as_atoms = EmpiricalMeasure.uniform([p1, p1, p2, p3], metric)
    as_weights = EmpiricalMeasure([p1.x, p2.x, p3.x], [p1.y, p2.y, p3.y], metric,
                                  np.array([0.5, 0.25, 0.25]))
    ca, _ = w1_exact(a, as_atoms)
    cw, _ = w1_exact(a, as_weights)
    assert abs(ca - cw) <= 1e-9


def _uniform_lp(cost):
    n1, n2 = cost.shape
    return _solve_lp(cost, np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2))


def _check_marginals(plan, n1, n2):
    mat = plan.masses(n1, n2)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0 / n1)) <= 1e-9
    assert np.max(np.abs(mat.sum(axis=0) - 1.0 / n2)) <= 1e-9


def _with_repeats(rng, count, metric, shared=()):
    # atoms drawn from a small pool, so most appear more than once
    pool = list(shared) + list(random_uniform_measure(rng, 3, metric).atoms)
    return EmpiricalMeasure.uniform(
        [pool[int(i)] for i in rng.integers(0, len(pool), count)], metric
    )


@pytest.mark.parametrize("n1,n2", [(4, 8), (4, 6), (6, 9)])
def test_replicated_assignment_matches_lp(n1, n2):
    rng = np.random.default_rng(100 * n1 + n2)
    metric = MetricSpec(2, 1, 4.0)
    assert _replicates_cheaply(n1, n2)
    for trial in range(12):
        if trial < 8:
            a = random_uniform_measure(rng, n1, metric)
            b = random_uniform_measure(rng, n2, metric)
        else:
            a = _with_repeats(rng, n1, metric)
            b = _with_repeats(rng, n2, metric, shared=a.atoms[:2])
        cost_mat = _cost_matrix(a, b)
        plan = _solve_assignment(cost_mat)
        assert abs(plan.cost - _uniform_lp(cost_mat).cost) <= 1e-9
        _check_marginals(plan, n1, n2)
        assert abs(plan.cost - float(np.sum(plan.masses(n1, n2) * cost_mat))) <= 1e-12
        cost, routed = w1_exact(a, b)
        assert abs(cost - plan.cost) <= 1e-9
        _check_marginals(routed, n1, n2)


def test_routing_rule_blowup_bound():
    # blow-up (n1/g)(n2/g) of the replicated problem against _MAX_BLOWUP = 16
    assert _replicates_cheaply(1000, 1000) and _replicates_cheaply(5000, 5000)
    assert _replicates_cheaply(64, 128) and _replicates_cheaply(300, 400)
    assert _replicates_cheaply(2, 32) and not _replicates_cheaply(2, 34)
    assert not _replicates_cheaply(31, 33) and not _replicates_cheaply(1, 1000)


@pytest.mark.parametrize(
    "n1,n2,route",
    [(2, 32, "assignment"), (2, 34, "lp"), (31, 33, "lp"), (64, 128, "assignment")],
)
def test_routing_rule_sides_return_the_right_cost(monkeypatch, n1, n2, route):
    calls = []

    def assignment(cost):
        calls.append("assignment")
        return _solve_assignment(cost)

    def lp(cost, w1, w2):
        calls.append("lp")
        return _solve_lp(cost, w1, w2)

    monkeypatch.setattr(transport, "_solve_assignment", assignment)
    monkeypatch.setattr(transport, "_solve_lp", lp)
    rng = np.random.default_rng(n1 * n2)
    metric = MetricSpec(1, 1, 2.0)
    a = random_uniform_measure(rng, n1, metric)
    b = random_uniform_measure(rng, n2, metric)
    cost, plan = w1_exact(a, b)
    assert calls == [route]
    # the route not taken, on the same cost matrix, is the oracle
    cost_mat = _cost_matrix(a, b)
    other = _uniform_lp(cost_mat) if route == "assignment" else _solve_assignment(cost_mat)
    assert abs(cost - other.cost) <= 1e-9
    _check_marginals(plan, n1, n2)


@pytest.mark.parametrize("n1,n2,route", [(64, 64, "assignment"), (64, 128, "assignment"),
                                          (31, 33, "lp")])
def test_plan_and_cli_payload_name_the_route_that_ran(tmp_path, capsys, n1, n2, route):
    rng = np.random.default_rng(n1 + n2)
    metric = MetricSpec(1, 1, 2.0)
    a = random_uniform_measure(rng, n1, metric)
    b = random_uniform_measure(rng, n2, metric)
    _, plan = w1_exact(a, b)
    _, back = w1_exact(b, a)
    assert plan.route == back.route == route
    paths = []
    for name, m in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{name}.csv"))
        write_rows_csv(("x_0", "y_0"), np.hstack([m.xs, m.ys]).tolist(), paths[-1])
    assert main(["wasserstein", *paths, "--kappa", "2.0", "--out", str(tmp_path / "w")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["route"] == route
    summary = json.loads((tmp_path / "w" / "wasserstein_summary.json").read_text())
    assert summary["route"] == route and summary["kind"] == "transport"


@pytest.fixture
def fresh_solver():
    # the assignment solver is loaded once per process; load it afresh here
    # and leave no test's choice behind for the next
    transport._linear_sum_assignment.cache_clear()
    yield transport._linear_sum_assignment
    transport._linear_sum_assignment.cache_clear()


def _cost_cases():
    rng = np.random.default_rng(31)
    metric = MetricSpec(2, 1, 4.0)
    for n1, n2 in ((64, 64), (9, 9), (64, 128), (6, 9)):
        a = random_uniform_measure(rng, n1, metric)
        b = random_uniform_measure(rng, n2, metric)
        yield _cost_matrix(a, b)
        # atoms drawn from a small pool, so costs tie between repeated atoms
        yield _cost_matrix(_with_repeats(rng, n1, metric),
                           _with_repeats(rng, n2, metric, shared=a.atoms[:2]))
        yield rng.integers(0, 3, (n1, n2)).astype(float)


def _replicated(cost):
    n1, n2 = cost.shape
    k = math.lcm(n1, n2)
    return cost[np.ix_(np.repeat(np.arange(n1), k // n1), np.repeat(np.arange(n2), k // n2))]


def test_assignment_extension_loads_without_scipy_optimize(monkeypatch, fresh_solver):
    assert Path(transport._lsap_extension_path()).is_file()
    # the public import would fail, so a working solver came from the extension
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    rows, cols = fresh_solver()(np.array([[4.0, 1.0], [2.0, 8.0]]))
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]


def test_assignment_extension_matches_the_public_function(fresh_solver):
    fast = fresh_solver()
    from scipy.optimize import linear_sum_assignment

    for cost in _cost_cases():
        for c in (cost, _replicated(cost)):
            got, want = fast(c), linear_sum_assignment(c)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_lp_runs_after_the_assignment_extension_loaded(fresh_solver):
    fresh_solver()
    for cost in _cost_cases():
        plan = _solve_assignment(cost)
        assert abs(plan.cost - _uniform_lp(cost).cost) <= 1e-9


def _junk_extension(tmp_path):
    path = tmp_path / ("_lsap" + importlib.machinery.EXTENSION_SUFFIXES[0])
    path.write_bytes(b"not a shared object")
    return str(path)


@pytest.mark.parametrize("locate", [lambda tmp_path: None, _junk_extension],
                         ids=["missing", "unloadable"])
def test_assignment_falls_back_to_the_public_import(monkeypatch, tmp_path, fresh_solver,
                                                    locate):
    fresh_solver()
    expected = [_solve_assignment(c) for c in _cost_cases()]
    import scipy.optimize

    original = scipy.optimize.linear_sum_assignment
    calls = []

    def public(cost):
        calls.append(cost.shape)
        return original(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", public)
    path = locate(tmp_path)
    monkeypatch.setattr(transport, "_lsap_extension_path", lambda: path)
    transport._linear_sum_assignment.cache_clear()
    assert [_solve_assignment(c) for c in _cost_cases()] == expected
    assert len(calls) == len(expected)


def test_w1_symmetry_bit_exact_and_triangle():
    rng = np.random.default_rng(33)
    metric = MetricSpec(1, 2, 3.0)
    for _ in range(15):
        a = random_uniform_measure(rng, int(rng.integers(2, 7)), metric)
        b = random_uniform_measure(rng, int(rng.integers(2, 7)), metric)
        c = random_uniform_measure(rng, int(rng.integers(2, 7)), metric)
        ab = w1_exact(a, b)[0]
        assert ab == w1_exact(b, a)[0]
        assert ab <= w1_exact(a, c)[0] + w1_exact(c, b)[0] + 1e-9
        assert w1_exact(a, a)[0] <= 1e-12


def test_kr_dual_weak_duality_and_probe_check():
    rng = np.random.default_rng(4)
    metric = MetricSpec(1, 1, 2.0)
    a = random_uniform_measure(rng, 5, metric)
    b = random_uniform_measure(rng, 5, metric)
    probes = distance_probes(list(a.atoms) + list(b.atoms), metric)
    lower = kr_dual_lower_bound(a, b, probes)
    exact, _ = w1_exact(a, b)
    assert 0.0 <= lower <= exact + 1e-9

    z, zbar = a.atoms[0], b.atoms[0]
    point_a = EmpiricalMeasure.uniform([z], metric)
    point_b = EmpiricalMeasure.uniform([zbar], metric)
    probe = distance_probes([zbar], metric)
    got = kr_dual_lower_bound(point_a, point_b, probe)
    assert got == pytest.approx(dist(z, zbar, metric), abs=1e-12)

    with pytest.raises(InvalidInputError):
        kr_dual_lower_bound(a, b, [lambda xs, ys: 100.0 * xs[:, 0]])


@pytest.mark.parametrize(
    "probe",
    [lambda z: float(z.x[0]), lambda xs, ys: xs[:, :1]],
    ids=["one-point probe", "wrong shape"],
)
def test_kr_dual_holds_probes_to_the_row_contract(probe):
    a = line_measure([0.0, 0.2])
    b = line_measure([0.1, 0.3])
    with pytest.raises(InvalidInputError, match="probes act row-wise"):
        kr_dual_lower_bound(a, b, [probe])


def test_kr_dual_needs_both_measures_on_one_metric():
    # the bound is read under mu1's metric; a mu2 on another kappa is refused
    # as the solver refuses it, not checked under the wrong normalizer
    a = line_measure([0.0, 0.2])
    b = EmpiricalMeasure(np.array([[0.1], [0.3]]), np.zeros((2, 1)), MetricSpec(1, 1, 2.0))
    probes = distance_probes(list(a.atoms), LINE)
    with pytest.raises(InvalidInputError, match="same declared metric"):
        kr_dual_lower_bound(a, b, probes)
    with pytest.raises(InvalidInputError, match="same declared metric"):
        w1_exact(a, b)


def test_atom_cap_enforced():
    rng = np.random.default_rng(2)
    metric = MetricSpec(1, 1, 2.0)
    big = random_uniform_measure(rng, 1100, metric)
    other = random_uniform_measure(rng, 1000, metric)
    with pytest.raises(SizeCapError):
        w1_exact(big, other)


def test_bruteforce_preconditions():
    a = line_measure(np.linspace(0, 0.4, 9))
    with pytest.raises(SizeCapError):
        w1_bruteforce(a, a)
    b = line_measure([0.0, 0.1], weights=[0.7, 0.3])
    with pytest.raises(InvalidInputError):
        w1_bruteforce(b, b)


def test_measure_validation():
    with pytest.raises(InvalidInputError):
        EmpiricalMeasure(np.empty((0, 1)), np.empty((0, 1)), LINE, np.array([]))
    with pytest.raises(InvalidInputError):
        EmpiricalMeasure([[0.0]], [[0.0]], LINE, np.array([0.5]))


@pytest.mark.parametrize(
    "xs,ys,weights",
    [
        ([[0.0]], [[0.0], [0.1]], None),          # one y row per x row
        ([[0.0, 0.1]], [[0.0]], None),            # x width differs from dim_x
        ([0.0, 0.1], [0.0, 0.1], None),           # flat, not rows
        ([[np.nan]], [[0.0]], None),              # non-finite coordinate
        ([[0.0]], [[np.inf]], None),
        ([["a"]], [[0.0]], None),                 # not numeric
        ([[0.0], [0.1]], [[0.0], [0.1]], [0.5]),  # one weight per atom
        ([[0.0], [0.1]], [[0.0], [0.1]], [1.5, -0.5]),
        ([[0.0], [0.1]], [[0.0], [0.1]], [0.5, np.nan]),
        ([[0.0], [0.1]], [[0.0], [0.1]], [0.5, 0.4]),
    ],
)
def test_measure_rejects_malformed_rows(xs, ys, weights):
    with pytest.raises(InvalidInputError):
        EmpiricalMeasure(xs, ys, LINE, weights)


def test_measure_rejects_a_missing_metric_and_the_empty_atom_list():
    with pytest.raises(InvalidInputError, match="MetricSpec"):
        EmpiricalMeasure([[0.0]], [[0.0]], None)
    with pytest.raises(InvalidInputError, match="at least one atom"):
        EmpiricalMeasure.uniform([], LINE)
    with pytest.raises(InvalidInputError, match="ZPoint"):
        EmpiricalMeasure.uniform([(0.0, 0.0)], LINE)
    with pytest.raises(InvalidInputError, match="dimensions"):
        EmpiricalMeasure.uniform([ZPoint([0.0, 0.0], 0.0)], LINE)


def test_measure_rows_are_read_only_copies_and_atoms_view_them():
    xs, ys = np.array([[0.1], [0.3]]), np.array([[0.2], [0.4]])
    mu = EmpiricalMeasure(xs, ys, LINE)
    xs[0, 0] = 0.9
    assert mu.xs[0, 0] == 0.1 and not mu.xs.flags.writeable
    assert not mu.ys.flags.writeable and not mu.weights.flags.writeable
    assert mu.atoms == (ZPoint(0.1, 0.2), ZPoint(0.3, 0.4))
    assert mu.atoms is mu.atoms
    assert all(not z.x.flags.writeable and not z.y.flags.writeable for z in mu.atoms)
    assert mu.is_uniform() and mu.weights.tolist() == [0.5, 0.5]
    same = EmpiricalMeasure.uniform(mu.atoms, LINE)
    assert np.array_equal(same.xs, mu.xs) and np.array_equal(same.ys, mu.ys)
    assert np.array_equal(same.weights, mu.weights)


@pytest.mark.parametrize("max_check_pairs", [0, -1, 2.5])
def test_kr_dual_rejects_bad_pair_budget(max_check_pairs):
    a = line_measure([0.0, 0.2])
    b = line_measure([0.1, 0.3])
    with pytest.raises(InvalidInputError, match="max_check_pairs"):
        kr_dual_lower_bound(a, b, distance_probes(a.atoms, LINE), max_check_pairs=max_check_pairs)


def test_kr_dual_one_pair_budget_still_checks_probes():
    a = line_measure([0.0, 0.2])
    b = line_measure([0.1, 0.3])
    got = kr_dual_lower_bound(a, b, distance_probes(b.atoms, LINE), max_check_pairs=1)
    assert 0.0 <= got <= w1_exact(a, b)[0] + 1e-12


def test_contraction_curve_halving_is_exact_geometric():
    gen = make_halving()
    curve = contraction_curve(
        gen, [ZPoint(1.0, 1.0)], n_max=10, atoms_per_step=16,
        pi_tol=1e-13, seed=SeedSpec(6),
    )
    for n, value in curve:
        assert abs(value - 0.5 ** n * 0.5) <= 1e-12


def test_contraction_curve_iid_collapses_after_one_step():
    gen = make_iid()
    curve = contraction_curve(
        gen, [ZPoint(0.2, 0.2)], n_max=3, atoms_per_step=32,
        pi_tol=1e-3, seed=SeedSpec(7),
    )
    values = dict(curve)
    # after one step the pushed cloud replays the reference draws exactly
    assert values[1] == 0.0 and values[2] == 0.0 and values[3] == 0.0


def test_decay_script_writes_null_rate_for_a_flat_curve(tmp_path):
    # iid_four's curve is 0 from step 1 on, so no slope can be fitted
    path = Path(__file__).resolve().parents[1] / "scripts" / "contraction_decay.py"
    spec = importlib.util.spec_from_file_location("contraction_decay", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "decay"
    argv = ["--preset", "iid_four", "--n-max", "3", "--atoms", "20", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert script.main(argv) == 0
    summary = json.loads((out / "contraction_summary.json").read_text())
    assert summary["fitted_log_slope"] is None and summary["fitted_rate"] is None
    assert (out / "contraction_curve.csv").read_text().splitlines()[0] == "n,w1"


@pytest.mark.parametrize("atoms", [0, -1, 2.5, True])
def test_contraction_curve_rejects_bad_atom_count(atoms):
    with pytest.raises(InvalidInputError, match="atoms_per_step"):
        contraction_curve(make_halving(), [ZPoint(1.0, 1.0)], n_max=3, atoms_per_step=atoms)


@pytest.mark.parametrize("n_max", [-1, 2.0, True])
def test_contraction_curve_rejects_bad_n_max(n_max):
    # a bool is not a count: n_max=True once ran as n_max=1
    gen = make_halving()
    with pytest.raises(InvalidInputError, match="n_max must be an integer >= 0"):
        contraction_curve(gen, [gen.z0], n_max=n_max)


# float.hex of seeded transport outputs; a change that moves any of them is a
# change of results
AFFINE_CURVE = (
    "0x1.7f3dd0f67a92ap-2", "0x1.5450e00190457p-4", "0x1.0fed5aca6ed7fp-6",
    "0x1.ab7a81e9adda3p-9", "0x1.5d6861daa3bbcp-11", "0x1.1db3ba34b7cf2p-13",
    "0x1.d0d2a6e9f12d6p-16", "0x1.6588bb2ac488ep-18", "0x1.21e3a14d85706p-20",
)
HALVING_CURVE = (
    "0x1.0000000000032p-1", "0x1.0000000000065p-2", "0x1.00000000000cap-3",
    "0x1.0000000000194p-4", "0x1.0000000000328p-5", "0x1.0000000000650p-6",
    "0x1.0000000000ca0p-7", "0x1.0000000001940p-8", "0x1.0000000003280p-9",
    "0x1.0000000006500p-10", "0x1.000000000ca00p-11",
)
CLOUD_W1 = "0x1.5ef6e67194767p-4"


@pytest.mark.parametrize(
    "preset,n_max,atoms,pi_tol,seed,expected",
    [("affine_triangle", 8, 128, 1e-8, 11, AFFINE_CURVE),
     ("halving_map", 10, 4, 1e-13, 12, HALVING_CURVE)],
)
def test_decay_curve_is_frozen(preset, n_max, atoms, pi_tol, seed, expected):
    gen = load_preset(preset).gen
    curve = contraction_curve(gen, [gen.z0], n_max, atoms, pi_tol, SeedSpec(seed))
    assert [n for n, _ in curve] == list(range(n_max + 1))
    assert tuple(v.hex() for _, v in curve) == expected


def test_w1_on_sampled_clouds_is_frozen():
    # 64 x 64 and 64 x 128 (nu listed twice) both go to the assignment
    gen = load_preset("affine_triangle").gen
    mu = invariant_sampler(gen, 1e-3, 64, SeedSpec(21))
    nu = invariant_sampler(gen, 1e-3, 64, SeedSpec(22))
    nu2 = EmpiricalMeasure(np.vstack([nu.xs, nu.xs]), np.vstack([nu.ys, nu.ys]), gen.metric)
    for a, b in ((mu, nu), (nu, mu), (mu, nu2), (nu2, mu)):
        assert w1_exact(a, b)[0].hex() == CLOUD_W1


def _random_labeled_ifs(rng):
    """A random affine system with a linear label, and start atoms inside its
    state ball; the constructor may reject it (exit 3 on the command line)."""
    dim, dim_y, maps = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 5))
    mats = []
    for _ in range(maps):
        mat = rng.normal(size=(dim, dim))
        mats.append(mat * (rng.uniform(0.05, 0.9) / np.linalg.norm(mat, 2)))
    vecs = rng.normal(size=(maps, dim)) * rng.uniform(0.1, 1.0)
    weight = rng.normal(size=(dim_y, dim))
    weight *= rng.uniform(0.0, 0.9) / np.linalg.norm(weight, 2)
    bias = 0.05 * rng.normal(size=dim_y)
    gen = affine_ifs_generator(
        mats=mats, vecs=list(vecs), weights=rng.dirichlet(np.ones(maps)),
        label_map=linear_label(weight, bias),
        attractor_radius=float(rng.uniform(1.0, 6.0) * np.linalg.norm(vecs, axis=1).max()),
        z0_x=np.zeros(dim),
    )
    ball = gen.x_bound.radius
    starts = []
    for _ in range(3):
        x = rng.normal(size=dim)
        x *= ball * rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        starts.append(ZPoint(x, weight @ x + bias))
    return gen, starts


def test_contraction_curve_within_pathwise_coupling_bound():
    # each pushed atom replays the final n draws of its reference chain from a
    # start in the state ball of radius R + r, so the identity coupling gives
    # curve(n) <= (1 + L) * 2(R + r) / kappa * (max_a s_a)^n with no sampling slack
    rng = np.random.default_rng(2024)
    accepted = 0
    for _ in range(60):
        try:
            gen, starts = _random_labeled_ifs(rng)
            curve = contraction_curve(gen, starts, n_max=6, atoms_per_step=16,
                                      seed=SeedSpec(int(rng.integers(2**32))))
        except (AssumptionViolationError, GeneratorContractError):
            continue
        accepted += 1
        scale = (1.0 + gen.label_map.lip) * 2.0 * gen.x_bound.radius / gen.metric.kappa
        for n, value in curve[1:]:
            bound = scale * float(gen.lip_x_per_theta.max()) ** n
            assert value <= bound * (1.0 + 1e-12), (n, value, bound)
    assert accepted >= 30
