"""Exact transport distance between finite state measures.

An ``EmpiricalMeasure`` keeps its atoms as stacked coordinate rows, and the
cost matrix, the canonical argument order and the curve's pushed clouds are
computed from those arrays.

The order-1 transport cost between two measures is solved exactly. Two
uniform measures of n1 and n2 atoms are an assignment problem on k = lcm(n1,
n2) replicated atoms, solved that way whenever the replication stays cheap
(see ``_replicates_cheaply``); anything else goes to the transportation
linear program. Only a transport solve touches scipy: the assignment loads
scipy's compiled assignment extension on its own, once per process (see
``_linear_sum_assignment``), and falls back to the public ``scipy.optimize``
import when that fails; the LP imports ``scipy.optimize`` and
``scipy.sparse``.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, SizeCapError
from .metric import MetricSpec, SeedSpec, ZPoint, _check_count, _check_probabilities, pairwise_dist

ATOM_CAP = 2000
_MAX_BLOWUP = 16
_MARGINAL_TOL = 1e-9


def _as_rows(values, width: int, label: str) -> np.ndarray:
    try:
        rows = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"empirical measure {label} rows must be numeric") from None
    if rows.ndim != 2 or rows.shape[1] != width:
        raise InvalidInputError(
            f"empirical measure {label} rows must have shape (atoms, {width}), "
            f"got {rows.shape}"
        )
    if not np.all(np.isfinite(rows)):
        raise InvalidInputError(f"empirical measure {label} rows contain a non-finite coordinate")
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Finitely supported measure: atoms with positive weights summing to one.

    Atom i is the state (xs[i], ys[i]); ``xs`` is (m, dim_x) and ``ys`` is
    (m, dim_y), both read-only copies checked once on construction. Leaving
    ``weights`` out gives the uniform measure. ``atoms`` is a ``ZPoint`` view
    of the rows, built on first use; the solvers read the arrays.
    """

    xs: np.ndarray
    ys: np.ndarray
    metric: MetricSpec
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.metric, MetricSpec):
            raise InvalidInputError("empirical measure needs a MetricSpec")
        xs = _as_rows(self.xs, self.metric.dim_x, "x")
        ys = _as_rows(self.ys, self.metric.dim_y, "y")
        m = xs.shape[0]
        if m == 0:
            raise InvalidInputError("empirical measure needs at least one atom")
        if ys.shape[0] != m:
            raise InvalidInputError("empirical measure needs one y row per x row")
        if self.weights is None:
            w = np.full(m, 1.0 / m)
        else:
            try:
                w = np.array(self.weights, dtype=float).reshape(-1)
            except (TypeError, ValueError):
                raise InvalidInputError("empirical measure weights must be numeric") from None
        _check_probabilities("empirical measure", w, m)
        w.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, atoms: Sequence[ZPoint], metric: MetricSpec) -> "EmpiricalMeasure":
        """Uniform measure on a sequence of ``ZPoint`` atoms."""
        atoms = tuple(atoms)
        if not atoms:
            raise InvalidInputError("empirical measure needs at least one atom")
        for a in atoms:
            if not isinstance(a, ZPoint):
                raise InvalidInputError("empirical measure atoms must be ZPoint values")
            metric.check_point(a)
        return cls(np.stack([a.x for a in atoms]), np.stack([a.y for a in atoms]), metric)

    @cached_property
    def atoms(self) -> tuple:
        # rows of the checked read-only arrays, so the points need no copy
        return tuple(map(ZPoint._unchecked, self.xs, self.ys))

    def __len__(self) -> int:
        return self.xs.shape[0]

    def is_uniform(self) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0 / len(self)) <= 1e-12))


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling: (source index, target index, mass) triples plus cost,
    and the solver that found it: ``"assignment"`` or ``"lp"``."""

    entries: tuple
    cost: float
    route: str

    def masses(self, n1: int, n2: int) -> np.ndarray:
        mat = np.zeros((n1, n2))
        if self.entries:
            i, j, m = zip(*self.entries)
            np.add.at(mat, (i, j), m)  # one += per entry, in entry order
        return mat

    def transpose(self) -> "TransportPlan":
        return TransportPlan(tuple((j, i, m) for i, j, m in self.entries), self.cost, self.route)


def _cost_matrix(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> np.ndarray:
    if mu1.metric != mu2.metric:
        raise InvalidInputError("transport needs both measures on the same declared metric")
    return pairwise_dist(mu1.xs, mu1.ys, mu2.xs, mu2.ys, mu1.metric)


def _canonical_key(mu: EmpiricalMeasure) -> tuple:
    return (len(mu), mu.xs.tobytes(), mu.ys.tobytes(), mu.weights.tobytes())


def _validate_plan(plan: TransportPlan, mu1, mu2, cost_mat) -> None:
    mat = plan.masses(len(mu1), len(mu2))
    if np.max(np.abs(mat.sum(axis=1) - mu1.weights)) > _MARGINAL_TOL:
        raise InvalidInputError("transport plan violates the source marginal beyond 1e-9")
    if np.max(np.abs(mat.sum(axis=0) - mu2.weights)) > _MARGINAL_TOL:
        raise InvalidInputError("transport plan violates the target marginal beyond 1e-9")
    recomputed = float(np.sum(mat * cost_mat))
    if abs(recomputed - plan.cost) > _MARGINAL_TOL:
        raise InvalidInputError("transport plan cost disagrees with its entries beyond 1e-9")


def _replicates_cheaply(n1: int, n2: int) -> bool:
    """Whether two uniform measures of n1 and n2 atoms go to the assignment.

    The replicated problem is k x k with k = lcm(n1, n2), so it has
    k^2 / (n1 n2) = (n1/g)(n2/g) times as many cost entries as the LP has
    variables (g = gcd(n1, n2)). It is taken while that blow-up is at most
    ``_MAX_BLOWUP``, which also keeps its memory within a constant factor of
    the LP's; equal sizes (blow-up 1) always pass. A large blow-up means many
    tied copies, and the assignment slows down sharply.

    Timed with both solvers on random uniform clouds (single-threaded BLAS,
    2-vCPU host), assignment against LP, blow-up in brackets: 64x128 [2]
    0.9 ms vs 30 ms, 300x400 [12] 175 ms vs 822 ms, 750x1250 [15] 2.7 s vs
    13.6 s, 31x33 [1023] 178 ms vs 8.6 ms, 1x1000 [1000] 718 ms vs 5.1 ms.
    At 1000 target atoms the crossover lies between blow-ups 10 and 40:
    300x1000 [10] 3.07 s vs 3.01 s, 40x1000 [25] 284 ms vs 372 ms, 25x1000
    [40] 408 ms vs 197 ms. Pairs under ~60 atoms differ by a few milliseconds
    at most either way.
    """
    g = math.gcd(n1, n2)
    return (n1 // g) * (n2 // g) <= _MAX_BLOWUP


def _lsap_extension_path() -> Optional[str]:
    """File of scipy's compiled assignment extension, or None when absent.

    Found through scipy's import spec, which locates the package without
    importing it."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


@cache
def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, loaded once per process.

    ``scipy.optimize`` re-exports this function from its compiled extension
    ``scipy.optimize._lsap``, so loading that extension by file spec runs the
    same code without importing the package. On a 2-vCPU host the extension
    loads in under 1 ms with no rise in peak RSS, where ``import scipy.optimize``
    takes ~0.6 s and ~50 MiB. When the extension is missing or fails to load,
    the public import is used.
    """
    path = _lsap_extension_path()
    if path is not None:
        try:
            spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, AttributeError):
            pass
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _solve_assignment(cost: np.ndarray) -> TransportPlan:
    """Uniform-to-uniform transport as one assignment on replicated atoms.

    With k = lcm(n1, n2), source atom i is repeated k/n1 times and target atom
    j k/n2 times. The uniform k x k transportation polytope has permutation
    vertices (Birkhoff-von Neumann), so an optimal assignment of the copies is
    an optimal coupling; its matched pairs fold back to (i, j, count/k).
    Equal sizes are the case of one copy each. The solver is scipy's compiled
    assignment routine, loaded by ``_linear_sum_assignment``.
    """
    n1, n2 = cost.shape
    k = math.lcm(n1, n2)
    src = np.repeat(np.arange(n1), k // n1)
    dst = np.repeat(np.arange(n2), k // n2)
    rows, cols = _linear_sum_assignment()(cost[np.ix_(src, dst)])
    i, j = src[rows], dst[cols]
    total = float(cost[i, j].sum()) / k
    pairs, counts = np.unique(i * n2 + j, return_counts=True)
    # counts and k are exact in float64, so counts / k rounds as int(c) / k does
    entries = tuple(zip((pairs // n2).tolist(), (pairs % n2).tolist(), (counts / k).tolist()))
    return TransportPlan(entries, total, "assignment")


def _solve_lp(cost: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> TransportPlan:
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n1, n2 = cost.shape
    # transportation LP: row sums w1, column sums w2 (last column dropped as redundant)
    row_idx = np.repeat(np.arange(n1), n2)
    col_idx = np.tile(np.arange(n2), n1)
    var = np.arange(n1 * n2)
    rows = np.concatenate([row_idx, n1 + col_idx])
    cols = np.concatenate([var, var])
    data = np.ones(2 * n1 * n2)
    keep = rows < n1 + n2 - 1
    a_eq = coo_matrix((data[keep], (rows[keep], cols[keep])), shape=(n1 + n2 - 1, n1 * n2))
    b_eq = np.concatenate([w1, w2[:-1]])
    res = linprog(
        cost.ravel(),
        A_eq=a_eq.tocsr(),
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise InvalidInputError(f"transport LP did not solve cleanly: {res.message}")
    flow = res.x.reshape(n1, n2)
    i, j = np.nonzero(flow > 1e-14)
    entries = tuple(zip(i.tolist(), j.tolist(), flow[i, j].tolist()))
    return TransportPlan(entries, max(float(res.fun), 0.0), "lp")


def w1_exact(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> tuple[float, TransportPlan]:
    """Exact order-1 transport cost and an optimal plan.

    Two uniform measures are solved as an assignment on replicated atoms
    while ``_replicates_cheaply`` holds for their sizes (always for equal
    sizes); other uniform pairs, and all non-uniform weights, go to the
    transportation LP. Arguments are first put in a canonical order
    (by a deterministic byte key) so the returned cost is exactly symmetric
    in the two measures. The combined atom count is capped at ``ATOM_CAP``.
    """
    if len(mu1) + len(mu2) > ATOM_CAP:
        raise SizeCapError(
            f"combined atom count {len(mu1) + len(mu2)} exceeds the exact-solve cap "
            f"{ATOM_CAP}; thin the measures first"
        )
    swap = _canonical_key(mu2) < _canonical_key(mu1)
    if swap:
        mu1, mu2 = mu2, mu1
    cost_mat = _cost_matrix(mu1, mu2)
    if mu1.is_uniform() and mu2.is_uniform() and _replicates_cheaply(len(mu1), len(mu2)):
        plan = _solve_assignment(cost_mat)
    else:
        plan = _solve_lp(cost_mat, mu1.weights, mu2.weights)
    _validate_plan(plan, mu1, mu2, cost_mat)
    return plan.cost, plan.transpose() if swap else plan


def contraction_curve(
    gen,
    mu0_atoms: Sequence[ZPoint],
    n_max: int,
    atoms_per_step: int = 128,
    pi_tol: float = 1e-3,
    seed: SeedSpec = SeedSpec(0),
) -> list[tuple[int, float]]:
    """Transport distance to a frozen plug-in invariant measure after n steps.

    A reference measure is built from ``atoms_per_step`` independent chains
    run past the burn-in horizon. The pushed cloud for curve point n replays
    the final n draws of its paired reference chain (common random numbers):
    each pushed atom is still an honest n-step chain sample from mu0, while
    the pairing realizes the pathwise contraction, so the curve tracks the
    geometric rate instead of the finite-atom sampling floor. Each curve point
    replays its atoms together as one lockstep block, which checks the
    replayed states against the generator's declared bounds.
    """
    from .generators import _chain_bundle, _final_states, burn_in_steps

    _check_count("n_max", n_max, 0)
    _check_count("atoms_per_step", atoms_per_step)
    mu0 = EmpiricalMeasure.uniform(mu0_atoms, gen.metric)
    horizon = max(burn_in_steps(gen, pi_tol), n_max)
    draw_idx, x_end, y_end = _chain_bundle(gen, horizon, atoms_per_step, seed)
    pi_hat = EmpiricalMeasure(x_end, y_end, gen.metric)
    starts = np.arange(atoms_per_step) % len(mu0)
    x0, y0 = mu0.xs[starts], mu0.ys[starts]
    curve = []
    for n in range(n_max + 1):
        xs, ys = _final_states(gen, x0, y0, draw_idx[:, horizon - n:])
        value, _ = w1_exact(EmpiricalMeasure(xs, ys, gen.metric), pi_hat)
        curve.append((n, value))
    return curve
