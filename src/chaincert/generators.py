"""Markov chain generators driven by iterated random maps.

A generator holds a governing map F and a finite categorical draw law for its
randomness. Each step applies

    Z_t = F(Z_{t-1}, theta_t),        theta_t iid,

and the construction records a per-draw Lipschitz factor whose mean (the
analytic contraction factor) must be strictly below one. Four variants:

* ``iid``: F(z, theta) = theta with atoms in the state space; factor 0.
* ``affine_ifs``: features follow x' = A x + b over a finite set of affine
  maps with contractive matrix parts, labels are a Lipschitz map of x'.
* ``labeled_lipschitz``: like affine_ifs but with a user-supplied feature map
  and a declared per-draw factor table.
* ``deterministic_map``: a single deterministic contractive feature map.

For the labelled variants the per-draw factor on the full state space is the
declared feature factor scaled by (1 + Lip(label)) / kappa. Chain states sit
on the label map's graph after the first step, and the shipped presets pick
kappa = 1 + Lip(label) scaling so this analytic factor also bounds the
observed two-point contraction along chains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolationError,
    GeneratorContractError,
    InvalidInputError,
)
from .metric import MetricSpec, SeedSpec, ZPoint, derive_stream, dist, make_rng

VARIANTS = ("iid", "affine_ifs", "labeled_lipschitz", "deterministic_map")

_PAIR_FLOOR = 1e-12  # probe skips state pairs closer than this
_PROBE_SLACK = 1e-9
_BOUND_SLACK = 1e-9  # relative tolerance of the state-bound tests


# -- state bounds --------------------------------------------------------------


@dataclass(frozen=True)
class BoxBound:
    """Axis-aligned box; also the sampling domain for probe starting points."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise InvalidInputError("box bound needs finite lo/hi of equal shape")
        if np.any(lo >= hi):
            raise InvalidInputError("box bound needs lo < hi in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, arr: np.ndarray, slack: float = _BOUND_SLACK) -> bool:
        pad = slack * np.maximum(1.0, np.abs(self.hi - self.lo))
        return bool(np.all(arr >= self.lo - pad) and np.all(arr <= self.hi + pad))

    def contains_rows(self, rows: np.ndarray) -> bool:
        """Whether every row of a 2-d array passes ``contains``."""
        return self.contains(rows)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class BallBound:
    """Euclidean ball of declared radius around the origin."""

    radius: float
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidInputError("ball bound needs a finite positive radius")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise InvalidInputError("ball bound needs a positive integer dimension")

    def contains(self, arr: np.ndarray, slack: float = _BOUND_SLACK) -> bool:
        return bool(np.linalg.norm(arr) <= self.radius * (1.0 + slack))

    def contains_rows(self, rows: np.ndarray) -> bool:
        """Whether every row of a 2-d array passes ``contains``.

        A row whose squared norm lies within a relative 1e-12 of the limit
        reads as outside, so a rounding difference between this row-wise norm
        and the one ``contains`` takes can only send a row on to the
        per-state check, never let through a row that check rejects.
        """
        limit = self.radius * (1.0 + _BOUND_SLACK)
        squares = np.einsum("ij,ij->i", rows, rows)
        return bool(np.all(squares <= limit * limit * (1.0 - 1e-12)))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        direction = rng.normal(size=self.dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.ones(self.dim)
            norm = math.sqrt(self.dim)
        radius = self.radius * rng.random() ** (1.0 / self.dim)
        return direction / norm * radius


# -- label maps ----------------------------------------------------------------


@dataclass(frozen=True)
class LabelMap:
    """Lipschitz map from features to labels with a declared constant."""

    kind: str  # identity | linear | callable
    lip: float
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return x
        if self.kind == "linear":
            return self.weight @ x + self.bias
        return np.asarray(self.fn(x), dtype=float).reshape(-1)


def identity_label() -> LabelMap:
    return LabelMap(kind="identity", lip=1.0)


def linear_label(weight, bias) -> LabelMap:
    weight = np.asarray(weight, dtype=float)
    if weight.ndim != 2:
        raise InvalidInputError("linear label needs a 2-d weight matrix")
    bias = np.asarray(bias, dtype=float).reshape(-1)
    if bias.shape[0] != weight.shape[0]:
        raise InvalidInputError("linear label needs one bias entry per weight row")
    lip = float(np.linalg.norm(weight, 2))
    return LabelMap(kind="linear", lip=lip, weight=weight, bias=bias)


def callable_label(fn, lip: float) -> LabelMap:
    if not (np.isfinite(lip) and lip >= 0):
        raise InvalidInputError("callable label needs a finite non-negative declared constant")
    return LabelMap(kind="callable", lip=float(lip), fn=fn)


# -- categorical draw law --------------------------------------------------------


@dataclass(frozen=True)
class CategoricalTheta:
    """Finite draw law: opaque atoms with positive weights summing to one."""

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(atoms) == 0 or weights.shape[0] != len(atoms):
            raise InvalidInputError("theta law needs one weight per atom, at least one atom")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise InvalidInputError("theta weights must be finite and strictly positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise InvalidInputError(
                f"theta weights must sum to 1 within 1e-12, got {float(weights.sum())!r}"
            )
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.atoms)

    def indices_from_uniform(self, u: np.ndarray) -> np.ndarray:
        edges = np.cumsum(self.weights)
        idx = np.searchsorted(edges, u, side="right")
        return np.minimum(idx, len(self.atoms) - 1)


# -- generator -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Generator:
    """One iterated-random-map chain with declared contraction bookkeeping."""

    variant: str
    metric: MetricSpec
    theta: CategoricalTheta
    x_bound: object
    y_bound: object
    z0: ZPoint
    label_map: Optional[LabelMap] = None
    governing_map: Optional[Callable[[np.ndarray, object], np.ndarray]] = None
    lip_x_per_theta: Optional[np.ndarray] = None
    name: str = ""
    fixed_point: Optional[ZPoint] = None
    lip_per_theta: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        self.metric.check_point(self.z0)
        if not (self.x_bound.contains(self.z0.x) and self.y_bound.contains(self.z0.y)):
            raise GeneratorContractError("initial state lies outside the declared bounds")
        if self.variant == "iid":
            for atom in self.theta.atoms:
                if not isinstance(atom, ZPoint):
                    raise InvalidInputError("iid variant needs ZPoint atoms")
                self.metric.check_point(atom)
                if not (self.x_bound.contains(atom.x) and self.y_bound.contains(atom.y)):
                    raise GeneratorContractError("iid atom lies outside the declared bounds")
            lips = np.zeros(len(self.theta))
        else:
            if self.label_map is None or self.governing_map is None:
                raise InvalidInputError(f"variant {self.variant!r} needs a label map and a governing map")
            if self.lip_x_per_theta is None:
                raise InvalidInputError(f"variant {self.variant!r} needs a per-draw feature factor table")
            table = np.asarray(self.lip_x_per_theta, dtype=float).reshape(-1)
            if table.shape[0] != len(self.theta):
                raise InvalidInputError("feature factor table must align with the theta atoms")
            if not np.all(np.isfinite(table)) or np.any(table < 0):
                raise InvalidInputError("feature factors must be finite and non-negative")
            if self.variant == "deterministic_map" and len(self.theta) != 1:
                raise InvalidInputError("deterministic_map uses a single dummy theta atom")
            object.__setattr__(self, "lip_x_per_theta", table)
            lips = table * (1.0 + self.label_map.lip) / self.metric.kappa
        lips = lips.copy()
        lips.setflags(write=False)
        object.__setattr__(self, "lip_per_theta", lips)
        factor = float(self.theta.weights @ lips)
        if factor >= 1.0:
            raise AssumptionViolationError(
                f"mean contraction factor must be strictly below one, got {factor!r}"
            )
        object.__setattr__(self, "_analytic_factor", factor)

    # raw-array step; ZPoint construction is kept out of the hot path
    def _apply(self, x: np.ndarray, theta_index: int) -> tuple[np.ndarray, np.ndarray]:
        atom = self.theta.atoms[theta_index]
        if self.variant == "iid":
            return atom.x, atom.y
        x_new = np.asarray(self.governing_map(x, atom), dtype=float).reshape(-1)
        return x_new, self.label_map.apply(x_new)

    def _check_state(self, x: np.ndarray, y: np.ndarray) -> None:
        if not (self.x_bound.contains(x) and self.y_bound.contains(y)):
            raise GeneratorContractError(
                f"generator image escaped the declared bounds at state "
                f"(x={np.asarray(x).tolist()}, y={np.asarray(y).tolist()})"
            )

    def _check_states(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """``_check_state`` over paired rows: one vectorized test, and a scan
        that names the first escaping state only when that test fails."""
        if self.x_bound.contains_rows(xs) and self.y_bound.contains_rows(ys):
            return
        for x, y in zip(xs, ys):
            self._check_state(x, y)


def analytic_lip_factor(gen: Generator) -> float:
    """Mean per-draw contraction factor sum_i nu_i * ell_i (declared, not probed)."""
    return gen._analytic_factor


def step(gen: Generator, z: ZPoint, theta_index: int) -> ZPoint:
    """Apply the governing map once for the given draw index."""
    gen.metric.check_point(z)
    if not (0 <= theta_index < len(gen.theta)):
        raise InvalidInputError(f"theta index {theta_index} out of range")
    x_new, y_new = gen._apply(z.x, theta_index)
    gen._check_state(x_new, y_new)
    return ZPoint(x_new, y_new)


# -- trajectories ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled chain path; consecutive points are linked by one recorded draw.

    ``seed`` and ``draw_offset`` identify the uniform draws used: draw t of the
    path consumed ``make_rng(seed).random(...)`` position ``draw_offset + t``.
    Suffix regeneration from any interior state therefore reproduces the
    original tail bit-exactly.
    """

    xs: np.ndarray
    ys: np.ndarray
    theta_indices: np.ndarray
    seed: SeedSpec
    draw_offset: int
    metric: MetricSpec
    initial_law: tuple

    def __len__(self) -> int:
        return self.xs.shape[0]

    def point(self, i: int) -> ZPoint:
        return ZPoint(self.xs[i], self.ys[i])

    @property
    def points(self) -> tuple[ZPoint, ...]:
        return tuple(self.point(i) for i in range(len(self)))

    def slice(self, start: int, end: int, initial_law: Optional[tuple] = None) -> "Trajectory":
        if not (0 <= start < end <= len(self)):
            raise InvalidInputError(f"slice [{start}, {end}) out of range for length {len(self)}")
        law = initial_law if initial_law is not None else ("point", self.point(start))
        return Trajectory(
            xs=self.xs[start:end],
            ys=self.ys[start:end],
            theta_indices=self.theta_indices[start : max(end - 1, start)],
            seed=self.seed,
            draw_offset=self.draw_offset + start,
            metric=self.metric,
            initial_law=law,
        )


def sample_chain(
    gen: Generator,
    z0: Optional[ZPoint] = None,
    n: int = 1,
    seed: SeedSpec = SeedSpec(0),
    draw_offset: int = 0,
) -> Trajectory:
    """Sample a length-n path (n points, n-1 draws) starting at z0.

    ``draw_offset`` skips that many uniforms of the stream before drawing,
    which is how a suffix is regenerated from an interior state.

    The bounds are checked once the path is filled (or the governing map
    has raised), so the maps may run on states past the first escaping one,
    and print numpy's floating-point warnings there, before the
    ``GeneratorContractError`` naming that first escaping state is raised.
    """
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"trajectory length must be a positive integer, got {n!r}")
    if not (isinstance(draw_offset, int) and draw_offset >= 0):
        raise InvalidInputError(f"draw_offset must be a non-negative integer, got {draw_offset!r}")
    start = gen.z0 if z0 is None else z0
    gen.metric.check_point(start)
    gen._check_state(start.x, start.y)

    if n > 1:
        u = make_rng(seed).random(draw_offset + n - 1)[draw_offset:]
        idx = gen.theta.indices_from_uniform(u)
    else:
        idx = np.zeros(0, dtype=int)

    dim_x, dim_y = gen.metric.dim_x, gen.metric.dim_y
    if gen.variant == "iid" and n > 1:
        atom_xs = np.stack([a.x for a in gen.theta.atoms])
        atom_ys = np.stack([a.y for a in gen.theta.atoms])
        xs = np.vstack([start.x[None, :], atom_xs[idx]])
        ys = np.vstack([start.y[None, :], atom_ys[idx]])
    else:
        xs = np.empty((n, dim_x))
        ys = np.empty((n, dim_y))
        xs[0], ys[0] = start.x, start.y
        try:
            for t in range(1, n):
                xs[t], ys[t] = gen._apply(xs[t - 1], int(idx[t - 1]))
        except Exception:
            # the map may have failed on a state that had already escaped;
            # that escape is the error to report
            gen._check_states(xs[1:t], ys[1:t])
            raise
        gen._check_states(xs[1:], ys[1:])
    return Trajectory(
        xs=xs,
        ys=ys,
        theta_indices=idx,
        seed=seed,
        draw_offset=draw_offset,
        metric=gen.metric,
        initial_law=("point", start),
    )


def continue_chain(gen: Generator, traj: Trajectory, k: int) -> Trajectory:
    """Regenerate the suffix of ``traj`` starting from its k-th state.

    Uses only (Z_k, the trajectory's stream identity); the result matches the
    original tail bit-exactly, which is the Markov property made testable.
    """
    if not (0 <= k < len(traj)):
        raise InvalidInputError(f"suffix start {k} out of range")
    return sample_chain(gen, traj.point(k), len(traj) - k, traj.seed, traj.draw_offset + k)


def burn_in_steps(gen: Generator, tol: float) -> int:
    """Steps needed to push any start within ``tol`` of the invariant law.

    The contraction chain gives W(mu P^B, pi) <= ell_F^B since the diameter
    bound caps W(mu, pi) at one; a factor of zero means one step suffices.
    """
    if not (0 < tol < 1):
        raise InvalidInputError(f"burn-in tolerance must lie in (0, 1), got {tol!r}")
    factor = analytic_lip_factor(gen)
    if factor == 0.0:
        return 1
    return max(1, math.ceil(math.log(tol) / math.log(factor)))


def sample_stationary_chain(
    gen: Generator, n: int, tol: float, seed: SeedSpec
) -> Trajectory:
    """Burn in to within ``tol`` of the invariant law, then record n points."""
    b = burn_in_steps(gen, tol)
    full = sample_chain(gen, gen.z0, b + n, seed)
    return full.slice(b, b + n, initial_law=("plugin", tol))


def _sample_start(gen: Generator, rng: np.random.Generator) -> ZPoint:
    x = gen.x_bound.sample(rng)
    if gen.variant == "iid":
        y = gen.y_bound.sample(rng)
    else:
        y = gen.label_map.apply(x)
        if not gen.y_bound.contains(y):
            y = gen.y_bound.sample(rng)
    return ZPoint(x, y)


def _chain_bundle(gen: Generator, steps: int, count: int, seed: SeedSpec):
    """Run ``count`` independent chains for ``steps`` draws from sampled starts.

    Returns (starts, draw index matrix, final states); the draw matrix is what
    lets callers replay suffixes of these same chains.
    """
    starts: list[ZPoint] = []
    finals: list[ZPoint] = []
    indices = np.empty((count, steps), dtype=int)
    for i in range(count):
        rng = make_rng(derive_stream(seed, i))
        start = _sample_start(gen, rng)
        idx = gen.theta.indices_from_uniform(rng.random(steps))
        indices[i] = idx
        x, y = start.x, start.y
        for t in range(steps):
            x, y = gen._apply(x, int(idx[t]))
            gen._check_state(x, y)
        starts.append(start)
        finals.append(ZPoint(x, y))
    return starts, indices, finals


def invariant_sampler(gen: Generator, tol: float, count: int, seed: SeedSpec):
    """Plug-in approximation of the invariant law.

    One atom per independent chain, each run for the burn-in horizon of
    ``tol``, so every atom's marginal law is within ``tol`` of the invariant
    law in transport distance.
    """
    from .transport import EmpiricalMeasure

    if not (isinstance(count, int) and count >= 1):
        raise InvalidInputError(f"atom count must be a positive integer, got {count!r}")
    b = burn_in_steps(gen, tol)
    _, _, finals = _chain_bundle(gen, b, count, seed)
    return EmpiricalMeasure.uniform(finals, gen.metric)


def empirical_contraction_probe(
    gen: Generator,
    num_pairs: int = 64,
    chain_len: int = 16,
    seed: SeedSpec = SeedSpec(0),
) -> float:
    """Largest draw-averaged two-point contraction ratio over sampled chain states.

    Each pair takes one state from each of two independent chains (skipping
    the start, so labelled states sit on the label graph), and averages
    d(F(z, theta), F(zbar, theta)) / d(z, zbar) exactly over the draw law.
    The maximum must stay within 1e-9 of the analytic factor.
    """
    if chain_len < 2:
        raise InvalidInputError("probe needs chain_len >= 2")
    factor = analytic_lip_factor(gen)
    worst = 0.0
    witness = None
    for j in range(num_pairs):
        rng = make_rng(derive_stream(seed, j))
        pair = []
        for c in range(2):
            start = _sample_start(gen, rng)
            chain_seed = derive_stream(seed, (c + 1) * num_pairs + j)
            traj = sample_chain(gen, start, chain_len, chain_seed)
            pick = int(rng.integers(1, chain_len))
            pair.append(traj.point(pick))
        za, zb = pair
        base = dist(za, zb, gen.metric)
        if base < _PAIR_FLOOR:
            continue
        ratio = 0.0
        for i, w in enumerate(gen.theta.weights):
            xa, ya = gen._apply(za.x, i)
            xb, yb = gen._apply(zb.x, i)
            num = dist(ZPoint(xa, ya), ZPoint(xb, yb), gen.metric)
            ratio += float(w) * (num / base)
        if ratio > worst:
            worst, witness = ratio, (za, zb)
    if worst > factor + _PROBE_SLACK:
        raise GeneratorContractError(
            f"probe ratio {worst!r} exceeds the analytic factor {factor!r} "
            f"at pair {witness!r}"
        )
    return worst


# -- constructors ----------------------------------------------------------------


def iid_generator(atoms: Sequence[ZPoint], weights, metric: MetricSpec, x_bound, y_bound,
                  z0: Optional[ZPoint] = None, name: str = "iid") -> Generator:
    theta = CategoricalTheta(tuple(atoms), np.asarray(weights, dtype=float))
    start = z0 if z0 is not None else theta.atoms[0]
    return Generator(
        variant="iid", metric=metric, theta=theta, x_bound=x_bound, y_bound=y_bound,
        z0=start, name=name,
    )


def _affine_map(x: np.ndarray, theta) -> np.ndarray:
    mat, vec = theta
    return mat @ x + vec


def affine_ifs_generator(
    mats: Sequence, vecs: Sequence, weights, label_map: LabelMap,
    attractor_radius: float, z0_x, name: str = "affine_ifs",
) -> Generator:
    """Affine iterated function system on a ball.

    ``attractor_radius`` (R) plus the largest shift norm (r) fixes the state
    ball radius R + r and the normalizer kappa = 4 (R + r). Construction
    verifies that every matrix part is a strict contraction and that images of
    the state ball stay inside it.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vecs]
    if len(mats) != len(vecs) or not mats:
        raise InvalidInputError("affine_ifs needs matching non-empty matrix and shift lists")
    dim = vecs[0].shape[0]
    for m, v in zip(mats, vecs):
        if m.shape != (dim, dim) or v.shape != (dim,):
            raise InvalidInputError("affine_ifs maps must share one square dimension")
    norms = np.array([float(np.linalg.norm(m, 2)) for m in mats])
    if np.any(norms >= 1.0):
        raise AssumptionViolationError(
            f"affine_ifs matrix parts must be strict contractions, spectral norms {norms.tolist()}"
        )
    if not (np.isfinite(attractor_radius) and attractor_radius > 0):
        raise InvalidInputError("attractor_radius must be finite and positive")
    shift_radius = float(max(np.linalg.norm(v) for v in vecs))
    ball = attractor_radius + shift_radius
    for m, v, s in zip(mats, vecs, norms):
        if s * ball + float(np.linalg.norm(v)) > ball * (1.0 + 1e-12):
            raise GeneratorContractError(
                "affine map does not keep the state ball invariant; "
                f"norm {s!r} with shift {np.linalg.norm(v)!r} escapes radius {ball!r}"
            )
    kappa = 4.0 * ball
    x0 = np.asarray(z0_x, dtype=float).reshape(-1)
    if x0.shape != (dim,):
        raise InvalidInputError(f"affine_ifs start z0_x must have the maps' dimension {dim}")
    if label_map.kind == "linear" and label_map.weight.shape[1] != dim:
        raise InvalidInputError(f"linear label weight needs {dim} columns, one per coordinate")
    y0 = np.asarray(label_map.apply(x0), dtype=float).reshape(-1)
    dim_y = y0.shape[0]
    metric = MetricSpec(dim_x=dim, dim_y=dim_y, kappa=kappa)
    z0 = ZPoint(x0, y0)
    theta = CategoricalTheta(tuple(zip(mats, vecs)), np.asarray(weights, dtype=float))
    return Generator(
        variant="affine_ifs", metric=metric, theta=theta,
        x_bound=BallBound(ball, dim), y_bound=BallBound(ball, dim_y),
        z0=z0, label_map=label_map, governing_map=_affine_map,
        lip_x_per_theta=norms, name=name,
    )


def labeled_lipschitz_generator(
    governing_map, theta_atoms: Sequence, weights, lip_x_per_theta,
    label_map: LabelMap, metric: MetricSpec, x_bound, y_bound,
    z0: ZPoint, name: str = "labeled_lipschitz",
) -> Generator:
    theta = CategoricalTheta(tuple(theta_atoms), np.asarray(weights, dtype=float))
    return Generator(
        variant="labeled_lipschitz", metric=metric, theta=theta,
        x_bound=x_bound, y_bound=y_bound, z0=z0, label_map=label_map,
        governing_map=governing_map,
        lip_x_per_theta=np.asarray(lip_x_per_theta, dtype=float), name=name,
    )


def deterministic_map_generator(
    governing_map, lip_x: float, label_map: LabelMap, metric: MetricSpec,
    x_bound, y_bound, z0: ZPoint, fixed_point: Optional[ZPoint] = None,
    name: str = "deterministic_map",
) -> Generator:
    theta = CategoricalTheta((None,), np.array([1.0]))
    return Generator(
        variant="deterministic_map", metric=metric, theta=theta,
        x_bound=x_bound, y_bound=y_bound, z0=z0, label_map=label_map,
        governing_map=governing_map, lip_x_per_theta=np.array([float(lip_x)]),
        fixed_point=fixed_point, name=name,
    )


def exact_fixed_point(gen: Generator, tol: float = 1e-15, max_iter: int = 100000) -> ZPoint:
    """Fixed point of a deterministic_map generator, iterated to convergence."""
    if gen.variant != "deterministic_map":
        raise InvalidInputError("fixed points are defined for the deterministic_map variant")
    if gen.fixed_point is not None:
        return gen.fixed_point
    z = gen.z0
    for _ in range(max_iter):
        nxt = step(gen, z, 0)
        if dist(z, nxt, gen.metric) <= tol:
            return nxt
        z = nxt
    raise AssumptionViolationError("fixed-point iteration did not converge; factor too close to one")
