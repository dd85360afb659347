"""Markov chain generators driven by iterated random maps.

A generator holds a governing map F and a finite categorical draw law for its
randomness. Each step applies

    Z_t = F(Z_{t-1}, theta_t),        theta_t iid,

and the construction records a per-draw Lipschitz factor whose mean (the
analytic contraction factor) must be strictly below one. The generator's
parts say what chain it is. With no governing map the draws are iid,
F(z, theta) = theta over atoms in the state space, factor 0
(``iid_generator``). Otherwise features follow x' = F(x, theta) and labels
are a Lipschitz map of x' (``affine_ifs_generator`` for affine maps with
contractive matrix parts, ``labeled_lipschitz_generator`` for a supplied map
and factor table); with one atom the map is deterministic, whichever
constructor built it, and the invariant law is the point mass at its fixed
point (``deterministic_map_generator`` builds one directly).

For a governing map the per-draw factor on the full state space is the
declared feature factor scaled by (1 + Lip(label)) / kappa. Chain states sit
on the label map's graph after the first step, and the shipped presets pick
kappa = 1 + Lip(label) scaling so this analytic factor also bounds the
observed two-point contraction along chains.

Chains are stepped in lockstep: a block of m states, one row per chain,
advances one step by grouping its rows by draw index and calling the
governing map once per group. So maps act row-wise on a block. A governing
map takes an (m, d_x) block of feature rows and one theta atom and returns
an (m, d_x) block; a label callable takes an (m, d_x) block and returns an
(m, d_y) block; row i of the output depends on row i of the input only. A
map that returns the wrong shape, or that fails on a block but runs on each
row alone (one written for a single state), raises ``InvalidInputError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolationError,
    GeneratorContractError,
    InvalidInputError,
)
from .metric import (
    MetricSpec,
    SeedSpec,
    ZPoint,
    _check_count,
    _check_probabilities,
    _row_norms,
    derive_streams,
    dist,
    stream_keys,
    stream_uniforms,
)

_BOUND_SLACK = 1e-9  # relative tolerance of the state-bound tests
_FIXED_POINT_TOL = 1e-15  # most a fixed point may move in one step, iterated or declared
_FIXED_POINT_MAX_ITER = 100000
_BLOCK_STATES = 1 << 14  # chain states one stepped block holds at most
_ROW_CONTRACT = (
    "governing maps and label maps act row-wise: they take an (m, d) block of "
    "states, one row per chain, and return one output row per input row"
)


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
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.all(np.isfinite(width)):
            raise InvalidInputError("box bound needs a finite width hi - lo in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def inside(self, rows: np.ndarray) -> np.ndarray:
        """Which rows of a 2-d array lie in the box."""
        pad = _BOUND_SLACK * np.maximum(1.0, np.abs(self.hi - self.lo))
        return np.all((rows >= self.lo - pad) & (rows <= self.hi + pad), axis=1)

    def contains(self, arr: np.ndarray) -> bool:
        return bool(self.inside(np.reshape(arr, (1, -1)))[0])

    @property
    def start_words(self) -> int:
        return self.dim

    def draw_starts(self, keys: np.ndarray, first: int = 0) -> np.ndarray:
        """One start in the box per stream key, as (len(keys), dim) rows: the
        uniforms u at draws first, ..., first + dim - 1 give lo + (hi - lo) u."""
        return self.lo + (self.hi - self.lo) * stream_uniforms(keys, first, self.dim)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Box-Muller normals sqrt(-2 log(1 - u1)) times cos and sin of 2 pi u2
    from the uniform pairs (u1, u2) in columns (0, 1), (2, 3), ... of ``u``."""
    # by the C library, one value at a time: numpy's array log, cos, sin (and
    # power) may take SIMD paths whose last bits differ between hosts
    out = []
    for u1, u2 in zip(u[:, 0::2].ravel().tolist(), u[:, 1::2].ravel().tolist()):
        r, angle = math.sqrt(-2.0 * math.log(1.0 - u1)), math.tau * u2
        out += (r * math.cos(angle), r * math.sin(angle))
    return np.array(out).reshape(u.shape)


@dataclass(frozen=True)
class BallBound:
    """Euclidean ball of declared radius around the origin."""

    radius: float
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidInputError("ball bound needs a finite positive radius")
        _check_count("ball bound dimension", self.dim)

    def inside(self, rows: np.ndarray) -> np.ndarray:
        """Which rows of a 2-d array lie in the ball."""
        return _row_norms(rows) <= self.radius * (1.0 + _BOUND_SLACK)

    def contains(self, arr: np.ndarray) -> bool:
        return bool(self.inside(np.reshape(arr, (1, -1)))[0])

    @property
    def start_words(self) -> int:
        return 2 * ((self.dim + 1) // 2) + 1

    def draw_starts(self, keys: np.ndarray, first: int = 0) -> np.ndarray:
        """One start in the ball per stream key, as (len(keys), dim) rows:
        the direction's normals from the draws from ``first`` on, in pairs
        (``_box_muller``; an odd dim drops the last), then one uniform u for
        direction / |direction| * radius * u^(1/dim), u^(1/dim) by the C
        library's pow. A zero direction is replaced by the ones vector."""
        u = stream_uniforms(keys, first, self.start_words)
        direction = _box_muller(u[:, :-1])[:, :self.dim]
        norm = _row_norms(direction)
        flat = norm == 0.0
        direction[flat], norm[flat] = 1.0, math.sqrt(self.dim)
        radius = self.radius * np.array([r ** (1.0 / self.dim) for r in u[:, -1].tolist()])
        return direction / norm[:, None] * radius[:, None]


# -- label maps ----------------------------------------------------------------


@dataclass(frozen=True)
class LabelMap:
    """Lipschitz map from features to labels with a declared constant; it maps
    an (m, d_x) block of feature rows to an (m, d_y) block of label rows."""

    kind: str  # identity | linear | callable
    lip: float
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return x
        if self.kind == "linear":
            # a stack of matrix-vector products rounds like weight @ row for
            # every row; x @ weight.T does not
            return (self.weight @ x[:, :, None])[:, :, 0] + self.bias
        return self.fn(x)


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
        _check_probabilities("theta", weights, len(atoms))
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
    """One iterated-random-map chain with declared contraction bookkeeping:
    iid draws of ``ZPoint`` atoms without a ``governing_map``, and a
    deterministic map, the one chain that takes a ``fixed_point``, with a
    governing map over one atom."""

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

    def __post_init__(self):
        self._check_state(self.z0, "initial state")
        if self.governing_map is None:
            for atom in self.theta.atoms:
                if not isinstance(atom, ZPoint):
                    raise InvalidInputError("iid draws need ZPoint atoms")
                self._check_state(atom, "iid atom")
            object.__setattr__(self, "_atom_xs", np.stack([a.x for a in self.theta.atoms]))
            object.__setattr__(self, "_atom_ys", np.stack([a.y for a in self.theta.atoms]))
            lips = np.zeros(len(self.theta))
        else:
            if self.label_map is None or self.lip_x_per_theta is None:
                raise InvalidInputError("a governing map needs a label map and per-draw factors")
            table = np.asarray(self.lip_x_per_theta, dtype=float).reshape(-1)
            if table.shape[0] != len(self.theta):
                raise InvalidInputError("feature factor table must align with the theta atoms")
            if not np.all(np.isfinite(table)) or np.any(table < 0):
                raise InvalidInputError("feature factors must be finite and non-negative")
            object.__setattr__(self, "lip_x_per_theta", table)
            lips = table * (1.0 + self.label_map.lip) / self.metric.kappa
        factor = float(self.theta.weights @ lips)
        if factor >= 1.0:
            raise AssumptionViolationError(
                f"mean contraction factor must be strictly below one, got {factor!r}"
            )
        object.__setattr__(self, "_analytic_factor", factor)
        z = self.fixed_point
        if z is not None:
            _check_deterministic(self)
            self._check_state(z, "declared fixed point")
            moved = dist(z, _map_once(self, z), self.metric)
            if moved > _FIXED_POINT_TOL:
                raise AssumptionViolationError(
                    f"declared fixed point is not fixed: one step moves it by {moved!r}"
                )

    def _check_state(self, z: ZPoint, what: str) -> None:
        self.metric.check_point(z)
        if not (self.x_bound.contains(z.x) and self.y_bound.contains(z.y)):
            raise GeneratorContractError(f"{what} lies outside the declared bounds")


def _check_deterministic(gen: Generator) -> None:
    if gen.governing_map is None or len(gen.theta) != 1:
        raise InvalidInputError("a fixed point needs a deterministic map: a map over one atom")


def analytic_lip_factor(gen: Generator) -> float:
    """Mean per-draw contraction factor sum_i nu_i * ell_i (declared, not probed)."""
    return gen._analytic_factor


# -- the lockstep stepper ----------------------------------------------------------


def _as_rows(out, rows: int, width: Optional[int], what: str) -> np.ndarray:
    arr = np.asarray(out, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != rows or (width is not None and arr.shape[1] != width):
        raise InvalidInputError(
            f"{what} returned shape {arr.shape} for a block of {rows} rows; {_ROW_CONTRACT}"
        )
    return arr


def _fails_on_a_row(fn, block: np.ndarray, args: tuple) -> bool:
    try:
        for row in block:
            fn(row, *args)
    except Exception:
        return True
    return False


def _call_rows(fn, block: np.ndarray, width: Optional[int], what: str, *args) -> np.ndarray:
    """``fn(block, *args)`` held to the row-block contract. A map that raises
    on the block but runs on each of its rows alone was written for single
    rows, and that is the error reported."""
    try:
        out = fn(block, *args)
    except Exception as err:
        if not _fails_on_a_row(fn, block, args):
            raise InvalidInputError(
                f"{what} fails on a block of {len(block)} rows but runs on each row "
                f"alone; {_ROW_CONTRACT}"
            ) from err
        raise
    return _as_rows(out, len(block), width, what)


def _advance(gen: Generator, x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of every row of the (m, d_x) block ``x``, row i under draw idx[i].
    The iid map ignores the state, so there ``idx`` may hold any number of steps."""
    if gen.governing_map is None:
        return gen._atom_xs[idx], gen._atom_ys[idx]
    atoms, dim_x = gen.theta.atoms, gen.metric.dim_x
    if len(atoms) == 1 or len(idx) == 1:
        x_new = _call_rows(gen.governing_map, x, dim_x, "governing map", atoms[idx[0]])
    else:
        # rows sorted by draw, so that each draw's rows are one contiguous slice
        order = np.argsort(idx, kind="stable")
        x_sorted, start, parts = x[order], 0, []
        for a, stop in enumerate(np.cumsum(np.bincount(idx, minlength=len(atoms))).tolist()):
            if stop > start:
                parts.append(_call_rows(gen.governing_map, x_sorted[start:stop], dim_x,
                                        "governing map", atoms[a]))
            start = stop
        x_new = np.empty_like(x)
        x_new[order] = np.concatenate(parts)
    return x_new, _call_rows(gen.label_map.apply, x_new, gen.metric.dim_y, "label map")


def _step_block(gen: Generator, x0, y0, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step m chains in lockstep: chain i starts at row i of (x0, y0) (or at
    the one row given) and takes the draws idx[i]. Returns the paths, shaped
    (m, steps + 1, d), so that each chain's path is one contiguous array.

    The bounds are checked once the block is filled, or once a map has
    raised, so the maps may run on states past a first escaping one, and
    print numpy's floating-point warnings there, before the error is raised.
    That error is the one stepping the chains one at a time would raise.
    """
    m, steps = idx.shape
    xs = np.empty((m, steps + 1, gen.metric.dim_x))
    ys = np.empty((m, steps + 1, gen.metric.dim_y))
    xs[:, 0], ys[:, 0] = x0, y0
    x, t = xs[:, 0], steps + 1
    try:
        if gen.governing_map is None:  # F(z, theta) = theta: all steps in one gather
            xs[:, 1:], ys[:, 1:] = _advance(gen, x, idx)
        else:
            for t in range(1, steps + 1):
                # the maps read the last step's own (contiguous) output block
                x, y = _advance(gen, x, idx[:, t - 1])
                xs[:, t], ys[:, t] = x, y
    except Exception:
        _raise_first_failure(gen, xs[:, :t], ys[:, :t], idx)
        raise
    # the start rows ride along in the mask, which the check then drops
    if not _inside(gen, xs, ys)[:, 1:].all():
        _raise_first_failure(gen, xs, ys, idx)
    return xs, ys


def _inside(gen: Generator, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Which states of the (m, t, d) paths lie in the bounds, as an (m, t) mask."""
    m, t = xs.shape[:2]
    return (gen.x_bound.inside(xs.reshape(m * t, xs.shape[2]))
            & gen.y_bound.inside(ys.reshape(m * t, ys.shape[2]))).reshape(m, t)


def _check_paths(gen: Generator, xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise on the first state of the (m, t, d) paths, in chain order, that
    leaves the bounds."""
    escaped = np.argwhere(~_inside(gen, xs, ys))
    if len(escaped):
        c, t = escaped[0]
        raise GeneratorContractError(
            f"generator image escaped the declared bounds at state "
            f"(x={xs[c, t].tolist()}, y={ys[c, t].tolist()})"
        )


def _raise_first_failure(gen: Generator, xs: np.ndarray, ys: np.ndarray, idx: np.ndarray) -> None:
    """Raise the error of the first failing chain in chain order, and within
    it of the first escaping state among the filled steps of ``xs``.

    Several chains are replayed one at a time: a map that raised on the block
    may have raised on a later chain than one that escapes, or before a state
    of an earlier chain escapes. What the replays leave (a map that is not
    row-wise) is read from the mask of the filled steps.
    """
    if idx.shape[0] > 1:
        for c in range(idx.shape[0]):
            _step_block(gen, xs[c, 0], ys[c, 0], idx[c:c + 1])
    _check_paths(gen, xs[:, 1:], ys[:, 1:])


def _check_chain_size(gen: Generator, states: int) -> None:
    """Raise unless numpy can size one chain's state rows, 8 bytes a
    coordinate, and so its fewer draw words, 8 bytes a step."""
    need = 8 * states * max(gen.metric.dim_x, gen.metric.dim_y)
    if need > np.iinfo(np.intp).max:
        raise InvalidInputError(f"{states} chain states need {need} bytes, past numpy's limit")


def _block_size(states_per_chain: int) -> int:
    """Chains per stepped block, so that a block holds at most _BLOCK_STATES states."""
    return max(1, _BLOCK_STATES // states_per_chain)


def _final_states(gen: Generator, x0: np.ndarray, y0: np.ndarray, idx: np.ndarray):
    """Final states of the chains started at the rows of (x0, y0), chain i
    under the draws idx[i]; stepped in blocks, keeping only the last rows."""
    x_end, y_end = np.empty_like(x0), np.empty_like(y0)
    size = _block_size(idx.shape[1] + 1)
    for lo in range(0, idx.shape[0], size):
        hi = lo + size
        xs, ys = _step_block(gen, x0[lo:hi], y0[lo:hi], idx[lo:hi])
        x_end[lo:hi], y_end[lo:hi] = xs[:, -1], ys[:, -1]
    return x_end, y_end


def _map_once(gen: Generator, z: ZPoint) -> ZPoint:
    """The image of ``z`` under draw 0, as a one-row block's step."""
    xs, ys = _step_block(gen, z.x, z.y, np.zeros((1, 1), dtype=int))
    return ZPoint(xs[0, 1], ys[0, 1])


# -- trajectories ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled chain path: states ``xs``/``ys``, one row per state.

    ``seed`` names the stream the path drew from, before any slicing: a slice
    keeps its parent's seed, so its first draw is not the stream's first.
    """

    xs: np.ndarray
    ys: np.ndarray
    seed: SeedSpec
    metric: MetricSpec

    def __len__(self) -> int:
        return self.xs.shape[0]

    def slice(self, start: int, end: int) -> "Trajectory":
        if not (0 <= start < end <= len(self)):
            raise InvalidInputError(f"slice [{start}, {end}) out of range for length {len(self)}")
        return Trajectory(self.xs[start:end], self.ys[start:end], self.seed, self.metric)


def _paths(gen: Generator, n: int, seeds: list, skip: int = 0) -> Iterator[list]:
    """Length-n paths (n points, n-1 draws) from the generator's start, path
    i taking uniform t of the stream of ``seeds[i]`` for its draw t, each
    keeping its states from index ``skip`` on, one list per stepped block of
    at most ``_BLOCK_STATES`` states; a path is a view into its block.

    A one-atom law draws index 0 at every step, so every path is the same
    orbit: it is stepped once, one list holds every trajectory, all sharing
    one read-only view of that path, and nothing is drawn from the streams.

    The bounds are checked once a block is filled (or a map has raised), so
    the maps may run on states past a first escaping one, and print numpy's
    floating-point warnings there, before the ``GeneratorContractError``
    naming the first escaping state of the first failing chain is raised.
    """
    _check_count("n", n)
    _check_chain_size(gen, n)
    if len(gen.theta) == 1:
        xs, ys = _step_block(gen, gen.z0.x, gen.z0.y, np.zeros((1, n - 1), dtype=int))
        xs.flags.writeable = ys.flags.writeable = False
        xs, ys = xs[0, skip:], ys[0, skip:]
        yield [Trajectory(xs=xs, ys=ys, seed=seed, metric=gen.metric) for seed in seeds]
        return
    size = _block_size(n)
    for lo in range(0, len(seeds), size):
        block = seeds[lo:lo + size]
        idx = gen.theta.indices_from_uniform(stream_uniforms(stream_keys(block), 0, n - 1))
        xs, ys = _step_block(gen, gen.z0.x, gen.z0.y, idx)
        yield [Trajectory(xs=xs[i, skip:], ys=ys[i, skip:], seed=seed, metric=gen.metric)
               for i, seed in enumerate(block)]


def sample_chain(gen: Generator, n: int, seed: SeedSpec) -> Trajectory:
    """Sample a length-n path (n points, n-1 draws) from the generator's start."""
    return next(_paths(gen, n, [seed]))[0]


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


def burn_in_allowance(gen: Generator, tol: float, ell_H: float) -> float:
    """ell_H * ell_F^B, B = ``burn_in_steps(gen, tol)``: the bias a burned-in
    start leaves in a mean of losses with Lipschitz constant ell_H."""
    return ell_H * analytic_lip_factor(gen) ** burn_in_steps(gen, tol)


def chain_batches(
    gen: Generator, n: int, seed: SeedSpec, count: int, tol: Optional[float] = None
) -> Iterator[list]:
    """Run ``count`` independent chains of n recorded states from the
    generator's start, chain i drawing from ``derive_stream(seed, i)``, and
    yield them in chain order, one list per stepped block: a list holds at
    most ``_BLOCK_STATES`` stepped states, so work done a list at a time
    keeps memory flat in ``count``.

    With ``tol`` every chain is first burned in for
    B = ``burn_in_steps(gen, tol)`` steps, to within ``tol`` of the invariant
    law, and keeps its last n states. Chain i equals
    ``sample_chain(gen, B + n, derive_stream(seed, i)).slice(B, B + n)``
    bit for bit, with B = 0 without ``tol``. A one-atom law runs one path,
    which every chain shares read-only in one list, and draws nothing from
    the streams.
    """
    _check_count("n", n)
    _check_count("count", count)
    b = 0 if tol is None else burn_in_steps(gen, tol)
    return _paths(gen, b + n, derive_streams(seed, count), b)


def sample_stationary_chain(
    gen: Generator, n: int, tol: float, seed: SeedSpec
) -> Trajectory:
    """Burn in to within ``tol`` of the invariant law, then record n points."""
    _check_count("n", n)
    b = burn_in_steps(gen, tol)
    return sample_chain(gen, b + n, seed).slice(b, b + n)


def _chain_bundle(gen: Generator, steps: int, count: int, seed: SeedSpec):
    """Run ``count`` independent chains for ``steps`` >= 1 draws from sampled starts.

    Chain i reads the stream ``derive_stream(seed, i)`` in a fixed layout:
    the x bound's start words, the y bound's start words, then one uniform
    per step. No step reads y, nor x under iid draws, so only a governing
    map draws its x starts, and the other start rows are ``z0``'s; the y
    words stay reserved so that the step uniforms, and every seeded output,
    keep their place. Chain i is the same in a bundle of any size. Returns
    the (count, steps) draw index matrix, which lets callers replay suffixes
    of these chains, and the final states as (count, d_x), (count, d_y) rows.
    """
    _check_chain_size(gen, steps + 1)
    keys = stream_keys(derive_streams(seed, count))
    iid = gen.governing_map is None
    x0 = np.tile(gen.z0.x, (count, 1)) if iid else gen.x_bound.draw_starts(keys)
    first = gen.x_bound.start_words + gen.y_bound.start_words
    indices = gen.theta.indices_from_uniform(stream_uniforms(keys, first, steps))
    x_end, y_end = _final_states(gen, x0, np.tile(gen.z0.y, (count, 1)), indices)
    return indices, x_end, y_end


def invariant_sampler(gen: Generator, tol: float, count: int, seed: SeedSpec):
    """Plug-in approximation of the invariant law.

    One atom per independent chain, each run for the burn-in horizon of
    ``tol``, so every atom's marginal law is within ``tol`` of the invariant
    law in transport distance.
    """
    from .transport import EmpiricalMeasure

    _check_count("count", count)
    b = burn_in_steps(gen, tol)
    _, x_end, y_end = _chain_bundle(gen, b, count, seed)
    return EmpiricalMeasure(x_end, y_end, gen.metric)


def _check_pair_budget(num_pairs, chain_len) -> None:
    """The sampled checks take an integer num_pairs >= 1 and chain_len >= 2."""
    _check_count("num_pairs", num_pairs)
    _check_count("chain_len", chain_len, 2)


# -- constructors ----------------------------------------------------------------


def iid_generator(atoms: Sequence[ZPoint], weights, metric: MetricSpec, x_bound, y_bound,
                  name: str = "iid") -> Generator:
    theta = CategoricalTheta(tuple(atoms), np.asarray(weights, dtype=float))
    return Generator(metric=metric, theta=theta, x_bound=x_bound, y_bound=y_bound,
                     z0=theta.atoms[0], name=name)


def _affine_map(x: np.ndarray, theta) -> np.ndarray:
    mat, vec = theta
    # a stack of matrix-vector products rounds like mat @ row for every row;
    # x @ mat.T does not
    return (mat @ x[:, :, None])[:, :, 0] + vec


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
    y0 = _call_rows(label_map.apply, x0[None], None, "label map")[0]
    dim_y = y0.shape[0]
    metric = MetricSpec(dim_x=dim, dim_y=dim_y, kappa=kappa)
    z0 = ZPoint(x0, y0)
    theta = CategoricalTheta(tuple(zip(mats, vecs)), np.asarray(weights, dtype=float))
    return Generator(
        metric=metric, theta=theta, x_bound=BallBound(ball, dim), y_bound=BallBound(ball, dim_y),
        z0=z0, label_map=label_map, governing_map=_affine_map, lip_x_per_theta=norms, name=name,
    )


def labeled_lipschitz_generator(
    governing_map, theta_atoms: Sequence, weights, lip_x_per_theta,
    label_map: LabelMap, metric: MetricSpec, x_bound, y_bound,
    z0: ZPoint, name: str = "labeled_lipschitz",
) -> Generator:
    """Chain x' = governing_map(x, theta) over the draw law, labelled by ``label_map``.

    ``governing_map(X, atom)`` acts row-wise: it takes an (m, d_x) block of
    feature rows and one of ``theta_atoms`` and returns the (m, d_x) block of
    images, row i from row i alone. A label callable maps an (m, d_x) block
    to an (m, d_y) block the same way.
    """
    theta = CategoricalTheta(tuple(theta_atoms), np.asarray(weights, dtype=float))
    return Generator(
        metric=metric, theta=theta, x_bound=x_bound, y_bound=y_bound, z0=z0, label_map=label_map,
        governing_map=governing_map, lip_x_per_theta=np.asarray(lip_x_per_theta, dtype=float),
        name=name,
    )


def deterministic_map_generator(
    governing_map, lip_x: float, label_map: LabelMap, metric: MetricSpec,
    x_bound, y_bound, z0: ZPoint, fixed_point: Optional[ZPoint] = None,
    name: str = "deterministic_map",
) -> Generator:
    """Chain x' = governing_map(x, None): one map, no randomness.

    ``governing_map(X, None)`` acts row-wise: it takes an (m, d_x) block of
    feature rows and returns the (m, d_x) block of images, row i from row i
    alone. A label callable maps an (m, d_x) block to an (m, d_y) block the
    same way.
    """
    theta = CategoricalTheta((None,), np.array([1.0]))
    return Generator(
        metric=metric, theta=theta, x_bound=x_bound, y_bound=y_bound, z0=z0, label_map=label_map,
        governing_map=governing_map, lip_x_per_theta=np.array([float(lip_x)]),
        fixed_point=fixed_point, name=name,
    )


def exact_fixed_point(gen: Generator) -> ZPoint:
    """Fixed point of a deterministic map, declared or iterated to convergence."""
    _check_deterministic(gen)
    if gen.fixed_point is not None:
        return gen.fixed_point
    z = gen.z0
    for _ in range(_FIXED_POINT_MAX_ITER):
        nxt = _map_once(gen, z)
        if dist(z, nxt, gen.metric) <= _FIXED_POINT_TOL:
            return nxt
        z = nxt
    raise AssumptionViolationError("fixed-point iteration did not converge; factor too close to one")


def exact_invariant_atoms(gen: Generator) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The invariant law as state rows (xs, ys) with their weights, where it
    is known exactly: the atoms of iid draws, or the point mass at a
    deterministic map's fixed point; None for a map over several atoms."""
    if gen.governing_map is None:
        return gen._atom_xs, gen._atom_ys, gen.theta.weights
    if len(gen.theta) == 1:
        z_star = exact_fixed_point(gen)
        return z_star.x[None], z_star.y[None], np.ones(1)
    return None
