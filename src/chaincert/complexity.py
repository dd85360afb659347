"""Rademacher complexity of a finite class on a recorded sample.

Two estimators over the same loss matrix: exact enumeration of all sign
vectors (small n; scored from two tables of partial scores, so no sign
vector is built and memory stays flat) and an unbiased Monte Carlo average
with a standard error; ``rademacher_estimate`` picks between them by sample
size. Every estimate carries a plain form, max over the class of the signed
mean, and a symmetrized form that takes the absolute value inside the max,
both scored on the same sign vectors; the plain form is what the deviation
bounds consume, the symmetrized one is a diagnostic for sign-asymmetric
classes.

Closed-form ceilings for comparison: the finite-class growth bound
L_H * sqrt(2 log r / n) and the dimension bound
L_H * sqrt(2 d log(e n / d) / n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, SizeCapError
from .generators import Generator, Trajectory, sample_chain, sample_stationary_chain
from .hypotheses import HypothesisClass, LossEnv, window_loss_values
from .metric import SeedSpec, derive_stream, make_rng

EXACT_N_CAP = 20
MC_DRAWS = 4096  # default Monte Carlo sign vectors per estimate
_CHUNK = 1 << 13


@dataclass(frozen=True)
class LossMatrix:
    """Loss values arranged hypotheses-by-states, with the declared ceiling."""

    values: np.ndarray
    ell_H: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] == 0:
            raise InvalidInputError("loss matrix must be 2-d and non-empty")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidInputError("loss matrix entries must be finite and non-negative")
        if np.isfinite(self.ell_H) and float(vals.max()) > self.ell_H * (1.0 + 1e-12):
            raise InvalidInputError(
                f"loss matrix entry {float(vals.max())!r} exceeds ell_H = {self.ell_H!r}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def num_hypotheses(self) -> int:
        return self.values.shape[0]

    @property
    def num_states(self) -> int:
        return self.values.shape[1]


def loss_matrix(
    cls: HypothesisClass, traj: Trajectory, env: LossEnv, window: Optional[tuple] = None
) -> LossMatrix:
    """Loss rows of every hypothesis over ``traj[start:stop]`` (default: all of it).

    This is the one place a window is checked against its trajectory."""
    if window is None:
        window = (0, len(traj))
    start, stop = window
    if not (isinstance(start, int) and isinstance(stop, int) and 0 <= start < stop <= len(traj)):
        raise InvalidInputError(
            f"window {window!r} out of range for a length-{len(traj)} trajectory"
        )
    rows = window_loss_values(cls, traj.xs[start:stop], traj.ys[start:stop], env)
    return LossMatrix(values=rows, ell_H=env.ell_H)


@dataclass(frozen=True)
class RademacherEstimate:
    """Plain estimate with its standard error, and the symmetrized value
    scored on the same sign vectors (or the same chains, for expectations)."""

    value: float
    se: float
    draws: int
    method: str
    value_symmetrized: float


def _draw_sign_bits(rng: np.random.Generator, take: int, n: int) -> np.ndarray:
    """``take`` sign vectors of length n as 0.0/1.0 bits, bit 1 meaning
    sigma = -1, unpacked from ceil(n / 8) random bytes per vector.

    The bits come back as floats so the product that scores them runs in
    BLAS; a uint8 by float64 product does not."""
    row_bytes = (n + 7) // 8
    packed = np.frombuffer(rng.bytes(take * row_bytes), dtype=np.uint8).reshape(take, row_bytes)
    return np.unpackbits(packed, axis=1, count=n).astype(float)


def _bit_stats(values: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sign-vector max_h (1/n) sum_t sigma_t L_h(t), plain and with |.|
    inside, for the sign vectors sigma = 1 - 2 bits, scored as
    sum_t L_h(t) - 2 sum_t bits_t L_h(t).

    The sums are hypotheses-major, so each max runs across whole rows of the
    chunk, not along a row as short as the class, which numpy does slowly."""
    n = values.shape[1]
    scores = values.sum(axis=1)[:, None] - 2.0 * (values @ bits.T)  # (H, chunk)
    return scores.max(axis=0) / n, np.abs(scores).max(axis=0) / n


def _score_table(block: np.ndarray, free: int) -> np.ndarray:
    """(H, 2^free) partial scores sum_t sigma_t L_h(t) over the columns of
    ``block``: bit t of the table index set means sigma_t = -1 on column
    t < free, and the columns from ``free`` on keep sigma = +1."""
    table = np.empty((block.shape[0], 1 << free))
    table[:, 0] = block.sum(axis=1)
    for t in range(free):
        width = 1 << t
        np.subtract(table[:, :width], 2.0 * block[:, t : t + 1], out=table[:, width : 2 * width])
    return table


def rademacher_exact(matrix: LossMatrix) -> RademacherEstimate:
    """Average over every sign vector; only feasible for small samples.

    No sign vector is built. The columns split into a low block of at most
    13 and a high block, each with a table of its partial scores
    (``_score_table``), so a sign vector scores as low[:, i] + high[:, j] and
    one broadcast add scores a tile of 8192. Since score(-sigma) =
    -score(sigma), only the vectors with sigma_{n-1} = +1 are scored: the
    class max and min of each give max - min to the plain sum and
    2 max(max, -min) to the symmetrized one for the pair (sigma, -sigma)."""
    values = matrix.values
    n = matrix.num_states
    if n > EXACT_N_CAP:
        raise SizeCapError(
            f"exact enumeration covers 2^{n} sign vectors; capped at n = {EXACT_N_CAP}, "
            "use the Monte Carlo estimator instead"
        )
    split = min(n - 1, _CHUNK.bit_length() - 1)  # a low table of at most _CHUNK entries
    low = _score_table(values[:, :split], split)
    high = _score_table(values[:, split:], n - 1 - split)  # sigma_{n-1} stays +1
    tile = np.empty_like(low)
    acc = acc_sym = 0.0
    for j in range(high.shape[1]):
        np.add(low, high[:, j : j + 1], out=tile)
        top, bottom = tile.max(axis=0), tile.min(axis=0)
        acc += float((top - bottom).sum())
        acc_sym += 2.0 * float(np.maximum(top, -bottom).sum())
    total = 1 << n
    return RademacherEstimate(
        value=acc / (total * n),
        se=0.0,
        draws=total,
        method="exact",
        value_symmetrized=acc_sym / (total * n),
    )


def rademacher_mc(
    matrix: LossMatrix,
    draws: int,
    seed: SeedSpec = SeedSpec(0),
) -> RademacherEstimate:
    """Unbiased sign-sampling estimate with a standard error.

    Each chunk of sign vectors is drawn as packed random bytes, one bit per
    sign (``_draw_sign_bits``), and scored with one product against the loss
    matrix (``_bit_stats``)."""
    if not (isinstance(draws, int) and draws >= 2):
        raise InvalidInputError(f"need at least two Monte Carlo draws, got {draws!r}")
    rng = make_rng(seed)
    n = matrix.num_states
    stats = np.empty(draws)
    stats_sym = np.empty(draws)
    done = 0
    while done < draws:
        take = min(_CHUNK, draws - done)
        stats[done : done + take], stats_sym[done : done + take] = _bit_stats(
            matrix.values, _draw_sign_bits(rng, take, n)
        )
        done += take
    return RademacherEstimate(
        value=float(stats.mean()),
        se=float(stats.std(ddof=1) / math.sqrt(draws)),
        draws=draws,
        method="mc",
        value_symmetrized=float(stats_sym.mean()),
    )


def rademacher_estimate(matrix: LossMatrix, draws: int, seed: SeedSpec) -> RademacherEstimate:
    """Exact enumeration up to ``EXACT_N_CAP`` states, ``draws`` Monte Carlo
    sign vectors from ``seed`` above it; ``method`` says which one ran."""
    if matrix.num_states <= EXACT_N_CAP:
        return rademacher_exact(matrix)
    return rademacher_mc(matrix, draws, seed)


def rademacher_expected(
    cls: HypothesisClass,
    gen: Generator,
    env: LossEnv,
    n: int,
    outer: int = 32,
    start_mode: str = "stationary",
    tol: float = 1e-3,
    seed: SeedSpec = SeedSpec(0),
    mc_draws: int = MC_DRAWS,
) -> RademacherEstimate:
    """Complexity averaged over fresh chains, one conditional value per chain.

    ``start_mode`` picks the chain law: ``stationary`` burns in to within
    ``tol`` first, ``point`` starts every chain at the declared z0.
    """
    if start_mode not in ("stationary", "point"):
        raise InvalidInputError(f"start_mode must be 'stationary' or 'point', got {start_mode!r}")
    if not (isinstance(outer, int) and outer >= 2):
        raise InvalidInputError(f"need at least two outer chains, got {outer!r}")
    per_chain = np.empty(outer)
    per_chain_sym = np.empty(outer)
    for i in range(outer):
        stream = derive_stream(seed, i)
        if start_mode == "stationary":
            traj = sample_stationary_chain(gen, n, tol, stream)
        else:
            traj = sample_chain(gen, None, n, stream)
        est = rademacher_estimate(loss_matrix(cls, traj, env), mc_draws, derive_stream(stream, 1))
        per_chain[i] = est.value
        per_chain_sym[i] = est.value_symmetrized
    return RademacherEstimate(
        value=float(per_chain.mean()),
        se=float(per_chain.std(ddof=1) / math.sqrt(outer)),
        draws=outer,
        method=f"expected_{est.method}_{start_mode}",
        value_symmetrized=float(per_chain_sym.mean()),
    )


def growth_bound(n: int, class_size: int, L_H: float) -> float:
    """Finite-class ceiling L_H * sqrt(2 log r / n); vacuous at r = 1."""
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    if not (isinstance(class_size, int) and class_size >= 1):
        raise InvalidInputError(f"class size must be a positive integer, got {class_size!r}")
    if not (np.isfinite(L_H) and L_H >= 0):
        raise InvalidInputError(f"L_H must be finite and non-negative, got {L_H!r}")
    return L_H * math.sqrt(2.0 * math.log(class_size) / n)


def vc_bound(n: int, dim: int, L_H: float) -> float:
    """Dimension ceiling L_H * sqrt(2 d log(e n / d) / n) for 1 <= d <= n."""
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    if not (isinstance(dim, int) and 1 <= dim <= n):
        raise InvalidInputError(f"dimension must be an integer in [1, {n}], got {dim!r}")
    if not (np.isfinite(L_H) and L_H >= 0):
        raise InvalidInputError(f"L_H must be finite and non-negative, got {L_H!r}")
    return L_H * math.sqrt(2.0 * dim * math.log(math.e * n / dim) / n)
