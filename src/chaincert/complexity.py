"""Rademacher complexity of a finite class on a recorded sample.

Three estimators over the same loss matrix: exact enumeration of all sign
vectors (n <= ``EXACT_N_CAP``; scored from two tables of partial scores, so
no sign vector is built and memory stays flat), exact enumeration of the
sums of signs over groups of equal columns (any n, while the grid of group
sums has at most 2^EXACT_N_CAP points), and an unbiased Monte Carlo average
with a standard error. ``rademacher_estimates`` picks for each matrix of a
batch (``rademacher_estimate`` is its one-matrix call): plain enumeration up
to ``EXACT_N_CAP`` states; above it, grouped enumeration when the grid fits
and Monte Carlo when it does not. All three score a sign vector sigma once
for the pair (sigma, -sigma), since score(-sigma) = -score(sigma), and one
reduction (``_pair_sums``) turns scores into pair sums: the exact paths add
them up (the grouped one weighted by each grid point's probability), the
Monte Carlo path averages them over draws/2 random pairs, drawn and scored
in tiles of 512 sign vectors through one reused buffer, so its memory grows
with the draw count only by the pair statistics it keeps. Every estimate
carries a plain form, max over the class of the signed mean, and a
symmetrized form that takes the absolute value inside the max, both scored
on the same sign vectors, each with its own standard error; the plain form
is what the certificates and lemma 3 consume, and the symmetrized one
bounds lemma 2's two-sided deviation.

Loss matrices come a batch of trajectories at a time as well
(``loss_matrices``, with ``loss_matrix`` its one-trajectory call): one loss
call over the stacked window states, one matrix per trajectory.

Closed-form ceilings for comparison: the finite-class growth bound
L_H * sqrt(2 log r / n) and the dimension bound
L_H * sqrt(2 d log(e n / d) / n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, SizeCapError
from .generators import Generator, Trajectory, _batches, sample_stationary_chains
from .hypotheses import HypothesisClass, LossEnv, window_loss_values
from .metric import SeedSpec, derive_stream, make_rng

EXACT_N_CAP = 20
MC_DRAWS = 4096  # default Monte Carlo sign vectors per estimate
_CHUNK = 1 << 13  # exact enumeration's tile of sign vectors or of grid points
# Monte Carlo sign vectors scored per product. An (H, n) @ (n, 512) product
# with n * H < 1,024 stays on one OpenBLAS thread, where one product of all
# draws/2 columns split over two threads whose helper mostly spun. Timed on
# a 2-vCPU host, per estimate at H = 4, n = 200, 4,096 draws, wall / CPU:
# 0.88 / 2.08 ms as one product, 0.75 / 0.75 ms in 512-row tiles. With
# numpy's OpenBLAS, 512 columns also give products bit-identical to the
# untiled one (128, 256, 320 and 640 move the last bits at n = 200), and a
# multiple of 4 keeps the byte stream unchanged (``_sign_tiles``).
_TILE = 512


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

    @classmethod
    def _checked(cls, values: np.ndarray, ell_H: float) -> "LossMatrix":
        """A matrix of loss rows that ``window_loss_values`` has already
        checked to be finite, non-negative and within ``ell_H``, built
        without scanning them again."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", values)
        object.__setattr__(matrix, "ell_H", ell_H)
        return matrix

    @property
    def num_hypotheses(self) -> int:
        return self.values.shape[0]

    @property
    def num_states(self) -> int:
        return self.values.shape[1]


def _window_span(traj: Trajectory, window: Optional[tuple]) -> tuple[int, int]:
    """(start, stop) of ``window`` (default: all of ``traj``), checked against
    the trajectory: the one place a window is checked."""
    if window is None:
        window = (0, len(traj))
    start, stop = window
    if not (isinstance(start, int) and isinstance(stop, int) and 0 <= start < stop <= len(traj)):
        raise InvalidInputError(
            f"window {window!r} out of range for a length-{len(traj)} trajectory"
        )
    return start, stop


def loss_matrices(
    cls: HypothesisClass,
    trajs: Sequence[Trajectory],
    env: LossEnv,
    window: Optional[tuple] = None,
) -> list[LossMatrix]:
    """Loss rows of every hypothesis over ``traj[start:stop]`` (default: all
    of it), one C-contiguous matrix per trajectory, in order.

    Every window is checked, then one ``window_loss_values`` call scores the
    stacked window states; losses act row-wise on states, so each matrix
    equals the one-trajectory call bit for bit. When the batch raises, the
    trajectories are replayed one at a time, so the error is the one the
    first failing trajectory raises on its own."""
    trajs = list(trajs)
    if not trajs:
        return []
    try:
        spans = [_window_span(traj, window) for traj in trajs]
        rows = window_loss_values(
            cls,
            np.concatenate([traj.xs[a:b] for traj, (a, b) in zip(trajs, spans)]),
            np.concatenate([traj.ys[a:b] for traj, (a, b) in zip(trajs, spans)]),
            env,
        )
    except Exception:
        if len(trajs) > 1:
            for traj in trajs:
                loss_matrices(cls, [traj], env, window)
        raise
    cuts = np.cumsum([b - a for a, b in spans[:-1]])
    return [
        LossMatrix._checked(np.ascontiguousarray(part), env.ell_H)
        for part in np.split(rows, cuts, axis=1)
    ]


def loss_matrix(
    cls: HypothesisClass, traj: Trajectory, env: LossEnv, window: Optional[tuple] = None
) -> LossMatrix:
    """Loss rows of every hypothesis over ``traj[start:stop]`` (default: all
    of it): the one-trajectory call of ``loss_matrices``."""
    return loss_matrices(cls, [traj], env, window)[0]


@dataclass(frozen=True)
class RademacherEstimate:
    """Plain estimate with its standard error, and the symmetrized value with
    its own, scored on the same sign vectors (or the same chains, for
    expectations). Both errors are 0.0 for exact enumeration.

    ``draws`` counts what was scored: the 2^n sign vectors of plain
    enumeration, the grid points of grouped enumeration (at most
    2^EXACT_N_CAP), the Monte Carlo sign vectors, or the chains of an
    expectation."""

    value: float
    se: float
    draws: int
    method: str
    value_symmetrized: float
    se_symmetrized: float


def check_draws(draws, where: str = "draws") -> int:
    """``draws`` if it is an even integer of at least 4: Monte Carlo scores
    draws/2 antithetic pairs (sigma, -sigma), and a standard error needs at
    least two pairs."""
    if isinstance(draws, bool) or not isinstance(draws, int) or draws < 4 or draws % 2:
        raise InvalidInputError(
            f"{where} must be an even integer >= 4 (Monte Carlo scores draws/2 "
            f"sign pairs), got {draws!r}"
        )
    return draws


def _sign_tiles(rng: np.random.Generator, pairs: int, n: int):
    """Yield (start, bits) for ``pairs`` sign vectors of length n in tiles of
    at most ``_TILE`` rows: bits[i] is vector start + i as 0.0/1.0 bits, bit
    1 meaning sigma = -1, unpacked from ceil(n / 8) random bytes per vector.

    Every tile is a view of one float buffer, overwritten by the next tile.
    The bits are floats so the product that scores them runs in BLAS; a
    uint8 by float64 product does not. A full tile draws a multiple of 4
    bytes, so the tiles read the stream exactly as one draw of all the
    bytes would."""
    row_bytes = (n + 7) // 8
    buf = np.empty((min(_TILE, pairs), n))
    for start in range(0, pairs, _TILE):
        take = min(_TILE, pairs - start)
        packed = np.frombuffer(rng.bytes(take * row_bytes), dtype=np.uint8)
        bits = buf[:take]
        bits[...] = np.unpackbits(packed.reshape(take, row_bytes), axis=1, count=n)
        yield start, bits


def _bit_scores(values: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(H, take) scores sum_t sigma_t L_h(t) of the sign vectors
    sigma = 1 - 2 bits, computed as sum_t L_h(t) - 2 sum_t bits_t L_h(t).

    The scores are hypotheses-major, so the class max and min run across
    whole rows of the tile, not along a row as short as the class, which
    numpy does slowly."""
    scores = values @ bits.T
    # in place: -2 p + s rounds exactly as s - 2 p
    scores *= -2.0
    scores += values.sum(axis=1)[:, None]
    return scores


def _pair_sums(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sign vector sigma of an (H, m) score tile, the pair (sigma, -sigma)
    sums of both forms, up to the factor 1/n: score(-sigma) = -score(sigma),
    so the class max over the pair sums to top - bottom, with top and bottom
    the class max and min of score(sigma), and the max of |score| is
    max(top, -bottom) for both vectors of the pair."""
    top, neg_bottom = scores.max(axis=0), scores.min(axis=0)
    # in place, so fewer per-tile arrays are live; top + (-bottom) rounds
    # exactly as top - bottom
    np.negative(neg_bottom, out=neg_bottom)
    reach = np.maximum(top, neg_bottom)
    top += neg_bottom
    return top, reach


def _score_table(block: np.ndarray, free: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(H, 2^free) partial scores sum_t sigma_t L_h(t) over the columns of
    ``block``: bit t of the table index set means sigma_t = -1 on column
    t < free, and the columns from ``free`` on keep sigma = +1. Written into
    ``out`` when given."""
    table = np.empty((block.shape[0], 1 << free)) if out is None else out
    table[:, 0] = block.sum(axis=1)
    for t in range(free):
        width = 1 << t
        np.subtract(table[:, :width], 2.0 * block[:, t : t + 1], out=table[:, width : 2 * width])
    return table


def _exact_scratch_size(matrix: LossMatrix) -> int:
    """Floats ``rademacher_exact`` needs for its low score table and its
    tile: H x 2^split each, with a low block of split <= 13 columns, so the
    low table has at most ``_CHUNK`` entries."""
    split = min(matrix.num_states - 1, _CHUNK.bit_length() - 1)
    return 2 * matrix.num_hypotheses << split


def rademacher_exact(
    matrix: LossMatrix, scratch: Optional[np.ndarray] = None
) -> RademacherEstimate:
    """Average over every sign vector; only feasible for small samples.

    No sign vector is built. The columns split into a low block of at most
    13 and a high block, each with a table of its partial scores
    (``_score_table``), so a sign vector scores as low[:, i] + high[:, j] and
    one broadcast add scores a tile of 8192. Since score(-sigma) =
    -score(sigma), only the vectors with sigma_{n-1} = +1 are scored, and
    ``_pair_sums`` turns each into the sums of its pair (sigma, -sigma).

    The low table and the tile live in ``scratch``, a float buffer of at
    least ``_exact_scratch_size(matrix)`` entries, when one is given, so a
    batch of enumerations maps their pages once."""
    values = matrix.values
    n = matrix.num_states
    if n > EXACT_N_CAP:
        raise SizeCapError(
            f"exact enumeration covers 2^{n} sign vectors; capped at n = {EXACT_N_CAP}, "
            "use the Monte Carlo estimator instead"
        )
    split = min(n - 1, _CHUNK.bit_length() - 1)  # a low table of at most _CHUNK entries
    size = _exact_scratch_size(matrix)
    if scratch is None or scratch.size < size:
        scratch = np.empty(size)
    low, tile = scratch[:size].reshape(2, matrix.num_hypotheses, 1 << split)
    _score_table(values[:, :split], split, low)
    high = _score_table(values[:, split:], n - 1 - split)  # sigma_{n-1} stays +1
    acc = acc_sym = 0.0
    for j in range(high.shape[1]):
        np.add(low, high[:, j : j + 1], out=tile)
        spread, reach = _pair_sums(tile)
        acc += float(spread.sum())
        acc_sym += 2.0 * float(reach.sum())
    total = 1 << n
    return RademacherEstimate(
        value=acc / (total * n),
        se=0.0,
        draws=total,
        method="exact",
        value_symmetrized=acc_sym / (total * n),
        se_symmetrized=0.0,
    )


def _column_groups(stack: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per matrix of a stack of m (H, n) matrices (a sequence, or an (m, H, n)
    array), its distinct columns and how often each occurs, found by one
    lexsort of all m * n columns, with the matrix index as the primary key,
    and one compare of adjacent sorted columns.

    Within a matrix the sort is the stable lexsort of its own columns, so
    its groups come out in the sorted order of their columns, with the same
    representatives as a stack of that matrix alone, and reordering its
    columns changes neither the groups nor their order."""
    m, n = len(stack), stack[0].shape[1]
    flat = np.concatenate(stack, axis=1)  # matrix j's columns at [j n, (j + 1) n)
    ordered = flat[:, np.lexsort((*flat, np.repeat(np.arange(m), n)))]
    fresh = np.ones(m * n, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=fresh[1:])
    fresh[::n] = True  # each matrix's first sorted column starts a group
    starts = np.flatnonzero(fresh)
    cuts = np.searchsorted(starts, np.arange(n, m * n, n))
    return list(zip(np.split(ordered[:, starts], cuts, axis=1),
                    np.split(np.diff(starts, append=m * n), cuts)))


def _grid_size(counts: np.ndarray) -> int:
    """Points in the grid of group sums, prod_c (m_c + 1), exactly while it is
    at most 2^EXACT_N_CAP; past that, a partial product that already exceeds
    it, since every factor is at least 2."""
    return math.prod((counts[: EXACT_N_CAP + 1] + 1).tolist())


def _sum_law(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Values 2k - m and probabilities C(m, k) / 2^m, k = 0..m, of a sum of m
    independent signs.

    Each log C(m, k) / C(m, m // 2) is a running sum of log ratios taken
    outward from the middle, where the mass is, so no factor overflows or
    needs a big integer at any m and the large terms carry full precision;
    one division then makes the probabilities sum to one. The half with
    k <= m/2 is mirrored, so the sums S and -S weigh exactly the same."""
    j = np.arange(m // 2, 0, -1)
    log_rel = np.concatenate(([0.0], np.cumsum(np.log(j / (m + 1 - j)))))
    half = np.exp(log_rel[::-1])
    probs = np.concatenate((half, half[: (m + 1) // 2][::-1]))
    probs /= probs.sum()
    return 2.0 * np.arange(m + 1) - m, probs


def _grid_scores(
    columns: np.ndarray, laws: list, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(H, len(index)) scores sum_c L_h(c) S_c and (len(index),) probabilities
    at the points ``index`` of the grid of group sums S_c, with the sums
    and probabilities of each group in ``laws`` and the first group's sum
    varying fastest along the grid."""
    scores, weights = np.zeros((columns.shape[0], index.size)), np.ones(index.size)
    stride = 1
    for col, (sums, probs) in zip(columns.T, laws):
        digit = index // stride % sums.size
        scores += col[:, None] * sums[digit]
        weights *= probs[digit]
        stride *= sums.size
    return scores, weights


def rademacher_grouped(columns: np.ndarray, counts: np.ndarray) -> RademacherEstimate:
    """Exact average over every sign vector of a matrix whose distinct
    columns ``columns`` occur ``counts`` times (``_column_groups``).

    A sign vector scores sum_c L_h(c) S_c, with S_c the sum of the m_c signs
    on group c, which is 2k - m_c with probability C(m_c, k) / 2^m_c. So the
    expectation is a weighted sum over the grid of prod_c (m_c + 1) values
    of (S_c), capped at 2^EXACT_N_CAP points, whatever n is. The groups split
    into a low block of at most ``_CHUNK`` grid points, scored once, and a
    high block scored a slice at a time, so that one broadcast add of the
    low scores and a slice of high scores fills a tile of at most ``_CHUNK``
    points and memory stays flat. The weights are symmetric under S <-> -S,
    so ``_pair_sums`` over the whole grid, halved, gives the plain form.
    ``draws`` counts the grid points scored."""
    points = _grid_size(counts)
    if points > 1 << EXACT_N_CAP:
        raise SizeCapError(
            f"grouped enumeration covers {points} or more points of group sums; capped at "
            f"2^{EXACT_N_CAP}, use the Monte Carlo estimator instead"
        )
    laws = [_sum_law(m) for m in counts.tolist()]
    split, low_points = 0, 1
    while split < len(laws) and low_points * laws[split][0].size <= _CHUNK:
        low_points *= laws[split][0].size
        split += 1
    low, low_weights = _grid_scores(columns[:, :split], laws[:split], np.arange(low_points))
    h, high_points = columns.shape[0], points // low_points
    step = min(_CHUNK // low_points, high_points)  # high grid points per tile
    buf = np.empty(h * low_points * step)
    acc = acc_sym = 0.0
    for start in range(0, high_points, step):
        index = np.arange(start, min(start + step, high_points))
        high, high_weights = _grid_scores(columns[:, split:], laws[split:], index)
        tile = buf[: h * low_points * index.size].reshape(h, low_points, index.size)
        np.add(low[:, :, None], high[:, None, :], out=tile)
        spread, reach = _pair_sums(tile.reshape(h, -1))
        weights = np.multiply.outer(low_weights, high_weights).ravel()
        acc += float(weights @ spread)
        acc_sym += float(weights @ reach)
    n = int(counts.sum())
    return RademacherEstimate(
        value=acc / (2 * n),
        se=0.0,
        draws=points,
        method="exact",
        value_symmetrized=acc_sym / n,
        se_symmetrized=0.0,
    )


def _mean_se(stats: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of ``stats``, centred on the first entry:
    equal entries give that entry back exactly, with an error of 0.0.
    Centres in place, so ``stats`` comes back as the deviations."""
    first = stats[0]
    stats -= first
    return float(first + stats.mean()), float(stats.std(ddof=1) / math.sqrt(stats.size))


def rademacher_mc(
    matrix: LossMatrix,
    draws: int,
    seed: SeedSpec = SeedSpec(0),
) -> RademacherEstimate:
    """Unbiased sign-sampling estimate from draws/2 antithetic pairs
    (sigma, -sigma), with a standard error for each form.

    ``draws`` counts sign vectors, so it must be even, and at least 4 for two
    pairs. Only the draws/2 vectors sigma are drawn, as packed random bytes,
    one bit per sign, in tiles of ``_TILE`` = 512 vectors unpacked into one
    reused float buffer (``_sign_tiles``). Each tile is scored with one
    product against the loss matrix, small enough to stay on one BLAS
    thread while n * H < 1,024, and reduced to its pair statistics. The
    pairs are independent: the value and standard error are the mean and
    error of the pair statistics, (top - bottom) / 2n for the plain form.
    The pairing cuts the plain form's variance but not the symmetrized
    form's, whose |score| is the same for sigma and -sigma, so its pair
    statistic max(top, -bottom) / n is one draw counted twice; it reports
    its own ``se_symmetrized``."""
    check_draws(draws)
    rng = make_rng(seed)
    n = matrix.num_states
    pairs = draws // 2
    spread = np.empty(pairs)
    reach = np.empty(pairs)
    for start, bits in _sign_tiles(rng, pairs, n):
        stop = start + bits.shape[0]
        spread[start:stop], reach[start:stop] = _pair_sums(_bit_scores(matrix.values, bits))
    del bits  # the last view of the tile buffer; free it before the reductions
    spread /= 2 * n
    reach /= n
    value, se = _mean_se(spread)
    value_sym, se_sym = _mean_se(reach)
    return RademacherEstimate(
        value=value,
        se=se,
        draws=draws,
        method="mc",
        value_symmetrized=value_sym,
        se_symmetrized=se_sym,
    )


def rademacher_estimates(
    matrices: Sequence[LossMatrix], draws: int, seeds: Sequence[SeedSpec]
) -> list[RademacherEstimate]:
    """The one place that picks an estimator, for each matrix of a batch in
    order; ``method`` says which one ran.

    Up to ``EXACT_N_CAP`` states, every sign vector is enumerated
    (``rademacher_exact``), all in one scratch buffer. Above it, the equal
    columns are grouped (one ``_column_groups`` pass per matrix shape), and
    the grid of group sums is enumerated exactly (``rademacher_grouped``)
    when it has at most 2^EXACT_N_CAP points; otherwise ``draws`` Monte
    Carlo sign vectors are drawn from the matrix's seed. A grouped estimate
    depends only on its groups, so matrices with the same groups share one
    enumeration; Monte Carlo estimates depend on their seeds and are never
    shared. Each estimate equals the one-matrix call's bit for bit."""
    matrices, seeds = list(matrices), list(seeds)
    if len(seeds) != len(matrices):
        raise InvalidInputError(
            f"{len(matrices)} loss matrices need as many seeds, got {len(seeds)}"
        )
    estimates = [None] * len(matrices)
    small, by_shape = [], {}
    for i, mat in enumerate(matrices):
        if mat.num_states <= EXACT_N_CAP:
            small.append(i)
        else:
            by_shape.setdefault(mat.values.shape, []).append(i)
    if small:
        scratch = np.empty(max(_exact_scratch_size(matrices[i]) for i in small))
        for i in small:
            estimates[i] = rademacher_exact(matrices[i], scratch)
    grouped = {}
    for members in by_shape.values():
        groups = _column_groups([matrices[i].values for i in members])
        for i, (columns, counts) in zip(members, groups):
            if _grid_size(counts) > 1 << EXACT_N_CAP:
                estimates[i] = rademacher_mc(matrices[i], draws, seeds[i])
                continue
            key = (columns.shape, columns.tobytes(), counts.tobytes())
            if key not in grouped:
                grouped[key] = rademacher_grouped(columns, counts)
            estimates[i] = grouped[key]
    return estimates


def rademacher_estimate(matrix: LossMatrix, draws: int, seed: SeedSpec) -> RademacherEstimate:
    """The estimate ``rademacher_estimates`` picks for one matrix."""
    return rademacher_estimates([matrix], draws, [seed])[0]


def shared_method(estimates) -> str:
    """The ``method`` every estimate reports, or ``"mixed"`` when they differ."""
    methods = {est.method for est in estimates}
    return methods.pop() if len(methods) == 1 else "mixed"


def rademacher_expected(
    cls: HypothesisClass,
    gen: Generator,
    env: LossEnv,
    n: int,
    outer: int = 32,
    tol: float = 1e-3,
    seed: SeedSpec = SeedSpec(0),
    mc_draws: int = MC_DRAWS,
) -> RademacherEstimate:
    """Complexity averaged over fresh chains, one conditional value per chain.

    Every chain starts stationary: it is burned in to within ``tol`` of the
    invariant law before its ``n`` recorded states. Each chain's value is
    exact or Monte Carlo as ``rademacher_estimate`` picks, and ``method``
    reads ``expected_<that method>_stationary``, with ``mixed`` for the
    method when the chains' estimators differ.
    """
    if not (isinstance(outer, int) and outer >= 2):
        raise InvalidInputError(f"need at least two outer chains, got {outer!r}")
    streams = [derive_stream(seed, i) for i in range(outer)]
    chains = []
    for batch in _batches(sample_stationary_chains(gen, n, tol, streams), n):
        chains += rademacher_estimates(loss_matrices(cls, batch, env), mc_draws,
                                       [derive_stream(traj.seed, 1) for traj in batch])
    per_chain = np.array([est.value for est in chains])
    per_chain_sym = np.array([est.value_symmetrized for est in chains])
    return RademacherEstimate(
        value=float(per_chain.mean()),
        se=float(per_chain.std(ddof=1) / math.sqrt(outer)),
        draws=outer,
        method=f"expected_{shared_method(chains)}_stationary",
        value_symmetrized=float(per_chain_sym.mean()),
        se_symmetrized=float(per_chain_sym.std(ddof=1) / math.sqrt(outer)),
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
