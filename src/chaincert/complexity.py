"""Rademacher complexity of a finite class on a recorded sample.

Two estimators over the same loss matrix: exact enumeration of the sums of
signs over groups of equal columns (``rademacher_grouped``, while the grid
of group sums has at most 2^EXACT_N_CAP points; scored from a table of
partial scores built once and one built a slice at a time, so no sign
vector is built and memory stays flat), and an unbiased Monte Carlo average
with a standard error. ``rademacher_estimates`` picks for each matrix of a
batch (``rademacher_estimate`` is its one-matrix call): equal columns are
grouped at every n, and the grid is enumerated when it fits and Monte Carlo
runs when it does not; a matrix where no column repeats is enumerated in
its own column order (``rademacher_exact``), all 2^n sign vectors. Both
score a sign vector sigma once for the pair (sigma, -sigma), since
score(-sigma) = -score(sigma), and one reduction (``_pair_sums``) turns
scores into pair sums: enumeration adds them up weighted by each grid
point's probability, the Monte Carlo path averages them over draws/2 random
pairs, drawn and scored in tiles of 512 sign vectors through one reused
buffer, so its memory grows with the draw count only by the pair statistics
it keeps. Every estimate carries a plain form, max over the class of the
signed mean, and a symmetrized form that takes the absolute value inside
the max, both scored on the same sign vectors, each with its own standard
error; the plain form is what the certificates and lemma 3 consume, and the
symmetrized one bounds lemma 2's two-sided deviation.

Loss matrices come a batch of trajectories at a time as well
(``loss_matrices``, with ``loss_matrix`` its one-trajectory call): one loss
call over the stacked states of the distinct windows, one matrix per
trajectory, where trajectories that share a window share its matrix
object, and ``rademacher_estimates`` scores each such object once.

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
from .generators import (
    Generator,
    Trajectory,
    _check_count,
    chain_batches,
    exact_invariant_atoms,
)
from .hypotheses import HypothesisClass, LossEnv, window_loss_values
from .metric import SeedSpec, derive_stream, stream_keys, stream_words

EXACT_N_CAP = 20
MC_DRAWS = 4096  # default Monte Carlo sign vectors per estimate
_CHUNK = 1 << 13  # grid points per table and per tile of exact enumeration
# Monte Carlo sign vectors scored per product. Tiles keep memory flat in the
# draw count, since one (512, n) buffer is reused. With numpy's OpenBLAS, 512
# columns give products bit-identical to one untiled product (128, 256, 320
# and 640 move the last bits at n = 200), and a multiple of 8 starts every
# tile on a stream word (``_sign_tiles``). The bits hold at one BLAS thread, which
# the command line sets; with two threads, products with n * H >= 1,024 may
# differ in their last bits.
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
    ints = not any(isinstance(v, bool) or not isinstance(v, int) for v in (start, stop))
    if not (ints and 0 <= start < stop <= len(traj)):
        raise InvalidInputError(
            f"window {window!r} is no integer pair in range for a length-{len(traj)} trajectory"
        )
    return start, stop


def _memory(view: np.ndarray) -> tuple:
    """Where a view's elements sit: its data pointer, shape, strides and
    dtype. Two views with equal keys read the same elements."""
    return view.__array_interface__["data"][0], view.shape, view.strides, view.dtype.str


def loss_matrices(
    cls: HypothesisClass,
    trajs: Sequence[Trajectory],
    env: LossEnv,
    window: Optional[tuple] = None,
) -> list[LossMatrix]:
    """Loss rows of every hypothesis over ``traj[start:stop]`` (default: all
    of it), one C-contiguous, read-only matrix per trajectory, in order.

    Every window is checked, then one ``window_loss_values`` call scores the
    stacked states of the distinct windows; losses act row-wise on states,
    so each matrix equals the one-trajectory call bit for bit. Windows whose
    ``xs`` and ``ys`` views cover the same memory (``_memory``), such as
    those of the chains of a one-atom law, which share one path, are scored
    once and share one matrix object; the contents are never compared. When
    the batch raises, the trajectories are replayed one at a time, so the
    error is the one the first failing trajectory raises on its own."""
    trajs = list(trajs)
    if not trajs:
        return []
    try:
        spans = [_window_span(traj, window) for traj in trajs]
        first, slots = {}, []  # window memory -> (slot, xs, ys); each window's slot
        for traj, (a, b) in zip(trajs, spans):
            xs, ys = traj.xs[a:b], traj.ys[a:b]
            slots.append(first.setdefault((_memory(xs), _memory(ys)), (len(first), xs, ys))[0])
        windows = list(first.values())
        rows = window_loss_values(
            cls, np.concatenate([xs for _, xs, _ in windows]),
            np.concatenate([ys for _, _, ys in windows]), env,
        )
    except Exception:
        if len(trajs) > 1:
            for traj in trajs:
                loss_matrices(cls, [traj], env, window)
        raise
    cuts = np.cumsum([len(xs) for _, xs, _ in windows[:-1]])
    matrices = []
    for part in np.split(rows, cuts, axis=1):
        values = np.ascontiguousarray(part)
        values.flags.writeable = False
        matrices.append(LossMatrix._checked(values, env.ell_H))
    return [matrices[slot] for slot in slots]


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

    ``draws`` counts what was enumerated or drawn: the grid points of
    enumeration, prod_c (m_c + 1) over groups of m_c equal columns (at most
    2^EXACT_N_CAP; 2^n sign vectors when no column repeats), the Monte Carlo
    sign vectors, the chains of an expectation, or, for the expectation at
    a one-atom invariant law, the n + 1 points of the law of the sum of n
    signs."""

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


def _sign_tiles(key: np.ndarray, pairs: int, n: int):
    """Yield (start, bits) for ``pairs`` sign vectors of length n in tiles of
    at most ``_TILE`` rows: bits[i] is vector start + i as 0.0/1.0 bits, bit
    1 meaning sigma = -1.

    The vectors cut the stream of the one-entry ``key`` array into ceil(n / 8)
    bytes each, its words in order as 8 little-endian bytes; bit t of a
    vector is bit t % 8, most significant first, of its byte t // 8. A full
    tile takes whole words, so each tile draws only its own words.

    Every tile is a view of one float buffer, overwritten by the next tile.
    The bits are floats so the product that scores them runs in BLAS; a
    uint8 by float64 product does not."""
    row_bytes = (n + 7) // 8
    buf = np.empty((min(_TILE, pairs), n))
    for start in range(0, pairs, _TILE):
        take = min(_TILE, pairs - start)
        words = stream_words(key, start * row_bytes // 8, -(-take * row_bytes // 8))[0]
        packed = words.astype("<u8", copy=False).view(np.uint8)[:take * row_bytes]
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
    """Steps 2k and probabilities C(m, k) / 2^m, k = 0..m, of k minus signs
    among m independent signs, whose sum is m - 2k.

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
    return 2.0 * np.arange(m + 1), probs


def _score_table(
    columns: np.ndarray, base: np.ndarray, laws: list, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(H, prod_c len(steps_c)) scores base - sum_c steps_c[k_c] L(c) over
    the grid of digits k_c, with one law (steps_c, probs_c) in ``laws`` per
    column of ``columns`` and the first digit varying fastest; the scores are
    written into ``out`` when given. Each group takes one broadcast: the
    copies table - steps_c[k] L(c), k >= 1, go beside the table; with steps
    (0, 2) that doubles the table."""
    size = math.prod(s.size for s, _ in laws)
    table = np.empty((columns.shape[0], size)) if out is None else out
    table[:, 0], width = base, 1
    for col, (steps, _) in zip(columns.T, laws):
        stop = width * steps.size
        np.subtract(table[:, None, :width], np.multiply.outer(col, steps[1:])[:, :, None],
                    out=table[:, width:stop].reshape(col.size, steps.size - 1, width))
        if steps[0]:  # a later run of a group's steps (``_score_slices``)
            table[:, :width] -= steps[0] * col[:, None]
        width = stop
    return table


def _grid_weights(laws: list) -> np.ndarray:
    """The weights prod_c probs_c[k_c] of the grid of ``_score_table``: one
    outer product per group."""
    weights = np.ones(1)
    for _, probs in laws:
        weights = np.multiply.outer(probs, weights).ravel()
    return weights


def _score_slices(columns: np.ndarray, base: np.ndarray, laws: list):
    """Yield the ``_score_table`` of ``laws`` a slice of at most ``_CHUNK``
    grid points at a time, in grid order, with the laws whose
    ``_grid_weights`` weigh it: the last digit runs over slices of its steps
    while the other digits' table fits, and is otherwise fixed one step at a
    time, its term moved into the base and its law cut to that step."""
    *inner, (steps, probs) = laws
    width = math.prod(s.size for s, _ in inner)
    if width <= _CHUNK:
        run = _CHUNK // width
        for a in range(0, steps.size, run):
            part = inner + [(steps[a : a + run], probs[a : a + run])]
            yield _score_table(columns, base, part), part
        return
    for a in range(steps.size):
        for table, part in _score_slices(columns[:, :-1], base - steps[a] * columns[:, -1], inner):
            yield table, part + [(steps[a : a + 1], probs[a : a + 1])]


def rademacher_grouped(columns: np.ndarray, counts: np.ndarray) -> RademacherEstimate:
    """Exact average over every sign vector of a matrix whose distinct
    columns ``columns`` occur ``counts`` times (``_column_groups``).

    A sign vector scores sum_c L_h(c) S_c, with S_c the sum of the m_c signs
    on group c, which is m_c - 2k with probability C(m_c, k) / 2^m_c. So the
    expectation is a weighted sum over the grid of prod_c (m_c + 1) values
    of (S_c), capped at 2^EXACT_N_CAP points, whatever n is. Since
    score(-S) = -score(S), only the half with the last group's S >= 0 is
    scored, and ``_pair_sums`` turns each point into the sums of its pair
    (S, -S): a point with S > 0 stands for its pair, so it weighs twice,
    while the S = 0 slice holds both points of each of its pairs. The
    groups before the last split into a low block of at most ``_CHUNK``
    grid points, whose table (``_score_table``) is built once, and a high
    block scored a slice at a time (``_score_slices``); one broadcast add
    of the low table and some points of a slice fills a tile of at most
    ``_CHUNK`` points, so memory stays flat. ``draws`` counts the whole
    grid, 2^n when every count is 1."""
    points = _grid_size(counts)
    if points > 1 << EXACT_N_CAP:
        raise SizeCapError(
            f"exact enumeration covers {points} or more points of group sums; capped at "
            f"2^{EXACT_N_CAP}, use the Monte Carlo estimator instead"
        )
    law_of = {m: _sum_law(m) for m in set(counts.tolist())}
    laws = [law_of[m] for m in counts.tolist()]
    m, (steps, probs) = int(counts[-1]), laws[-1]
    half = m // 2 + 1  # the last group's S = m - 2k >= 0; each S > 0 weighs twice
    laws[-1] = (steps[:half], np.where(steps[:half] < m, 2.0, 1.0) * probs[:half])
    split, low_points = 0, 1
    while split < len(laws) - 1 and low_points * laws[split][0].size <= _CHUNK:
        low_points *= laws[split][0].size
        split += 1
    weighted, h = columns * counts, columns.shape[0]
    step = min(_CHUNK // low_points, math.prod(s.size for s, _ in laws[split:]))
    # the low table and the tile share one block: once one block that large
    # is freed, the allocator keeps a call's pages for the next call, where
    # two blocks cost 220 page faults per n = 20 enumeration of lemma 3
    buf = np.empty((1 + step, h, low_points))
    low = _score_table(columns[:, :split], weighted[:, :split].sum(axis=1), laws[:split],
                       out=buf[0])
    # with every count 1, every weight is 2^(1-n): no weights are built, and
    # tiles are added up and scaled once, which keeps the bits of scoring
    # each sign vector alike
    uniform = counts.max() == 1
    if not uniform:
        low_weights = _grid_weights(laws[:split])
    acc = acc_sym = 0.0
    for table, slice_laws in _score_slices(columns[:, split:], weighted[:, split:].sum(axis=1),
                                           laws[split:]):
        if not uniform:
            weights = _grid_weights(slice_laws)
        for start in range(0, table.shape[1], step):
            part = table[:, None, start : start + step]
            tile = buf[1 : 1 + part.shape[2]].reshape(h, low_points, -1)
            np.add(low[:, :, None], part, out=tile)
            spread, reach = _pair_sums(tile.reshape(h, -1))
            if uniform:
                acc += float(spread.sum())
                acc_sym += float(reach.sum())
            else:
                part_weights = weights[start : start + step]
                acc += float(low_weights @ spread.reshape(low_points, -1) @ part_weights)
                acc_sym += float(low_weights @ reach.reshape(low_points, -1) @ part_weights)
    n = int(counts.sum())
    if uniform:
        acc, acc_sym = acc * 2.0 ** (1 - n), acc_sym * 2.0 ** (1 - n)
    return RademacherEstimate(
        value=acc / (2 * n),
        se=0.0,
        draws=points,
        method="exact",
        value_symmetrized=acc_sym / n,
        se_symmetrized=0.0,
    )


def rademacher_exact(matrix: LossMatrix) -> RademacherEstimate:
    """Average over every sign vector; only feasible for small samples: the
    grouped enumeration (``rademacher_grouped``) of the matrix's own columns,
    in their order, each a group of one, which scores the 2^(n-1) sign
    vectors with sigma_{n-1} = +1 and counts 2^n ``draws``."""
    values = np.ascontiguousarray(matrix.values)
    return rademacher_grouped(values, np.ones(values.shape[1], dtype=np.int64))


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
    reused float buffer (``_sign_tiles``), so memory stays flat in
    ``draws``. Each tile is scored with one product against the loss matrix
    and reduced to its pair statistics; see ``_TILE`` for its bits. The
    pairs are independent: the value and standard error are the mean and
    error of the pair statistics, (top - bottom) / 2n for the plain form.
    The pairing cuts the plain form's variance but not the symmetrized
    form's, whose |score| is the same for sigma and -sigma, so its pair
    statistic max(top, -bottom) / n is one draw counted twice; it reports
    its own ``se_symmetrized``."""
    check_draws(draws)
    n = matrix.num_states
    pairs = draws // 2
    spread = np.empty(pairs)
    reach = np.empty(pairs)
    for start, bits in _sign_tiles(stream_keys((seed,)), pairs, n):
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

    Equal columns are grouped first, by one ``_column_groups`` pass over the
    distinct matrices of each shape. The grid of group sums is enumerated
    exactly when it has at most 2^EXACT_N_CAP points, and ``draws`` Monte
    Carlo sign vectors are drawn from the matrix's seed when it does not. A
    matrix where no column repeats is enumerated in its own column order
    (``rademacher_exact``, which counts its 2^n sign vectors), any other by
    a direct ``rademacher_grouped`` call. Each step runs once per distinct
    matrix object (``loss_matrices`` returns one object per shared window),
    and a grouped estimate depends only on its groups, so matrices with the
    same groups share one enumeration; Monte Carlo estimates depend on
    their seeds and are never shared, so a matrix that appears twice draws
    from each of its seeds. Each estimate equals the one-matrix call's bit
    for bit."""
    matrices, seeds = list(matrices), list(seeds)
    if len(seeds) != len(matrices):
        raise InvalidInputError(
            f"{len(matrices)} loss matrices need as many seeds, got {len(seeds)}"
        )
    shared, by_shape = {}, {}  # id(matrix) -> its estimate unless it takes MC
    for mat in {id(mat): mat for mat in matrices}.values():
        by_shape.setdefault(mat.values.shape, []).append(mat)
    grouped = {}
    for members in by_shape.values():
        for mat, (columns, counts) in zip(members, _column_groups([m.values for m in members])):
            fits = _grid_size(counts) <= 1 << EXACT_N_CAP
            if fits and counts.size == mat.num_states:  # no column repeats
                shared[id(mat)] = rademacher_exact(mat)
            elif fits:
                key = (columns.shape, columns.tobytes(), counts.tobytes())
                if key not in grouped:
                    grouped[key] = rademacher_grouped(columns, counts)
                shared[id(mat)] = grouped[key]
    return [shared[id(mat)] if id(mat) in shared else rademacher_mc(mat, draws, seed)
            for mat, seed in zip(matrices, seeds)]


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
    """Complexity of ``n`` states under the invariant law.

    A one-atom invariant law z* (``exact_invariant_atoms``: a deterministic
    map's fixed point or one iid atom) repeats z*'s loss column l in every
    window, so a sign vector scores l_h S_n and the value is exact:
    (max l - min l) E|S_n| / 2n, and max l E|S_n| / n symmetrized, over the
    n + 1 points of S_n's law; ``method`` is ``exact_fixed_point`` and
    ``outer``, ``tol``, ``seed`` and ``mc_draws`` are not read.

    Otherwise each of ``outer`` chains is burned in to within ``tol`` of the
    invariant law before its ``n`` recorded states, and its value is exact
    or Monte Carlo as ``rademacher_estimate`` picks; ``method`` reads
    ``expected_<that method>_stationary``, with ``mixed`` when the chains'
    estimators differ.
    """
    _check_count("n", n)
    _check_count("outer chains", outer, 2)
    law = exact_invariant_atoms(gen)
    if law is not None and law[2].size == 1:
        column = window_loss_values(cls, law[0], law[1], env)[:, 0]
        steps, probs = _sum_law(n)
        mean_abs_sum = float(probs @ np.abs(n - steps))
        return RademacherEstimate(
            value=float(column.max() - column.min()) * mean_abs_sum / (2 * n),
            se=0.0,
            draws=n + 1,
            method="exact_fixed_point",
            value_symmetrized=float(column.max()) * mean_abs_sum / n,
            se_symmetrized=0.0,
        )
    chains = []
    for batch in chain_batches(gen, n, seed, outer, tol):
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
    _check_count("sample size", n)
    _check_count("class size", class_size)
    if not (np.isfinite(L_H) and L_H >= 0):
        raise InvalidInputError(f"L_H must be finite and non-negative, got {L_H!r}")
    return L_H * math.sqrt(2.0 * math.log(class_size) / n)
