"""Independent oracles that the tests check the library against."""
import hashlib
import itertools
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from chaincert.certificates import certify_empirical
from chaincert.complexity import MC_DRAWS, loss_matrix, rademacher_estimate
from chaincert.erm import erm
from chaincert.errors import GeneratorContractError, InvalidInputError, SizeCapError
from chaincert.generators import (
    Generator,
    _advance,
    _check_pair_budget,
    _step_block,
    analytic_lip_factor,
    sample_chain,
    sample_stationary_chain,
)
from chaincert.hypotheses import HypothesisClass, LossEnv
from chaincert.metric import (
    MetricSpec,
    SeedSpec,
    ZPoint,
    _triangle_pairs,
    derive_stream,
    derive_streams,
    row_dist,
    stream_keys,
    stream_uniforms,
)
from chaincert.transport import EmpiricalMeasure, _cost_matrix

_LIP_TOL = 1e-9
_PAIR_FLOOR = 1e-12  # probe skips state pairs closer than this
_PROBE_SLACK = 1e-9
_PROBE_CONTRACT = "probes act row-wise: f(xs, ys) maps the rows of m states to m values"


_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def csv_cell(value) -> str:
    """The CSV text of one cell, written on its own: ``float.__repr__`` of a
    float (the float an np.float64 or another subclass holds, NaN and the
    infinities included) and ``int.__repr__`` of an exact int; any other
    cell, bool included, is invalid input."""
    if isinstance(value, float):
        return float.__repr__(value)
    if type(value) is int:
        return str(value)
    raise InvalidInputError(f"unsupported CSV cell type {type(value).__name__}")


def splitmix64(state: int, count: int) -> list:
    """The next ``count`` outputs of SplitMix64 from ``state``, one Python
    int at a time, as published (Steele, Lea and Flood, OOPSLA 2014)."""
    out = []
    for _ in range(count):
        state = (state + _GOLDEN_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def stream_key(seed: SeedSpec) -> int:
    """A stream's key by hand: the first 8 bytes (little-endian) of SHA-256
    over the tag b"make_rng" and the two indices as 8 little-endian bytes."""
    data = (b"make_rng" + seed.master_seed.to_bytes(8, "little")
            + seed.stream_index.to_bytes(8, "little"))
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def derived_index(seed: SeedSpec, child_index: int) -> int:
    """A child stream's index by hand: the first 8 bytes (little-endian) of
    SHA-256 over the parent's stream index and the child index, 8
    little-endian bytes each."""
    data = seed.stream_index.to_bytes(8, "little") + child_index.to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def sha256_hex(text: str) -> str:
    """The hex SHA-256 of ``text`` in UTF-8, by ``hashlib`` (OpenSSL where
    it is built in): the independent check on the library's digest."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stream_draws(seed: SeedSpec, first: int, count: int) -> list:
    """Draws first, ..., first + count - 1 of a stream: SplitMix64 from its
    key, past the ``first`` outputs that advance its state by first gamma."""
    return splitmix64((stream_key(seed) + first * _GOLDEN_GAMMA) & _MASK64, count)


def w1_bruteforce(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Permutation-enumeration oracle for equal-size uniform measures (n <= 8)."""
    n = len(mu1)
    if len(mu2) != n:
        raise InvalidInputError("brute force needs equal atom counts")
    if n > 8:
        raise SizeCapError("brute force enumerates n! matchings; n must be at most 8")
    if not (mu1.is_uniform() and mu2.is_uniform()):
        raise InvalidInputError("brute force needs uniform weights on both sides")
    cost = _cost_matrix(mu1, mu2)
    perms = np.array(list(itertools.permutations(range(n))))
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    return float(totals.min()) / n


def kr_dual_lower_bound(
    mu1: EmpiricalMeasure,
    mu2: EmpiricalMeasure,
    probe_functions: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    max_check_pairs: int = 4096,
) -> float:
    """Duality lower bound max_f |mu1(f) - mu2(f)| over 1-Lipschitz probes.

    A probe maps the stacked (m, dim_x) and (m, dim_y) rows of m states to
    their m values. It runs once on the atoms of both measures and is checked
    on a deterministic subsample of atom pairs under the measures' shared
    metric; a violation beyond 1e-9 rejects it rather than returning a bogus
    bound. By weak duality the result never exceeds the exact cost.
    """
    if not (isinstance(max_check_pairs, int) and max_check_pairs >= 1):
        raise InvalidInputError(
            f"max_check_pairs must be a positive integer, got {max_check_pairs!r}"
        )
    if mu1.metric != mu2.metric:
        raise InvalidInputError("the duality bound needs both measures on the same declared metric")
    spec = mu1.metric
    xs, ys = np.concatenate([mu1.xs, mu2.xs]), np.concatenate([mu1.ys, mu2.ys])
    m, total = len(xs), len(xs) * (len(xs) - 1) // 2
    i, j = _triangle_pairs(m, 0, 1 if total <= max_check_pairs else total // max_check_pairs + 1)
    allowed = row_dist(xs[i], ys[i], xs[j], ys[j], spec) * (1.0 + _LIP_TOL) + _LIP_TOL
    best = 0.0
    for k, fn in enumerate(probe_functions):
        try:
            vals = np.asarray(fn(xs, ys), dtype=float)
        except (TypeError, ValueError, AttributeError, IndexError) as err:
            raise InvalidInputError(f"probe {k} fails on stacked rows; {_PROBE_CONTRACT}") from err
        if vals.shape != (m,) or not np.all(np.isfinite(vals)):
            raise InvalidInputError(
                f"probe {k} returned shape {vals.shape}, not {m} finite values; {_PROBE_CONTRACT}")
        gaps = np.abs(vals[i] - vals[j])
        bad = np.flatnonzero(gaps > allowed)
        if bad.size:
            raise InvalidInputError(
                f"probe {k} is not 1-Lipschitz: |f(z)-f(zbar)| = {float(gaps[bad[0]])!r} "
                f"exceeds the distance at atom pair ({i[bad[0]]}, {j[bad[0]]})"
            )
        best = max(best, abs(float(mu1.weights @ vals[:len(mu1)] - mu2.weights @ vals[len(mu1):])))
    return best


def distance_probes(anchors: Sequence[ZPoint], spec: MetricSpec) -> list:
    """Distance-to-anchor probes f = d(., a), 1-Lipschitz by the triangle
    inequality; each maps the stacked rows (xs, ys) of m states to m distances."""

    def make(a: ZPoint):
        spec.check_point(a)
        return lambda xs, ys: row_dist(xs, ys, a.x[None], a.y[None], spec)

    return [make(a) for a in anchors]


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
    The maximum must stay within 1e-9 of the analytic factor. All the chains
    are stepped together, and each kept pair is pushed under every draw.
    Row 2 j + c is chain c of pair j, on ``derive_stream(seed, 2 j + c)``:
    its start words, then chain_len - 1 step uniforms, then one uniform that
    picks its state 1 to chain_len - 1.
    """
    _check_pair_budget(num_pairs, chain_len)
    factor = analytic_lip_factor(gen)
    keys = stream_keys(derive_streams(seed, 2 * num_pairs))
    x0 = gen.x_bound.draw_starts(keys)  # no step reads y, so every chain starts at z0's
    u = stream_uniforms(keys, gen.x_bound.start_words + gen.y_bound.start_words, chain_len)
    picks = 1 + (u[:, -1] * (chain_len - 1)).astype(int)
    paths = _step_block(gen, x0, gen.z0.y, gen.theta.indices_from_uniform(u[:, :-1]))
    xs, ys = (path[np.arange(len(picks)), picks] for path in paths)
    base = row_dist(xs[0::2], ys[0::2], xs[1::2], ys[1::2], gen.metric)
    kept = np.flatnonzero(base >= _PAIR_FLOOR)
    if not len(kept):
        return 0.0
    # row p k + i carries kept pair p under draw i, on either side
    k = len(gen.theta)
    draws = np.tile(np.arange(k), len(kept))
    num = row_dist(*_advance(gen, np.repeat(xs[2 * kept], k, axis=0), draws),
                   *_advance(gen, np.repeat(xs[2 * kept + 1], k, axis=0), draws),
                   gen.metric).reshape(len(kept), k)
    ratios = np.zeros(len(kept))
    for i, w in enumerate(gen.theta.weights):
        ratios += float(w) * (num[:, i] / base[kept])
    worst = float(ratios.max(initial=0.0))
    if worst > factor + _PROBE_SLACK:
        p = 2 * kept[np.argmax(ratios)]
        raise GeneratorContractError(
            f"probe ratio {worst!r} exceeds the analytic factor {factor!r} "
            f"at pair {(ZPoint(xs[p], ys[p]), ZPoint(xs[p + 1], ys[p + 1]))!r}"
        )
    return worst


class TrialReference(NamedTuple):
    """Per-trial figures of ``per_trial_reference``, in trial order."""

    phis: list        # worst-class deviation over the delayed window (n, 2n)
    deviations: list  # |true risk of the ERM pick on the training window - best true risk|
    rhats: list       # the estimate's value on the training window
    radii: list       # the empirical radius of that estimate


def per_trial_reference(
    gen: Generator,
    cls: HypothesisClass,
    env: LossEnv,
    n: int,
    epsilon: float,
    trials: int,
    batch_seed: SeedSpec,
    er_values: np.ndarray,
    train: tuple,
    tol: Optional[float] = None,
    mc_draws: int = MC_DRAWS,
    tie_break: str = "lowest_index",
) -> TrialReference:
    """The validators' trials one at a time, with nothing batched or shared.

    Trial t replays its chain of 2n states alone from
    ``derive_stream(batch_seed, t)`` (burned in to ``tol`` when given), and
    builds one loss matrix per window it reads: the delayed window (n, 2n)
    for the deviation phi, and ``train`` for one ERM pick, one complexity
    estimate from ``derive_stream(chain seed, 1)`` and one empirical radius.
    """
    ell_F = analytic_lip_factor(gen)
    ref = TrialReference([], [], [], [])
    for t in range(trials):
        chain_seed = derive_stream(batch_seed, t)
        traj = (sample_chain(gen, 2 * n, chain_seed) if tol is None
                else sample_stationary_chain(gen, 2 * n, tol, chain_seed))
        delayed = loss_matrix(cls, traj, env, window=(n, 2 * n))
        ref.phis.append(float(np.abs(delayed.values.mean(axis=1) - er_values).max()))
        mat = loss_matrix(cls, traj, env, window=train)
        pick = erm(cls, mat, epsilon=epsilon, tie_break=tie_break).hypothesis_index
        ref.deviations.append(abs(float(er_values[pick]) - float(er_values.min())))
        est = rademacher_estimate(mat, mc_draws, derive_stream(traj.seed, 1))
        ref.rhats.append(est.value)
        ref.radii.append(certify_empirical(est.value, env.ell_H, ell_F, n, epsilon).radius)
    return ref
