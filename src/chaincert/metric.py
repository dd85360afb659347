"""Bounded product metric on labelled states and deterministic seed streams.

States are pairs z = (x, y) of finite coordinate vectors. The distance is the
normalized coordinate sum

    d(z, zbar) = (||x - xbar||_2 + ||y - ybar||_2) / kappa,

where kappa is a declared normalizer chosen so that d never exceeds the
diameter bound 1 that the certificates assume. The normalizer is part of the
metric declaration, not inferred from data; the bound is checked on every
evaluation.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost in the
# package import rather than inside the first command that seeds a stream
from numpy.random import PCG64, SeedSequence, default_rng

from .errors import InvalidInputError

_REL_SLACK = 1e-12


def _as_coords(values, label: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise InvalidInputError(
            f"{label} must be a flat coordinate vector, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{label} contains a non-finite coordinate")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ZPoint:
    """A labelled state z = (x, y); coordinates are finite by construction."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_coords(self.x, "x"))
        object.__setattr__(self, "y", _as_coords(self.y, "y"))

    @classmethod
    def _unchecked(cls, x: np.ndarray, y: np.ndarray) -> "ZPoint":
        """A point on coordinate rows that are already checked, finite and
        read-only; they are shared, not copied."""
        z = object.__new__(cls)
        object.__setattr__(z, "x", x)
        object.__setattr__(z, "y", y)
        return z

    def __eq__(self, other):
        if not isinstance(other, ZPoint):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    def __repr__(self):
        return f"ZPoint(x={self.x.tolist()}, y={self.y.tolist()})"


@dataclass(frozen=True)
class MetricSpec:
    """Declared geometry: coordinate dimensions and the normalizer that keeps
    every distance inside the diameter bound 1."""

    dim_x: int
    dim_y: int
    kappa: float

    def __post_init__(self):
        if not (isinstance(self.dim_x, int) and self.dim_x >= 1):
            raise InvalidInputError(f"dim_x must be a positive integer, got {self.dim_x}")
        if not (isinstance(self.dim_y, int) and self.dim_y >= 1):
            raise InvalidInputError(f"dim_y must be a positive integer, got {self.dim_y}")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise InvalidInputError(f"kappa must be finite and positive, got {self.kappa}")

    def check_point(self, z: ZPoint) -> None:
        if z.x.shape != (self.dim_x,) or z.y.shape != (self.dim_y,):
            raise InvalidInputError(
                f"point dimensions ({z.x.shape[0]}, {z.y.shape[0]}) do not match "
                f"the declared ({self.dim_x}, {self.dim_y})"
            )


def _check_raw_bound(raw, spec: MetricSpec) -> None:
    worst = float(np.max(raw, initial=0.0))
    if worst > spec.kappa * (1.0 + _REL_SLACK):
        raise InvalidInputError(
            f"kappa bound violated: raw coordinate-sum distance {worst!r} exceeds "
            f"kappa = {spec.kappa!r} times the diameter bound 1; declare a larger kappa"
        )


def dist(z: ZPoint, zbar: ZPoint, spec: MetricSpec) -> float:
    """Normalized sum distance; guaranteed inside [0, 1]."""
    spec.check_point(z)
    spec.check_point(zbar)
    return float(row_dist(z.x[None], z.y[None], zbar.x[None], zbar.y[None], spec)[0])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array."""
    # one dot product per row rounds like np.linalg.norm of that row alone;
    # norm(d, axis=1) sums the squares otherwise from two coordinates on
    r = rows[:, None]
    return np.sqrt((r @ r.mT)[:, 0, 0])


def row_dist(xs1: np.ndarray, ys1: np.ndarray, xs2: np.ndarray, ys2: np.ndarray,
             spec: MetricSpec) -> np.ndarray:
    """Distance of row i of one stacked state array to row i of another, same
    bound check; a one-row side is paired with every row of the other."""
    raw = _row_norms(xs1 - xs2) + _row_norms(ys1 - ys2)
    _check_raw_bound(raw, spec)
    return raw / spec.kappa


def pairwise_dist(
    xs1: np.ndarray, ys1: np.ndarray, xs2: np.ndarray, ys2: np.ndarray, spec: MetricSpec
) -> np.ndarray:
    """Distance matrix between two stacked state arrays, same bound check."""
    raw = _euclidean(xs1, xs2) + _euclidean(ys1, ys2)
    _check_raw_bound(raw, spec)
    return raw / spec.kappa


def _triangle_pairs(m: int, first: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j < m at row-major positions first, first + stride, ...;
    only the picked pairs are built."""
    flat = np.arange(first, m * (m - 1) // 2, stride)
    ends = np.cumsum(np.arange(m - 1, 0, -1))  # one past each row's last position
    i = np.searchsorted(ends, flat, side="right")
    return i, flat - ends[i] + m


def _euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # squares summed one coordinate at a time, in order: the same rounding as
    # scipy's cdist in every dimension (a broadcast .sum(-1) switches to
    # pairwise summation from 8 coordinates on and moves the last bits)
    acc = np.zeros((a.shape[0], b.shape[0]))
    for c in range(a.shape[1]):
        acc += (a[:, None, c] - b[None, :, c]) ** 2
    return np.sqrt(acc)


# -- deterministic seed streams ------------------------------------------------

_U64 = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one deterministic random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for label, v in (("master_seed", self.master_seed), ("stream_index", self.stream_index)):
            if not (isinstance(v, int) and 0 <= v < _U64):
                raise InvalidInputError(f"{label} must be an integer in [0, 2^64), got {v!r}")

    @classmethod
    def _unchecked(cls, master_seed: int, stream_index: int) -> "SeedSpec":
        """A seed of two integers already known to lie in [0, 2^64)."""
        seed = object.__new__(cls)
        seed.__dict__.update(master_seed=master_seed, stream_index=stream_index)
        return seed


_CHILD_KEY = struct.Struct("<QQ").pack


def derive_stream(seed: SeedSpec, child_index: int) -> SeedSpec:
    """Deterministic child stream.

    Parent and child indices are combined through SHA-256 (truncated to 64
    bits), so distinct (parent, child) pairs map to distinct streams up to a
    negligible collision probability, and derivation can be nested.
    """
    if not (isinstance(child_index, int) and 0 <= child_index < _U64):
        raise InvalidInputError(f"child_index must be an integer in [0, 2^64), got {child_index!r}")
    digest = hashlib.sha256(_CHILD_KEY(seed.stream_index, child_index)).digest()
    return SeedSpec(seed.master_seed, int.from_bytes(digest[:8], "little"))


def derive_streams(seed: SeedSpec, count: int) -> list:
    """``[derive_stream(seed, i) for i in range(count)]``, each child hashed
    once. The children skip ``SeedSpec``'s range check: a child index is a
    digest's first 8 bytes, so it always lies in [0, 2^64)."""
    parent, sha256 = seed.stream_index, hashlib.sha256
    indices = (int.from_bytes(sha256(_CHILD_KEY(parent, i)).digest()[:8], "little")
               for i in range(count))
    return [SeedSpec._unchecked(seed.master_seed, index) for index in indices]


def make_rng(seed: SeedSpec) -> np.random.Generator:
    """PCG64 generator keyed by (master_seed, stream_index); bit-stable across runs."""
    ss = SeedSequence(entropy=seed.master_seed, spawn_key=(seed.stream_index,))
    return default_rng(ss)


# -- many streams at once ------------------------------------------------------
#
# ``make_rng`` seeds PCG64 from numpy's SeedSequence, whose hash numpy documents
# as stable. Its entropy words are the master seed's uint32 words padded with
# zeros to the pool size 4, which is (lo, hi, 0, 0) for every master seed (hi
# is 0 below 2^32), then the stream index: two words (lo, hi) from 2^32 on, one
# word below that. The first four words are mixed into a pool that all streams
# of one master seed share; each index word then touches every pool word with
# fixed multipliers, so that last round and the output hash run over many
# streams at once as uint32 arrays. PCG64 takes the output as a 128-bit seed s
# and sequence inc and steps once: state = (inc + s) * mult + inc mod 2^128
# (O'Neill, PCG, HMC-CS-2014-0905).

_U32 = 2**32
_M32 = _U32 - 1
_M128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = np.uint32(16)
_MANY_STREAMS = 16  # see make_rngs


def _hash_multipliers(init: int, mult: int, calls: int) -> list:
    """The multiplier before and after each hash call: init * mult^c mod 2^32."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _M32)
    return out


# 4 + 12 calls mix the run entropy, then 4 per index word
_ENTROPY_HASH = _hash_multipliers(0x43B0D7E5, 0x931E8875, 24)
_INDEX_BEFORE = np.array(_ENTROPY_HASH[16:24], dtype=np.uint32).reshape(2, 4)
_INDEX_AFTER = np.array(_ENTROPY_HASH[17:25], dtype=np.uint32).reshape(2, 4)
_OUTPUT_HASH = np.array(_hash_multipliers(0x8B51F9DD, 0x58F38DED, 8), dtype=np.uint32)
_OUTPUT_WORDS = np.arange(8) % 4  # the output hash cycles through the pool


def _hashmix(value: int, call: int) -> int:
    value = (value ^ _ENTROPY_HASH[call]) * _ENTROPY_HASH[call + 1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _master_pool(master_seed: int) -> tuple:
    """SeedSequence's pool after the run entropy of ``master_seed``, before
    the stream index is mixed in."""
    pool = [_hashmix(w, c) for c, w in enumerate((master_seed & _M32, master_seed >> 32, 0, 0))]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    return tuple(pool)


def _pcg64_states(seeds: Sequence[SeedSpec]) -> list:
    """(state, inc) of ``make_rng(s)``'s PCG64 for seeds with a stream index
    of at least 2^32."""
    masters = {}  # master seed -> its row in the table of pools
    which = [masters.setdefault(s.master_seed, len(masters)) for s in seeds]
    pool = np.array([_master_pool(m) for m in masters], dtype=np.uint32)[which]
    index = np.array([s.stream_index for s in seeds], dtype=np.uint64)
    for k, word in enumerate((index & np.uint64(_M32), index >> np.uint64(32))):
        v = (word.astype(np.uint32)[:, None] ^ _INDEX_BEFORE[k]) * _INDEX_AFTER[k]
        v ^= v >> _SHIFT
        pool = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * v
        pool ^= pool >> _SHIFT
    out = (pool[:, _OUTPUT_WORDS] ^ _OUTPUT_HASH[:8]) * _OUTPUT_HASH[1:]
    out ^= out >> _SHIFT
    out = out.astype(np.uint64)
    words = out[:, 0::2] | out[:, 1::2] << np.uint64(32)  # little-endian uint64 pairs
    states = []
    for v0, v1, v2, v3 in words.tolist():
        s, inc = v0 << 64 | v1, (v2 << 65 | v3 << 1 | 1) & _M128
        states.append((((inc + s) * _PCG_MULT + inc) & _M128, inc))
    return states


def make_rngs(seeds: Sequence[SeedSpec]) -> Iterator[np.random.Generator]:
    """``make_rng(s)`` for each seed in order, each at its stream's first draw.

    When at least ``_MANY_STREAMS`` of the seeds have a stream index of 2^32
    or more (as ``derive_stream`` and ``derive_streams`` give but for a
    2^-32 chance), those seeds get one reused generator whose PCG64 state is
    set to each stream's in turn, from states hashed for all of them at once
    (``_pcg64_states``), through one state dict refilled per stream; a
    generator is valid only until the next one is taken. Every other seed,
    and every seed of a smaller call, gets its own ``make_rng``. The draws
    are those of ``make_rng``, bit for bit.

    Timed on a shared 2-vCPU host, 12 uniforms per stream, best of five
    runs, the reused generator against one ``make_rng`` per stream: 1 stream
    0.062 ms vs 0.012 ms, 4 streams 0.061 vs 0.048, 8 streams 0.081 vs 0.096,
    16 streams 0.098 vs 0.19, 64 streams 0.24 vs 0.77, 4,224 streams 15 vs
    52 ms. The fixed cost is the hash set-up, about 0.05 ms; each stream then
    costs about 3 us, mostly the state setter. The two break even between 4
    and 8 streams, and an earlier run put 8 streams at a tie, so calls below
    16 keep ``make_rng``.
    """
    seeds = list(seeds)
    fast = [s.stream_index >= _U32 for s in seeds]
    if sum(fast) < _MANY_STREAMS:
        yield from map(make_rng, seeds)
        return
    states = iter(_pcg64_states([s for s, f in zip(seeds, fast) if f]))
    rng = np.random.Generator(PCG64(0))
    # one state dict, refilled per stream: the setter copies what it reads
    bits, pcg = rng.bit_generator, {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for seed, is_fast in zip(seeds, fast):
        if is_fast:
            pcg["state"], pcg["inc"] = next(states)
            bits.state = state
            yield rng
        else:
            yield make_rng(seed)
