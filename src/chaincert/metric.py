"""Bounded product metric on labelled states and deterministic random streams.

States are pairs z = (x, y) of finite coordinate vectors. The distance is the
normalized coordinate sum

    d(z, zbar) = (||x - xbar||_2 + ||y - ybar||_2) / kappa,

where kappa is a declared normalizer chosen so that d never exceeds the
diameter bound 1 that the certificates assume. The normalizer is part of the
metric declaration, not inferred from data; the bound is checked on every
evaluation.

Random streams are counter-based SplitMix64 (``mix``): a block of draws of
many streams is one uint64 array op, with no generator state. Stream keys and
config digests are SHA-256 from CPython's built-in module, equal to hashlib's.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidInputError

try:  # hashlib loads OpenSSL's libcrypto (about 3.5 MiB resident); it is the fallback
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_REL_SLACK = 1e-12
_U64 = 2**64


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


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise unless ``value`` is an int of at least ``least``; a bool is not
    one. The package's one rule for sizes and counts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise InvalidInputError(f"{name} must be {rule}, got {value!r}")


def _check_probabilities(what: str, weights: np.ndarray, count: int) -> None:
    """Raise unless the flat float array ``weights`` is a probability vector
    over ``count`` >= 1 atoms: one weight per atom, each finite and positive,
    summing to 1 within 1e-12. ``what`` starts each message."""
    if count == 0 or weights.shape[0] != count:
        raise InvalidInputError(f"{what} needs one weight per atom, at least one atom")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise InvalidInputError(f"{what} weights must be finite and strictly positive")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise InvalidInputError(
            f"{what} weights must sum to 1 within 1e-12, got {float(weights.sum())!r}"
        )


def _check_index(name: str, value) -> None:
    """Raise unless ``value`` is an int in [0, 2^64); a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, int) and 0 <= value < _U64):
        raise InvalidInputError(f"{name} must be an integer in [0, 2^64), got {value!r}")


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
        _check_count("dim_x", self.dim_x)
        _check_count("dim_y", self.dim_y)
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


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one deterministic random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_index("master_seed", self.master_seed)
        _check_index("stream_index", self.stream_index)

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
    _check_index("child_index", child_index)
    digest = sha256(_CHILD_KEY(seed.stream_index, child_index)).digest()
    return SeedSpec(seed.master_seed, int.from_bytes(digest[:8], "little"))


def derive_streams(seed: SeedSpec, count: int) -> list:
    """``[derive_stream(seed, i) for i in range(count)]``, each child hashed
    once. The children skip ``SeedSpec``'s range check: a child index is a
    digest's first 8 bytes, so it always lies in [0, 2^64)."""
    _check_count("count", count, 0)
    parent = seed.stream_index
    indices = (int.from_bytes(sha256(_CHILD_KEY(parent, i)).digest()[:8], "little")
               for i in range(count))
    return [SeedSpec._unchecked(seed.master_seed, index) for index in indices]


_STREAM_KEY = struct.Struct("<8sQQ").pack
_STREAM_TAG = b"make_rng"  # keeps these digests apart from derive_stream's
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's odd increment, 2^64 over the golden ratio


def stream_keys(seeds: Iterable[SeedSpec]) -> np.ndarray:
    """The uint64 key of each seed's stream, in order: the first 8 bytes
    (little-endian) of the SHA-256 digest of the tagged pair (master_seed,
    stream_index), by the built-in module: the bytes of ``hashlib.sha256``."""
    return np.frombuffer(b"".join([sha256(_STREAM_KEY(_STREAM_TAG, s.master_seed, s.stream_index))
                                   .digest()[:8] for s in seeds]), dtype="<u8")


def mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Steele, Lea and Flood, OOPSLA 2014) on
    a uint64 array, in place. Draw t of the stream keyed k is
    mix(k + (t + 1) gamma): SplitMix64 from state k, used counter-based
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
    in integer operations only, so the same on every host. Streams overlap
    only if two keys differ by a small multiple of gamma (mod 2^64), below
    the draws taken: for m streams of T draws, a chance of about m^2 T / 2^64.
    """
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def stream_words(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws first, ..., first + count - 1 of the stream of each key in the
    uint64 array ``keys``, as (len(keys), count) uint64 words; row i does
    not depend on the other keys."""
    steps = np.arange(first + 1, first + count + 1, dtype=np.uint64) * _GAMMA
    return mix(keys[:, None] + steps)


def stream_uniforms(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """``stream_words`` as uniforms in [0, 1): each word's top 53 bits times
    2^-53."""
    return (stream_words(keys, first, count) >> 11) * 2.0**-53
