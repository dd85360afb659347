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

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost in the
# package import rather than inside the first command that seeds a stream
from numpy.random import SeedSequence, default_rng

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


def row_dist(xs1: np.ndarray, ys1: np.ndarray, xs2: np.ndarray, ys2: np.ndarray,
             spec: MetricSpec) -> np.ndarray:
    """Distance of row i of one stacked state array to row i of another, same
    bound check; a one-row side is paired with every row of the other."""
    # one dot product per row rounds like np.linalg.norm of that row alone;
    # norm(d, axis=1) sums the squares otherwise from two coordinates on
    dx, dy = (xs1 - xs2)[:, None], (ys1 - ys2)[:, None]
    raw = np.sqrt((dx @ dx.mT)[:, 0, 0]) + np.sqrt((dy @ dy.mT)[:, 0, 0])
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


def derive_stream(seed: SeedSpec, child_index: int) -> SeedSpec:
    """Deterministic child stream.

    Parent and child indices are combined through SHA-256 (truncated to 64
    bits), so distinct (parent, child) pairs map to distinct streams up to a
    negligible collision probability, and derivation can be nested.
    """
    if not (isinstance(child_index, int) and 0 <= child_index < _U64):
        raise InvalidInputError(f"child_index must be an integer in [0, 2^64), got {child_index!r}")
    digest = hashlib.sha256(struct.pack("<QQ", seed.stream_index, child_index)).digest()
    return SeedSpec(seed.master_seed, int.from_bytes(digest[:8], "little"))


def make_rng(seed: SeedSpec) -> np.random.Generator:
    """PCG64 generator keyed by (master_seed, stream_index); bit-stable across runs."""
    ss = SeedSequence(entropy=seed.master_seed, spawn_key=(seed.stream_index,))
    return default_rng(ss)
