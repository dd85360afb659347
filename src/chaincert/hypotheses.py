"""Finite hypothesis classes and loss environments with one regularity budget.

A hypothesis maps features to label predictions. A loss environment wraps a
non-negative loss with a declared Lipschitz constant in its arguments and a
hard value bound. The two combine into a single state-space constant ell_H
that simultaneously bounds every composite loss value and its Lipschitz
constant under the normalized state metric:

    |L(h(x), y) - L(h(xbar), ybar)| <= loss_lip * max(sup_lip, 1) * kappa * d(z, zbar).

Preset losses are clipped at construction (never silently at evaluation), so
evaluation errors always mean a genuinely broken declaration.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import AssumptionViolationError, InvalidInputError
from .generators import Generator, _check_pair_budget, chain_batches
from .metric import MetricSpec, SeedSpec, ZPoint, _triangle_pairs, row_dist

HYPOTHESIS_KINDS = ("constant", "linear", "tabulated")
_A2_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """One predictor with a declared Lipschitz constant."""

    hid: str
    kind: str
    declared_lip: float
    value: Optional[np.ndarray] = None      # constant
    weight: Optional[np.ndarray] = None     # linear
    bias: Optional[np.ndarray] = None       # linear
    table_x: Optional[np.ndarray] = None    # tabulated
    table_y: Optional[np.ndarray] = None    # tabulated

    def __post_init__(self):
        if self.kind not in HYPOTHESIS_KINDS:
            raise InvalidInputError(f"unknown hypothesis kind {self.kind!r}")
        if not (np.isfinite(self.declared_lip) and self.declared_lip >= 0):
            raise InvalidInputError("declared_lip must be finite and non-negative")
        if self.kind == "constant":
            if self.value is None:
                raise InvalidInputError("constant hypothesis needs a value")
        elif self.kind == "linear":
            if self.weight is None or self.bias is None:
                raise InvalidInputError("linear hypothesis needs weight and bias")
            true_lip = float(np.linalg.norm(self.weight, 2))
            if self.declared_lip < true_lip * (1.0 - 1e-12):
                raise InvalidInputError(
                    f"declared_lip {self.declared_lip!r} understates the spectral "
                    f"norm {true_lip!r} of hypothesis {self.hid!r}"
                )
        else:
            if self.table_x is None or self.table_y is None:
                raise InvalidInputError("tabulated hypothesis needs table_x and table_y")
            tx, ty = self.table_x, self.table_y
            if tx.shape[0] != ty.shape[0] or tx.shape[0] == 0:
                raise InvalidInputError("tabulated hypothesis needs matching non-empty tables")
            if ty.shape[1] != 1:
                raise InvalidInputError(
                    f"tabulated hypothesis predicts one label column; table_y has {ty.shape[1]}"
                )
            # row i against the rows after it, so the first violating pair is found first
            xcols, ycols = tx.T.copy(), ty.T.copy()
            for i in range(tx.shape[0] - 1):
                dx, dy = _gaps_after(xcols, i), _gaps_after(ycols, i)
                clash = (dx == 0.0) & (dy > 0.0)
                bad = np.flatnonzero(clash | (dy > self.declared_lip * dx * (1.0 + _A2_SLACK)))
                if bad.size == 0:
                    continue
                j = bad[0]
                if clash[j]:
                    raise InvalidInputError("tabulated hypothesis maps one x to two labels")
                raise InvalidInputError(
                    f"declared_lip {self.declared_lip!r} understates the table "
                    f"ratio {float(dy[j] / dx[j])!r} of hypothesis {self.hid!r}"
                )

    def predict(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized prediction over stacked feature rows."""
        if self.kind == "constant":
            return np.broadcast_to(self.value, (xs.shape[0], self.value.shape[0])).copy()
        if self.kind == "linear":
            return xs @ self.weight.T + self.bias
        # McShane extension min_i (y_i + L |x - x_i|), L-Lipschitz like the table
        gaps = functools.reduce(np.hypot, (xs[:, k, None] - col
                                           for k, col in enumerate(self.table_x.T)), 0.0)
        return (self.table_y.T + self.declared_lip * gaps).min(axis=1, keepdims=True)


def _gaps_after(cols: np.ndarray, i: int) -> np.ndarray:
    """Euclidean gaps from row i of a table stored column by column to each later
    row; chained hypot does not underflow on gaps near 1e-160 as a sum of squares does."""
    return functools.reduce(np.hypot, (c[i + 1:] - c[i] for c in cols), 0.0)


def constant_hypothesis(hid: str, value) -> Hypothesis:
    return Hypothesis(
        hid=hid, kind="constant", declared_lip=0.0,
        value=np.asarray(value, dtype=float).reshape(-1),
    )


def linear_hypothesis(hid: str, weight, bias, declared_lip: Optional[float] = None) -> Hypothesis:
    weight = np.asarray(weight, dtype=float)
    if weight.ndim != 2:
        raise InvalidInputError("linear hypothesis needs a 2-d weight matrix")
    bias = np.asarray(bias, dtype=float).reshape(-1)
    if bias.shape[0] != weight.shape[0]:
        raise InvalidInputError("linear hypothesis needs one bias entry per weight row")
    lip = float(np.linalg.norm(weight, 2)) if declared_lip is None else float(declared_lip)
    return Hypothesis(hid=hid, kind="linear", declared_lip=lip, weight=weight, bias=bias)


def tabulated_hypothesis(hid: str, table_x, table_y, declared_lip: float) -> Hypothesis:
    """The largest ``declared_lip``-Lipschitz function at or below every
    table label (McShane, Bull. AMS 1934), predicting one label column; a
    flat table holds one-dimensional rows. It meets every table point whose
    label gaps to the other rows are at most ``declared_lip`` times their
    feature gaps; the table check's 1e-9 relative slack can leave a point's
    prediction up to 1e-9 * ``declared_lip`` * gap below its label."""
    table_x = np.asarray(table_x, dtype=float)
    table_y = np.asarray(table_y, dtype=float)
    return Hypothesis(
        hid=hid, kind="tabulated", declared_lip=float(declared_lip),
        table_x=table_x[:, None] if table_x.ndim == 1 else table_x,
        table_y=table_y[:, None] if table_y.ndim == 1 else table_y,
    )


@dataclass(frozen=True, eq=False)
class HypothesisClass:
    """Finite, ordered family of hypotheses; order fixes tie-breaking."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise InvalidInputError("hypothesis class must be non-empty")
        ids = [h.hid for h in members]
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"hypothesis ids must be distinct, got {ids}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sup_lip(self) -> float:
        return max(h.declared_lip for h in self.members)

    def ids(self) -> list[str]:
        return [h.hid for h in self.members]


def constant_grid(values: Sequence) -> HypothesisClass:
    members = [constant_hypothesis(f"const_{i}", v) for i, v in enumerate(values)]
    return HypothesisClass(tuple(members))


# -- loss environments -----------------------------------------------------------


@dataclass(frozen=True)
class LossEnv:
    """Loss with declared regularity: value clip (the value supremum, at most
    ell_H), argument Lipschitz constant, and composite state constant ell_H."""

    kind: str
    clip: float
    loss_lip: float
    ell_H: float = float("nan")

    def loss_rows(self, y_pred: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        gap = np.linalg.norm(y_pred - y_true, axis=-1)
        if self.kind == "abs_clipped":
            vals = np.minimum(gap, self.clip)
        elif self.kind == "squared_clipped":
            vals = np.minimum(gap**2, self.clip)
        else:
            raise InvalidInputError(f"unknown loss kind {self.kind!r}")
        return vals


def make_abs_loss(clip: float = 1.0) -> LossEnv:
    """Euclidean prediction error, clipped at ``clip``; 1-Lipschitz in each argument."""
    if not (np.isfinite(clip) and clip > 0):
        raise InvalidInputError("loss clip must be finite and positive")
    return LossEnv(kind="abs_clipped", clip=float(clip), loss_lip=1.0)


def make_squared_loss(clip: float, domain_diameter: float) -> LossEnv:
    """Squared error clipped at ``clip``; Lipschitz 2*diameter on the declared domain."""
    if not (np.isfinite(clip) and clip > 0):
        raise InvalidInputError("loss clip must be finite and positive")
    if not (np.isfinite(domain_diameter) and domain_diameter > 0):
        raise InvalidInputError("domain diameter must be finite and positive")
    return LossEnv(kind="squared_clipped", clip=float(clip), loss_lip=2.0 * float(domain_diameter))


def compose_ell_h(env: LossEnv, cls: HypothesisClass, spec: MetricSpec) -> float:
    """Single constant bounding both composite loss values and their state Lipschitz
    constant: max(clip, loss_lip * max(sup_lip, 1) * kappa)."""
    lip_part = env.loss_lip * max(cls.sup_lip, 1.0) * spec.kappa
    return max(env.clip, lip_part)


def finalize_env(env: LossEnv, cls: HypothesisClass, spec: MetricSpec) -> LossEnv:
    """Fill in ell_H via composition.

    Every hypothesis must read dim_x features and predict dim_y labels."""
    for h in cls.members:
        if h.kind == "constant":
            dim_x, dim_y = spec.dim_x, h.value.shape[0]
        elif h.kind == "linear":
            dim_y, dim_x = h.weight.shape
        else:
            dim_x, dim_y = h.table_x.shape[1], h.table_y.shape[1]
        if (dim_x, dim_y) != (spec.dim_x, spec.dim_y):
            raise InvalidInputError(
                f"hypothesis {h.hid!r} maps {dim_x}-d features to {dim_y}-d labels; "
                f"the chain has {spec.dim_x} and {spec.dim_y}"
            )
    return replace(env, ell_H=compose_ell_h(env, cls, spec))


def window_loss_values(
    cls: HypothesisClass, xs: np.ndarray, ys: np.ndarray, env: LossEnv
) -> np.ndarray:
    """Composite loss rows, one per hypothesis, over stacked states."""
    rows = np.stack([env.loss_rows(h.predict(xs), ys) for h in cls.members])
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise AssumptionViolationError("losses must be finite and non-negative")
    if np.isfinite(env.ell_H) and float(rows.max()) > env.ell_H * (1.0 + 1e-12):
        raise AssumptionViolationError(
            f"loss value {float(rows.max())!r} exceeds the declared bound ell_H = {env.ell_H!r}"
        )
    return rows


@dataclass(frozen=True)
class A2Report:
    """Outcome of a sampled regularity check."""

    max_ratio: float
    max_value: float
    pairs_checked: int
    ell_H: float


def verify_a2(
    env: LossEnv,
    cls: HypothesisClass,
    gen: Generator,
    num_pairs: int = 128,
    chain_len: int = 12,
    seed: SeedSpec = SeedSpec(0),
) -> A2Report:
    """Check the declared ell_H against sampled chain state pairs.

    Samples states along independent chains, evaluates every hypothesis, and
    verifies both the value bound and the Lipschitz ratio. A violation raises
    with the witnessing pair; success returns the observed maxima.
    """
    _check_pair_budget(num_pairs, chain_len)
    if not np.isfinite(env.ell_H):
        raise InvalidInputError("finalize the loss environment before verifying it")
    chains = max(2, (2 * num_pairs) // (chain_len - 1) + 1)
    paths = [traj for batch in chain_batches(gen, chain_len, seed, chains) for traj in batch]
    xs = np.concatenate([traj.xs[1:] for traj in paths])
    ys = np.concatenate([traj.ys[1:] for traj in paths])
    rows = window_loss_values(cls, xs, ys, env)

    # every stride-th pair in row-major order, skipping pairs closer than 1e-12
    count = xs.shape[0]
    stride = max(1, (count * (count - 1) // 2) // num_pairs)
    i, j = _triangle_pairs(count, stride - 1, stride)
    base = row_dist(xs[i], ys[i], xs[j], ys[j], gen.metric)
    keep = np.flatnonzero(base >= 1e-12)[:num_pairs]
    i, j = i[keep], j[keep]
    ratios = np.abs(rows[:, i] - rows[:, j]).max(axis=0) / base[keep]
    max_ratio = float(ratios.max(initial=0.0))
    if max_ratio > env.ell_H * (1.0 + _A2_SLACK):
        w = int(np.argmax(ratios))
        witness = (ZPoint(xs[i[w]], ys[i[w]]), ZPoint(xs[j[w]], ys[j[w]]))
        raise AssumptionViolationError(
            f"loss Lipschitz ratio {max_ratio!r} exceeds ell_H = {env.ell_H!r} "
            f"at pair {witness!r}"
        )
    return A2Report(max_ratio=max_ratio, max_value=float(rows.max()), pairs_checked=len(keep),
                    ell_H=env.ell_H)
