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

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import AssumptionViolationError, InvalidInputError
from .generators import Generator, sample_chain
from .metric import MetricSpec, SeedSpec, ZPoint, derive_stream, dist

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
            for i in range(tx.shape[0]):
                for j in range(i + 1, tx.shape[0]):
                    dx = float(np.linalg.norm(tx[i] - tx[j]))
                    dy = float(np.linalg.norm(ty[i] - ty[j]))
                    if dx == 0.0:
                        if dy > 0.0:
                            raise InvalidInputError("tabulated hypothesis maps one x to two labels")
                        continue
                    if dy > self.declared_lip * dx * (1.0 + _A2_SLACK):
                        raise InvalidInputError(
                            f"declared_lip {self.declared_lip!r} understates the table "
                            f"ratio {dy / dx!r} of hypothesis {self.hid!r}"
                        )

    def predict(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized prediction over stacked feature rows."""
        if self.kind == "constant":
            return np.broadcast_to(self.value, (xs.shape[0], self.value.shape[0])).copy()
        if self.kind == "linear":
            return xs @ self.weight.T + self.bias
        # nearest tabulated feature, lowest index on ties
        d2 = ((xs[:, None, :] - self.table_x[None, :, :]) ** 2).sum(axis=2)
        return self.table_y[np.argmin(d2, axis=1)]


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
    """Nearest-neighbour lookup; a flat table holds one-dimensional rows."""
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
    """Loss with declared regularity: value clip, argument Lipschitz constant,
    composite state constant ell_H, and value supremum L_H (<= ell_H)."""

    kind: str
    clip: float
    loss_lip: float
    ell_H: float = float("nan")
    L_H: float = float("nan")

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


def finalize_env(env: LossEnv, cls: HypothesisClass, spec: MetricSpec,
                 L_H: Optional[float] = None) -> LossEnv:
    """Fill in ell_H via composition; L_H defaults to the clip bound.

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
    ell = compose_ell_h(env, cls, spec)
    sup_value = float(L_H) if L_H is not None else env.clip
    if sup_value > ell * (1.0 + 1e-12):
        raise InvalidInputError("L_H must not exceed ell_H")
    return replace(env, ell_H=ell, L_H=sup_value)


def loss_at(env: LossEnv, h: Hypothesis, z: ZPoint) -> float:
    """Composite loss at one state, guarded by the declared bound."""
    val = float(env.loss_rows(h.predict(z.x[None, :])[0], z.y))
    if not np.isfinite(val) or val < 0:
        raise AssumptionViolationError(f"loss must be finite and non-negative, got {val!r}")
    if np.isfinite(env.ell_H) and val > env.ell_H * (1.0 + 1e-12):
        raise AssumptionViolationError(
            f"loss value {val!r} exceeds the declared bound ell_H = {env.ell_H!r}"
        )
    return val


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
    if not np.isfinite(env.ell_H):
        raise InvalidInputError("finalize the loss environment before verifying it")
    states: list[ZPoint] = []
    chains = max(2, (2 * num_pairs) // max(chain_len - 1, 1) + 1)
    for c in range(chains):
        traj = sample_chain(gen, None, chain_len, derive_stream(seed, c))
        states.extend(traj.point(t) for t in range(1, chain_len))
    xs = np.stack([z.x for z in states])
    ys = np.stack([z.y for z in states])
    rows = window_loss_values(cls, xs, ys, env)
    max_value = float(rows.max())

    count = len(states)
    checked = 0
    max_ratio = 0.0
    witness = None
    stride = max(1, (count * (count - 1) // 2) // num_pairs)
    flat = 0
    for i in range(count):
        for j in range(i + 1, count):
            flat += 1
            if flat % stride:
                continue
            base = dist(states[i], states[j], gen.metric)
            if base < 1e-12:
                continue
            gaps = np.abs(rows[:, i] - rows[:, j])
            ratio = float(gaps.max()) / base
            checked += 1
            if ratio > max_ratio:
                max_ratio, witness = ratio, (states[i], states[j])
            if checked >= num_pairs:
                break
        if checked >= num_pairs:
            break
    if max_value > env.ell_H * (1.0 + 1e-12):
        raise AssumptionViolationError(
            f"loss value {max_value!r} exceeds ell_H = {env.ell_H!r}"
        )
    if max_ratio > env.ell_H * (1.0 + _A2_SLACK):
        raise AssumptionViolationError(
            f"loss Lipschitz ratio {max_ratio!r} exceeds ell_H = {env.ell_H!r} "
            f"at pair {witness!r}"
        )
    return A2Report(max_ratio=max_ratio, max_value=max_value, pairs_checked=checked, ell_H=env.ell_H)
