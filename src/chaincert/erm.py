"""Empirical risk minimization over a finite class, with a slack knob.

The learner scans the class in declared order, so every selection is a pure
function of (class order, losses, epsilon, tie rule). Two tie rules exist:
``lowest_index`` returns the lowest-index member of the feasible set
{risk <= min + epsilon}, which is the canonical slack-respecting pick;
``first_found`` ignores the slack for selection and returns the first exact
minimizer, modelling an idealized learner whose slack is bookkeeping only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import LossMatrix, loss_matrices
from .errors import InvalidInputError
from .generators import Generator, burn_in_allowance, chain_batches, exact_invariant_atoms
from .hypotheses import HypothesisClass, LossEnv, window_loss_values
from .metric import SeedSpec

TIE_RULES = ("lowest_index", "first_found")


@dataclass(frozen=True)
class RiskReport:
    """Everything needed to audit one selection after the fact."""

    hypothesis_id: str
    hypothesis_index: int
    empirical_risk: float
    min_risk: float
    achieved_gap: float
    epsilon: float
    tie_break: str
    risk_table: tuple  # ((hid, risk), ...) in class order


def erm(
    cls: HypothesisClass,
    matrix: LossMatrix,
    epsilon: float = 0.0,
    tie_break: str = "lowest_index",
) -> RiskReport:
    """Exhaustive slack-aware minimization over the row means of ``matrix``,
    the class's loss rows on the training window; deterministic given the
    class order."""
    if tie_break not in TIE_RULES:
        raise InvalidInputError(f"tie_break must be one of {TIE_RULES}, got {tie_break!r}")
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidInputError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    if matrix.num_hypotheses != len(cls):
        raise InvalidInputError(
            f"loss matrix has {matrix.num_hypotheses} rows for a class of {len(cls)}"
        )
    risks = matrix.values.mean(axis=1)
    min_risk = float(risks.min())
    if tie_break == "first_found":
        chosen = int(np.flatnonzero(risks == min_risk)[0])
    else:
        chosen = int(np.flatnonzero(risks <= min_risk + epsilon)[0])
    risk = float(risks[chosen])
    return RiskReport(
        hypothesis_id=cls.members[chosen].hid,
        hypothesis_index=chosen,
        empirical_risk=risk,
        min_risk=min_risk,
        achieved_gap=risk - min_risk,
        epsilon=float(epsilon),
        tie_break=tie_break,
        risk_table=tuple((h.hid, float(r)) for h, r in zip(cls.members, risks)),
    )


@dataclass(frozen=True)
class RiskEstimate:
    """Risk under the invariant law with its uncertainty; closed forms carry
    zero se. ``bias_bound`` covers the systematic burn-in error of ergodic
    estimates: every recorded state's law sits within the burn-in tolerance
    of the invariant one, so the mean loss is off by at most ell_H times it."""

    value: float
    se: float
    method: str
    bias_bound: float = 0.0


_REPLICAS = 32      # ergodic replica chains per risk table
_RUN_LENGTH = 256   # recorded states per replica chain


def true_risk_table(
    cls: HypothesisClass,
    gen: Generator,
    env: LossEnv,
    tol: float = 1e-3,
    seed: SeedSpec = SeedSpec(0),
) -> tuple[RiskEstimate, ...]:
    """Invariant-law risk of every class member, in class order.

    The generator's parts pick the method (``exact_invariant_atoms``): iid
    draws take their atoms' expectation and a deterministic map (one atom)
    its fixed point, both exactly; any other chain is estimated from replica
    chains that start stationary (burned in to within ``tol``). Ergodic
    estimates share the same replica chains across the class, so differences
    between members are not polluted by sampling noise.
    """
    law = exact_invariant_atoms(gen)
    if law is not None:
        xs, ys, weights = law
        method = "atom_expectation" if gen.governing_map is None else "fixed_point"
        rows = window_loss_values(cls, xs, ys, env)
        return tuple(RiskEstimate(value=float(r @ weights), se=0.0, method=method) for r in rows)
    if not np.isfinite(env.ell_H):
        raise InvalidInputError("ergodic risk needs a finalized loss environment")
    means = _replica_means(cls, gen, env, _REPLICAS, _RUN_LENGTH, tol, seed)
    bias = burn_in_allowance(gen, tol, env.ell_H)
    return tuple(
        RiskEstimate(
            value=float(m.mean()),
            se=float(m.std(ddof=1) / np.sqrt(_REPLICAS)),
            method="ergodic_mc",
            bias_bound=bias,
        )
        for m in means
    )


def _replica_means(
    cls: HypothesisClass, gen: Generator, env: LossEnv,
    replicas: int, run_length: int, tol: float, seed: SeedSpec,
) -> np.ndarray:
    """Per-replica mean losses, shaped (class size, replicas); chains are shared
    across the class so comparisons see the same randomness."""
    means = []
    for batch in chain_batches(gen, run_length, seed, replicas, tol):
        means += [mat.values.mean(axis=1) for mat in loss_matrices(cls, batch, env)]
    return np.stack(means, axis=1)
