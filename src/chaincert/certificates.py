"""Generalization certificates for slack-aware ERM on contractive chains.

The certificate arithmetic is deliberately dumb: every radius is a sum of
three ingredient terms stored next to it, so an auditor can re-add them and
get the stored number bit-for-bit. The two forms are

    population:  4 R_expected + 2 ell_H ell_F^n W_bar + 4 eps
    empirical:   4 R_hat + 6 eps

both at confidence max(0, 1 - 2 exp(-2 eps^2 n / C^2)) with the deviation
constant C = ell_H / (1 - ell_F). The same tail inverts to eps(n, delta) and
to the sample complexity n(eps, delta).

The validators replay the statements behind the certificates on simulated
data. They report raw frequencies plus margin-adjusted verdicts; the margins
combine Monte Carlo standard errors with the systematic allowances that the
estimators themselves declare (burn-in bias, true-risk uncertainty), so a
FAIL means the inequality is broken, not that the estimate was noisy.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complexity import (
    MC_DRAWS,
    LossMatrix,
    RademacherEstimate,
    loss_matrix,
    rademacher_estimate,
    rademacher_expected,
)
from .erm import erm, true_risk_table
from .errors import AssumptionViolationError, InvalidInputError
from .generators import (
    Generator,
    analytic_lip_factor,
    burn_in_steps,
    sample_chain,
    sample_stationary_chain,
)
from .hypotheses import HypothesisClass, LossEnv
from .metric import SeedSpec, derive_stream

CERTIFICATE_FORMS = ("population", "empirical")
WINDOW_MODES = ("delayed", "paper_literal")


# -- certificate arithmetic ------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A radius/confidence pair with the ingredients that produced it."""

    form: str
    radius: float
    confidence: float
    rademacher_term: float
    wasserstein_term: float
    epsilon_term: float
    n: int
    epsilon: float
    ell_H: float
    ell_F: float
    w_bar: float


def deviation_constant(ell_H: float, ell_F: float) -> float:
    """C = ell_H / (1 - ell_F); the scale of one state's influence on the mean."""
    if not (np.isfinite(ell_H) and ell_H > 0):
        raise InvalidInputError(f"ell_H must be finite and positive, got {ell_H!r}")
    if not np.isfinite(ell_F) or ell_F < 0:
        raise InvalidInputError(f"ell_F must be finite and non-negative, got {ell_F!r}")
    if ell_F >= 1:
        raise AssumptionViolationError(
            f"mean contraction factor must be below one, got {ell_F!r}"
        )
    return ell_H / (1.0 - ell_F)


def confidence_level(epsilon: float, n: int, ell_H: float, ell_F: float) -> float:
    c = deviation_constant(ell_H, ell_F)
    return max(0.0, 1.0 - 2.0 * math.exp(-2.0 * epsilon**2 * n / c**2))


def _check_certificate_inputs(n: int, epsilon: float) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    if not (0 < epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in (0, 1), got {epsilon!r}")


def certify_population(
    rademacher: float, ell_H: float, ell_F: float, n: int, epsilon: float,
    w_bar: float = 1.0,
) -> Certificate:
    """Certificate from the expected complexity and a distance-to-invariance cap."""
    _check_certificate_inputs(n, epsilon)
    if not (np.isfinite(rademacher) and rademacher >= 0):
        raise InvalidInputError(f"complexity input must be finite and non-negative, got {rademacher!r}")
    if not (0.0 <= w_bar <= 1.0):
        raise InvalidInputError(f"w_bar must lie in [0, 1] (the metric diameter), got {w_bar!r}")
    confidence = confidence_level(epsilon, n, ell_H, ell_F)  # checks ell_H and ell_F
    rad_term = 4.0 * rademacher
    wass_term = 2.0 * ell_H * ell_F**n * w_bar
    eps_term = 4.0 * epsilon
    return Certificate(
        form="population",
        radius=rad_term + wass_term + eps_term,
        confidence=confidence,
        rademacher_term=rad_term,
        wasserstein_term=wass_term,
        epsilon_term=eps_term,
        n=n, epsilon=float(epsilon), ell_H=float(ell_H), ell_F=float(ell_F),
        w_bar=float(w_bar),
    )


def certify_empirical(
    rademacher_hat: float, ell_H: float, ell_F: float, n: int, epsilon: float
) -> Certificate:
    """Certificate from the observed-sample complexity alone."""
    _check_certificate_inputs(n, epsilon)
    if not (np.isfinite(rademacher_hat) and rademacher_hat >= 0):
        raise InvalidInputError(
            f"complexity input must be finite and non-negative, got {rademacher_hat!r}"
        )
    rad_term = 4.0 * rademacher_hat
    eps_term = 6.0 * epsilon
    return Certificate(
        form="empirical",
        radius=rad_term + 0.0 + eps_term,
        confidence=confidence_level(epsilon, n, ell_H, ell_F),
        rademacher_term=rad_term,
        wasserstein_term=0.0,
        epsilon_term=eps_term,
        n=n, epsilon=float(epsilon), ell_H=float(ell_H), ell_F=float(ell_F),
        w_bar=0.0,
    )


def check_certificate(cert: Certificate) -> None:
    """Re-derive radius and confidence from the stored ingredients; bit-exact."""
    if cert.form not in CERTIFICATE_FORMS:
        raise InvalidInputError(f"unknown certificate form {cert.form!r}")
    if cert.radius != cert.rademacher_term + cert.wasserstein_term + cert.epsilon_term:
        raise InvalidInputError("certificate radius does not re-derive from its terms")
    if cert.confidence != confidence_level(cert.epsilon, cert.n, cert.ell_H, cert.ell_F):
        raise InvalidInputError("certificate confidence does not re-derive from its inputs")


def invert_epsilon(delta: float, n: int, ell_H: float, ell_F: float) -> float:
    """Smallest slack for which the two-sided tail stays below delta."""
    if not (0 < delta < 1):
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta!r}")
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    c = deviation_constant(ell_H, ell_F)
    return c * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def sample_complexity(delta: float, epsilon: float, ell_H: float, ell_F: float) -> int:
    """Smallest n whose confidence at this slack reaches 1 - delta (up to ceiling)."""
    if not (0 < delta < 1):
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta!r}")
    if not (0 < epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    c = deviation_constant(ell_H, ell_F)
    return max(1, math.ceil(c**2 * math.log(2.0 / delta) / (2.0 * epsilon**2)))


# -- validators ------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """One validator run: headline comparison, margins, and per-trial rows."""

    name: str
    passed: bool
    statistic: float
    bound: float
    margin: float
    comparison: str           # "<=" or ">=": statistic vs bound +/- margin
    details: tuple            # ((key, value), ...) in a fixed order
    row_header: tuple
    rows: tuple


def _require_finalized(env: LossEnv) -> None:
    if not np.isfinite(env.ell_H):
        raise InvalidInputError("finalize the loss environment (ell_H) before validating")


def _check_trials(trials: int) -> None:
    if not (isinstance(trials, int) and trials >= 2):
        raise InvalidInputError(f"need at least two trials, got {trials!r}")


def _map_trials(fn: Callable[[int], tuple], trials: int, workers: int) -> list:
    """Evaluate one closure per trial index; order and values are unaffected
    by the worker count because every trial derives its own stream."""
    if not (isinstance(workers, int) and workers >= 1):
        raise InvalidInputError(f"workers must be a positive integer, got {workers!r}")
    if workers == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _risk_values(cls, gen, env, tol, seed) -> tuple[np.ndarray, float]:
    """True risks in class order plus a single worst-case uncertainty margin."""
    table = true_risk_table(cls, gen, env, mode="auto", tol=tol, seed=seed)
    values = np.array([e.value for e in table])
    unc = max(3.0 * e.se + e.bias_bound for e in table)
    return values, unc


def _sup_deviation(matrix: LossMatrix, er_values: np.ndarray) -> float:
    return float(np.abs(matrix.values.mean(axis=1) - er_values).max())


def _binomial_se(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def validate_lemma1(
    gen: Generator,
    cls: HypothesisClass,
    env: LossEnv,
    n: int,
    epsilon: float,
    trials: int,
    seed: SeedSpec = SeedSpec(0),
    tol: float = 1e-3,
    workers: int = 1,
) -> ValidationReport:
    """Tail check: the worst-class deviation of the delayed window exceeds its
    own mean by epsilon no more often than exp(-2 eps^2 n / C^2) allows.

    The centering mean comes from an independent batch of equal size, so the
    tail frequency is measured against a threshold it never touched.
    """
    _require_finalized(env)
    _check_trials(trials)
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    if not (0 <= epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    ell_F = analytic_lip_factor(gen)
    c = deviation_constant(env.ell_H, ell_F)
    er_values, er_unc = _risk_values(cls, gen, env, tol, derive_stream(seed, 2))

    def phi_of(batch: int) -> Callable[[int], float]:
        batch_seed = derive_stream(seed, batch)

        def run(t: int) -> float:
            traj = sample_chain(gen, None, 2 * n, derive_stream(batch_seed, t))
            return _sup_deviation(loss_matrix(cls, traj, env, window=(n, 2 * n)), er_values)

        return run

    center = np.array(_map_trials(phi_of(0), trials, workers))
    center_mean = float(center.mean())
    phis = np.array(_map_trials(phi_of(1), trials, workers))
    exceeded = phis >= center_mean + epsilon
    freq = float(exceeded.mean())
    bound = math.exp(-2.0 * epsilon**2 * n / c**2)
    margin = 3.0 * _binomial_se(freq, trials)
    return ValidationReport(
        name="lemma1",
        passed=bool(freq <= bound + margin),
        statistic=freq,
        bound=bound,
        margin=margin,
        comparison="<=",
        details=(
            ("center_mean", center_mean),
            ("center_se", float(center.std(ddof=1) / math.sqrt(trials))),
            ("epsilon", float(epsilon)),
            ("n", n),
            ("trials", trials),
            ("ell_H", env.ell_H),
            ("ell_F", ell_F),
            ("true_risk_uncertainty", er_unc),
        ),
        row_header=("trial", "phi", "exceeded"),
        rows=tuple((t, float(phis[t]), int(exceeded[t])) for t in range(trials)),
    )


def validate_lemma2(
    gen: Generator,
    cls: HypothesisClass,
    env: LossEnv,
    n: int,
    trials: int,
    seed: SeedSpec = SeedSpec(0),
    w_bar: float = 1.0,
    tol: float = 1e-3,
    rad_outer: int = 32,
    mc_draws: int = MC_DRAWS,
    workers: int = 1,
) -> ValidationReport:
    """Mean check: the expected worst-class deviation of the delayed window is
    at most twice the expected complexity plus the distance-decay term.

    The margin combines the two Monte Carlo standard errors in quadrature and
    adds the systematic allowances: the burn-in bias of the stationary-start
    complexity estimate and the true-risk uncertainty.
    """
    _require_finalized(env)
    _check_trials(trials)
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    if not (0.0 <= w_bar <= 1.0):
        raise InvalidInputError(f"w_bar must lie in [0, 1], got {w_bar!r}")
    ell_F = analytic_lip_factor(gen)
    er_values, er_unc = _risk_values(cls, gen, env, tol, derive_stream(seed, 2))
    batch_seed = derive_stream(seed, 0)

    def run(t: int) -> float:
        traj = sample_chain(gen, None, 2 * n, derive_stream(batch_seed, t))
        return _sup_deviation(loss_matrix(cls, traj, env, window=(n, 2 * n)), er_values)

    phis = np.array(_map_trials(run, trials, workers))
    phi_mean = float(phis.mean())
    phi_se = float(phis.std(ddof=1) / math.sqrt(trials))

    rad = rademacher_expected(
        cls, gen, env, n, outer=rad_outer, start_mode="stationary",
        tol=tol, seed=derive_stream(seed, 1), mc_draws=mc_draws,
    )
    rad_bias = env.ell_H * ell_F ** burn_in_steps(gen, tol)
    wass_term = env.ell_H * ell_F**n * w_bar
    bound = 2.0 * rad.value + wass_term
    margin = 3.0 * math.hypot(phi_se, 2.0 * rad.se) + 2.0 * rad_bias + er_unc
    return ValidationReport(
        name="lemma2",
        passed=bool(phi_mean <= bound + margin),
        statistic=phi_mean,
        bound=bound,
        margin=margin,
        comparison="<=",
        details=(
            ("phi_se", phi_se),
            ("rademacher", rad.value),
            ("rademacher_se", rad.se),
            ("rademacher_symmetrized", rad.value_symmetrized),
            ("rademacher_method", rad.method),
            ("rademacher_bias_allowance", rad_bias),
            ("wasserstein_term", wass_term),
            ("n", n),
            ("trials", trials),
            ("ell_H", env.ell_H),
            ("ell_F", ell_F),
            ("w_bar", float(w_bar)),
            ("true_risk_uncertainty", er_unc),
        ),
        row_header=("trial", "phi"),
        rows=tuple((t, float(phis[t])) for t in range(trials)),
    )


def validate_lemma3(
    gen: Generator,
    cls: HypothesisClass,
    env: LossEnv,
    n: int,
    epsilon: float,
    trials: int,
    seed: SeedSpec = SeedSpec(0),
    tol: float = 1e-3,
    mc_draws: int = MC_DRAWS,
    workers: int = 1,
) -> ValidationReport:
    """Conditional check: from a stationary start, the delayed-window deviation
    stays below twice the observed-prefix complexity plus 3 epsilon at least
    as often as the one-sided tail promises."""
    _require_finalized(env)
    _check_trials(trials)
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInputError(f"sample size must be a positive integer, got {n!r}")
    if not (0 < epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    ell_F = analytic_lip_factor(gen)
    c = deviation_constant(env.ell_H, ell_F)
    er_values, er_unc = _risk_values(cls, gen, env, tol, derive_stream(seed, 2))
    batch_seed = derive_stream(seed, 0)

    def run(t: int) -> tuple[float, RademacherEstimate]:
        stream = derive_stream(batch_seed, t)
        traj = sample_stationary_chain(gen, 2 * n, tol, stream)
        rhat = rademacher_estimate(loss_matrix(cls, traj, env, window=(0, n)),
                                   mc_draws, derive_stream(stream, 1))
        phi = _sup_deviation(loss_matrix(cls, traj, env, window=(n, 2 * n)), er_values)
        return phi, rhat

    results = _map_trials(run, trials, workers)
    phis = np.array([r[0] for r in results])
    rhats = np.array([r[1].value for r in results])
    success = phis <= 2.0 * rhats + 3.0 * epsilon
    freq = float(success.mean())
    target = 1.0 - math.exp(-2.0 * epsilon**2 * n / c**2)
    margin = 3.0 * _binomial_se(freq, trials)
    return ValidationReport(
        name="lemma3",
        passed=bool(freq >= target - margin),
        statistic=freq,
        bound=target,
        margin=margin,
        comparison=">=",
        details=(
            ("mean_phi", float(phis.mean())),
            ("mean_rhat", float(rhats.mean())),
            ("rhat_method", results[0][1].method),
            ("epsilon", float(epsilon)),
            ("n", n),
            ("trials", trials),
            ("ell_H", env.ell_H),
            ("ell_F", ell_F),
            ("true_risk_uncertainty", er_unc),
        ),
        row_header=("trial", "phi", "rhat", "success"),
        rows=tuple(
            (t, float(phis[t]), float(rhats[t]), int(success[t])) for t in range(trials)
        ),
    )


def coverage_experiment(
    gen: Generator,
    cls: HypothesisClass,
    env: LossEnv,
    n: int,
    epsilon: float,
    trials: int,
    window_mode: str = "delayed",
    seed: SeedSpec = SeedSpec(0),
    w_bar: float = 1.0,
    tol: float = 1e-3,
    rad_outer: int = 32,
    mc_draws: int = MC_DRAWS,
    erm_tie_break: str = "lowest_index",
    workers: int = 1,
) -> ValidationReport:
    """End-to-end check of both certificate forms against realized deviations.

    Per trial: simulate a length-2n path, learn on the window the mode picks
    (``delayed`` trains on the second half so the concentration window and the
    training window coincide; ``paper_literal`` trains on the first half),
    then compare |true risk of the pick - best true risk| with both radii.

    The population radius folds the complexity estimate's 3 SE and burn-in
    allowances into its input, keeping it an upper bound under estimation
    error. The empirical radius is recomputed per trial from that trial's
    own window. Coverage is also reported with the true-risk uncertainty
    subtracted from each deviation ("adjusted"); the pass verdict keys off
    the adjusted numbers so estimator noise cannot flip it.
    """
    _require_finalized(env)
    _check_trials(trials)
    if window_mode not in WINDOW_MODES:
        raise InvalidInputError(f"window_mode must be one of {WINDOW_MODES}, got {window_mode!r}")
    ell_F = analytic_lip_factor(gen)
    er_values, er_unc = _risk_values(cls, gen, env, tol, derive_stream(seed, 3))
    opt_value = float(er_values.min())

    rad = rademacher_expected(
        cls, gen, env, n, outer=rad_outer, start_mode="stationary",
        tol=tol, seed=derive_stream(seed, 1), mc_draws=mc_draws,
    )
    rad_bias = env.ell_H * ell_F ** burn_in_steps(gen, tol)
    rad_input = rad.value + 3.0 * rad.se + rad_bias
    cert_pop = certify_population(rad_input, env.ell_H, ell_F, n, epsilon, w_bar)
    confidence = cert_pop.confidence

    window = (n, 2 * n) if window_mode == "delayed" else (0, n)
    batch_seed = derive_stream(seed, 0)

    def run(t: int) -> tuple[float, RademacherEstimate]:
        stream = derive_stream(batch_seed, t)
        traj = sample_chain(gen, None, 2 * n, stream)
        mat = loss_matrix(cls, traj, env, window=window)
        report = erm(cls, mat, epsilon=epsilon, tie_break=erm_tie_break)
        deviation = abs(float(er_values[report.hypothesis_index]) - opt_value)
        return deviation, rademacher_estimate(mat, mc_draws, derive_stream(stream, 1))

    results = _map_trials(run, trials, workers)
    deviations = np.array([r[0] for r in results])
    radii_emp = np.array(
        [certify_empirical(r[1].value, env.ell_H, ell_F, n, epsilon).radius for r in results]
    )
    covered_pop = deviations < cert_pop.radius
    covered_emp = deviations < radii_emp
    adj = np.maximum(deviations - 2.0 * er_unc, 0.0)
    covered_pop_adj = adj < cert_pop.radius
    covered_emp_adj = adj < radii_emp

    cov_pop = float(covered_pop.mean())
    cov_emp = float(covered_emp.mean())
    cov_pop_adj = float(covered_pop_adj.mean())
    cov_emp_adj = float(covered_emp_adj.mean())
    margin_pop = 3.0 * _binomial_se(cov_pop_adj, trials)
    margin_emp = 3.0 * _binomial_se(cov_emp_adj, trials)
    pass_pop = cov_pop_adj >= confidence - margin_pop
    pass_emp = cov_emp_adj >= confidence - margin_emp

    details = (
        ("coverage_population", cov_pop),
        ("coverage_empirical", cov_emp),
        ("coverage_population_adjusted", cov_pop_adj),
        ("coverage_empirical_adjusted", cov_emp_adj),
        ("confidence", confidence),
        ("margin_population", margin_pop),
        ("margin_empirical", margin_emp),
        ("radius_population", cert_pop.radius),
        ("mean_radius_empirical", float(radii_emp.mean())),
        ("rademacher", rad.value),
        ("rademacher_se", rad.se),
        ("rademacher_bias_allowance", rad_bias),
        ("rademacher_method", rad.method),
        ("rhat_method", results[0][1].method),
        ("opt_risk", opt_value),
        ("epsilon", float(epsilon)),
        ("n", n),
        ("trials", trials),
        ("window_mode", window_mode),
        ("ell_H", env.ell_H),
        ("ell_F", ell_F),
        ("w_bar", float(w_bar)),
        ("true_risk_uncertainty", er_unc),
    )
    return ValidationReport(
        name="coverage",
        passed=bool(pass_pop and pass_emp),
        statistic=min(cov_pop_adj, cov_emp_adj),
        bound=confidence,
        margin=max(margin_pop, margin_emp),
        comparison=">=",
        details=details,
        row_header=("trial", "deviation", "radius_pop", "radius_emp", "covered_pop", "covered_emp"),
        rows=tuple(
            (
                t,
                float(deviations[t]),
                cert_pop.radius,
                float(radii_emp[t]),
                int(covered_pop[t]),
                int(covered_emp[t]),
            )
            for t in range(trials)
        ),
    )
