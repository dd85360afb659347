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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .complexity import (
    MC_DRAWS,
    LossMatrix,
    loss_matrices,
    rademacher_estimates,
    rademacher_expected,
    shared_method,
)
from .erm import erm, true_risk_table
from .errors import AssumptionViolationError, InvalidInputError
from .generators import (
    Generator,
    analytic_lip_factor,
    burn_in_allowance,
    burn_in_steps,
    chain_batches,
)
from .hypotheses import HypothesisClass, LossEnv
from .metric import SeedSpec, _check_count, derive_stream

CERTIFICATE_FORMS = ("population", "empirical")
WINDOW_MODES = ("delayed", "paper_literal")


def _training_window(window_mode: str, n: int) -> tuple[int, int]:
    """The n states a learner trains on in a chain of 2n: the second half for
    ``delayed``, the first for ``paper_literal``."""
    return (n, 2 * n) if window_mode == "delayed" else (0, n)


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

    def __post_init__(self):
        if not math.isfinite(self.radius):
            raise InvalidInputError(f"certificate 'radius' overflows to {self.radius!r}: "
                                    "the complexity input or ell_H is too large")


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


def _in_float_range(what: str, ell_H: float, ell_F: float, of_c):
    """``of_c(C)``, C = ``deviation_constant(ell_H, ell_F)``: the tail or its
    inverse in n. Where that leaves the float range (C^2 or eps^2 overflows,
    or one of them is 0 under a division) the inputs are invalid, and the
    error names ``what`` and C."""
    c = deviation_constant(ell_H, ell_F)
    try:
        return of_c(c)
    except (OverflowError, ZeroDivisionError):
        raise InvalidInputError(f"{what} has no float value: C = ell_H / (1 - ell_F) = "
                                f"{ell_H!r} / (1 - {ell_F!r}) = {c!r}") from None


def _tail(epsilon: float, n: int, ell_H: float, ell_F: float) -> float:
    """exp(-2 eps^2 n / C^2): the one-sided tail behind every certificate and
    the lemma 1 and 3 validators, with C = ``deviation_constant``."""
    _check_count("sample size", n)
    return _in_float_range(f"the tail at n = {n}", ell_H, ell_F,
                           lambda c: math.exp(-2.0 * epsilon**2 * n / c**2))


def confidence_level(epsilon: float, n: int, ell_H: float, ell_F: float) -> float:
    return max(0.0, 1.0 - 2.0 * _tail(epsilon, n, ell_H, ell_F))


def _check_certificate_inputs(n: int, epsilon: float) -> None:
    _check_count("sample size", n)
    if not (0 < epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in (0, 1), got {epsilon!r}")


def _check_w_bar(w_bar: float) -> None:
    if not (0.0 <= w_bar <= 1.0):
        raise InvalidInputError(f"w_bar must lie in [0, 1] (the metric diameter), got {w_bar!r}")


def certify_population(
    rademacher: float, ell_H: float, ell_F: float, n: int, epsilon: float,
    w_bar: float = 1.0,
) -> Certificate:
    """Certificate from the expected complexity and a distance-to-invariance cap."""
    _check_certificate_inputs(n, epsilon)
    if not (np.isfinite(rademacher) and rademacher >= 0):
        raise InvalidInputError(f"complexity input must be finite and non-negative, got {rademacher!r}")
    _check_w_bar(w_bar)
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
    _check_count("sample size", n)
    c = deviation_constant(ell_H, ell_F)
    epsilon = c * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    if not math.isfinite(epsilon):  # 2 / delta overflows for a subnormal delta, or C does
        raise InvalidInputError(f"delta {delta!r} at n = {n} gives no finite slack (C = {c!r})")
    return epsilon


def sample_complexity(delta: float, epsilon: float, ell_H: float, ell_F: float) -> int:
    """Smallest n whose confidence at this slack reaches 1 - delta (up to ceiling)."""
    if not (0 < delta < 1):
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta!r}")
    if not (0 < epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    # log(2 / delta) over the tail's exponent per state, 2 eps^2 / C^2; ceil(inf) overflows
    return max(1, _in_float_range(
        f"the sample size at epsilon = {epsilon!r}, delta = {delta!r}", ell_H, ell_F,
        lambda c: math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2 / c**2))))


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


@dataclass(frozen=True)
class _SetUp:
    """What a validator knows before it simulates its trials."""

    ell_F: float
    tail: Optional[float]         # exp(-2 eps^2 n / C^2), given an epsilon
    risks: np.ndarray             # true risks in class order
    true_risk_uncertainty: float  # one worst-case margin over the class
    report_tail: tuple            # the details every validator ends its report with


def _set_up(gen, cls, env, n, trials, tol, risk_seed, epsilon=None, w_bar=1.0) -> _SetUp:
    """Check the inputs every validator shares, compute ell_F and, given an
    ``epsilon`` (which the validator has checked), the tail; only then build
    the true-risk table, the first step that simulates."""
    if not np.isfinite(env.ell_H):
        raise InvalidInputError("finalize the loss environment (ell_H) before validating")
    if not (isinstance(trials, int) and trials >= 2):  # a bool fails this too: True < 2
        raise InvalidInputError(f"need at least two trials, got {trials!r}")
    _check_count("sample size", n)
    _check_w_bar(w_bar)
    burn_in_steps(gen, tol)  # checks tol, which a table of exact risks never reads
    ell_F = analytic_lip_factor(gen)
    tail = None if epsilon is None else _tail(epsilon, n, env.ell_H, ell_F)
    table = true_risk_table(cls, gen, env, tol=tol, seed=risk_seed)
    unc = max(3.0 * e.se + e.bias_bound for e in table)
    return _SetUp(ell_F, tail, np.array([e.value for e in table]), unc,
                  (("n", n), ("trials", trials), ("ell_H", env.ell_H), ("ell_F", ell_F),
                   ("true_risk_uncertainty", unc)))


def _population_complexity(gen, cls, env, n, tol, rad_outer, mc_draws, seed):
    """The expected complexity of n states, drawn from stream 1 of ``seed``,
    and the burn-in allowance of its chains."""
    rad = rademacher_expected(cls, gen, env, n, outer=rad_outer, tol=tol,
                              seed=derive_stream(seed, 1), mc_draws=mc_draws)
    return rad, burn_in_allowance(gen, tol, env.ell_H)


def _sup_deviation(matrix: LossMatrix, er_values: np.ndarray) -> float:
    return float(np.abs(matrix.values.mean(axis=1) - er_values).max())


def _per_object(fn, items) -> list:
    """``fn`` of each item, in order, called once per distinct object: the
    trials of a shared window (``loss_matrices``) share its matrix, and so
    one result, and estimates shared by ``rademacher_estimates`` one
    radius."""
    done = {}
    return [done[id(x)] if id(x) in done else done.setdefault(id(x), fn(x)) for x in items]


def _delayed_deviations(gen, cls, env, n, trials, batch_seed, er_values) -> np.ndarray:
    """Worst-class deviation over the window (n, 2n) of one 2n chain per trial,
    trial t sampled from ``derive_stream(batch_seed, t)``."""
    phis = []
    for batch in chain_batches(gen, 2 * n, batch_seed, trials):
        phis += _per_object(lambda mat: _sup_deviation(mat, er_values),
                            loss_matrices(cls, batch, env, window=(n, 2 * n)))
    return np.array(phis)


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
) -> ValidationReport:
    """Tail check: the worst-class deviation of the delayed window exceeds its
    own mean by epsilon no more often than exp(-2 eps^2 n / C^2) allows.

    The centering mean comes from an independent batch of equal size, so the
    tail frequency is measured against a threshold it never touched.
    """
    if not (0 <= epsilon < 1):
        raise InvalidInputError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    s = _set_up(gen, cls, env, n, trials, tol, derive_stream(seed, 2), epsilon)
    center = _delayed_deviations(gen, cls, env, n, trials, derive_stream(seed, 0), s.risks)
    center_mean = float(center.mean())
    phis = _delayed_deviations(gen, cls, env, n, trials, derive_stream(seed, 1), s.risks)
    exceeded = phis >= center_mean + epsilon
    freq = float(exceeded.mean())
    margin = 3.0 * _binomial_se(freq, trials)
    return ValidationReport(
        name="lemma1",
        passed=bool(freq <= s.tail + margin),
        statistic=freq,
        bound=s.tail,
        margin=margin,
        comparison="<=",
        details=(
            ("center_mean", center_mean),
            ("center_se", float(center.std(ddof=1) / math.sqrt(trials))),
            ("epsilon", float(epsilon)),
        ) + s.report_tail,
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
) -> ValidationReport:
    """Mean check: the expected worst-class deviation of the delayed window is
    at most twice the expected complexity plus the distance-decay term.

    The deviation max_h |window mean - true risk| is two-sided, and
    symmetrization bounds it by twice the symmetrized complexity, with the
    absolute value inside the max; the plain form is exactly 0 for a
    one-member class, so it bounds only the one-sided deviation.

    The margin combines the two Monte Carlo standard errors in quadrature and
    adds the systematic allowances: the burn-in bias of the stationary-start
    complexity estimate and the true-risk uncertainty.
    """
    s = _set_up(gen, cls, env, n, trials, tol, derive_stream(seed, 2), w_bar=w_bar)
    phis = _delayed_deviations(gen, cls, env, n, trials, derive_stream(seed, 0), s.risks)
    phi_mean = float(phis.mean())
    phi_se = float(phis.std(ddof=1) / math.sqrt(trials))

    rad, rad_bias = _population_complexity(gen, cls, env, n, tol, rad_outer, mc_draws, seed)
    wass_term = env.ell_H * s.ell_F**n * w_bar
    bound = 2.0 * rad.value_symmetrized + wass_term
    margin = (3.0 * math.hypot(phi_se, 2.0 * rad.se_symmetrized) + 2.0 * rad_bias
              + s.true_risk_uncertainty)
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
            ("w_bar", float(w_bar)),
        ) + s.report_tail,
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
) -> ValidationReport:
    """Conditional check: from a stationary start, the delayed-window deviation
    stays below twice the observed-prefix complexity plus 3 epsilon at least
    as often as the one-sided tail promises."""
    _check_certificate_inputs(n, epsilon)
    s = _set_up(gen, cls, env, n, trials, tol, derive_stream(seed, 2), epsilon)
    target = 1.0 - s.tail
    phis, estimates = [], []
    for batch in chain_batches(gen, 2 * n, derive_stream(seed, 0), trials, tol):
        # both windows of every chain in one loss call, in trial order
        halves = loss_matrices(
            cls, [half for traj in batch for half in (traj.slice(0, n), traj.slice(n, 2 * n))], env
        )
        estimates += rademacher_estimates(halves[0::2], mc_draws,
                                          [derive_stream(traj.seed, 1) for traj in batch])
        phis += _per_object(lambda mat: _sup_deviation(mat, s.risks), halves[1::2])
    phis = np.array(phis)
    rhats = np.array([e.value for e in estimates])
    success = phis <= 2.0 * rhats + 3.0 * epsilon
    freq = float(success.mean())
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
            ("rhat_method", shared_method(estimates)),
            ("epsilon", float(epsilon)),
        ) + s.report_tail,
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
    if window_mode not in WINDOW_MODES:
        raise InvalidInputError(f"window_mode must be one of {WINDOW_MODES}, got {window_mode!r}")
    _check_certificate_inputs(n, epsilon)
    s = _set_up(gen, cls, env, n, trials, tol, derive_stream(seed, 3), epsilon, w_bar)
    opt_value = float(s.risks.min())

    rad, rad_bias = _population_complexity(gen, cls, env, n, tol, rad_outer, mc_draws, seed)
    rad_input = rad.value + 3.0 * rad.se + rad_bias
    cert_pop = certify_population(rad_input, env.ell_H, s.ell_F, n, epsilon, w_bar)
    confidence = cert_pop.confidence

    def deviation(mat: LossMatrix) -> float:
        pick = erm(cls, mat, epsilon=epsilon, tie_break=erm_tie_break).hypothesis_index
        return abs(float(s.risks[pick]) - opt_value)

    window = _training_window(window_mode, n)
    deviations, estimates = [], []
    for batch in chain_batches(gen, 2 * n, derive_stream(seed, 0), trials):
        mats = loss_matrices(cls, batch, env, window=window)
        deviations += _per_object(deviation, mats)
        estimates += rademacher_estimates(mats, mc_draws,
                                          [derive_stream(traj.seed, 1) for traj in batch])
    deviations = np.array(deviations)
    radii_emp = np.array(_per_object(
        lambda e: certify_empirical(e.value, env.ell_H, s.ell_F, n, epsilon).radius, estimates
    ))
    covered_pop = deviations < cert_pop.radius
    covered_emp = deviations < radii_emp
    adj = np.maximum(deviations - 2.0 * s.true_risk_uncertainty, 0.0)
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
        ("vacuous", confidence == 0.0),  # coverage cannot fall short of 0
        ("margin_population", margin_pop),
        ("margin_empirical", margin_emp),
        ("radius_population", cert_pop.radius),
        ("mean_radius_empirical", float(radii_emp.mean())),
        ("rademacher", rad.value),
        ("rademacher_se", rad.se),
        ("rademacher_bias_allowance", rad_bias),
        ("rademacher_method", rad.method),
        ("rhat_method", shared_method(estimates)),
        ("rhat_exact_trials", sum(e.method == "exact" for e in estimates)),
        ("opt_risk", opt_value),
        ("epsilon", float(epsilon)),
        ("window_mode", window_mode),
        ("w_bar", float(w_bar)),
    ) + s.report_tail
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
