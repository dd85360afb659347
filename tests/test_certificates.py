import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert.certificates import (
    Certificate,
    certify_empirical,
    certify_population,
    check_certificate,
    confidence_level,
    coverage_experiment,
    deviation_constant,
    invert_epsilon,
    sample_complexity,
    validate_lemma1,
    validate_lemma2,
    validate_lemma3,
)
from chaincert.complexity import EXACT_N_CAP, loss_matrix
from chaincert.errors import AssumptionViolationError, InvalidInputError
from chaincert.generators import chain_batches
from chaincert.hypotheses import (
    HypothesisClass,
    constant_grid,
    constant_hypothesis,
    finalize_env,
    linear_hypothesis,
    make_abs_loss,
)
from chaincert.metric import SeedSpec, derive_stream
from chaincert.presets import load_preset

from test_generators import make_affine_worked_example, make_halving, make_iid


def test_population_certificate_worked_values():
    cert = certify_population(0.05, ell_H=1.0, ell_F=0.5, n=2000, epsilon=0.1)
    assert cert.form == "population"
    assert cert.rademacher_term == pytest.approx(0.2, abs=0)
    assert cert.wasserstein_term == 0.0  # 0.5**2000 underflows to an exact zero
    assert cert.epsilon_term == pytest.approx(0.4, abs=0)
    assert cert.radius == pytest.approx(0.6, abs=1e-12)
    assert cert.confidence == pytest.approx(1.0 - 2.0 * math.exp(-10.0), abs=1e-15)
    assert f"{cert.confidence:.6f}" == "0.999909"
    check_certificate(cert)


def test_population_certificate_epsilon_only():
    cert = certify_population(0.0, ell_H=1.0, ell_F=0.0, n=5, epsilon=0.1, w_bar=0.0)
    assert cert.radius == pytest.approx(0.4, abs=0)
    # zero mean factor kills the distance term for any n >= 1
    iid = certify_population(0.0, ell_H=1.0, ell_F=0.0, n=1, epsilon=0.1, w_bar=1.0)
    assert iid.wasserstein_term == 0.0


def test_empirical_certificate_worked_values():
    cert = certify_empirical(0.25, ell_H=1.0, ell_F=0.5, n=2000, epsilon=0.05)
    assert cert.form == "empirical"
    assert cert.radius == pytest.approx(1.3, abs=1e-12)
    assert cert.wasserstein_term == 0.0
    zero = certify_empirical(0.0, ell_H=1.0, ell_F=0.5, n=100, epsilon=0.1)
    assert zero.radius == pytest.approx(0.6, abs=1e-12)
    # identical tail expression across forms at equal knobs
    pop = certify_population(0.1, ell_H=1.0, ell_F=0.5, n=100, epsilon=0.1)
    emp = certify_empirical(0.1, ell_H=1.0, ell_F=0.5, n=100, epsilon=0.1)
    assert pop.confidence == emp.confidence
    check_certificate(emp)


def test_certificate_rejects_bad_inputs():
    with pytest.raises(AssumptionViolationError):
        certify_population(0.1, ell_H=1.0, ell_F=1.0, n=10, epsilon=0.1)
    with pytest.raises(AssumptionViolationError):
        certify_empirical(0.1, ell_H=1.0, ell_F=1.2, n=10, epsilon=0.1)
    with pytest.raises(InvalidInputError):
        certify_population(0.1, ell_H=1.0, ell_F=0.5, n=10, epsilon=0.0)
    with pytest.raises(InvalidInputError):
        certify_population(0.1, ell_H=1.0, ell_F=0.5, n=10, epsilon=0.1, w_bar=1.5)
    with pytest.raises(InvalidInputError):
        certify_population(-0.1, ell_H=1.0, ell_F=0.5, n=10, epsilon=0.1)
    with pytest.raises(InvalidInputError):
        certify_population(0.1, ell_H=1.0, ell_F=0.5, n=0, epsilon=0.1)
    with pytest.raises(InvalidInputError):
        deviation_constant(0.0, 0.5)


def test_overflow_names_the_input_at_fault():
    # 2 / delta overflows for a subnormal delta, and an inverted slack is
    # otherwise any finite value (the command line asks for one in (0, 1))
    with pytest.raises(InvalidInputError, match=r"delta 1e-320 at n = 10 gives no finite slack"):
        invert_epsilon(1e-320, 10, 1.0, 0.5)
    assert invert_epsilon(0.5, 10, 1.0, 0.9999999999999999) > 1e15
    # a radius that overflows is no certificate
    with pytest.raises(InvalidInputError, match="certificate 'radius' overflows to inf"):
        certify_population(1e308, ell_H=1e308, ell_F=0.5, n=10, epsilon=0.1)
    with pytest.raises(InvalidInputError, match="certificate 'radius' overflows to inf"):
        certify_empirical(1e308, ell_H=1.0, ell_F=0.5, n=10, epsilon=0.1)


@pytest.mark.parametrize("ell_H, c", [(1e200, "2e+200"), (5e-324, "1e-323")])
def test_tail_out_of_float_range_names_n_and_c(ell_H, c):
    # C^2 overflows, or underflows to 0: the tail has no float value, and
    # every certificate and the confidence say so by n and C
    named = rf"the tail at n = 10 has no float value: .* = {re.escape(c)}$"
    for make in (lambda: confidence_level(0.1, 10, ell_H, 0.5),
                 lambda: certify_population(0.1, ell_H, 0.5, 10, 0.1),
                 lambda: certify_empirical(0.1, ell_H, 0.5, 10, 0.1)):
        with pytest.raises(InvalidInputError, match=named):
            make()


def _forbid_simulation(monkeypatch):
    """Make each step of a validator that simulates fail the test if it runs."""
    for name in ("true_risk_table", "rademacher_expected", "chain_batches"):
        def never(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran before the inputs were checked")

        monkeypatch.setattr(f"chaincert.certificates.{name}", never)


@pytest.mark.parametrize("validate", [validate_lemma1, validate_lemma3, coverage_experiment])
def test_lemma_validators_refuse_an_out_of_range_tail_before_simulating(validate, monkeypatch):
    _forbid_simulation(monkeypatch)
    bundle = load_preset("iid_two")
    env = dataclasses.replace(bundle.env, ell_H=1e200)
    with pytest.raises(InvalidInputError, match=r"the tail at n = 8 has no float value"):
        validate(bundle.gen, bundle.cls, env, n=8, epsilon=0.1, trials=4)


_REFUSALS = {"tol": (2.0, r"^burn-in tolerance must lie in \(0, 1\), got 2\.0$"),
             "w_bar": (1.5, r"^w_bar must lie in \[0, 1\] \(the metric diameter\), got 1\.5$")}


@pytest.mark.parametrize("validate, key", [
    (validate_lemma1, "tol"), (validate_lemma2, "tol"), (validate_lemma3, "tol"),
    (coverage_experiment, "tol"), (validate_lemma2, "w_bar"), (coverage_experiment, "w_bar"),
], ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("preset", ["iid_two", "affine_triangle"])
def test_validators_refuse_w_bar_and_tol_before_simulating(validate, key, preset, monkeypatch):
    # iid_two's exact risk table never reads tol, so only the set-up refuses it
    _forbid_simulation(monkeypatch)
    bundle = load_preset(preset)
    value, named = _REFUSALS[key]
    kwargs = {key: value} if validate is validate_lemma2 else {key: value, "epsilon": 0.1}
    with pytest.raises(InvalidInputError, match=named):
        validate(bundle.gen, bundle.cls, bundle.env, n=8, trials=4, **kwargs)


def test_counts_past_the_float_range_are_refused_by_the_certificates():
    named = r"^sample size of 1329 bits exceeds the float range$"
    with pytest.raises(InvalidInputError, match=named):
        invert_epsilon(0.1, 10**400, 1.0, 0.5)
    with pytest.raises(InvalidInputError, match=named):
        confidence_level(0.1, 10**400, 1.0, 0.5)
    with pytest.raises(InvalidInputError, match=named):
        certify_population(0.1, 1.0, 0.5, 10**400, 0.1)
    with pytest.raises(InvalidInputError, match=named):
        certify_empirical(0.1, 1.0, 0.5, 10**400, 0.1)


def test_check_certificate_detects_tampering():
    cert = certify_population(0.05, ell_H=2.0, ell_F=0.5, n=50, epsilon=0.1)
    check_certificate(cert)
    bent = dataclasses.replace(cert, radius=cert.radius + 1e-9)
    with pytest.raises(InvalidInputError):
        check_certificate(bent)
    bent2 = dataclasses.replace(cert, confidence=min(1.0, cert.confidence + 1e-9))
    with pytest.raises(InvalidInputError):
        check_certificate(bent2)


def test_invert_epsilon_worked_value():
    eps = invert_epsilon(0.05, 1000, ell_H=0.5, ell_F=0.5)  # C = 1
    assert eps == pytest.approx(math.sqrt(math.log(40.0) / 2000.0), abs=1e-15)
    assert f"{eps:.4g}" == "0.04295"
    # plugging back reproduces the tail level
    assert confidence_level(eps, 1000, 0.5, 0.5) == pytest.approx(0.95, abs=1e-12)


def test_invert_epsilon_closed_form_round_trip():
    n = 3
    delta = 2.0 * math.exp(-2.0 * n)
    assert invert_epsilon(delta, n, ell_H=1.0, ell_F=0.0) == pytest.approx(1.0, abs=1e-12)
    # quadrupling n halves the slack
    a = invert_epsilon(0.1, 50, 1.0, 0.3)
    b = invert_epsilon(0.1, 200, 1.0, 0.3)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


@pytest.mark.parametrize("args, named", [
    # C^2 overflows
    ((0.1, 0.1, 1e200, 0.5), r"epsilon = 0\.1, delta = 0\.1 has no float value: "
                             r"C = ell_H / \(1 - ell_F\) = 1e\+200 / \(1 - 0\.5\) = 2e\+200$"),
    # eps^2 underflows to 0
    ((0.1, 1e-200, 1.0, 0.5), r"^the sample size at epsilon = 1e-200, delta = 0\.1 has no"),
    # C^2 underflows to 0, which the tail refuses too
    ((0.1, 0.1, 5e-324, 0.5), r"= 5e-324 / \(1 - 0\.5\) = 1e-323$"),
], ids=["C_squared_overflows", "epsilon_squared_is_0", "C_squared_is_0"])
def test_sample_complexity_refuses_a_tail_with_no_float_value(args, named):
    delta, epsilon, ell_H, ell_F = args
    with pytest.raises(InvalidInputError, match=named):
        sample_complexity(delta, epsilon, ell_H, ell_F)
    if epsilon == 0.1:
        with pytest.raises(InvalidInputError, match="the tail at n = 10 has no float value"):
            confidence_level(epsilon, 10, ell_H, ell_F)


def test_sample_complexity_worked_value_and_scaling():
    eps = invert_epsilon(0.05, 1000, 0.5, 0.5)
    n = sample_complexity(0.05, eps, 0.5, 0.5)
    assert abs(n - 1000) <= 1
    # halving the slack quadruples the requirement (up to ceiling)
    n1 = sample_complexity(0.1, 0.2, 1.0, 0.0)
    n2 = sample_complexity(0.1, 0.1, 1.0, 0.0)
    assert abs(n2 - 4 * n1) <= 4
    # pushing the mean factor toward one inflates n by 1/(1-ell_F) squared
    base = sample_complexity(0.1, 0.05, 1.0, 0.0)
    slow = sample_complexity(0.1, 0.05, 1.0, 0.5)
    assert abs(slow - 4 * base) <= 4
    with pytest.raises(InvalidInputError):
        sample_complexity(0.0, 0.1, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        sample_complexity(0.1, 1.0, 1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(1e-6, 0.99),
    n=st.integers(1, 10_000),
    ell_H=st.floats(0.05, 5.0),
    ell_F=st.floats(0.0, 0.95),
)
def test_inversion_round_trip_property(delta, n, ell_H, ell_F):
    eps = invert_epsilon(delta, n, ell_H, ell_F)
    assert confidence_level(eps, n, ell_H, ell_F) == pytest.approx(1.0 - delta, abs=1e-12)
    if 0 < eps < 1:
        n_back = sample_complexity(delta, eps, ell_H, ell_F)
        assert abs(n_back - n) <= 1


def test_confidence_monotonicity():
    lows = [confidence_level(0.1, n, 1.0, 0.5) for n in (200, 500, 1000, 5000)]
    assert all(a < b for a, b in zip(lows, lows[1:]))
    eps_sweep = [confidence_level(e, 800, 1.0, 0.5) for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(eps_sweep, eps_sweep[1:]))
    # radius shrinks with n through the decay term at fixed inputs
    r = [certify_population(0.1, 1.0, 0.5, n, 0.1).radius for n in (1, 2, 5, 10)]
    assert all(a > b for a, b in zip(r, r[1:]))
    assert confidence_level(0.01, 1, 1.0, 0.0) == 0.0  # clipped at zero


# -- validators ------------------------------------------------------------------


def iid_spread_class():
    return constant_grid([0.0, 0.45, 1.0])


def test_lemma1_iid_singleton_passes():
    gen = make_iid()
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma1(gen, cls, env, n=60, epsilon=0.12, trials=80, seed=SeedSpec(5))
    assert report.name == "lemma1"
    assert report.passed
    assert report.comparison == "<="
    assert report.statistic <= report.bound + report.margin
    assert len(report.rows) == 80
    assert report.row_header == ("trial", "phi", "exceeded")
    # deterministic replay
    again = validate_lemma1(gen, cls, env, n=60, epsilon=0.12, trials=80, seed=SeedSpec(5))
    assert again == report


def test_lemma1_degenerate_chain_never_exceeds():
    gen = make_halving()
    cls = constant_grid([0.0, 0.5])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma1(gen, cls, env, n=16, epsilon=0.05, trials=12, seed=SeedSpec(1))
    # every path is the same, so no trial can clear its own mean by epsilon
    assert report.statistic == 0.0
    assert report.passed


def test_lemma1_zero_epsilon_trivial_bound():
    gen = make_iid()
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma1(gen, cls, env, n=20, epsilon=0.0, trials=10, seed=SeedSpec(2))
    assert report.bound == 1.0
    assert report.passed


def test_lemma2_iid_spread_class_passes():
    gen = make_iid()
    cls = iid_spread_class()
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma2(gen, cls, env, n=64, trials=64, seed=SeedSpec(3), rad_outer=16)
    assert report.name == "lemma2"
    assert report.passed
    assert report.statistic <= report.bound + report.margin
    details = dict(report.details)
    assert details["wasserstein_term"] == 0.0
    assert details["rademacher_symmetrized"] >= details["rademacher"] - 1e-12


def test_lemma2_degenerate_chain_both_sides_tiny():
    gen = make_halving()
    cls = HypothesisClass(
        (
            linear_hypothesis("ident", [[1.0]], [0.0]),
            constant_hypothesis("half", [0.5]),
            constant_hypothesis("zero", [0.0]),
            linear_hypothesis("step", [[0.5]], [0.25]),
        )
    )
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma2(gen, cls, env, n=24, trials=12, seed=SeedSpec(4), rad_outer=8)
    assert report.passed
    assert report.statistic < 1e-4


def test_lemma2_singleton_passes_on_the_symmetrized_bound():
    # With one hypothesis the plain signed-max complexity is exactly zero while
    # the mean absolute deviation is not; the two-sided deviation is bounded by
    # twice the symmetrized complexity, which the check compares against.
    gen = make_iid()
    cls = constant_grid([0.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma2(gen, cls, env, n=64, trials=64, seed=SeedSpec(7), rad_outer=16)
    assert report.passed
    details = dict(report.details)
    assert abs(details["rademacher"]) < 0.01  # zero in expectation, MC noise only
    assert report.bound == 2.0 * details["rademacher_symmetrized"] + details["wasserstein_term"]
    assert report.statistic > 0.0


def test_lemma3_iid_two_hypotheses_passes():
    gen = make_iid()
    cls = constant_grid([0.0, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma3(
        gen, cls, env, n=30, epsilon=0.2, trials=40, seed=SeedSpec(11), mc_draws=1024
    )
    assert report.name == "lemma3"
    assert report.passed
    assert report.comparison == ">="
    assert report.statistic >= report.bound - report.margin
    assert report.row_header == ("trial", "phi", "rhat", "success")


def test_lemma3_degenerate_chain_passes():
    gen = make_halving()
    cls = constant_grid([0.0, 0.5])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = validate_lemma3(gen, cls, env, n=16, epsilon=0.3, trials=8, seed=SeedSpec(6))
    assert report.passed
    assert report.statistic == 1.0


def test_coverage_iid_finite_class():
    gen = make_iid()
    cls = iid_spread_class()
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = coverage_experiment(
        gen, cls, env, n=200, epsilon=0.15, trials=40,
        seed=SeedSpec(13), rad_outer=8, mc_draws=1024,
    )
    assert report.name == "coverage"
    assert report.passed
    details = dict(report.details)
    assert 0.0 <= details["confidence"] < 1.0
    assert details["coverage_population"] >= details["confidence"] - report.margin
    assert details["coverage_empirical"] >= details["confidence"] - report.margin
    assert len(report.rows) == 40
    assert report.row_header == (
        "trial", "deviation", "radius_pop", "radius_emp", "covered_pop", "covered_emp",
    )
    # population radius is constant across rows; empirical varies per trial
    assert len({row[2] for row in report.rows}) == 1


def test_chain_coverage_meets_a_confidence_that_says_something():
    # a Markov chain preset at a size where the certificate's confidence is
    # well above 0; the three-standard-error rule of acceptance check 7
    bundle = load_preset("labeled_affine")
    n, trials, eps = 1200, 100, 0.1
    report = coverage_experiment(bundle.gen, bundle.cls, bundle.env, n=n, epsilon=eps,
                                 trials=trials, seed=SeedSpec(11))
    d = dict(report.details)
    c = deviation_constant(d["ell_H"], d["ell_F"])
    assert abs(d["confidence"] - (1.0 - 2.0 * math.exp(-2.0 * eps**2 * n / c**2))) <= 1e-12
    assert d["confidence"] >= 0.9 and d["vacuous"] is False
    se = math.sqrt(d["confidence"] * (1.0 - d["confidence"]) / trials)
    assert d["coverage_population"] >= d["confidence"] - 3.0 * se
    assert d["coverage_empirical"] >= d["confidence"] - 3.0 * se
    assert report.passed


def test_coverage_degenerate_chain_is_exact():
    gen = make_halving()
    cls = HypothesisClass(
        (
            linear_hypothesis("ident", [[1.0]], [0.0]),
            constant_hypothesis("half", [0.5]),
            constant_hypothesis("zero", [0.0]),
            linear_hypothesis("step", [[0.5]], [0.25]),
        )
    )
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    report = coverage_experiment(
        gen, cls, env, n=40, epsilon=0.1, trials=10,
        seed=SeedSpec(17), rad_outer=4, mc_draws=512,
    )
    details = dict(report.details)
    assert details["coverage_population"] == 1.0
    assert details["coverage_empirical"] == 1.0
    assert report.passed
    # the learner must land on a zero-risk hypothesis every time
    assert all(row[1] == 0.0 for row in report.rows)


def test_coverage_window_modes_and_validation():
    gen = make_iid()
    cls = constant_grid([0.0, 1.0])
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    delayed = coverage_experiment(
        gen, cls, env, n=24, epsilon=0.2, trials=8, seed=SeedSpec(19), rad_outer=4
    )
    literal = coverage_experiment(
        gen, cls, env, n=24, epsilon=0.2, trials=8, seed=SeedSpec(19),
        rad_outer=4, window_mode="paper_literal",
    )
    assert dict(delayed.details)["window_mode"] == "delayed"
    assert dict(literal.details)["window_mode"] == "paper_literal"
    with pytest.raises(InvalidInputError):
        coverage_experiment(
            gen, cls, env, n=24, epsilon=0.2, trials=8, window_mode="sliding"
        )
    with pytest.raises(InvalidInputError):
        coverage_experiment(gen, cls, env, n=24, epsilon=0.2, trials=1)
    for bad_n in (0, 2.5):
        with pytest.raises(InvalidInputError, match="sample size must be a positive integer"):
            coverage_experiment(gen, cls, env, n=bad_n, epsilon=0.2, trials=8)


@pytest.mark.parametrize("n", (EXACT_N_CAP, EXACT_N_CAP + 1))
def test_inner_estimator_is_recorded(n):
    cls = constant_grid([0.0, 1.0])
    # two atoms repeat two columns, so their grid of group sums fits at any
    # n here; a continuous chain repeats none, so past the cap it takes MC
    cases = ((make_iid(), "exact"),
             (make_affine_worked_example(), "exact" if n <= EXACT_N_CAP else "mc"))
    for gen, method in cases:
        env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
        lemma3 = validate_lemma3(gen, cls, env, n=n, epsilon=0.3, trials=2,
                                 seed=SeedSpec(31), mc_draws=64)
        coverage = coverage_experiment(gen, cls, env, n=n, epsilon=0.3, trials=2,
                                       seed=SeedSpec(31), rad_outer=2, mc_draws=64)
        lemma2 = validate_lemma2(gen, cls, env, n=n, trials=2, seed=SeedSpec(31),
                                 rad_outer=2, mc_draws=64)
        assert dict(lemma3.details)["rhat_method"] == method
        assert dict(coverage.details)["rhat_method"] == method
        assert dict(coverage.details)["rhat_exact_trials"] == (2 if method == "exact" else 0)
        # the population complexity averages the same inner estimator over chains
        assert dict(coverage.details)["rademacher_method"] == f"expected_{method}_stationary"
        assert dict(lemma2.details)["rademacher_method"] == f"expected_{method}_stationary"


def test_mixed_estimators_are_reported_as_mixed():
    # iid_four at n = 40: eight distinct columns, whose grid of group sums
    # fits under 2^EXACT_N_CAP points on lopsided windows only
    bundle = load_preset("iid_four")
    n, trials = 40, 6
    report = coverage_experiment(bundle.gen, bundle.cls, bundle.env, n=n, epsilon=0.2,
                                 trials=trials, seed=SeedSpec(0), rad_outer=4, mc_draws=64)
    details = dict(report.details)

    def fits(batches, window):
        # the windows whose grid fits, from np.unique and Python integers
        count = 0
        for traj in [traj for batch in batches for traj in batch]:
            values = loss_matrix(bundle.cls, traj, bundle.env, window=window).values
            counts = np.unique(values, axis=1, return_counts=True)[1]
            count += math.prod(int(m) + 1 for m in counts) <= 2**EXACT_N_CAP
        return count

    trial_fits = fits(chain_batches(bundle.gen, 2 * n, derive_stream(SeedSpec(0), 0), trials),
                      (n, 2 * n))
    assert 0 < trial_fits < trials
    assert details["rhat_exact_trials"] == trial_fits == 2
    assert details["rhat_method"] == "mixed"
    # the population estimate's 4 outer chains (burned in to the default
    # 1e-3) all fit at this seed, so that side reports one method
    outer_fits = fits(chain_batches(bundle.gen, n, derive_stream(SeedSpec(0), 1), 4, 1e-3),
                      (0, n))
    assert outer_fits == 4
    assert details["rademacher_method"] == "expected_exact_stationary"


def _bool_size_calls():
    bundle = load_preset("halving_map")
    gen, cls, env = bundle.gen, bundle.cls, bundle.env
    return {
        "certify_population": lambda: certify_population(0.05, 1.0, 0.5, True, 0.1),
        "certify_empirical": lambda: certify_empirical(0.05, 1.0, 0.5, True, 0.1),
        "invert_epsilon": lambda: invert_epsilon(0.05, True, 1.0, 0.5),
        "validate_lemma1": lambda: validate_lemma1(gen, cls, env, n=True, epsilon=0.2, trials=4),
        "validate_lemma2": lambda: validate_lemma2(gen, cls, env, n=True, trials=4, rad_outer=2),
        "validate_lemma3": lambda: validate_lemma3(gen, cls, env, n=True, epsilon=0.2, trials=4),
        "coverage_experiment": lambda: coverage_experiment(gen, cls, env, n=True, epsilon=0.2,
                                                           trials=4, rad_outer=2),
    }


@pytest.mark.parametrize("entry", sorted(_bool_size_calls()))
def test_sample_size_rejects_a_bool(entry):
    # True is an int of value 1, a valid size, so only the bool rule turns it away
    with pytest.raises(InvalidInputError, match="^sample size must be a positive integer, got True"):
        _bool_size_calls()[entry]()
