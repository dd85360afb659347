"""Risk certificates for learners trained on contractive Markov chain data.

The pieces compose in pipeline order: a generator samples chain states, a
hypothesis class plus loss environment turns states into loss rows, the
learner picks a member within its slack, complexity and transport estimates
feed the certificate formulas, and the validators replay the whole pipeline
against the stated confidence.

``import chaincert`` loads no submodule and no numpy: an exported name
imports its home module when it is first read (PEP 562), which lets the
command line pin BLAS threads before numpy loads.
"""
import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "certificates": (
        "Certificate",
        "ValidationReport",
        "certify_empirical",
        "certify_population",
        "check_certificate",
        "confidence_level",
        "coverage_experiment",
        "deviation_constant",
        "invert_epsilon",
        "sample_complexity",
        "validate_lemma1",
        "validate_lemma2",
        "validate_lemma3",
    ),
    "complexity": (
        "LossMatrix",
        "RademacherEstimate",
        "growth_bound",
        "loss_matrices",
        "loss_matrix",
        "rademacher_estimate",
        "rademacher_estimates",
        "rademacher_exact",
        "rademacher_expected",
        "rademacher_mc",
    ),
    "config": ("ExperimentConfig", "build_bundle", "load_config", "parse_config"),
    "erm": ("RiskReport", "erm", "true_risk_table"),
    "errors": (
        "AssumptionViolationError",
        "ChainCertError",
        "GeneratorContractError",
        "InvalidInputError",
        "SizeCapError",
    ),
    "generators": (
        "Generator",
        "Trajectory",
        "affine_ifs_generator",
        "analytic_lip_factor",
        "burn_in_steps",
        "chain_batches",
        "deterministic_map_generator",
        "iid_generator",
        "labeled_lipschitz_generator",
        "sample_chain",
        "sample_stationary_chain",
    ),
    "hypotheses": (
        "HypothesisClass",
        "LossEnv",
        "constant_grid",
        "constant_hypothesis",
        "finalize_env",
        "linear_hypothesis",
        "make_abs_loss",
        "make_squared_loss",
        "tabulated_hypothesis",
        "verify_a2",
    ),
    "metric": ("MetricSpec", "SeedSpec", "ZPoint", "derive_stream", "dist"),
    "presets": ("PresetBundle", "load_preset", "preset_names"),
    "transport": ("EmpiricalMeasure", "TransportPlan", "contraction_curve", "w1_exact"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    # an exported name first, so ``erm`` is the function; then a submodule,
    # as ``chaincert.metric`` was when the package imported every submodule
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule it loads here; keep ``erm`` the function
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
