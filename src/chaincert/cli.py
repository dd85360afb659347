"""Command line interface.

Subcommands:

    simulate      sample a chain trajectory to CSV
    wasserstein   exact transport cost between two atom-list CSVs
    rademacher    complexity estimate for a loss-matrix CSV
    erm           run the approximate minimizer on a trajectory CSV
    certify       evaluate a certificate formula from flags
    validate      run one statistical validator (lemma1|lemma2|lemma3|coverage)
    coverage      run the end-to-end coverage experiment (validate coverage)

Exit codes: 0 success, 2 invalid configuration or input (a size whose arrays
cannot be allocated, or sized, included), 3 assumption violation (expected contraction
at or above one, loss scale breached), 4 a validator finished and reported
FAIL.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, Optional

# One BLAS thread unless the caller set a count: a second OpenBLAS thread spins
# from the moment numpy loads, and makes Monte Carlo bits at n*H >= 1,024
# depend on the core count. Below that size it buys no wall time; on wide loss
# matrices it does (``rademacher`` on 2 cores: 2 % at 64 x 2,000, 5 % at
# 256 x 2,000), and a caller who wants it back sets the variable. OpenBLAS
# reads the variable when numpy loads, so it is set before any package import,
# and only in a process that has not loaded numpy yet: elsewhere it would
# change nothing but the thread count of the processes this one starts.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .certificates import (
    CERTIFICATE_FORMS,
    WINDOW_MODES,
    _training_window,
    certify_empirical,
    certify_population,
    check_certificate,
    coverage_experiment,
    invert_epsilon,
    validate_lemma1,
    validate_lemma2,
    validate_lemma3,
)
from .complexity import (
    MC_DRAWS,
    LossMatrix,
    check_draws,
    loss_matrix,
    rademacher_estimate,
    rademacher_mc,
)
from .config import (
    ExperimentConfig,
    build_bundle,
    config_digest,
    load_config,
    merge_overrides,
)
from .erm import erm
from .errors import (
    AssumptionViolationError,
    GeneratorContractError,
    InvalidInputError,
)
from .generators import analytic_lip_factor, sample_chain
from .hypotheses import verify_a2
from .metric import MetricSpec, SeedSpec, derive_stream
from .reporting import (
    json_fragments,
    json_object,
    read_atoms_csv,
    read_loss_matrix_csv,
    read_trajectory_csv,
    write_encoded_summary,
    write_rows_csv,
    write_summary,
    write_trajectory_csv,
)
from .transport import EmpiricalMeasure, w1_exact

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ASSUMPTION = 3
EXIT_FAIL = 4

VALIDATOR_NAMES = ("lemma1", "lemma2", "lemma3", "coverage")

_WINDOW_FLAG = {m.replace("_", "-"): m for m in WINDOW_MODES}


def _print_out(text: str) -> None:
    """Print a line to stdout. If the reader has closed the pipe
    (``chaincert ... | head``), stdout goes to the null device from then on,
    so the command still writes its files and exits with its own code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = open(os.devnull, "w")
        try:
            # the interpreter flushes the real stdout once more at exit
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        sys.stdout = devnull


def _emit_json(args: argparse.Namespace, kind: str, payload: dict,
               config_sha256: Optional[str] = None) -> int:
    """Print the payload, and with ``--out`` also write it as the command's
    summary JSON. The payload holds plain JSON values, each encoded once for
    both documents; a value strict JSON cannot hold is invalid input, found
    before anything is printed or written."""
    fragments = json_fragments(payload)
    _print_out(json_object(fragments))
    if args.out:
        out = _ensure_dir(args.out)
        write_encoded_summary(kind, fragments,
                              os.path.join(out, f"{args.command}_summary.json"), config_sha256)
    return EXIT_OK


def _ensure_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create output directory {path!r}: {exc}") from None
    return path


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None) is None:
        raise InvalidInputError("this subcommand needs --config PATH")
    cfg = load_config(args.config)
    window = getattr(args, "window", None)
    return merge_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        trials=getattr(args, "trials", None),
        n=getattr(args, "n", None),
        epsilon=getattr(args, "epsilon", None),
        delta=getattr(args, "delta", None),
        draws=getattr(args, "draws", None),
        out_dir=getattr(args, "out", None),
        window_mode=_WINDOW_FLAG[window] if window else None,
    )


def _need(cfg: ExperimentConfig, field: str, command: str):
    value = getattr(cfg, field)
    if value is None:
        raise InvalidInputError(f"{command} needs {field!r} in the config or as a flag")
    return value


def _resolve_epsilon(cfg: ExperimentConfig, command: str, n: int,
                     ell_H: float, ell_F: float) -> float:
    if cfg.epsilon is not None:
        return cfg.epsilon
    if cfg.delta is not None:
        return invert_epsilon(cfg.delta, n, ell_H, ell_F)
    raise InvalidInputError(f"{command} needs 'epsilon' or 'delta' in the config or as a flag")


# -- subcommand handlers ---------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    n = _need(cfg, "n", "simulate")
    bundle = build_bundle(cfg)
    traj = sample_chain(bundle.gen, n, SeedSpec(cfg.seed))
    out = _ensure_dir(cfg.out_dir)
    csv_path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj, csv_path)
    summary = {
        "generator": bundle.gen.name,
        "n": n,
        "seed": cfg.seed,
        "contraction_factor": analytic_lip_factor(bundle.gen),
        "trajectory_csv": os.path.basename(csv_path),
    }
    write_summary("trajectory", summary, os.path.join(out, "simulate_summary.json"),
                  config_digest(cfg))
    _print_out(f"wrote {csv_path} ({n} rows)")
    return EXIT_OK


def _cmd_wasserstein(args: argparse.Namespace) -> int:
    xs1, ys1 = read_atoms_csv(args.mu)
    xs2, ys2 = read_atoms_csv(args.nu)
    if xs1.shape[1] != xs2.shape[1] or ys1.shape[1] != ys2.shape[1]:
        raise InvalidInputError("the two atom files must share x and y dimensions")
    metric = MetricSpec(xs1.shape[1], ys1.shape[1], args.kappa)
    mu, nu = EmpiricalMeasure(xs1, ys1, metric), EmpiricalMeasure(xs2, ys2, metric)
    cost, plan = w1_exact(mu, nu)
    payload = {
        "cost": cost,
        "plan": list(map(list, plan.entries)),
        "route": plan.route,
        "source_atoms": xs1.shape[0],
        "target_atoms": xs2.shape[0],
        "kappa": args.kappa,
    }
    return _emit_json(args, "transport", payload)


def _cmd_rademacher(args: argparse.Namespace) -> int:
    values = read_loss_matrix_csv(args.matrix)
    if args.ell_h is not None and not (math.isfinite(args.ell_h) and args.ell_h > 0):
        raise InvalidInputError(f"--ell-h must be finite and positive, got {args.ell_h!r}")
    ell_H = args.ell_h if args.ell_h is not None else max(float(values.max()), 1e-12)
    if args.draws is not None:
        check_draws(args.draws, "--draws")
    matrix = LossMatrix(values, ell_H)
    seed = SeedSpec(args.seed or 0)
    if args.draws is None:
        est = rademacher_estimate(matrix, MC_DRAWS, seed)
    else:
        est = rademacher_mc(matrix, args.draws, seed)
    payload = {
        "value": est.value,
        "se": est.se,
        "draws": est.draws,
        "method": est.method,
        "value_symmetrized": est.value_symmetrized,
        "se_symmetrized": est.se_symmetrized,
        "class_size": values.shape[0],
        "n": matrix.num_states,
        "ell_H": ell_H,
    }
    return _emit_json(args, "rademacher", payload)


def _cmd_erm(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    bundle = build_bundle(cfg)
    traj = read_trajectory_csv(args.trajectory, bundle.gen.metric.kappa)
    if (traj.metric.dim_x, traj.metric.dim_y) != (bundle.gen.metric.dim_x,
                                                  bundle.gen.metric.dim_y):
        raise InvalidInputError(
            "trajectory dimensions do not match the configured generator"
        )
    n = cfg.n
    if n is None:
        n = len(traj) // 2 if cfg.window_mode == "delayed" else len(traj)
    window = _training_window(cfg.window_mode, n)
    matrix = loss_matrix(bundle.cls, traj, bundle.env, window=window)
    epsilon = 0.0
    if cfg.epsilon is not None or cfg.delta is not None:
        epsilon = _resolve_epsilon(cfg, "erm", n, bundle.env.ell_H,
                                   analytic_lip_factor(bundle.gen))
    report = erm(bundle.cls, matrix, epsilon=epsilon, tie_break=cfg.tie_break)
    payload = {
        "hypothesis_id": report.hypothesis_id,
        "hypothesis_index": report.hypothesis_index,
        "empirical_risk": report.empirical_risk,
        "min_risk": report.min_risk,
        "achieved_gap": report.achieved_gap,
        "epsilon": report.epsilon,
        "tie_break": report.tie_break,
        "window": list(window),
        "risk_table": [[hid, float(v)] for hid, v in report.risk_table],
    }
    return _emit_json(args, "erm", payload, config_digest(cfg))


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.form == "empirical" and args.w_bar is not None:
        raise InvalidInputError("certify --form empirical does not read --w-bar")
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = invert_epsilon(args.delta, args.n, args.ell_h, args.ell_f)
        if not 0 < epsilon < 1:  # the library returns any finite slack
            raise InvalidInputError(f"delta {args.delta!r} at n = {args.n} gives slack "
                                    f"{epsilon!r}, not in (0, 1)")
    if args.form == "population":
        w_bar = 1.0 if args.w_bar is None else args.w_bar
        cert = certify_population(args.rademacher, args.ell_h, args.ell_f,
                                  args.n, epsilon, w_bar)
    else:
        cert = certify_empirical(args.rademacher, args.ell_h, args.ell_f, args.n, epsilon)
    check_certificate(cert)
    payload = {
        "form": cert.form,
        "radius": cert.radius,
        "confidence": cert.confidence,
        "vacuous": cert.confidence == 0.0,
        "ingredients": {
            "rademacher_term": cert.rademacher_term,
            "wasserstein_term": cert.wasserstein_term,
            "epsilon_term": cert.epsilon_term,
            "rademacher_input": args.rademacher,
            "ell_H": cert.ell_H,
            "ell_F": cert.ell_F,
            "w_bar": cert.w_bar,
            "n": cert.n,
            "epsilon": cert.epsilon,
            "delta": args.delta,
        },
    }
    return _emit_json(args, "certificate", payload)


def _run_validator(name: str, cfg: ExperimentConfig):
    """The validator's report, and the A2 report of the spot check of the
    declared loss scale that runs before it."""
    bundle = build_bundle(cfg)
    gen, cls, env = bundle.gen, bundle.cls, bundle.env
    a2 = verify_a2(env, cls, gen, num_pairs=64, chain_len=12,
                   seed=derive_stream(SeedSpec(cfg.seed), 97))
    n = _need(cfg, "n", name)
    trials = _need(cfg, "trials", name)
    seed = SeedSpec(cfg.seed)
    if name == "lemma2":
        return validate_lemma2(gen, cls, env, n, trials, seed=seed, w_bar=cfg.w_bar,
                               tol=cfg.tol, rad_outer=cfg.rad_outer, mc_draws=cfg.draws), a2
    epsilon = _resolve_epsilon(cfg, name, n, env.ell_H, analytic_lip_factor(gen))
    if name == "lemma1":
        return validate_lemma1(gen, cls, env, n, epsilon, trials, seed=seed, tol=cfg.tol), a2
    if name == "lemma3":
        return validate_lemma3(gen, cls, env, n, epsilon, trials, seed=seed,
                               tol=cfg.tol, mc_draws=cfg.draws), a2
    return coverage_experiment(gen, cls, env, n, epsilon, trials,
                               window_mode=cfg.window_mode, seed=seed, w_bar=cfg.w_bar,
                               tol=cfg.tol, rad_outer=cfg.rad_outer, mc_draws=cfg.draws,
                               erm_tie_break=cfg.tie_break), a2


def _validator_summary(report, a2, cfg: ExperimentConfig) -> dict:
    details = dict(report.details)
    return {
        "name": report.name,
        "passed": report.passed,
        "verdicts": {report.name: "PASS" if report.passed else "FAIL"},
        "statistic": report.statistic,
        "bound": report.bound,
        "margin": report.margin,
        "comparison": report.comparison,
        "radius": details.get("radius_population"),
        "confidence": details.get("confidence"),
        "coverage": details.get("coverage_population"),
        "trials": len(report.rows),
        "seed": cfg.seed,
        "a2_max_ratio": a2.max_ratio,
        "a2_pairs_checked": a2.pairs_checked,
        "ingredients": details,
    }


def _cmd_validate(args: argparse.Namespace) -> int:
    for flag in _CONFIG_FLAGS:
        if getattr(args, flag) is not None and flag not in _VALIDATOR_FLAGS[args.name]:
            raise InvalidInputError(f"validate {args.name} does not read --{flag}")
    cfg = _effective_config(args)
    report, a2 = _run_validator(args.name, cfg)
    # ``coverage`` is ``validate coverage`` under its own file prefix
    prefix = "coverage" if args.command == "coverage" else f"validate_{args.name}"
    out = _ensure_dir(cfg.out_dir)
    write_rows_csv(report.row_header, report.rows,
                   os.path.join(out, f"{prefix}_trials.csv"))
    write_summary("validation", _validator_summary(report, a2, cfg),
                  os.path.join(out, f"{prefix}_summary.json"), config_digest(cfg))
    verdict = "PASS" if report.passed else "FAIL"
    _print_out(f"{report.name}: {verdict} (statistic={report.statistic:.6g}, "
               f"bound={report.bound:.6g}, margin={report.margin:.6g})")
    return EXIT_OK if report.passed else EXIT_FAIL


# -- parser ----------------------------------------------------------------------


_CONFIG_FLAGS = {
    "seed": dict(type=int, help="master seed override"),
    "n": dict(type=int, help="window length override"),
    "epsilon": dict(type=float, help="slack override"),
    "delta": dict(type=float, help="tail mass override (implies epsilon)"),
    "out": dict(help="output directory override"),
    "trials": dict(type=int, help="trial count override"),
    "window": dict(choices=sorted(_WINDOW_FLAG), help="training window convention"),
    "draws": dict(type=int, help="Monte Carlo sign draws override (even, >= 4)"),
}


# the override flags each validator reads; ``validate`` parses all of them
# for every validator and rejects the rest
_VALIDATOR_FLAGS = {
    "lemma1": ("seed", "n", "epsilon", "delta", "out", "trials"),
    "lemma2": ("seed", "n", "out", "trials", "draws"),
    "lemma3": ("seed", "n", "epsilon", "delta", "out", "trials", "draws"),
    "coverage": tuple(_CONFIG_FLAGS),
}


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` and the override flags ``names`` of ``_CONFIG_FLAGS``,
    the config fields the command reads."""
    p.add_argument("--config", help="experiment config JSON")
    for name in names:
        p.add_argument(f"--{name}", **_CONFIG_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chaincert",
        description="risk certificates for learners trained on contractive chain data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a chain trajectory to CSV")
    _add_config_flags(p, "seed", "n", "out")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("wasserstein", help="exact transport cost between two atom CSVs")
    p.add_argument("mu", help="source atom CSV (header x_0..,y_0..)")
    p.add_argument("nu", help="target atom CSV (header x_0..,y_0..)")
    p.add_argument("--kappa", type=float, required=True, help="metric normalizer")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(handler=_cmd_wasserstein)

    p = sub.add_parser("rademacher", help="complexity estimate for a loss-matrix CSV")
    p.add_argument("matrix", help="headerless CSV, one row per hypothesis")
    p.add_argument("--draws", type=int, help="Monte Carlo sign draws (even, >= 4)")
    p.add_argument("--ell-h", type=float, help="declared loss bound (default: matrix max)")
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(handler=_cmd_rademacher)

    p = sub.add_parser("erm", help="run the approximate minimizer on a trajectory CSV")
    p.add_argument("trajectory", help="trajectory CSV (from the simulate subcommand)")
    _add_config_flags(p, "n", "epsilon", "delta", "out", "window")
    p.set_defaults(handler=_cmd_erm)

    p = sub.add_parser("certify", help="evaluate a certificate formula from flags")
    p.add_argument("--form", choices=CERTIFICATE_FORMS, required=True)
    p.add_argument("--rademacher", type=float, required=True,
                   help="complexity input (expected or observed form)")
    p.add_argument("--ell-h", type=float, required=True, help="loss scale bound")
    p.add_argument("--ell-f", type=float, required=True, help="mean contraction factor")
    p.add_argument("--n", type=int, required=True, help="window length")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float, help="optimization slack")
    group.add_argument("--delta", type=float, help="tail mass; converted to epsilon")
    p.add_argument("--w-bar", type=float,
                   help="start-to-invariant distance cap (population form, default 1)")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("validate", help="run one statistical validator")
    p.add_argument("name", choices=VALIDATOR_NAMES)
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("coverage", help="run the end-to-end coverage experiment")
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.set_defaults(handler=_cmd_validate, name="coverage")

    return parser


def run_with_exit_codes(handler: Callable[[argparse.Namespace], int],
                        args: argparse.Namespace) -> int:
    """Return ``handler(args)``, or the exit code of the package error it
    raises, after one line on stderr naming it. The entry-point scripts
    share this mapping."""
    try:
        return handler(args)
    except (InvalidInputError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (AssumptionViolationError, GeneratorContractError) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_with_exit_codes(args.handler, args)


if __name__ == "__main__":
    sys.exit(main())
