"""Certificate coverage against stated confidence as the window grows.

For each window length n the script runs the full pipeline (simulate,
learn, certify) over many trials and records how often each certificate
form contained the realized excess risk. Output is a four-column CSV
(n, coverage_pop, coverage_emp, confidence) for plotting plus a summary.
Malformed flags and an output directory that cannot be made exit 2, and
assumption violations exit 3, each with one line on stderr, as in the
``chaincert`` command line. The directory is made after the first window,
which checks every flag: a refused flag leaves none, and a bad ``--out``
stops the sweep there.
"""

import argparse
import os

# chaincert.cli caps BLAS at one thread unless the caller set a count; that
# only takes effect before numpy loads, so this import comes first
from chaincert.cli import _ensure_dir, run_with_exit_codes

from chaincert.certificates import coverage_experiment
from chaincert.complexity import check_draws
from chaincert.errors import InvalidInputError
from chaincert.metric import SeedSpec
from chaincert.presets import load_preset, preset_names
from chaincert.reporting import write_rows_csv, write_summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="iid_four", choices=preset_names())
    ap.add_argument("--n-list", default="50,100,200,400",
                    help="comma-separated window lengths")
    ap.add_argument("--epsilon", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rad-outer", type=int, default=16)
    ap.add_argument("--draws", type=int, default=2048)
    ap.add_argument("--out", default="results/coverage_sweep")
    return run_with_exit_codes(_run, ap.parse_args(argv))


def _run(args):
    try:
        ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInputError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}"
        ) from None
    if not ns:
        raise InvalidInputError("--n-list must name at least one window length")
    check_draws(args.draws, "--draws")
    bundle = load_preset(args.preset)
    rows = []
    for k, n in enumerate(ns):
        report = coverage_experiment(
            bundle.gen, bundle.cls, bundle.env, n, args.epsilon, args.trials,
            seed=SeedSpec(args.seed, stream_index=k),
            rad_outer=args.rad_outer, mc_draws=args.draws,
        )
        # the first window has checked every flag, so a refused flag leaves no
        # directory, and an --out that cannot be made fails before the next one
        out = _ensure_dir(args.out)
        details = dict(report.details)
        rows.append((n, details["coverage_population"],
                     details["coverage_empirical"], details["confidence"]))
        print(f"n={n}: coverage pop {rows[-1][1]:.3f} emp {rows[-1][2]:.3f} "
              f"confidence {rows[-1][3]:.3f}")

    summary = {
        "preset": args.preset,
        "epsilon": args.epsilon,
        "trials": args.trials,
        "seed": args.seed,
        "n_list": ns,
        "rad_outer": args.rad_outer,
        "mc_draws": args.draws,
    }
    write_rows_csv(("n", "coverage_pop", "coverage_emp", "confidence"), rows,
                   os.path.join(out, "coverage_sweep.csv"))
    write_summary("coverage_sweep", summary, os.path.join(out, "coverage_sweep_summary.json"))
    print(f"wrote {args.out}/coverage_sweep.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
