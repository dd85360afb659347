"""Transport-distance decay toward the invariant measure for one preset.

Writes a two-column CSV (step, transport cost) suitable for a log-scale
plot, plus a summary holding the fitted geometric rate next to the
analytic contraction factor of the generator. The fitted slope and rate are
null when fewer than two steps have a positive cost (the i.i.d. presets
reach their invariant law in one step). Malformed flags and an output
directory that cannot be made exit 2, and assumption violations exit 3,
each with one line on stderr, as in the ``chaincert`` command line. The
directory is made once the curve is drawn, so a refused flag leaves none.
"""

import argparse
import math
import os

# chaincert.cli caps BLAS at one thread unless the caller set a count; that
# only takes effect before numpy loads, so this import comes first
from chaincert.cli import _ensure_dir, run_with_exit_codes

import numpy as np

from chaincert.generators import analytic_lip_factor
from chaincert.metric import SeedSpec
from chaincert.presets import load_preset, preset_names
from chaincert.reporting import write_rows_csv, write_summary
from chaincert.transport import contraction_curve


def fitted_log_slope(curve):
    """Least-squares slope of log cost over the steps n >= 1 with a positive
    cost; None when fewer than two such steps leave nothing to fit."""
    pts = [(n, v) for n, v in curve if n >= 1 and v > 0.0]
    if len(pts) < 2:
        return None
    ns = np.array([n for n, _ in pts], dtype=float)
    logs = np.array([math.log(v) for _, v in pts])
    slope, _ = np.polyfit(ns, logs, 1)
    return float(slope)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="affine_triangle", choices=preset_names())
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--atoms", type=int, default=128)
    ap.add_argument("--pi-tol", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/contraction")
    return run_with_exit_codes(_run, ap.parse_args(argv))


def _run(args):
    bundle = load_preset(args.preset)
    curve = contraction_curve(
        bundle.gen, [bundle.gen.z0], args.n_max,
        atoms_per_step=args.atoms, pi_tol=args.pi_tol, seed=SeedSpec(args.seed),
    )
    slope = fitted_log_slope(curve)
    factor = analytic_lip_factor(bundle.gen)
    summary = {
        "preset": args.preset,
        "n_max": args.n_max,
        "atoms_per_step": args.atoms,
        "pi_tol": args.pi_tol,
        "seed": args.seed,
        "fitted_log_slope": slope,
        "fitted_rate": None if slope is None else math.exp(slope),
        "analytic_factor": factor,
    }
    out = _ensure_dir(args.out)
    write_rows_csv(("n", "w1"), curve, os.path.join(out, "contraction_curve.csv"))
    write_summary("contraction_curve", summary, os.path.join(out, "contraction_summary.json"))
    rate = "none" if slope is None else f"{summary['fitted_rate']:.4f}"
    print(f"{args.preset}: fitted rate {rate} "
          f"vs analytic factor {factor:.4f} over {len(curve)} points")
    print(f"wrote {args.out}/contraction_curve.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
