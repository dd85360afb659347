"""Benchmark of chaincert's simulation runs, one workload at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. NAME is one of WORKLOADS, or ``all``
to run each in turn. The benchmark repeats whole rounds of the workload
("ops") while the next one can end within S seconds. Each op is a fresh
process (perfbench/workload.py) that sets up and calls chaincert's entry
points; after each op the outputs are checked (perfbench/checks.py). Inputs
are made from N: the same N gives the same config files and seeds, and
every op of a run uses the same inputs.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ops, "failed": ops, "metrics": {name: {value, unit}}}.
With --trace 0 the metrics are the medians over ops of setup_s, wall_s,
cpu_s and peak_rss_mb. With --trace 1 every second op runs with spans
(perfbench/tracer.py) and the metrics are per-layer self times and counts
of the traced ops, plus the tracing overhead against the untraced ops.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRIPT = os.path.join(ROOT, "scripts", "contraction_decay.py")
WORK = os.path.join(ROOT, ".perfbench_work")

# Ops run at OpenBLAS's default thread count, as users' runs do; only the
# checking process is held to one thread (in main) so it never competes.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

WORKLOADS = ("coverage_halving", "lemma3_exact", "transport_decay")
DEADLINE_S = 170.0  # a run ends within this many seconds of its start

# sizes of the rounds; see README.md for why each was chosen
COVERAGE = {"preset": "halving_map", "n": 200, "epsilon": 0.1, "trials": 200,
            "tol": 1e-3, "w_bar": 1.0}
LEMMA3 = {"preset": "affine_triangle", "n": 20, "epsilon": 0.3, "trials": 12, "tol": 1e-3}
LEMMA3_RECHECK = (0, LEMMA3["trials"] // 2, LEMMA3["trials"] - 1)
CURVES = (
    {"preset": "affine_triangle", "n_max": 8, "atoms": 128, "pi_tol": 1e-8, "check": "rate"},
    {"preset": "halving_map", "n_max": 10, "atoms": 4, "pi_tol": 1e-13, "check": "closed_form"},
)
CLOUD_PRESET = "affine_triangle"
CLOUD_ATOMS = 64
CLOUD_PAIRS = 32
CLOUD_TOL = 1e-3


def derived_seed(seed: int, *tags) -> int:
    """A 32-bit seed for one input, fixed by the run's seed and the tags."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


class Workload:
    """Inputs, per-op spec and output checks of one workload for one seed."""

    def __init__(self, name: str, seed: int, rundir: str):
        from checks import declared_constants

        self.name = name
        self.rundir = rundir
        if name == "transport_decay":
            presets = {c["preset"] for c in CURVES} | {CLOUD_PRESET}
            self.const = {p: declared_constants(p) for p in sorted(presets)}
            self.curves = [dict(c, seed=derived_seed(seed, name, "curve", c["preset"]))
                           for c in CURVES]
            self.pairs = [(derived_seed(seed, name, "mu", k), derived_seed(seed, name, "nu", k))
                          for k in range(CLOUD_PAIRS)]
            return
        self.cfg = dict(COVERAGE if name == "coverage_halving" else LEMMA3,
                        seed=derived_seed(seed, name))
        self.const = declared_constants(self.cfg["preset"])
        self.config_path = os.path.join(rundir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh)

    def spec(self, opdir: str) -> dict:
        out = os.path.join(opdir, "out")
        if self.name == "coverage_halving":
            return {"config": self.config_path, "out": out,
                    "argv": ["coverage", "--config", self.config_path, "--out", out]}
        if self.name == "lemma3_exact":
            return {"config": self.config_path, "out": out,
                    "argv": ["validate", "lemma3", "--config", self.config_path, "--out", out]}
        curves = []
        for c in self.curves:
            cout = os.path.join(opdir, "curve_" + c["preset"])
            argv = ["--preset", c["preset"], "--n-max", str(c["n_max"]),
                    "--atoms", str(c["atoms"]), "--pi-tol", repr(c["pi_tol"]),
                    "--seed", str(c["seed"]), "--out", cout]
            curves.append(dict(c, out=cout, argv=argv))
        metric = self.const[CLOUD_PRESET]["bundle"].gen.metric
        header = [f"x_{i}" for i in range(metric.dim_x)] + [f"y_{i}" for i in range(metric.dim_y)]
        size = {"mu": CLOUD_ATOMS, "nu": CLOUD_ATOMS, "nu2": 2 * CLOUD_ATOMS}
        pairs, calls = [], []
        for k, (mu_seed, nu_seed) in enumerate(self.pairs):
            files = {key: os.path.join(opdir, f"{key}_{k}.csv") for key in ("mu", "nu", "nu2")}
            pairs.append(dict(files, mu_seed=mu_seed, nu_seed=nu_seed))
            order = [("mu", "nu"), ("mu", "nu2")]
            if k == 0:
                order += [("nu", "mu"), ("nu2", "mu")]
            for a, b in order:
                calls.append({"files": [files[a], files[b]], "atoms": [size[a], size[b]],
                              "out": os.path.join(opdir, f"w_{k}_{a}_{b}")})
        return {"script": SCRIPT, "curves": curves, "cloud_preset": CLOUD_PRESET,
                "cloud_tol": CLOUD_TOL, "atoms": CLOUD_ATOMS, "atom_header": header,
                "pairs": pairs, "calls": calls,
                "wasserstein": [["wasserstein", *c["files"], "--kappa", repr(metric.kappa),
                                 "--out", c["out"]] for c in calls]}

    def check(self, spec: dict, result: dict, stdout: str) -> None:
        import checks

        if self.name == "transport_decay":
            checks.check_transport(spec, result["exit_codes"], self.const)
            return
        checks.require(result["exit_codes"] == [0], f"exit codes {result['exit_codes']}")
        if self.name == "coverage_halving":
            checks.check_coverage(spec["out"], stdout, self.cfg, self.const)
        else:
            checks.check_lemma3(spec["out"], stdout, self.cfg, self.const, LEMMA3_RECHECK)


def run_op(workload: Workload, index: int, traced: bool, deadline: float) -> dict:
    """Launch one op, wait for it, check its outputs. Returns its figures, or
    {"failed": reason} (plus "wrong": True when an output check failed)."""
    from checks import CheckError

    opdir = os.path.join(workload.rundir, f"op{index:03d}")
    os.makedirs(opdir)
    spec = dict(workload.spec(opdir), workload=workload.name, trace=traced,
                result=os.path.join(opdir, "result.json"))
    spec_path = os.path.join(opdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    stdout_path = os.path.join(opdir, "stdout.txt")
    stderr_path = os.path.join(opdir, "stderr.txt")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), spec_path],
                                cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired:
            return {"failed": "op did not finish before the run's deadline"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        return {"failed": f"workload process exited with {code}:\n{tail}"}
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    try:
        workload.check(spec, result, stdout)
    except CheckError as exc:
        return {"failed": f"output check: {exc}", "wrong": True}
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return {"failed": f"missing or malformed output: {exc!r}"}
    result["setup_s"] = result["ready"] - launched
    result["peak_rss_mb"] = result["rss_kib"] / 1024.0
    result["traced"] = traced
    return result


def _median(ops: list, key: str) -> float:
    return statistics.median(op[key] for op in ops)


def end_to_end_metrics(ops: list) -> dict:
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    return {k: {"value": _median(ops, k), "unit": u} for k, u in units.items()}


def per_layer_metrics(traced: list, plain: list) -> dict:
    from tracer import COUNTERS, layer_names

    metrics = {}
    for layer in layer_names():
        value = statistics.median(op["self_s"].get(layer, 0.0) for op in traced)
        metrics[f"{layer}.self_s"] = {"value": value, "unit": "s"}
    for counter in COUNTERS:
        metrics[counter] = {"value": traced[0]["counts"].get(counter, 0), "unit": "count"}
    unaccounted = statistics.median(op["wall_s"] - op["top_s"] for op in traced)
    metrics["trace.unaccounted_s"] = {"value": unaccounted, "unit": "s"}
    overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = Workload(name, seed, rundir)
        ops, began = [], time.monotonic()
        deadline = began + DEADLINE_S
        while True:
            launched = time.monotonic()
            ops.append(run_op(workload, len(ops), trace and len(ops) % 2 == 1, deadline))
            now = time.monotonic()
            # start another op only if it can end within the run's seconds,
            # judging by the op just finished
            if len(ops) >= (2 if trace else 1) and now + (now - launched) > began + seconds:
                break
            if now - began > DEADLINE_S - 30:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for i, op in enumerate(ops):
        if "failed" in op:
            print(f"{name} op {i} failed: {op['failed']}", file=sys.stderr)
        else:
            print(f"{name} op {i}{' traced' if op['traced'] else ''}: setup {op['setup_s']:.3f} s, "
                  f"wall {op['wall_s']:.3f} s, cpu {op['cpu_s']:.3f} s, "
                  f"rss {op['peak_rss_mb']:.1f} MiB", file=sys.stderr)
    good = [op for op in ops if "failed" not in op]
    result = {"correct": not any(op.get("wrong") for op in ops),
              "attempted": len(ops), "failed": len(ops) - len(good)}
    plain = [op for op in good if not op["traced"]]
    if trace:
        traced = [op for op in good if op["traced"]]
        if not traced or not plain:
            return {**result, "metrics": None}
        for op in traced[1:]:
            if op["counts"] != traced[0]["counts"]:
                raise SystemExit(f"{name}: per-layer counts differ between identical ops")
        result["metrics"] = per_layer_metrics(traced, plain)
    else:
        result["metrics"] = end_to_end_metrics(plain) if plain else None
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its op and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (os.path.isfile(os.path.join(SRC, "chaincert", "cli.py"))
            and os.path.isfile(SCRIPT)):
        print(f"error: no chaincert sources under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.path.insert(0, SRC)
    # bytecode is compiled once here, so no op pays for it in its setup
    for path in (SRC, os.path.dirname(SCRIPT), HERE):
        compileall.compile_dir(path, quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result["metrics"] is None:
            print(f"error: no op of {name} succeeded", file=sys.stderr)
            status = 1
            continue
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
