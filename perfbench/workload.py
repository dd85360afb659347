"""One round of one workload, in a fresh process.

    python3 perfbench/workload.py SPEC.json

SPEC.json is written by run.py; it names the workload, its input files and
the output directory. The process sets up as a user's would (interpreter,
imports, config parsing, preset build), then calls chaincert's entry points:
the ``chaincert`` command line's ``main`` and the contraction-decay script's
``main``, plus the library calls a user makes to build atom files. It writes
its timings to the spec's ``result`` path as JSON:

    ready      time.monotonic() when setup ended; the parent subtracts its
               launch time to get setup_s
    wall_s     elapsed time of the entry-point calls
    cpu_s      user + system CPU of this process (all threads) over that span
    rss_kib    peak resident set of this process (VmHWM)
    exit_codes return values of the command-line calls, in call order
    self_s, counts, top_s   traced runs only: per-layer figures from tracer.py
"""
import importlib.util
import json
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_kib() -> int:
    # ru_maxrss starts from the launching process's resident set, which the
    # fork copies; VmHWM belongs to this process image alone
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _load_script(path):
    spec = importlib.util.spec_from_file_location("contraction_decay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _atom_rows(measure):
    return [tuple(a.x) + tuple(a.y) for a in measure.atoms]


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workload"]

    from chaincert import cli
    from chaincert.config import build_bundle, load_config

    # Setup parses the config and builds the presets once, so setup_s holds
    # that cost as a user's process pays it; the entry points redo both
    # (a few milliseconds) inside the timed span.
    extra = []
    if workload == "transport_decay":
        from chaincert import generators, reporting
        from chaincert.metric import SeedSpec
        from chaincert.presets import load_preset

        script = _load_script(spec["script"])
        extra.append(script)
        cloud_gen = load_preset(spec["cloud_preset"]).gen
        for curve in spec["curves"]:
            load_preset(curve["preset"])
    else:
        build_bundle(load_config(spec["config"]))

    # entry points are looked up on their modules after tracing is installed
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, extra)

    codes = []
    ready = time.monotonic()
    cpu0 = _cpu()
    if workload == "transport_decay":
        for curve in spec["curves"]:
            codes.append(script.main(curve["argv"]))
        header = spec["atom_header"]
        for pair in spec["pairs"]:
            mu = generators.invariant_sampler(cloud_gen, spec["cloud_tol"], spec["atoms"],
                                              SeedSpec(pair["mu_seed"]))
            nu = generators.invariant_sampler(cloud_gen, spec["cloud_tol"], spec["atoms"],
                                              SeedSpec(pair["nu_seed"]))
            reporting.write_rows_csv(header, _atom_rows(mu), pair["mu"])
            reporting.write_rows_csv(header, _atom_rows(nu), pair["nu"])
            reporting.write_rows_csv(header, _atom_rows(nu) * 2, pair["nu2"])
        for argv in spec["wasserstein"]:
            codes.append(cli.main(argv))
    else:
        codes.append(cli.main(spec["argv"]))
    wall = time.monotonic() - ready
    cpu = _cpu() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_kib": _peak_rss_kib(),
        "exit_codes": codes,
    }
    if tracer is not None:
        result.update(self_s=dict(tracer.self_s), counts=dict(tracer.counts),
                      top_s=tracer.top_s)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
