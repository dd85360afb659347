"""The lazy package and the command line's one BLAS thread, each checked in a
fresh interpreter: what a process has loaded, and how many threads it runs,
depend on everything imported before."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(args, blas_threads=None, cwd=None):
    """stdout of ``python args`` on the package sources, with
    OPENBLAS_NUM_THREADS unset or set to ``blas_threads``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env=env, cwd=cwd, timeout=120).stdout


def _python(code, blas_threads=None):
    return json.loads(_run(["-c", code], blas_threads))


def test_import_loads_no_numpy_and_no_submodule():
    loaded = _python("import json, sys, chaincert\n"
                     "print(json.dumps(sorted(m for m in sys.modules\n"
                     "    if m.startswith(('numpy', 'chaincert')))))")
    assert loaded == ["chaincert"]


def test_every_export_is_its_home_modules_attribute():
    # ``erm`` is both a module and the function the package exports; the
    # ``certificates`` module loads the ``erm`` module before ``erm`` is read
    out = _python("""
import importlib, json, chaincert
wrong = [name for name in chaincert.__all__ if getattr(chaincert, name)
         is not getattr(importlib.import_module('chaincert.' + chaincert._HOME[name]), name)]
try:
    chaincert.no_such_name
    missing = None
except AttributeError as err:
    missing = str(err)
print(json.dumps([wrong, missing, len(chaincert.__all__)]))
""")
    assert out == [[], "module 'chaincert' has no attribute 'no_such_name'", 68]


def test_a_submodule_is_a_package_attribute_in_any_import_order():
    out = _python("""
import json, chaincert
print(json.dumps([repr(chaincert.metric.SeedSpec(0)), chaincert.metric.__name__,
                  callable(chaincert.erm), sorted(set(chaincert.__all__) - set(dir(chaincert)))]))
""")
    assert out == ["SeedSpec(master_seed=0, stream_index=0)", "chaincert.metric", True, []]


_THREADS = """
import json, os, pathlib{imports}
import numpy as np
a = np.ones((64, 512))
a @ a.T
status = pathlib.Path('/proc/self/status')
threads = next((int(line.split()[1]) for line in status.read_text().splitlines()
                if line.startswith('Threads:')), None) if status.exists() else None
print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))
"""

_SCRIPT_FIRST = """
import importlib.util
spec = importlib.util.spec_from_file_location('script', {path!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))"""


@pytest.mark.parametrize("first", [
    "\nimport chaincert.cli",
    _SCRIPT_FIRST.format(path=str(ROOT / "scripts" / "contraction_decay.py")),
    _SCRIPT_FIRST.format(path=str(ROOT / "scripts" / "coverage_sweep.py")),
], ids=["cli", "contraction_decay", "coverage_sweep"])
def test_command_line_runs_blas_on_one_thread_unless_set(first):
    variable, threads = _python(_THREADS.format(imports=first))
    assert variable == "1"
    if threads is None:
        pytest.skip("no /proc/self/status to count threads")
    assert threads == 1
    variable, _ = _python(_THREADS.format(imports=first), blas_threads="2")
    assert variable == "2"


def test_seeded_monte_carlo_does_not_depend_on_the_host_core_count(tmp_path):
    # n * H = 400 * 4 reaches the two-thread BLAS path on a multi-core host
    (tmp_path / "cfg.json").write_text('{"preset": "affine_triangle"}', encoding="utf-8")
    trials = []
    for blas_threads in (None, "1"):
        out = tmp_path / f"run_{blas_threads}"
        _run(["-m", "chaincert.cli", "validate", "lemma3", "--config", "cfg.json",
              "--n", "400", "--trials", "4", "--seed", "3", "--epsilon", "0.05",
              "--out", str(out)], blas_threads, cwd=tmp_path)
        trials.append((out / "validate_lemma3_trials.csv").read_bytes())
    assert trials[0] == trials[1]


def test_cli_leaves_the_variable_unset_once_numpy_is_loaded():
    # the variable could no longer change this process's BLAS, only its children's
    out = _python("import json, os, numpy, chaincert.cli\n"
                  "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))")
    assert out is None
