"""Exit codes of the entry-point scripts under malformed flags.

Both scripts map errors as the ``chaincert`` command line does: an invalid
flag value or an output directory that cannot be made exits 2 and a violated
assumption exits 3, with one line on stderr and no traceback.
"""
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from chaincert.errors import AssumptionViolationError, GeneratorContractError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(script, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = script.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_line(err, prefix, fragment):
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(prefix) and fragment in lines[0], err


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--atoms", "0"], "atoms_per_step"),
        (["--atoms", "-4"], "atoms_per_step"),
        (["--pi-tol", "2"], "burn-in tolerance"),
        (["--pi-tol", "0"], "burn-in tolerance"),
        (["--seed", "-3"], "master_seed"),
        (["--n-max", "-1"], "n_max"),
        (["--n-max", str(2**60)], "past numpy's limit"),  # 2^63 bytes of draw words
    ],
)
def test_decay_script_rejects_bad_flag(tmp_path, flags, fragment):
    out = tmp_path / "decay"
    code, _, err = _run(_load("contraction_decay"),
                        ["--preset", "halving_map", "--n-max", "2", "--atoms", "4",
                         "--out", str(out)] + flags)
    assert code == 2
    _assert_one_line(err, "error: ", fragment)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--n-list", "a,b"], "--n-list"),
        (["--n-list", ","], "--n-list"),
        (["--draws", "3"], "--draws"),
        (["--draws", "2"], "--draws"),
        (["--trials", "1"], "two trials"),
        (["--seed", "-3"], "master_seed"),
        (["--epsilon", "2"], "epsilon"),
        (["--rad-outer", "0"], "outer chains"),
    ],
)
def test_sweep_script_rejects_bad_flag(tmp_path, flags, fragment):
    out = tmp_path / "sweep"
    code, _, err = _run(_load("coverage_sweep"),
                        ["--n-list", "8", "--trials", "2", "--out", str(out)] + flags)
    assert code == 2
    _assert_one_line(err, "error: ", fragment)
    assert not out.exists()


@pytest.mark.parametrize("name,target", [("contraction_decay", "contraction_curve"),
                                         ("coverage_sweep", "coverage_experiment")])
@pytest.mark.parametrize("error", [AssumptionViolationError, GeneratorContractError])
def test_scripts_exit_3_on_a_violated_assumption(tmp_path, monkeypatch, name, target, error):
    script = _load(name)

    def violated(*args, **kwargs):
        raise error("declared bound breached")

    monkeypatch.setattr(script, target, violated)
    code, _, err = _run(script, ["--out", str(tmp_path / "never")])
    assert code == 3
    _assert_one_line(err, "assumption violation: ", "declared bound breached")


@pytest.mark.parametrize("name,argv", [
    ("contraction_decay", ["--preset", "halving_map", "--n-max", "2", "--atoms", "4"]),
    ("coverage_sweep", ["--n-list", "8", "--trials", "2"]),
])
def test_scripts_exit_2_on_an_out_that_cannot_be_made(tmp_path, name, argv):
    # a directory cannot be made under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _run(_load(name), argv + ["--out", str(blocker / "x")])
    assert code == 2
    _assert_one_line(err, "error: ", "cannot create output directory")


def test_sweep_stops_at_its_first_window_on_a_bad_out(tmp_path, monkeypatch):
    script = _load("coverage_sweep")
    calls = []
    experiment = script.coverage_experiment
    monkeypatch.setattr(script, "coverage_experiment",
                        lambda *a, **k: calls.append(a[3]) or experiment(*a, **k))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _run(script, ["--n-list", "8,12,16", "--trials", "2",
                                 "--out", str(blocker / "x")])
    assert code == 2 and calls == [8]
    _assert_one_line(err, "error: ", "cannot create output directory")


def test_scripts_still_run_on_good_flags(tmp_path):
    code, out, err = _run(_load("coverage_sweep"),
                          ["--n-list", "8", "--trials", "2", "--out", str(tmp_path / "s")])
    assert code == 0 and err == ""
    assert (tmp_path / "s" / "coverage_sweep.csv").exists()
    code, out, err = _run(_load("contraction_decay"),
                          ["--preset", "halving_map", "--n-max", "2", "--atoms", "4",
                           "--out", str(tmp_path / "d")])
    assert code == 0 and err == ""
    assert (tmp_path / "d" / "contraction_curve.csv").read_text().startswith("n,w1\n")
