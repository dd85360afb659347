"""Malformed configs, CSVs and flag values fed through ``cli.main``.

Every input here is broken by construction: one wrong type, unknown key,
out-of-range value or damaged file on top of an input that runs. Each must
end in exit code 2 (invalid input, argparse's ``SystemExit(2)`` included) or
3 (a broken modelling assumption), never in an uncaught exception.
"""
import contextlib
import copy
import io
import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaincert.cli import main

BASE_IID = {
    "generator": {"kind": "iid", "atoms_x": [[0.2], [0.7]], "atoms_y": [[0.2], [0.7]],
                  "weights": [0.5, 0.5], "kappa": 2.0},
    "class": {"kind": "finite_list", "members": [
        {"kind": "constant", "id": "lo", "value": [0.0]},
        {"kind": "linear", "id": "echo", "weight": [[1.0]], "bias": [0.0], "lip": 1.0},
        {"kind": "tabulated", "id": "tab", "table_x": [[0.0], [1.0]],
         "table_y": [[0.0], [1.0]], "lip": 1.0},
    ]},
    "loss": {"kind": "abs_clipped", "clip": 1.0},
}
BASE_AFFINE = {
    "generator": {"kind": "affine_ifs", "mats": [[[0.5]], [[0.5]]], "vecs": [[0.0], [0.5]],
                  "weights": [0.5, 0.5], "attractor_radius": 1.0, "z0_x": [0.0],
                  "label": {"kind": "linear", "weight": [[0.5]], "bias": [0.0]}},
    "class": {"kind": "linear_grid", "w_lo": 0.0, "w_hi": 1.0, "w_points": 2,
              "b_lo": 0.0, "b_hi": 0.5, "b_points": 2},
    "loss": {"kind": "squared_clipped", "clip": 1.0, "domain_diameter": 4.0},
}
BASE_PRESET = {"preset": "halving_map"}
RUN_KEYS = {"n": 8, "epsilon": 0.1, "trials": 2, "rad_outer": 2, "draws": 64}
BASES = (BASE_IID, BASE_AFFINE, BASE_PRESET)

INT_KEYS = {"n": 1, "trials": 2, "seed": 0, "draws": 4, "rad_outer": 1}
# draws counts sign vectors scored in antithetic pairs, so it must also be even
ODD_DRAWS = st.integers(2, 10**6).map(lambda k: 2 * k + 1)
# each valid range lies in [0, 1]: (is 0 excluded, is 1 excluded)
NUM_RANGES = {"epsilon": (False, True), "delta": (True, True), "w_bar": (False, False),
              "tol": (True, True)}
CHOICE_KEYS = {"preset": ("halving_map", "iid_two", "iid_four", "iid_singleton",
                          "affine_triangle", "labeled_affine"),
               "window_mode": ("delayed", "paper_literal"),
               "tie_break": ("lowest_index", "first_found")}
KNOWN_NAMES = set(INT_KEYS) | set(NUM_RANGES) | set(CHOICE_KEYS) | {
    "generator", "class", "loss", "out_dir", "kind", "atoms_x", "atoms_y", "weights",
    "kappa", "mats", "vecs", "label", "attractor_radius", "z0_x", "members", "id", "value",
    "weight", "bias", "lip", "table_x", "table_y", "w_lo", "w_hi", "w_points", "b_lo",
    "b_hi", "b_points", "clip", "domain_diameter", "identity", "linear", "tabulated", "iid",
    "affine_ifs", "finite_list", "linear_grid", "abs_clipped", "squared_clipped", "constant",
}
# block scalars: (lower end of the valid range, whether that end is valid)
BLOCK_FLOORS = {"kappa": (0.0, False), "clip": (0.0, False), "attractor_radius": (0.0, False),
                "domain_diameter": (0.0, False), "lip": (0.0, True), "w_points": (1, True),
                "b_points": (1, True)}


def _below(floor, floor_valid):
    """Floats under ``floor``, and ``floor`` itself unless it is valid; the
    margin keeps -0.0 out where 0.0 is valid."""
    return st.floats(-1e6, floor - 1e-9 if floor_valid else floor)


def _is_number_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# text that is no number, no known name and no CSV structure
WORDS = st.text(alphabet=string.ascii_letters + string.digits + "-_.:;!?#@ ",
                min_size=1, max_size=12).filter(
    lambda s: not _is_number_text(s) and s not in KNOWN_NAMES)
# JSON values that no config field expecting a number, an integer, an array, a
# kind name, a list of members or a block accepts
GARBAGE = st.one_of(
    st.none(),
    st.booleans(),
    WORDS,
    st.lists(WORDS, min_size=1, max_size=3),
    st.dictionaries(WORDS, st.integers(), max_size=2),
    st.just(-(10**400)),
)


def _run(argv):
    """Exit code of ``main(argv)`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value this way
            code = exc.code
    return code, err.getvalue()


def _assert_rejected(argv):
    code, err = _run(argv)
    assert code in (2, 3), (argv, code, err)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "traj.csv").write_text("step,x_0,y_0\n0,1.0,1.0\n1,0.75,0.75\n2,0.625,0.625\n")
    (root / "mu.csv").write_text("x_0,y_0\n0.0,0.0\n0.5,0.25\n")
    (root / "nu.csv").write_text("x_0,y_0\n1.0,1.0\n")
    (root / "loss.csv").write_text("0.0,1.0,0.5\n1.0,0.0,0.25\n")
    (root / "good.json").write_text(json.dumps(dict(BASE_PRESET, **RUN_KEYS)))
    return root


def _config_argv(workdir, cfg, command):
    path = workdir / "cfg.json"
    path.write_text(json.dumps(dict({"out_dir": str(workdir / "out")}, **cfg)))
    tail = ["--config", str(path)]
    return {
        "simulate": ["simulate"],
        "lemma1": ["validate", "lemma1"],
        "lemma3": ["validate", "lemma3"],
        "coverage": ["coverage"],
        "erm": ["erm", str(workdir / "traj.csv"), "--n", "1"],
    }[command] + tail


COMMANDS = st.sampled_from(("simulate", "lemma1", "lemma3", "coverage", "erm"))


@pytest.mark.parametrize("preset", ("halving_map", "iid_two"))
def test_size_that_cannot_be_allocated_is_rejected(workdir, preset):
    # 10^15 states need petabytes: the first allocation fails at once
    argv = _config_argv(workdir, {"preset": preset}, "simulate") + ["--n", str(10**15)]
    code, err = _run(argv)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("preset, command, n", [
    ("iid_two", "simulate", 2**60),
    ("affine_triangle", "simulate", 2**60),
    ("halving_map", "simulate", 2**62),
    ("affine_triangle", "lemma1", 2**60),
])
def test_size_that_numpy_cannot_describe_is_rejected(workdir, preset, command, n):
    # one chain's states or draw words would pass 2^63 - 1 bytes, so numpy
    # cannot even size the array: refused before any array is asked for
    argv = _config_argv(workdir, dict(RUN_KEYS, preset=preset), command) + ["--n", str(n)]
    code, err = _run(argv)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "past numpy's limit" in err


def test_unmutated_inputs_run(workdir):
    # the fuzz below breaks these inputs one fault at a time
    for base in BASES:
        assert _run(_config_argv(workdir, dict(base, **RUN_KEYS), "simulate"))[0] == 0
    assert _run(["erm", str(workdir / "traj.csv"), "--config", str(workdir / "good.json"),
                 "--n", "1"])[0] == 0
    assert _run(["wasserstein", str(workdir / "mu.csv"), str(workdir / "nu.csv"),
                 "--kappa", "4.0"])[0] == 0
    assert _run(["rademacher", str(workdir / "loss.csv")])[0] == 0


@st.composite
def top_level_faults(draw):
    key = draw(st.sampled_from(sorted(set(INT_KEYS) | set(NUM_RANGES) | set(CHOICE_KEYS)
                                      | {"out_dir", "generator", "class", "loss", "unknown"})))
    if key == "unknown":
        return draw(WORDS), draw(GARBAGE)
    if key in INT_KEYS:
        floor = INT_KEYS[key]
        bad_int = st.integers(-(10**6), floor - 1)
        if key == "seed":
            bad_int = st.one_of(bad_int, st.integers(2**64, 2**70))
        elif key == "draws":
            bad_int = st.one_of(bad_int, ODD_DRAWS)
        return key, draw(st.one_of(GARBAGE, st.floats(allow_nan=True), bad_int))
    if key in NUM_RANGES:
        lo_open, hi_open = NUM_RANGES[key]
        edges = [0.0] * lo_open + [1.0] * hi_open + [float("nan")]
        outside = st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0 + 1e-9),
                            st.sampled_from(edges))
        return key, draw(st.one_of(GARBAGE, outside))
    if key in CHOICE_KEYS:
        return key, draw(st.one_of(GARBAGE.filter(lambda v: v not in CHOICE_KEYS[key]),
                                   st.just("")))
    if key == "out_dir":
        return key, draw(st.one_of(GARBAGE.filter(lambda v: not isinstance(v, str)),
                                   st.just("")))
    return key, draw(GARBAGE.filter(lambda v: not isinstance(v, dict)))


@settings(max_examples=75, deadline=None)
@given(base=st.sampled_from(BASES), fault=top_level_faults(), command=COMMANDS)
def test_malformed_top_level_config_is_rejected(workdir, base, fault, command):
    cfg = dict(base, **RUN_KEYS)
    key, value = fault
    cfg[key] = value
    _assert_rejected(_config_argv(workdir, cfg, command))


def _sub_blocks(cfg):
    """The blocks of a config and every object nested in them."""
    found = []
    for key in ("generator", "class", "loss"):
        block = cfg.get(key)
        if isinstance(block, dict):
            found.append(block)
            if isinstance(block.get("label"), dict):
                found.append(block["label"])
            found.extend(block.get("members", []))
    return found


@st.composite
def block_faults(draw):
    cfg = copy.deepcopy(dict(draw(st.sampled_from((BASE_IID, BASE_AFFINE))), **RUN_KEYS))
    block = draw(st.sampled_from(_sub_blocks(cfg)))
    kind = draw(st.sampled_from(("garbage", "unknown", "floor", "shape")))
    if kind == "garbage":
        key = draw(st.sampled_from(sorted(k for k in block if k != "id")))
        block[key] = draw(GARBAGE)
    elif kind == "unknown":
        block[draw(WORDS)] = draw(GARBAGE)
    elif kind == "floor" and any(k in BLOCK_FLOORS for k in block):
        key = draw(st.sampled_from(sorted(k for k in block if k in BLOCK_FLOORS)))
        floor, floor_valid = BLOCK_FLOORS[key]
        if isinstance(floor, int):
            block[key] = draw(st.integers(-1000, floor - 1))
        else:
            block[key] = draw(_below(floor, floor_valid))
    else:
        # one array with a row too many or too few, or the wrong depth
        key = draw(st.sampled_from(sorted(
            k for k in block if k in ("atoms_y", "weights", "vecs", "mats", "z0_x",
                                      "table_y", "value", "weight", "bias"))
            or ["kind"]))
        value = block[key]
        if key == "kind":
            block[key] = draw(WORDS)
        elif draw(st.booleans()):
            block[key] = value + value[:1]
        else:
            block[key] = [value]
    return cfg


@settings(max_examples=75, deadline=None)
@given(cfg=block_faults(), command=COMMANDS)
def test_malformed_config_block_is_rejected(workdir, cfg, command):
    _assert_rejected(_config_argv(workdir, cfg, command))


def _csv_fault(draw, text, header):
    """``text`` (lines of a CSV) with one damaged cell, row or header."""
    lines = text.splitlines()
    first = 1 if header else 0
    fault = draw(st.sampled_from(("cell", "nonfinite", "ragged", "empty", "header", "bytes")))
    if fault == "header" and not header:
        fault = "ragged"
    row = draw(st.integers(first, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    if fault == "cell":
        cells[col] = draw(WORDS)
    elif fault == "nonfinite":
        cells[col] = draw(st.sampled_from(("nan", "inf", "-inf", "1e999")))
    elif fault == "ragged":
        cells = cells[:-1] if len(cells) > 1 else cells + ["0.5"]
    elif fault == "empty":
        return b""
    elif fault == "header":
        head = lines[0].split(",")
        col = draw(st.integers(0, len(head) - 1))
        head[col] = draw(WORDS.filter(lambda w: w != head[col]))
        lines[0] = ",".join(head)
    else:
        return b"\xff\xfe" + text.encode()
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from(("erm", "mu", "nu", "rademacher")), data=st.data())
def test_malformed_csv_is_rejected(workdir, target, data):
    name, header = {"erm": ("traj.csv", True), "mu": ("mu.csv", True),
                    "nu": ("nu.csv", True), "rademacher": ("loss.csv", False)}[target]
    bad = workdir / f"bad_{name}"
    bad.write_bytes(_csv_fault(data.draw, (workdir / name).read_text(), header))
    mu, nu = workdir / "mu.csv", workdir / "nu.csv"
    argv = {
        "erm": ["erm", str(bad), "--config", str(workdir / "good.json"), "--n", "1"],
        "mu": ["wasserstein", str(bad), str(nu), "--kappa", "4.0"],
        "nu": ["wasserstein", str(mu), str(bad), "--kappa", "4.0"],
        "rademacher": ["rademacher", str(bad)],
    }[target]
    _assert_rejected(argv)


# flag -> strategy of bad values (as command line text) for each command
FLAG_FAULTS = {
    "simulate": {"--n": st.integers(-1000, 0).map(str), "--seed": st.integers(-1000, -1).map(str)},
    "coverage": {"--epsilon": st.sampled_from(("-0.1", "1.0", "nan", "inf")),
                 "--delta": st.sampled_from(("0", "1", "-2", "nan")),
                 "--trials": st.integers(-1000, 1).map(str),
                 "--draws": st.one_of(st.integers(-1000, 3), ODD_DRAWS).map(str),
                 "--window": WORDS.filter(lambda s: s not in ("delayed", "paper-literal"))},
    "wasserstein": {"--kappa": st.one_of(_below(0.0, False).map(repr),
                                         st.sampled_from(("nan", "inf", "0.1")))},
    # the matrix's largest entry is 1.0; ell_H may undercut it by a relative 1e-12
    "rademacher": {"--ell-h": st.one_of(_below(0.99, False).map(repr),
                                        st.sampled_from(("nan", "inf", "-inf"))),
                   "--draws": st.one_of(st.integers(-1000, 3), ODD_DRAWS).map(str),
                   "--seed": st.one_of(st.integers(-1000, -1), st.integers(2**64, 2**70)).map(str)},
    "certify": {"--rademacher": st.one_of(_below(0.0, True).map(repr), st.just("nan")),
                "--ell-h": st.one_of(_below(0.0, False).map(repr), st.just("inf")),
                "--ell-f": st.one_of(_below(0.0, True), st.floats(1.0, 1e6)).map(repr),
                "--n": st.integers(-1000, 0).map(str),
                "--epsilon": st.one_of(_below(0.0, False), st.floats(1.0, 1e6)).map(repr),
                "--w-bar": st.one_of(_below(0.0, True), st.floats(1.0 + 1e-9, 1e6)).map(repr)},
}


def _flag_argv(workdir, command, flag, value):
    config = ["--config", str(workdir / "good.json")]
    mu, nu, loss = str(workdir / "mu.csv"), str(workdir / "nu.csv"), str(workdir / "loss.csv")
    argv = {
        "simulate": ["simulate"] + config,
        "coverage": ["coverage"] + config,
        "wasserstein": ["wasserstein", mu, nu, "--kappa", "4.0"],
        "rademacher": ["rademacher", loss],
        "certify": ["certify", "--form", "population", "--rademacher", "0.1", "--ell-h", "1.0",
                    "--ell-f", "0.5", "--n", "100", "--epsilon", "0.1"],
    }[command]
    if flag in argv:  # drop the default value of a required flag
        del argv[argv.index(flag) : argv.index(flag) + 2]
    # one token, so argparse does not read a value such as -1e-05 as a flag
    return argv + [f"{flag}={value}"]


@st.composite
def flag_faults(draw):
    command = draw(st.sampled_from(sorted(FLAG_FAULTS)))
    flag = draw(st.sampled_from(sorted(FLAG_FAULTS[command])))
    # a bad value of the right type, or a word where argparse wants a number
    value = draw(st.one_of(FLAG_FAULTS[command][flag], WORDS))
    return command, flag, value


@settings(max_examples=75, deadline=None)
@given(fault=flag_faults())
def test_bad_flag_value_is_rejected(workdir, fault):
    command, flag, value = fault
    _assert_rejected(_flag_argv(workdir, command, flag, value))


# Every numeric flag of certify and rademacher as text over the whole range:
# subnormals, the float extremes, signed zeros, inf, nan, negative values and
# integers up to 10^400, so each value either runs or is refused by name.
FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308",
                     "1.7976931348623157e308", "0", "-0.0", "inf", "-inf", "nan"]),
    st.integers(-(10**400), 10**400).map(str),
)
INT_TEXT = st.one_of(st.integers(-(10**400), 10**400).map(str), FLOAT_TEXT)
# draws that numpy can size but that take minutes to score (10^6 up to
# 2^61) are a slow valid run, not a malformed one, so they are left out
DRAWS_TEXT = st.one_of(st.integers(-(10**400), 10**4).map(str),
                       st.integers(2**61, 10**400).map(str), st.floats().map(repr))


@st.composite
def numeric_flag_runs(draw):
    """argv for ``certify`` (either form) or ``rademacher`` on ``LOSS``, with
    a drawn text for each numeric flag it sets."""
    if draw(st.booleans()):
        argv = ["rademacher", "LOSS"]
        for flag, text in (("--draws", DRAWS_TEXT), ("--ell-h", FLOAT_TEXT),
                           ("--seed", INT_TEXT)):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(text)}")
        return argv
    form = draw(st.sampled_from(("population", "empirical")))
    slack = draw(st.sampled_from(("--epsilon", "--delta")))
    argv = ["certify", "--form", form] + [
        f"{flag}={draw(text)}" for flag, text in (
            ("--rademacher", FLOAT_TEXT), ("--ell-h", FLOAT_TEXT), ("--ell-f", FLOAT_TEXT),
            ("--n", INT_TEXT), (slack, FLOAT_TEXT))]
    if form == "population" and draw(st.booleans()):
        argv.append(f"--w-bar={draw(FLOAT_TEXT)}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=numeric_flag_runs())
@example(argv=["rademacher", "LOSS", f"--draws={10**19}"])
@example(argv=["rademacher", "LOSS", f"--draws={10**400}"])
def test_numeric_flags_over_the_whole_range_exit_by_code(workdir, argv):
    argv = [str(workdir / "loss.csv") if a == "LOSS" else a for a in argv]
    code, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert err.count("error:") <= 1 and "Traceback" not in err, (argv, err)
