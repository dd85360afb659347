import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert import presets
from chaincert.certificates import invert_epsilon
from chaincert.cli import main, run_with_exit_codes
from chaincert.complexity import LossMatrix, rademacher_exact
from chaincert.config import (
    ExperimentConfig,
    build_bundle,
    build_generator,
    canonical_dict,
    canonical_json,
    config_digest,
    load_config,
    merge_overrides,
    parse_config,
)
from chaincert.errors import AssumptionViolationError, InvalidInputError
from chaincert.generators import (
    BoxBound,
    analytic_lip_factor,
    deterministic_map_generator,
    identity_label,
    sample_chain,
)
from chaincert.hypotheses import verify_a2
from chaincert.metric import MetricSpec, SeedSpec, ZPoint, derive_stream
from chaincert.presets import load_preset
from chaincert.reporting import (
    _is_number_rows,
    comparable_summary,
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
from oracles import csv_cell


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def blocks_config():
    return {
        "generator": {
            "kind": "iid",
            "atoms_x": [[0.2], [0.7]],
            "atoms_y": [[0.2], [0.7]],
            "kappa": 2.0,
        },
        "class": {
            "kind": "finite_list",
            "members": [
                {"kind": "constant", "id": "lo", "value": [0.0]},
                {"kind": "linear", "id": "echo", "weight": [[1.0]], "bias": [0.0]},
            ],
        },
        "loss": {"kind": "abs_clipped", "clip": 1.0},
        "n": 16,
        "trials": 4,
    }


# -- config parsing --------------------------------------------------------------


def test_defaults_and_full_parse():
    cfg = parse_config({})
    assert cfg.seed == 0 and cfg.window_mode == "delayed" and cfg.out_dir == "results"
    cfg2 = parse_config({"preset": "iid_four", "n": 100, "epsilon": 0.1, "trials": 10,
                         "seed": 7, "w_bar": 0.5})
    assert cfg2.preset == "iid_four" and cfg2.seed == 7
    assert cfg2.w_bar == 0.5


def test_rejections():
    with pytest.raises(InvalidInputError):
        parse_config({"presett": "iid_four"})  # typo must not pass silently
    with pytest.raises(InvalidInputError):
        parse_config({"epsilon": 0.1, "delta": 0.05})
    with pytest.raises(InvalidInputError):
        parse_config({"preset": "iid_four", "loss": {"kind": "abs_clipped", "clip": 1.0}})
    with pytest.raises(InvalidInputError):
        parse_config({"n": 0})
    with pytest.raises(InvalidInputError):
        parse_config({"n": 2.5})
    with pytest.raises(InvalidInputError):
        parse_config({"exact": True})  # removed key: sign enumeration follows n
    with pytest.raises(InvalidInputError, match=r"unknown key\(s\) \['workers'\]"):
        parse_config({"workers": 2})  # removed key: trials run in one loop
    with pytest.raises(InvalidInputError):
        parse_config({"seed": -1})
    with pytest.raises(InvalidInputError):
        parse_config({"window_mode": "sliding"})
    with pytest.raises(InvalidInputError):
        parse_config({"generator": {"kind": "iid", "atoms_x": [[0.0]],
                                    "atoms_y": [[0.0]], "kappa": 1.0, "extra": 1}})
    with pytest.raises(InvalidInputError):
        parse_config({"loss": {"kind": "hinge", "clip": 1.0}})
    with pytest.raises(InvalidInputError):
        parse_config({"epsilon": 1.0})
    with pytest.raises(InvalidInputError):
        parse_config({"class": {"kind": "finite_list", "members": []}})
    # one outer chain has no standard error; lemma2 and coverage need two
    with pytest.raises(InvalidInputError, match=r"config\.rad_outer"):
        parse_config({"preset": "iid_four", "n": 50, "trials": 4, "epsilon": 0.1,
                      "rad_outer": 1})


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, {"z": 0, "y": None}]}) \
        == '{"a":[1.5,{"y":null,"z":0}],"b":1}'


def test_digest_order_invariance_and_sensitivity():
    base = blocks_config()
    eps = dict(base, epsilon=0.1)
    reordered = dict(reversed(list(eps.items())))
    assert config_digest(parse_config(eps)) == config_digest(parse_config(reordered))
    changed = dict(base, epsilon=0.2)
    assert config_digest(parse_config(eps)) != config_digest(parse_config(changed))


@pytest.mark.parametrize("data, digest", [
    (blocks_config(), "6ee05bc7c4f02a5b5b29b9cdbdef6adc9363d72eeb3681fd4054cd21d86d7c6f"),
    ({}, "15e89a9cb5e2d8a0307b41ce28933da1d7316586d374dca1df6bf1dc24f14ce0"),
    ({"preset": "affine_triangle", "n": 20, "epsilon": 0.3, "trials": 12, "tol": 1e-3},
     "bf9a2db92bf3675763501e83cdffddd0f312d8a68cc6d4cbe8c4d006484b08fc"),
], ids=["blocks", "empty", "affine_triangle"])
def test_config_digests_are_pinned(data, digest):
    # summaries record this digest; it ties old results to their configs
    assert config_digest(parse_config(data)) == digest


def test_merge_overrides():
    cfg = parse_config({"preset": "iid_four", "delta": 0.05, "n": 100})
    merged = merge_overrides(cfg, seed=9, epsilon=0.1)
    assert merged.seed == 9 and merged.epsilon == 0.1 and merged.delta is None
    kept = merge_overrides(cfg, seed=None)
    assert kept == cfg
    with pytest.raises(InvalidInputError):
        merge_overrides(cfg, draws_per_trial=10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.one_of(st.none(), st.integers(1, 10**6)),
    epsilon=st.one_of(st.none(), st.floats(0.0, 0.999)),
    trials=st.one_of(st.none(), st.integers(2, 10**4)),
    window_mode=st.sampled_from(("delayed", "paper_literal")),
    w_bar=st.floats(0.0, 1.0),
)
def test_round_trip_property(seed, n, epsilon, trials, window_mode, w_bar):
    data = {"preset": "iid_two", "seed": seed, "window_mode": window_mode,
            "w_bar": w_bar}
    if n is not None:
        data["n"] = n
    if epsilon is not None:
        data["epsilon"] = epsilon
    if trials is not None:
        data["trials"] = trials
    cfg = parse_config(data)
    again = parse_config(json.loads(canonical_json(canonical_dict(cfg))))
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


# -- building objects from blocks ------------------------------------------------


def test_build_bundle_from_blocks():
    cfg = parse_config(blocks_config())
    bundle = build_bundle(cfg)
    assert bundle.name == "custom"
    assert len(bundle.cls) == 2
    assert bundle.env.ell_H == 2.0  # unit-Lipschitz class against kappa 2
    traj = sample_chain(bundle.gen, 32, SeedSpec(1))
    assert len(traj) == 32


def test_build_bundle_requires_all_blocks():
    data = blocks_config()
    del data["loss"]
    with pytest.raises(InvalidInputError, match="loss"):
        build_bundle(parse_config(data))


def test_build_linear_grid_class():
    data = blocks_config()
    data["class"] = {"kind": "linear_grid", "w_lo": 0.0, "w_hi": 1.0, "w_points": 3,
                     "b_lo": 0.0, "b_hi": 0.5, "b_points": 2}
    bundle = build_bundle(parse_config(data))
    assert len(bundle.cls) == 6
    ids = bundle.cls.ids()
    assert ids[0] == "line_0_0" and ids[-1] == "line_2_1"


def _grid_config(w_points, b_points):
    data = blocks_config()
    data["class"] = {"kind": "linear_grid", "w_lo": 0.0, "w_hi": 1.0, "w_points": w_points,
                     "b_lo": 0.0, "b_hi": 0.5, "b_points": b_points}
    return data


@pytest.mark.parametrize("w_points, b_points", [(2**70, 1), (101, 100)])
def test_cli_rejects_a_grid_past_the_cap(tmp_path, capsys, w_points, b_points):
    data = dict(_grid_config(w_points, b_points), out_dir=str(tmp_path / "never"))
    assert main(["simulate", "--config", write_config(tmp_path, "grid.json", data)]) == 2
    err = capsys.readouterr().err
    assert f"{w_points} x {b_points} points exceeds the cap of 10000 members" in err
    assert "Traceback" not in err and not (tmp_path / "never").exists()


def test_grid_at_the_cap_parses():
    assert parse_config(_grid_config(100, 100)).class_block["w_points"] == 100


def test_build_expanding_map_is_assumption_violation():
    data = {
        "generator": {"kind": "affine_ifs", "mats": [[[1.2]]], "vecs": [[0.0]],
                      "attractor_radius": 0.5, "z0_x": [0.0]},
        "class": {"kind": "finite_list",
                  "members": [{"kind": "constant", "value": [0.0]}]},
        "loss": {"kind": "abs_clipped", "clip": 1.0},
    }
    with pytest.raises(AssumptionViolationError):
        build_bundle(parse_config(data))


def test_build_iid_diameter_guard():
    data = blocks_config()
    data["generator"]["kappa"] = 0.5  # atoms 0.5 apart in x and y -> distance 2
    with pytest.raises(InvalidInputError, match="diameter"):
        build_bundle(parse_config(data))


def _parse_error(data):
    with pytest.raises(InvalidInputError) as err:
        parse_config(data)
    return str(err.value)


@pytest.mark.parametrize("key, block", [
    ("generator", {"kind": "bogus"}),
    ("class", {"kind": "bogus"}),
    ("loss", {"kind": "hinge", "clip": 1.0}),
    ("generator", 1.0),
    ("class", [1]),
    ("loss", "x"),
], ids=["generator", "class", "loss", "generator_number", "class_list", "loss_string"])
def test_build_bundle_checks_blocks_it_was_handed_unparsed(key, block):
    # one reader per block serves parse_config and build_bundle alike, so a
    # config built directly is rejected with the message parsing gives
    data = dict(blocks_config(), **{key: block})
    cfg = ExperimentConfig(generator=data["generator"], class_block=data["class"],
                           loss=data["loss"])
    with pytest.raises(InvalidInputError) as err:
        build_bundle(cfg)
    assert str(err.value) == _parse_error(data)


def test_build_generator_rejects_an_unknown_key():
    block = dict(blocks_config()["generator"], extra=1)
    with pytest.raises(InvalidInputError) as err:
        build_generator(block)
    assert str(err.value) == _parse_error({"generator": block})
    assert "unknown key(s) ['extra'] in generator" in str(err.value)


def test_build_generator_rejects_a_block_that_is_not_an_object():
    with pytest.raises(InvalidInputError) as err:
        build_generator(1.0)
    assert str(err.value) == _parse_error({"generator": 1.0})


# -- reporting -------------------------------------------------------------------


def test_rows_csv_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(("trial", "value", "flag"), ((0, 0.1, 1), (1, 2.5e-3, 0)), str(path))
    assert path.read_bytes() == b"trial,value,flag\n0,0.1,1\n1,0.0025,0\n"
    # an int writes its digits; a float and an np.float64 write the same cell
    row = (7, -7, 2**70, 0.1, np.float64(0.1), -0.0)
    write_rows_csv([f"c{i}" for i in range(len(row))], (row,), str(path))
    assert path.read_bytes().split(b"\n")[1] == b"7,-7,1180591620717411303424,0.1,0.1,-0.0"
    # a row narrower or wider than the header is rejected before the file is written
    for bad in ((0, 0.1), (0, 0.1, 1, 2)):
        target = tmp_path / f"bad_{len(bad)}.csv"
        with pytest.raises(InvalidInputError, match="row width"):
            write_rows_csv(("trial", "value", "flag"), ((1, 0.5, 0), bad), str(target))
        assert not target.exists()


class _Fraction(float):
    """A float subclass: written as the float it holds."""


@pytest.mark.parametrize("row", [
    (0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 2.5),
    (np.float64(0.1), 0.2, np.float64(-3.0), _Fraction(0.75), 1e22, 1e16),
    (7, -7, 2**70, 0, np.float64(-0.5), _Fraction(0.25)),
    (0.1, 0.2, 0.3, 0.4, 0.5, 1),  # a float row whose last cell is not a float
])
def test_rows_csv_match_cell_by_cell_writes(tmp_path, row):
    path = tmp_path / "rows.csv"
    header = [f"c{i}" for i in range(len(row))]
    write_rows_csv(header, (row, row[::-1]), str(path))
    lines = [",".join(header)] + [",".join(csv_cell(v) for v in r) for r in (row, row[::-1])]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_rows_csv_reject_bad_cells_as_cell_by_cell_writes_do(tmp_path):
    # a cell is an int or a float: bool, numpy integers, float32 and str are not
    for bad in (True, np.bool_(False), np.int64(1), np.float32(0.5), "ab", "a,b", None, [0.5]):
        target = tmp_path / "bad.csv"
        with pytest.raises(InvalidInputError, match="unsupported CSV cell type"):
            csv_cell(bad)
        with pytest.raises(InvalidInputError, match="unsupported CSV cell type"):
            write_rows_csv(("x", "y"), ((0.5, 0.5), (1, bad)), str(target))
        assert not target.exists()


_CELL_TEXTS = ("0.5", "+1.5", "-2", "1_0", " 2 ", "\t3", "1e-310", ".5", "5.", "1E5", "-0",
               "Infinity", "-inf", "nan", "-nan", "NaN", "1e400", "0x10", "", " ", "1__0",
               "_1", "1.5.2", "nan(1)", "1d5", "True", "1j", "\u0661\u0662", "\u00a02")


@pytest.mark.parametrize("text", _CELL_TEXTS)
def test_numeric_csv_cells_parse_as_float_does(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(f"0.25,0.75\n0.5,{text}\n", encoding="utf-8")
    try:
        value = float(text)
    except ValueError:
        with pytest.raises(InvalidInputError, match="non-numeric cell"):
            read_loss_matrix_csv(str(path))
        return
    if not math.isfinite(value):
        with pytest.raises(InvalidInputError, match="non-finite cell"):
            read_loss_matrix_csv(str(path))
        return
    data = read_loss_matrix_csv(str(path))
    expected = np.array([[0.25, 0.75], [0.5, value]])
    assert data.dtype == expected.dtype and data.tobytes() == expected.tobytes()


def test_summary_values_keep_their_json_types(tmp_path):
    summary = {"b": True, "i": 3, "f": 0.1, "nf": np.float64(0.25), "s": "x", "none": None,
               "plan": [[0, 1, 0.5]], "nested": {"a": [1.5, 2.0]}}
    payload = write_summary("k", summary, str(tmp_path / "s.json"))
    back = read_summary(str(tmp_path / "s.json"))
    for p in (payload, back):
        assert p["b"] is True
        assert [type(p[k]) for k in ("i", "f", "s")] == [int, float, str]
        assert (p["i"], p["f"], p["nf"], p["s"], p["none"]) == (3, 0.1, 0.25, "x", None)
        assert p["plan"] == [[0, 1, 0.5]] and p["nested"] == {"a": [1.5, 2.0]}


@pytest.mark.parametrize("bad", [np.int64(4), np.bool_(False), SeedSpec(5), np.array([1.5]),
                                 {"deep": [np.int64(1)]}],
                         ids=["int64", "bool_", "SeedSpec", "ndarray", "nested"])
def test_summaries_reject_values_json_does_not_encode(tmp_path, bad):
    # only plain JSON values are written: a numpy scalar, an array or a
    # SeedSpec is invalid input naming its key, and no file is written
    with pytest.raises(InvalidInputError, match="cannot write 'bad' as JSON"):
        json_fragments({"fine": 1.0, "bad": bad})
    path = tmp_path / "s.json"
    with pytest.raises(InvalidInputError, match="cannot write 'bad' as JSON"):
        write_summary("k", {"fine": 1.0, "bad": bad}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("write", ["summary", "rows"])
def test_unwritable_values_exit_2_with_one_line(tmp_path, capsys, write):
    # an entry point that hands the writers a value they reject exits 2
    # through the shared exit-code mapping, with one stderr line
    path = tmp_path / "out"

    def handler(args):
        if write == "summary":
            write_summary("k", {"n": np.int64(3)}, str(path))
        else:
            write_rows_csv(("ok",), ((True,),), str(path))
        return 0

    assert run_with_exit_codes(handler, None) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("payload", [
    {},
    {"empty_list": [], "empty_dict": {}},
    {"unicode": "caf\u00e9 \u2211 \U0001f600", "newline": "two\nlines\n", "quote": 'a"b\\'},
    {"plan": [[0, 1, 0.5], [1, 0, 0.5]], "nested": {"b": {"d": [1, {"z": [], "a": {}}], "c": None},
                                                    "a": [True, False, 1e-300, -0.0]}},
])
def test_json_fragments_match_one_encode(payload):
    assert json_object(json_fragments(payload)) == json.dumps(payload, indent=2, sort_keys=True)


_JSON_NUMBERS = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2**63, 2**64 + 1, -2**63 - 1]),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_JSON_NUMBERS, min_size=1, max_size=5), min_size=1, max_size=8))
def test_json_fragments_number_rows_match_the_indented_encoder(rows):
    assert _is_number_rows(rows)
    expected = json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n  ")
    assert json_fragments({"k": rows})["k"] == expected


@pytest.mark.parametrize("rows", [
    [[0, True]], [[1, "a,b"]], [["],["]], [[]], [[1], []], [[0, 1.5], [None]],
    [[1, [2]]], [(1, 2), "ab"], [[1, np.float64(0.5)], None], [],
])
def test_json_fragments_rows_of_other_cells_take_the_general_path(rows):
    assert not _is_number_rows(rows)
    expected = json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n  ")
    assert json_fragments({"k": rows})["k"] == expected


# the float cells of _JSON_NUMBERS, drawn directly rather than filtered out of it
_FLOAT64_ROWS = st.lists(st.tuples(st.integers(-2**40, 2**40), st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308])).map(np.float64)),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(rows=_FLOAT64_ROWS, outer=st.sampled_from([list, tuple]),
       inner=st.sampled_from([list, tuple]))
def test_number_rows_take_lists_tuples_and_float64_cells(tmp_path_factory, rows, outer, inner):
    # both writers give the text of the indented encoder and of each cell
    # written on its own: float.__repr__ of each np.float64
    rows = outer(inner(row) for row in rows)
    assert _is_number_rows(rows)
    expected = json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n  ")
    assert json_fragments({"k": rows})["k"] == expected
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_rows_csv(("a", "b"), rows, str(path))
    lines = ["a,b"] + [",".join(csv_cell(v) for v in r) for r in rows]
    assert path.read_text() == "\n".join(lines) + "\n"


def _count_encodes(monkeypatch) -> list:
    """Count the calls of json.dumps, by which ``write_rows_csv`` encodes."""
    calls, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    return calls


def test_float64_rows_take_one_encode(tmp_path, monkeypatch):
    # a trajectory's rows: an int step, then np.float64 states
    calls = _count_encodes(monkeypatch)
    states = np.array([[0.1, -0.0], [5e-324, 1.7976931348623157e308]])
    rows = [(t, *r) for t, r in enumerate(states)]
    write_rows_csv(("step", "x_0", "y_0"), rows, str(tmp_path / "traj.csv"))
    assert (tmp_path / "traj.csv").read_text() == \
        "step,x_0,y_0\n0,0.1,-0.0\n1,5e-324,1.7976931348623157e+308\n"
    assert len(calls) == 1


@pytest.mark.parametrize("cell", [np.int64(2), np.bool_(True), True, np.float32(0.5)])
def test_number_rows_refuse_bool_and_numpy_integer_cells(cell):
    assert not _is_number_rows([(0.5, cell)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_fragments_reject_nonfinite_number_rows_by_key(bad):
    with pytest.raises(InvalidInputError, match="'plan'"):
        json_fragments({"fine": [[1, 2.0]], "plan": [[0, 1, 0.5], [1, 0, bad]]})


def test_json_fragments_reject_nonfinite_values_by_key():
    with pytest.raises(InvalidInputError, match="'deep'"):
        json_fragments({"fine": [1.0], "deep": {"x": [float("nan")]}})
    with pytest.raises(InvalidInputError, match="'radius'"):
        json_fragments({"radius": float("inf")})


def test_summary_files_are_one_indent_two_document(tmp_path):
    payload = {"plan": [[0, 1, 0.5]], "kind": "overridden", "z": "last"}
    path = tmp_path / "e.json"
    fields = write_encoded_summary("k", json_fragments(payload), str(path), "ab" * 32)
    back = read_summary(str(path))
    assert back == {**payload, **fields} and back["kind"] == "k"
    assert path.read_text() == json.dumps(back, indent=2, sort_keys=True) + "\n"
    summary = {"i": 4, "arr": [1.5, 2.0], "nested": {"b": [True, None], "a": "x"}}
    written = write_summary("k", summary, str(tmp_path / "s.json"))
    assert (tmp_path / "s.json").read_text() == json.dumps(written, indent=2, sort_keys=True) + "\n"


def test_trajectory_csv_round_trip(tmp_path):
    cfg = parse_config(blocks_config())
    bundle = build_bundle(cfg)
    traj = sample_chain(bundle.gen, 10, SeedSpec(2))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "step,x_0,y_0"
    back = read_trajectory_csv(str(path), kappa=bundle.gen.metric.kappa)
    assert np.array_equal(np.asarray(back.xs), np.asarray(traj.xs).reshape(10, 1))
    assert np.array_equal(np.asarray(back.ys), np.asarray(traj.ys).reshape(10, 1))


def test_atom_and_matrix_readers(tmp_path):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("x_0,y_0\n0.0,0.0\n1.0,1.0\n")
    xs, ys = read_atoms_csv(str(atoms))
    assert xs.shape == (2, 1) and ys[1, 0] == 1.0
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidInputError):
        read_atoms_csv(str(bad))
    matrix = tmp_path / "loss.csv"
    matrix.write_text("0.0,1.0\n1.0,0.0\n")
    assert read_loss_matrix_csv(str(matrix)).shape == (2, 2)
    text = tmp_path / "text.csv"
    text.write_text("h,losses\n")
    with pytest.raises(InvalidInputError):
        read_loss_matrix_csv(str(text))


_READERS = {  # reader, header line, one well-formed row
    "trajectory": (lambda path: read_trajectory_csv(path, kappa=2.0), "step,x_0,y_0\n",
                   "0,0.5,0.5\n"),
    "atoms": (read_atoms_csv, "x_0,y_0\n", "0.5,0.5\n"),
    "loss_matrix": (read_loss_matrix_csv, "", "0.5,0.5\n"),
}


@pytest.mark.parametrize("fault", ("missing", "non_numeric", "non_finite", "ragged"))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_readers_reject_malformed_files(tmp_path, reader, fault):
    read, header, row = _READERS[reader]
    good = tmp_path / "good.csv"
    good.write_text(header + row + row)
    read(str(good))
    bad = tmp_path / "bad.csv"
    if fault == "non_numeric":
        bad.write_text(header + row + row.replace("0.5", "abc", 1))
    elif fault == "non_finite":
        bad.write_text(header + row + row.replace("0.5", "nan", 1))
    elif fault == "ragged":
        bad.write_text(header + row + row.rstrip("\n") + ",0.5\n")
    with pytest.raises(InvalidInputError):
        read(str(bad))


def test_summary_round_trip_and_volatile_fields(tmp_path):
    summary = {"radius": 0.5, "passed": True}
    a = write_summary("validation", summary, str(tmp_path / "a.json"), "ff" * 32)
    b = write_summary("validation", summary, str(tmp_path / "b.json"), "ff" * 32)
    assert comparable_summary(a) == comparable_summary(b)
    loaded = read_summary(str(tmp_path / "a.json"))
    assert loaded["radius"] == 0.5 and loaded["config_sha256"] == "ff" * 32
    assert "created_at" in loaded and "software_version" in loaded


# -- command line ----------------------------------------------------------------


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_coverage_smoke_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "cov.json", {
        "preset": "halving_map", "n": 40, "epsilon": 0.1, "trials": 10,
        "rad_outer": 4, "draws": 512, "out_dir": str(tmp_path / "run1"),
    })
    assert main(["coverage", "--config", cfg]) == 0
    csv1 = (tmp_path / "run1" / "coverage_trials.csv").read_bytes()
    assert csv1.decode().splitlines()[0] == \
        "trial,deviation,radius_pop,radius_emp,covered_pop,covered_emp"
    assert len(csv1.decode().splitlines()) == 11  # header + one row per trial

    assert main(["coverage", "--config", cfg, "--out", str(tmp_path / "run2")]) == 0
    csv2 = (tmp_path / "run2" / "coverage_trials.csv").read_bytes()
    assert csv1 == csv2

    s1 = read_summary(str(tmp_path / "run1" / "coverage_summary.json"))
    s2 = read_summary(str(tmp_path / "run2" / "coverage_summary.json"))
    assert s1["coverage"] == 1.0 and s1["verdicts"] == {"coverage": "PASS"}
    assert s1["a2_pairs_checked"] > 0 and s1["a2_max_ratio"] >= 0.0
    # n = 40 is above the plain enumeration cap, but the halving chain sits at
    # its fixed point, so each window repeats one column: enumerated by groups
    assert s1["ingredients"]["rhat_method"] == "exact"
    assert s1["ingredients"]["rhat_exact_trials"] == 10
    # out_dir differs between the two effective configs
    for s in (s1, s2):
        s.pop("config_sha256")
    a, b = comparable_summary(s1), comparable_summary(s2)
    assert a == b

    # a continuous chain repeats no column: past the cap, Monte Carlo
    cfg = write_config(tmp_path, "cov_mc.json", {
        "preset": "affine_triangle", "n": 40, "epsilon": 0.1, "trials": 2,
        "rad_outer": 2, "draws": 64, "out_dir": str(tmp_path / "run3"),
    })
    assert main(["coverage", "--config", cfg]) == 0
    s3 = read_summary(str(tmp_path / "run3" / "coverage_summary.json"))
    assert s3["ingredients"]["rhat_method"] == "mc"
    assert s3["ingredients"]["rhat_exact_trials"] == 0


def test_cli_coverage_on_a_one_atom_law_repeats_one_trial(tmp_path):
    # every halving chain follows the same orbit, so every trial scores the
    # same windows the same way: up to 20 states the empirical complexity
    # enumerates every sign vector and draws no Monte Carlo signs, so the
    # rows agree but for their trial number
    cfg = write_config(tmp_path, "cov.json", {
        "preset": "halving_map", "n": 16, "epsilon": 0.1, "trials": 20, "seed": 11,
        "out_dir": str(tmp_path / "run"),
    })
    assert main(["coverage", "--config", cfg]) == 0
    header, *rows = (tmp_path / "run" / "coverage_trials.csv").read_text().splitlines()
    assert header.startswith("trial,") and len(rows) == 20
    assert [row.split(",", 1)[0] for row in rows] == [str(t) for t in range(20)]
    assert len({row.split(",", 1)[1] for row in rows}) == 1


def test_cli_one_atom_chain_leaving_its_bounds_exits_3(tmp_path, capsys, monkeypatch):
    # x' = 0.375 - x / 2 contracts to 0.25, but its first step from 1 is -0.125
    def reflecting_map():
        gen = deterministic_map_generator(
            governing_map=lambda x, theta: 0.375 - 0.5 * x, lip_x=0.5,
            label_map=identity_label(), metric=MetricSpec(1, 1, 2.0),
            x_bound=BoxBound([0.0], [1.0]), y_bound=BoxBound([0.0], [1.0]),
            z0=ZPoint(1.0, 1.0), fixed_point=ZPoint(0.25, 0.25), name="reflecting_map",
        )
        return presets._finish("reflecting_map", gen, load_preset("halving_map").cls)

    monkeypatch.setitem(presets._REGISTRY, "reflecting_map", reflecting_map)
    cfg = write_config(tmp_path, "l1.json", {
        "preset": "reflecting_map", "n": 10, "epsilon": 0.2, "trials": 6,
        "out_dir": str(tmp_path / "l1"),
    })
    assert main(["validate", "lemma1", "--config", cfg]) == 3
    assert "escaped the declared bounds at state (x=[-0.125], y=[-0.125])" in \
        capsys.readouterr().err


def test_cli_halving_map_takes_the_fixed_point_complexity(tmp_path):
    # the invariant law is the point mass at z*, so the population complexity
    # is exact, and the coverage radius re-derives from it with no se term
    tol, n, epsilon, w_bar = 1e-3, 200, 0.1, 1.0
    base = {"preset": "halving_map", "n": n, "epsilon": epsilon, "trials": 10,
            "tol": tol, "w_bar": w_bar, "seed": 5}
    cov = write_config(tmp_path, "cov.json", {**base, "out_dir": str(tmp_path / "cov")})
    lemma2 = write_config(tmp_path, "l2.json", {**base, "out_dir": str(tmp_path / "l2")})
    assert main(["coverage", "--config", cov]) == 0
    assert main(["validate", "lemma2", "--config", lemma2]) == 0
    for path in (tmp_path / "cov" / "coverage_summary.json",
                 tmp_path / "l2" / "validate_lemma2_summary.json"):
        ingredients = read_summary(str(path))["ingredients"]
        assert ingredients["rademacher_method"] == "exact_fixed_point"
        assert ingredients["rademacher_se"] == 0.0
    ing = read_summary(str(tmp_path / "cov" / "coverage_summary.json"))["ingredients"]
    ell_H, ell_F = ing["ell_H"], ing["ell_F"]
    burn_in = max(1, math.ceil(math.log(tol) / math.log(ell_F)))
    radius = (4.0 * (ing["rademacher"] + ell_H * ell_F**burn_in)
              + 2.0 * ell_H * ell_F**n * w_bar + 4.0 * epsilon)
    assert ing["radius_population"] == radius


def test_cli_exit_codes(tmp_path):
    bad_preset = write_config(tmp_path, "bad1.json", {"preset": "mystery", "n": 10})
    assert main(["simulate", "--config", bad_preset]) == 2

    unknown_key = tmp_path / "bad2.json"
    unknown_key.write_text('{"presett": "iid_two"}')
    assert main(["simulate", "--config", str(unknown_key)]) == 2

    assert main(["simulate"]) == 2  # --config missing
    assert main(["simulate", "--config", bad_preset, "--out", bad_preset]) == 2  # a file
    assert main(["rademacher", str(tmp_path / "missing.csv")]) == 2

    expanding = write_config(tmp_path, "bad3.json", {
        "generator": {"kind": "affine_ifs", "mats": [[[1.2]]], "vecs": [[0.0]],
                      "attractor_radius": 0.5, "z0_x": [0.0]},
        "class": {"kind": "finite_list",
                  "members": [{"kind": "constant", "value": [0.0]}]},
        "loss": {"kind": "abs_clipped", "clip": 1.0},
        "n": 10, "out_dir": str(tmp_path / "never"),
    })
    assert main(["simulate", "--config", expanding]) == 3

    # w_bar = 0 declares a stationary start, but the chain starts 0.5 from its
    # fixed point and contracts by 0.9 a step, so lemma 2's bound is false
    failing = write_config(tmp_path, "fail.json", {
        "generator": {"kind": "affine_ifs", "mats": [[[0.9]]], "vecs": [[0.0]],
                      "attractor_radius": 0.5, "z0_x": [0.5]},
        "class": {"kind": "finite_list",
                  "members": [{"kind": "constant", "value": [0.0]}]},
        "loss": {"kind": "abs_clipped", "clip": 1.0},
        "n": 8, "trials": 4, "rad_outer": 4, "w_bar": 0.0,
        "out_dir": str(tmp_path / "fail_run"),
    })
    assert main(["validate", "lemma2", "--config", failing]) == 4
    summary = read_summary(str(tmp_path / "fail_run" / "validate_lemma2_summary.json"))
    assert summary["verdicts"] == {"lemma2": "FAIL"}


def test_cli_lemma2_bounds_a_one_member_class_by_the_symmetrized_form(tmp_path, capsys):
    # the two-sided deviation of a one-member class is positive while its plain
    # complexity is exactly 0; symmetrization bounds it by twice the symmetrized one
    cfg = write_config(tmp_path, "l2.json", {
        "preset": "iid_singleton", "n": 40, "epsilon": 0.1, "trials": 10, "rad_outer": 4,
        "seed": 6, "out_dir": str(tmp_path / "run"),
    })
    assert main(["validate", "lemma2", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("lemma2: PASS (statistic=0.025, ")
    summary = read_summary(str(tmp_path / "run" / "validate_lemma2_summary.json"))
    ingredients = summary["ingredients"]
    assert ingredients["rademacher"] == 0.0 and ingredients["wasserstein_term"] == 0.0
    assert summary["bound"] == 2.0 * ingredients["rademacher_symmetrized"]
    assert summary["statistic"] > 0.0 and summary["verdicts"] == {"lemma2": "PASS"}


@pytest.mark.parametrize("epsilon", [0, 1.5])
def test_cli_coverage_rejects_bad_slack_before_set_up(tmp_path, capsys, monkeypatch, epsilon):
    def never(*args, **kwargs):
        raise AssertionError("true-risk set-up ran before the slack check")

    monkeypatch.setattr("chaincert.certificates.true_risk_table", never)
    cfg = write_config(tmp_path, "eps.json", {
        "preset": "halving_map", "n": 200, "epsilon": epsilon, "trials": 200,
        "out_dir": str(tmp_path / "never"),
    })
    assert main(["coverage", "--config", cfg]) == 2
    err = capsys.readouterr().err
    # 1.5 is already out of the config's range; 0 passes the config and is
    # rejected by the certificate's own check, before any set-up
    assert "epsilon must lie in" in err and "Traceback" not in err


def _clip_config(clip):
    return dict(blocks_config(), loss={"kind": "abs_clipped", "clip": clip}, epsilon=0.1)


@pytest.mark.parametrize("name", ["lemma1", "lemma3", "coverage"])
def test_cli_validators_name_a_tail_out_of_float_range(tmp_path, capsys, name):
    # a loss clip of 1e200 makes ell_H, and so C, 1e200: C^2 overflows
    cfg = write_config(tmp_path, "clip.json", _clip_config(1e200))
    out = tmp_path / "never"
    assert main(["validate", name, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: the tail at n = 16 has no float value: C = ell_H / (1 - ell_F)"
                          " = 1e+200 / (1 - 0.0) = 1e+200")
    assert not out.exists()


def test_cli_validators_name_a_delta_whose_slack_leaves_the_unit_interval(tmp_path, capsys):
    # validate converts delta and checks the slack as certify does: the
    # message names delta, the value the user gave, not epsilon
    cfg = write_config(tmp_path, "delta.json",
                       {"preset": "affine_triangle", "n": 4, "delta": 0.05, "trials": 4})
    for argv in (["validate", "lemma1", "--config", cfg],
                 ["certify", "--form", "empirical", "--rademacher", "0.1", "--ell-h", "2",
                  "--ell-f", "0.5", "--n", "4", "--delta", "0.05"]):
        assert main(argv + ["--out", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta 0.05 at n = 4 gives slack ") and err.count("\n") == 1
        assert err.endswith(", not in (0, 1)\n")
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("flags, window", [([], [20, 40]), (["--window", "paper-literal"], [0, 40])])
def test_cli_erm_without_n_takes_its_window_from_the_trajectory(tmp_path, capsys, flags, window):
    # the config has no n: the delayed window is the second half of the
    # trajectory's 40 rows, and the paper-literal one all of them
    cfg = write_config(tmp_path, "c.json", {"preset": "halving_map"})
    assert main(["simulate", "--config", cfg, "--n", "40", "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    assert main(["erm", str(tmp_path / "sim" / "trajectory.csv"), "--config", cfg, *flags]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == window


def test_cli_lemma2_runs_on_a_squared_loss(tmp_path, capsys):
    # loss_lip = 2 * diameter = 2, so ell_H = max(1, 2 * max(sup_lip 1, 1) * kappa 2) = 4
    cfg = write_config(tmp_path, "sq.json", dict(
        blocks_config(), loss={"kind": "squared_clipped", "clip": 1.0, "domain_diameter": 1.0},
        rad_outer=4, out_dir=str(tmp_path / "run")))
    assert main(["validate", "lemma2", "--config", cfg]) in (0, 4)
    assert "Traceback" not in capsys.readouterr().err
    summary = read_summary(str(tmp_path / "run" / "validate_lemma2_summary.json"))
    assert summary["ingredients"]["ell_H"] == 4.0 and summary["trials"] == 4


def test_cli_rejects_removed_workers_key_and_flag(tmp_path, capsys):
    good = {"preset": "halving_map", "n": 8, "epsilon": 0.1, "trials": 2,
            "out_dir": str(tmp_path / "never")}
    with_key = write_config(tmp_path, "workers.json", dict(good, workers=2))
    assert main(["coverage", "--config", with_key]) == 2
    assert "unknown key" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--config", write_config(tmp_path, "good.json", good),
              "--workers", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("draws", [2, 5])
def test_cli_draw_count_rule_in_every_place(tmp_path, capsys, draws):
    good = {"preset": "halving_map", "n": 8, "epsilon": 0.1, "trials": 2,
            "out_dir": str(tmp_path / "never")}
    matrix = tmp_path / "loss.csv"
    matrix.write_text("0.0,1.0\n1.0,0.0\n")
    runs = (
        ["coverage", "--config", write_config(tmp_path, "draws.json", dict(good, draws=draws))],
        ["coverage", "--config", write_config(tmp_path, "good.json", good),
         "--draws", str(draws)],
        ["rademacher", str(matrix), "--draws", str(draws)],
    )
    for argv in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be an even integer >= 4" in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()
    assert main(["rademacher", str(matrix), "--draws", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "mc" and payload["draws"] == 4
    assert payload["se_symmetrized"] >= 0.0


def test_cli_simulate_then_erm(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "preset": "halving_map", "n": 32, "epsilon": 0.05,
        "out_dir": str(tmp_path / "sim"),
    })
    assert main(["simulate", "--config", cfg]) == 0
    traj_path = tmp_path / "sim" / "trajectory.csv"
    lines = traj_path.read_text().splitlines()
    assert lines[0] == "step,x_0,y_0" and len(lines) == 33
    capsys.readouterr()

    assert main(["erm", str(traj_path), "--config", cfg, "--n", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window"] == [16, 32]
    assert payload["hypothesis_id"] == "ident"
    assert payload["achieved_gap"] <= 0.05 + 1e-15

    assert main(["erm", str(traj_path), "--config", cfg]) == 2  # needs 2n=64 rows

    # without epsilon the learner is exact; delta converts through the tail bound
    bundle = load_preset("halving_map")
    inverted = invert_epsilon(0.05, 16, bundle.env.ell_H, analytic_lip_factor(bundle.gen))
    for extra, epsilon in (({}, 0.0), ({"delta": 0.05}, inverted)):
        path = write_config(tmp_path, "erm.json", dict({"preset": "halving_map"}, **extra))
        assert main(["erm", str(traj_path), "--config", path, "--n", "16"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == epsilon


def test_cli_validate_lemma1_passes(tmp_path):
    cfg = write_config(tmp_path, "l1.json", {
        "preset": "iid_two", "n": 40, "epsilon": 0.15, "trials": 24,
        "out_dir": str(tmp_path / "l1"),
    })
    assert main(["validate", "lemma1", "--config", cfg]) == 0
    rows = (tmp_path / "l1" / "validate_lemma1_trials.csv").read_text().splitlines()
    assert rows[0] == "trial,phi,exceeded"
    assert len(rows) == 25
    # the spot check of the loss scale that ran first is reported
    loaded = load_config(cfg)
    bundle = build_bundle(loaded)
    a2 = verify_a2(bundle.env, bundle.cls, bundle.gen, num_pairs=64, chain_len=12,
                   seed=derive_stream(SeedSpec(loaded.seed), 97))
    summary = read_summary(str(tmp_path / "l1" / "validate_lemma1_summary.json"))
    assert (summary["a2_max_ratio"], summary["a2_pairs_checked"]) == (a2.max_ratio,
                                                                      a2.pairs_checked)
    assert summary["a2_pairs_checked"] > 0


def test_cli_certify_worked_values(tmp_path, capsys):
    assert main(["certify", "--form", "population", "--rademacher", "0.05",
                 "--ell-h", "1.0", "--ell-f", "0.5", "--n", "2000",
                 "--epsilon", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == pytest.approx(0.6, abs=1e-12)
    assert payload["confidence"] == pytest.approx(1 - 2 * math.exp(-10), abs=1e-15)
    assert payload["vacuous"] is False
    # 1 - 2 exp(-2 eps^2 n (1 - ell_F)^2 / ell_H^2) < 0 at n = 10: confidence 0
    assert main(["certify", "--form", "population", "--rademacher", "0.05",
                 "--ell-h", "1.0", "--ell-f", "0.5", "--n", "10",
                 "--epsilon", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["confidence"], payload["vacuous"]) == (0.0, True)

    assert main(["certify", "--form", "empirical", "--rademacher", "0.25",
                 "--ell-h", "1.0", "--ell-f", "0.5", "--n", "2000",
                 "--epsilon", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == pytest.approx(1.3, abs=1e-12)

    # expected contraction at one is a modelling violation, not a bad flag
    assert main(["certify", "--form", "population", "--rademacher", "0.1",
                 "--ell-h", "1.0", "--ell-f", "1.0", "--n", "100",
                 "--epsilon", "0.1"]) == 3


def test_cli_nonfinite_payload_is_invalid_input(tmp_path, capsys):
    # the certificate's terms overflow to infinity, which strict JSON cannot hold
    argv = ["certify", "--form", "population", "--rademacher", "1e308", "--ell-h", "1e308",
            "--ell-f", "0.5", "--n", "10", "--epsilon", "0.1"]
    out = tmp_path / "cert"
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "'radius'" in captured.err
    assert not out.exists()


_EMPIRICAL = ["--form", "empirical", "--rademacher", "0.1", "--ell-h", "1", "--n", "10"]


@pytest.mark.parametrize("argv, named", [
    # 2 / delta overflows, so the slack is infinite
    (_EMPIRICAL + ["--ell-f", "0.5", "--delta", "1e-320"],
     "delta 1e-320 at n = 10 gives no finite slack"),
    # C = 1 / (1 - ell_F) is about 9e15, and so is the slack
    (_EMPIRICAL + ["--ell-f", "0.9999999999999999", "--delta", "0.5"],
     "delta 0.5 at n = 10 gives slack 2371387360321642.0, not in (0, 1)"),
    (["--form", "population", "--rademacher", "1e308", "--ell-h", "1e308", "--ell-f", "0.5",
      "--n", "10", "--epsilon", "0.1"], "certificate 'radius' overflows to inf"),
    # C^2 overflows in the tail
    (["--form", "population", "--rademacher", "0.1", "--ell-h", "1e200", "--ell-f", "0.5",
      "--n", "10", "--epsilon", "0.1"],
     "the tail at n = 10 has no float value: C = ell_H / (1 - ell_F) = 1e+200 / (1 - 0.5)"),
    # n past the float range, given a slack or a delta
    (_EMPIRICAL[:-1] + [str(10**400), "--ell-f", "0.5", "--epsilon", "0.1"],
     "sample size of 1329 bits exceeds the float range"),
    (_EMPIRICAL[:-1] + [str(10**400), "--ell-f", "0.5", "--delta", "0.1"],
     "sample size of 1329 bits exceeds the float range"),
])
def test_cli_certify_names_the_input_at_fault(tmp_path, capsys, argv, named):
    out = tmp_path / "cert"
    assert main(["certify", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert not out.exists()


@pytest.mark.parametrize("w_bar", ["7", "0.5", "-1"])
def test_cli_certify_empirical_rejects_w_bar(tmp_path, capsys, w_bar):
    # the empirical form has no start-dependence term, so --w-bar is refused
    # as validate refuses a flag its validator does not read
    out = tmp_path / "cert"
    assert main(["certify", "--form", "empirical", "--rademacher", "0.25", "--ell-h", "1.0",
                 "--ell-f", "0.5", "--n", "2000", "--epsilon", "0.05", "--w-bar", w_bar,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: certify --form empirical does not read --w-bar\n"
    assert not out.exists()
    # the population form reads it, and takes 1 without it
    argv = ["certify", "--form", "population", "--rademacher", "0.05", "--ell-h", "1.0",
            "--ell-f", "0.5", "--n", "2000", "--epsilon", "0.1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ingredients"]["w_bar"] == 1.0
    assert main(argv + ["--w-bar", w_bar]) == (0 if w_bar == "0.5" else 2)


def test_cli_certify_delta_route(tmp_path, capsys):
    assert main(["certify", "--form", "population", "--rademacher", "0.0",
                 "--ell-h", "0.5", "--ell-f", "0.5", "--n", "1000",
                 "--delta", "0.05", "--w-bar", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confidence"] == pytest.approx(0.95, abs=1e-12)
    assert payload["ingredients"]["epsilon"] == pytest.approx(
        math.sqrt(math.log(40.0) / 2000.0), abs=1e-15)


# The keys each command writes; perfbench/checks.py and users' scripts read
# them, so a field renamed in a record must fail here rather than rename a key.
_RADEMACHER_KEYS = {"value", "se", "draws", "method", "value_symmetrized", "se_symmetrized",
                    "class_size", "n", "ell_H"}
_ERM_KEYS = {"hypothesis_id", "hypothesis_index", "empirical_risk", "min_risk", "achieved_gap",
             "epsilon", "tie_break", "window", "risk_table"}
_CERTIFY_KEYS = {"form", "radius", "confidence", "vacuous", "ingredients"}
_CERTIFY_INGREDIENTS = {"rademacher_term", "wasserstein_term", "epsilon_term",
                        "rademacher_input", "ell_H", "ell_F", "w_bar", "n", "epsilon", "delta"}
_VALIDATE_KEYS = {"name", "passed", "verdicts", "statistic", "bound", "margin", "comparison",
                  "radius", "confidence", "coverage", "trials", "seed", "a2_max_ratio",
                  "a2_pairs_checked", "ingredients"}
_ADDED_KEYS = {"kind", "software_version", "created_at"}


def test_cli_json_documents_keep_their_keys(tmp_path, capsys):
    matrix = tmp_path / "loss.csv"
    matrix.write_text("0.0,1.0,0.5\n1.0,0.0,0.25\n")
    cfg = write_config(tmp_path, "cfg.json", {
        "preset": "iid_two", "n": 8, "epsilon": 0.2, "trials": 4, "rad_outer": 2,
        "out_dir": str(tmp_path / "runs")})
    assert main(["simulate", "--config", cfg, "--n", "16"]) == 0
    capsys.readouterr()
    certify = ["certify", "--rademacher", "0.05", "--ell-h", "1.0", "--ell-f", "0.5",
               "--n", "2000"]
    commands = [
        ("rademacher", ["rademacher", str(matrix)], _RADEMACHER_KEYS, False),
        ("rademacher", ["rademacher", str(matrix), "--draws", "8"], _RADEMACHER_KEYS, False),
        ("erm", ["erm", str(tmp_path / "runs" / "trajectory.csv"), "--config", cfg],
         _ERM_KEYS, True),
        ("certify", certify + ["--form", "population", "--epsilon", "0.1"], _CERTIFY_KEYS, False),
        ("certify", certify + ["--form", "empirical", "--delta", "0.1"], _CERTIFY_KEYS, False),
    ]
    for k, (command, argv, keys, has_config) in enumerate(commands):
        out = tmp_path / f"out{k}"
        assert main(argv + ["--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = read_summary(str(out / f"{command}_summary.json"))
        assert set(printed) == keys
        assert set(written) == keys | _ADDED_KEYS | ({"config_sha256"} if has_config else set())
        if command == "certify":
            assert set(printed["ingredients"]) == set(written["ingredients"]) \
                == _CERTIFY_INGREDIENTS

    for name in ("lemma1", "lemma2", "lemma3", "coverage"):
        assert main(["validate", name, "--config", cfg]) == 0
        capsys.readouterr()
        summary = read_summary(str(tmp_path / "runs" / f"validate_{name}_summary.json"))
        assert set(summary) == _VALIDATE_KEYS | _ADDED_KEYS | {"config_sha256"}


def test_cli_wasserstein_and_rademacher(tmp_path, capsys):
    mu = tmp_path / "mu.csv"
    mu.write_text("x_0,y_0\n0.0,0.0\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("x_0,y_0\n1.0,1.0\n")
    assert main(["wasserstein", str(mu), str(nu), "--kappa", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cost"] == pytest.approx(1.0, abs=1e-12)
    assert payload["plan"] == [[0, 0, 1.0]]

    matrix = tmp_path / "loss.csv"
    matrix.write_text("0.0,1.0\n1.0,0.0\n")
    assert main(["rademacher", str(matrix)]) == 0  # two states: enumerated
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.25, abs=0)
    assert payload["method"] == "exact"
    with pytest.raises(SystemExit) as exc:  # removed flag
        main(["rademacher", str(matrix), "--exact"])
    assert exc.value.code == 2


@pytest.mark.parametrize("sizes", [(5, 10), (3, 7)])  # assignment and LP routes
def test_cli_wasserstein_stdout_is_its_summary_without_the_added_fields(tmp_path, capsys,
                                                                        sizes):
    rng = np.random.default_rng(4)
    files = []
    for k, count in enumerate(sizes):
        files.append(str(tmp_path / f"atoms_{k}.csv"))
        write_rows_csv(["x_0", "x_1", "y_0"], rng.random((count, 3)).tolist(), files[-1])
    assert main(["wasserstein", *files, "--kappa", "4.0", "--out", str(tmp_path / "w")]) == 0
    stdout = capsys.readouterr().out
    text = (tmp_path / "w" / "wasserstein_summary.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert len(summary["plan"]) > 1
    for key in ("kind", "software_version", "created_at"):
        summary.pop(key)
    assert stdout == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_cli_rademacher_enumerates_repeated_columns(tmp_path, capsys):
    # 4 x 20,000 with every column equal: 20,001 points of the one group's
    # sum, not 2^20,000 sign vectors, whose count json could not even write
    n = 20_000
    matrix = tmp_path / "repeated.csv"
    matrix.write_text("\n".join(",".join([v] * n) for v in ("0.1", "0.6", "0.3", "0.0")) + "\n")
    assert main(["rademacher", str(matrix)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["method"], payload["se"], payload["draws"]) == ("exact", 0.0, n + 1)
    mean_abs = n * math.comb(n - 1, (n - 1) // 2) / 2 ** (n - 1)  # E|sum of n signs|
    assert payload["value"] == pytest.approx(0.6 * mean_abs / (2 * n), rel=1e-12)
    assert main(["rademacher", str(matrix), "--draws", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["method"], payload["draws"]) == ("mc", 64)


def test_cli_rademacher_groups_repeated_columns_at_short_windows(tmp_path, capsys):
    # 2 x 20 with three distinct columns: the grid of their group sums, not
    # the 2^20 sign vectors, and the same value
    rng = np.random.default_rng(20)
    values = rng.random((2, 3))[:, rng.integers(0, 3, 20)]
    matrix = tmp_path / "short.csv"
    matrix.write_text("\n".join(",".join(map(repr, row)) for row in values.tolist()) + "\n")
    assert main(["rademacher", str(matrix)]) == 0
    payload = json.loads(capsys.readouterr().out)
    counts = np.unique(values, axis=1, return_counts=True)[1]
    assert counts.size == 3
    assert (payload["method"], payload["draws"]) == ("exact", math.prod(int(m) + 1 for m in counts))
    plain = rademacher_exact(LossMatrix(values, payload["ell_H"]))
    assert payload["value"] == pytest.approx(plain.value, rel=2e-15, abs=0)


AFFINE_1D = {"kind": "affine_ifs", "mats": [[[0.5]]], "vecs": [[0.25]],
             "attractor_radius": 0.5, "z0_x": [0.0]}


@pytest.mark.parametrize("generator, member", [
    # a start state of the wrong dimension, read by a 1-d label
    (dict(AFFINE_1D, z0_x=[0.0, 0.0], label={"kind": "linear", "weight": [[0.5]],
                                             "bias": [0.0]}),
     {"kind": "constant", "value": [0.0]}),
    # a label with two coordinates, against a member predicting one
    (dict(AFFINE_1D, label={"kind": "linear", "weight": [[0.5], [0.5]], "bias": [0.0, 0.0]}),
     {"kind": "constant", "value": [0.0]}),
    # label weights that do not read the 1-d state
    (dict(AFFINE_1D, label={"kind": "linear", "weight": [[0.5, 0.5]], "bias": [0.0]}),
     {"kind": "constant", "value": [0.0]}),
    (dict(AFFINE_1D, label={"kind": "linear", "weight": [[0.5]], "bias": [0.0, 0.0]}),
     {"kind": "constant", "value": [0.0]}),
    # hypotheses that do not map the 1-d state to the 1-d label
    (AFFINE_1D, {"kind": "constant", "value": [0.0, 0.0]}),
    (AFFINE_1D, {"kind": "linear", "weight": [[1.0]], "bias": [0.0, 0.0]}),
    (AFFINE_1D, {"kind": "linear", "weight": [[1.0, 1.0]], "bias": [0.0]}),
    (AFFINE_1D, {"kind": "tabulated", "table_x": [[0.0, 0.0]], "table_y": [[0.0]],
                 "lip": 1.0}),
])
def test_cli_rejects_mismatched_dimensions(tmp_path, generator, member):
    cfg = write_config(tmp_path, "dims.json", {
        "generator": generator, "class": {"kind": "finite_list", "members": [member]},
        "loss": {"kind": "abs_clipped", "clip": 1.0}, "n": 8, "epsilon": 0.1, "trials": 2,
        "out_dir": str(tmp_path / "never"),
    })
    assert main(["validate", "lemma1", "--config", cfg]) == 2


def test_cli_rejects_understated_tabulated_label(tmp_path, capsys):
    # a nearest-row label jumps at cell boundaries, so no lip bounds it unless
    # every label row is equal: the kind is gone and every lip exits 2
    label = {"kind": "tabulated", "table_x": [[0.0], [0.5]], "table_y": [[0.0], [0.5]]}
    for lip in (0.01, 1.0):
        cfg = write_config(tmp_path, "label.json", {
            "generator": dict(AFFINE_1D, label=dict(label, lip=lip)),
            "class": {"kind": "finite_list", "members": [{"kind": "constant", "value": [0.0]}]},
            "loss": {"kind": "abs_clipped", "clip": 1.0}, "n": 8,
            "out_dir": str(tmp_path / f"lip_{lip}"),
        })
        assert main(["simulate", "--config", cfg]) == 2
        assert "must be one of ['identity', 'linear']" in capsys.readouterr().err
        assert not (tmp_path / f"lip_{lip}").exists()
    # a two-map system that jumps between its label rows declared a factor of
    # 0.333 while the contraction probe measured 4.83; a block handed to
    # build_generator unparsed is rejected the same way
    with pytest.raises(InvalidInputError, match="identity"):
        build_generator({"kind": "affine_ifs", "mats": [[[0.5]], [[0.5]]],
                         "vecs": [[0.25], [-0.25]], "attractor_radius": 0.5, "z0_x": [0.0],
                         "label": dict(label, table_x=[[-0.5], [0.5]],
                                       table_y=[[-0.5], [0.5]], lip=1.0)})


@pytest.mark.parametrize("where, message", [
    ("member", "linear hypothesis needs a 2-d weight matrix"),
    ("label", "linear label needs a 2-d weight matrix"),
])
def test_cli_rejects_a_weight_of_depth_one(tmp_path, capsys, where, message):
    # the depth check reads a flat weight as a one-column matrix; the
    # constructors see the JSON value as written and reject it
    generator, member = dict(AFFINE_1D), {"kind": "linear", "weight": [[1.0]], "bias": [0.0]}
    if where == "member":
        member["weight"] = [1.0]
    else:
        generator["label"] = {"kind": "linear", "weight": [0.5], "bias": [0.0]}
    cfg = write_config(tmp_path, "flat.json", {
        "generator": generator, "class": {"kind": "finite_list", "members": [member]},
        "loss": {"kind": "abs_clipped", "clip": 1.0}, "n": 8,
        "out_dir": str(tmp_path / "never"),
    })
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "never").exists()


def test_cli_flat_tabulated_table_is_a_column(tmp_path):
    cfg = write_config(tmp_path, "flat.json", {
        "generator": AFFINE_1D,
        "class": {"kind": "finite_list", "members": [
            {"kind": "tabulated", "table_x": [0.0, 1.0], "table_y": [0.0, 0.5], "lip": 1.0}]},
        "loss": {"kind": "abs_clipped", "clip": 1.0}, "n": 8, "epsilon": 0.1, "trials": 2,
        "out_dir": str(tmp_path / "flat"),
    })
    assert main(["validate", "lemma1", "--config", cfg]) == 0


def test_cli_rejects_a_tabulated_member_with_two_label_columns(tmp_path, capsys):
    generator = dict(AFFINE_1D, label={"kind": "linear", "weight": [[0.5], [0.5]],
                                       "bias": [0.0, 0.0]})
    cfg = write_config(tmp_path, "wide.json", {
        "generator": generator,
        "class": {"kind": "finite_list", "members": [
            {"kind": "tabulated", "table_x": [[0.0], [1.0]],
             "table_y": [[0.0, 0.0], [0.5, 0.5]], "lip": 1.0}]},
        "loss": {"kind": "abs_clipped", "clip": 1.0}, "n": 8,
        "out_dir": str(tmp_path / "never"),
    })
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: tabulated hypothesis predicts one label column; table_y has 2\n")
    assert not (tmp_path / "never").exists()


def test_cli_closed_stdout_still_writes_summary(tmp_path, capsys, monkeypatch):
    # ``chaincert ... | head -c 80``: the reader closes the pipe before the
    # payload is written
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    mu = tmp_path / "mu.csv"
    mu.write_text("x_0,y_0\n0.0,0.0\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("x_0,y_0\n1.0,1.0\n")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["wasserstein", str(mu), str(nu), "--kappa", "2.0",
                 "--out", str(tmp_path / "w")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = read_summary(str(tmp_path / "w" / "wasserstein_summary.json"))
    assert summary["cost"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name, flag, value", [
    ("lemma1", "--draws", "64"), ("lemma1", "--window", "delayed"),
    ("lemma2", "--epsilon", "0.1"), ("lemma2", "--delta", "0.05"),
    ("lemma2", "--window", "paper-literal"), ("lemma3", "--window", "delayed"),
])
def test_cli_validate_rejects_a_flag_its_validator_does_not_read(tmp_path, capsys,
                                                                 name, flag, value):
    cfg = write_config(tmp_path, "good.json", {
        "preset": "halving_map", "n": 8, "epsilon": 0.1, "trials": 2,
        "out_dir": str(tmp_path / "never")})
    assert main(["validate", name, "--config", cfg, flag, value]) == 2
    assert capsys.readouterr().err == f"error: validate {name} does not read {flag}\n"
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("name, flags", [
    ("lemma1", {"seed": 3, "n": 8, "trials": 2, "epsilon": 0.2}),
    ("lemma1", {"n": 64, "delta": 0.5}),
    ("lemma2", {"seed": 3, "n": 8, "trials": 2, "draws": 64}),
    ("lemma3", {"seed": 3, "n": 64, "trials": 2, "delta": 0.5, "draws": 64}),
    ("coverage", {"seed": 3, "trials": 2, "epsilon": 0.2, "draws": 64,
                  "window": "paper-literal"}),
])
def test_cli_validate_folds_the_flags_it_reads_into_the_digest(tmp_path, name, flags):
    # a flag the validator reads gives the digest of a config holding its value
    base = {"preset": "halving_map", "n": 8, "epsilon": 0.1, "trials": 2, "rad_outer": 2,
            "out_dir": str(tmp_path / "run")}
    argv = ["validate", name, "--config", write_config(tmp_path, "base.json", base)]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    assert main(argv) in (0, 4)
    fields = {{"window": "window_mode"}.get(k, k): v for k, v in flags.items()}
    fields["window_mode"] = fields.get("window_mode", "delayed").replace("-", "_")
    if "delta" in fields:
        base.pop("epsilon")
    folded = load_config(write_config(tmp_path, "folded.json", {**base, **fields}))
    summary = read_summary(str(tmp_path / "run" / f"validate_{name}_summary.json"))
    assert summary["config_sha256"] == config_digest(folded)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_JSON_NUMBERS, _JSON_NUMBERS, _JSON_NUMBERS), min_size=1,
                     max_size=8).map(tuple))
def test_rows_csv_number_tables_match_cell_by_cell_writes(tmp_path_factory, rows):
    # a tuple of tuples of ints and floats, as a validator's trial table, is
    # written by json's encoder in one call, with the text of ``_cell``
    assert _is_number_rows(rows) and _is_number_rows(list(rows))
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_rows_csv(("a", "b", "c"), rows, str(path))
    lines = ["a,b,c"] + [",".join(csv_cell(v) for v in r) for r in rows]
    assert path.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [
    ((0, float("nan")), (1, 0.5)),
    ((0, float("inf")), (1, -float("inf"))),
    [(0, np.float64("nan")), (1, np.float64(0.25))],
])
def test_rows_csv_tables_json_refuses_keep_the_row_path(tmp_path, rows, monkeypatch):
    # NaN and the infinities, which strict JSON refuses, take the one encode
    # of every other table and still write as float.__repr__ does
    calls = _count_encodes(monkeypatch)
    path = tmp_path / "rows.csv"
    write_rows_csv(("a", "b"), rows, str(path))
    lines = ["a,b"] + [",".join(csv_cell(v) for v in r) for r in rows]
    assert path.read_text() == "\n".join(lines) + "\n"
    assert len(calls) == 1


def test_rows_csv_tables_of_arrays_write_as_lists_of_their_rows(tmp_path):
    # a 2-d array, a list of array rows or a generator of them is written as
    # the list of its rows; an integer array's np.int64 cells are refused,
    # and an empty table writes its header alone
    table = np.array([[0.5, -0.0], [np.nan, -np.inf]])
    for rows in (table, list(table), (row for row in table)):
        write_rows_csv(("a", "b"), rows, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_text() == "a,b\n0.5,-0.0\nnan,-inf\n"
    write_rows_csv(("a", "b"), [], str(tmp_path / "t.csv"))
    assert (tmp_path / "t.csv").read_text() == "a,b\n"
    with pytest.raises(InvalidInputError, match="unsupported CSV cell type int64"):
        write_rows_csv(("a", "b"), np.array([[1, 2]]), str(tmp_path / "bad.csv"))
    assert not (tmp_path / "bad.csv").exists()


def test_rows_csv_number_table_takes_one_encode(tmp_path, monkeypatch):
    calls = _count_encodes(monkeypatch)
    write_rows_csv(("trial", "phi"), ((0, 0.5), (1, 2.5e-3)), str(tmp_path / "rows.csv"))
    assert (tmp_path / "rows.csv").read_text() == "trial,phi\n0,0.5\n1,0.0025\n"
    assert len(calls) == 1
    # a row of the wrong width still fails before the file is written
    monkeypatch.undo()
    with pytest.raises(InvalidInputError, match="row width"):
        write_rows_csv(("trial", "phi"), ((0, 0.5), (1,)), str(tmp_path / "bad.csv"))
    assert not (tmp_path / "bad.csv").exists()
