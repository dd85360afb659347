import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincert.certificates import invert_epsilon
from chaincert.cli import main
from chaincert.config import (
    ExperimentConfig,
    build_bundle,
    canonical_dict,
    canonical_json,
    config_digest,
    load_config,
    merge_overrides,
    parse_config,
)
from chaincert.errors import AssumptionViolationError, InvalidInputError
from chaincert.generators import analytic_lip_factor, sample_chain
from chaincert.metric import SeedSpec
from chaincert.presets import load_preset
from chaincert.reporting import (
    ResultBundle,
    comparable_summary,
    emit_plot_data,
    read_atoms_csv,
    read_loss_matrix_csv,
    read_summary,
    read_trajectory_csv,
    write_rows_csv,
    write_summary,
    write_trajectory_csv,
)


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
                         "seed": 7, "workers": 3, "w_bar": 0.5})
    assert cfg2.preset == "iid_four" and cfg2.workers == 3
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
    traj = sample_chain(bundle.gen, None, 32, SeedSpec(1))
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


# -- reporting -------------------------------------------------------------------


def test_rows_csv_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(("trial", "value", "flag"), ((0, 0.1, 1), (1, 2.5e-3, 0)), str(path))
    assert path.read_bytes() == b"trial,value,flag\n0,0.1,1\n1,0.0025,0\n"


def test_trajectory_csv_round_trip(tmp_path):
    cfg = parse_config(blocks_config())
    bundle = build_bundle(cfg)
    traj = sample_chain(bundle.gen, None, 10, SeedSpec(2))
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
    bundle = ResultBundle(kind="validation", summary={"radius": 0.5, "passed": True})
    a = write_summary(bundle, str(tmp_path / "a.json"), "ff" * 32)
    b = write_summary(bundle, str(tmp_path / "b.json"), "ff" * 32)
    assert comparable_summary(a) == comparable_summary(b)
    loaded = read_summary(str(tmp_path / "a.json"))
    assert loaded["radius"] == 0.5 and loaded["config_sha256"] == "ff" * 32
    assert "created_at" in loaded and "software_version" in loaded


def test_emit_plot_data(tmp_path):
    rows = ((0, 0.5), (1, 0.25), (2, 0.125))
    bundle = ResultBundle(kind="contraction_curve", summary={}, row_header=("n", "w1"),
                          rows=rows)
    path = tmp_path / "curve.csv"
    emit_plot_data(bundle, "contraction_curve", str(path))
    assert path.read_text().splitlines() == ["n,w1", "0,0.5", "1,0.25", "2,0.125"]
    empty = ResultBundle(kind="coverage_sweep", summary={})
    emit_plot_data(empty, "coverage_sweep", str(tmp_path / "empty.csv"))
    assert (tmp_path / "empty.csv").read_text() == "n,coverage_pop,coverage_emp,confidence\n"
    with pytest.raises(InvalidInputError):
        emit_plot_data(bundle, "coverage_sweep", str(tmp_path / "x.csv"))
    with pytest.raises(InvalidInputError):
        emit_plot_data(bundle, "histogram", str(tmp_path / "x.csv"))


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

    assert main(["coverage", "--config", cfg, "--out", str(tmp_path / "run2"),
                 "--workers", "3"]) == 0
    csv2 = (tmp_path / "run2" / "coverage_trials.csv").read_bytes()
    assert csv1 == csv2

    s1 = read_summary(str(tmp_path / "run1" / "coverage_summary.json"))
    s2 = read_summary(str(tmp_path / "run2" / "coverage_summary.json"))
    assert s1["coverage"] == 1.0 and s1["verdicts"] == {"coverage": "PASS"}
    assert s1["ingredients"]["rhat_method"] == "mc"  # n = 40 is above the exact cap
    # out_dir and workers differ between the two effective configs
    for s in (s1, s2):
        s.pop("config_sha256")
        s["ingredients"].pop("workers", None)
    a, b = comparable_summary(s1), comparable_summary(s2)
    assert a == b


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

    failing = write_config(tmp_path, "fail.json", {
        "preset": "iid_singleton", "n": 64, "trials": 64,
        "rad_outer": 16, "draws": 2048, "out_dir": str(tmp_path / "fail_run"),
    })
    assert main(["validate", "lemma2", "--config", failing]) == 4
    summary = read_summary(str(tmp_path / "fail_run" / "validate_lemma2_summary.json"))
    assert summary["verdicts"] == {"lemma2": "FAIL"}


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


def test_cli_certify_worked_values(tmp_path, capsys):
    assert main(["certify", "--form", "population", "--rademacher", "0.05",
                 "--ell-h", "1.0", "--ell-f", "0.5", "--n", "2000",
                 "--epsilon", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == pytest.approx(0.6, abs=1e-12)
    assert payload["confidence"] == pytest.approx(1 - 2 * math.exp(-10), abs=1e-15)

    assert main(["certify", "--form", "empirical", "--rademacher", "0.25",
                 "--ell-h", "1.0", "--ell-f", "0.5", "--n", "2000",
                 "--epsilon", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == pytest.approx(1.3, abs=1e-12)

    # expected contraction at one is a modelling violation, not a bad flag
    assert main(["certify", "--form", "population", "--rademacher", "0.1",
                 "--ell-h", "1.0", "--ell-f", "1.0", "--n", "100",
                 "--epsilon", "0.1"]) == 3


def test_cli_certify_delta_route(tmp_path, capsys):
    assert main(["certify", "--form", "population", "--rademacher", "0.0",
                 "--ell-h", "0.5", "--ell-f", "0.5", "--n", "1000",
                 "--delta", "0.05", "--w-bar", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confidence"] == pytest.approx(0.95, abs=1e-12)
    assert payload["ingredients"]["epsilon"] == pytest.approx(
        math.sqrt(math.log(40.0) / 2000.0), abs=1e-15)


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
    assert main(["rademacher", str(matrix), "--exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.25, abs=0)
    assert payload["method"].startswith("exact")


AFFINE_1D = {"kind": "affine_ifs", "mats": [[[0.5]]], "vecs": [[0.25]],
             "attractor_radius": 0.5, "z0_x": [0.0]}


@pytest.mark.parametrize("generator, member", [
    # a start state of the wrong dimension, read by a 1-d label
    (dict(AFFINE_1D, z0_x=[0.0, 0.0], label={"kind": "linear", "weight": [[0.5]],
                                             "bias": [0.0]}),
     {"kind": "constant", "value": [0.0]}),
    # label tables and weights that do not read the 1-d state
    (dict(AFFINE_1D, label={"kind": "tabulated", "table_x": [[0.0, 0.0], [1.0, 1.0]],
                            "table_y": [[0.0], [0.5]], "lip": 1.0}),
     {"kind": "constant", "value": [0.0]}),
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


def test_cli_flat_tabulated_table_is_a_column(tmp_path):
    cfg = write_config(tmp_path, "flat.json", {
        "generator": AFFINE_1D,
        "class": {"kind": "finite_list", "members": [
            {"kind": "tabulated", "table_x": [0.0, 1.0], "table_y": [0.0, 0.5], "lip": 1.0}]},
        "loss": {"kind": "abs_clipped", "clip": 1.0}, "n": 8, "epsilon": 0.1, "trials": 2,
        "out_dir": str(tmp_path / "flat"),
    })
    assert main(["validate", "lemma1", "--config", cfg]) == 0


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
