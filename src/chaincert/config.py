"""Experiment configuration: strict JSON in, canonical JSON and digest out.

A config file is one JSON object. Unknown keys are rejected everywhere, at the
top level and inside every block, so typos fail loudly instead of silently
running defaults. The canonical serialization (sorted keys, compact
separators) is what gets hashed into result summaries; parsing the canonical
form reproduces an equal config.

Top-level keys (all optional unless a command needs them):

    preset        name from the preset registry; excludes the three blocks
    generator     {"kind": "iid" | "affine_ifs", ...}
    class         {"kind": "finite_list" | "linear_grid", ...}
    loss          {"kind": "abs_clipped" | "squared_clipped", ...}
    n             window length, int >= 1
    epsilon       optimization slack in [0, 1); exclusive with delta
    delta         tail mass in (0, 1); exclusive with epsilon
    trials        independent repetitions, int >= 2
    seed          master seed, 0 <= seed < 2**64        (default 0)
    window_mode   "delayed" | "paper_literal"           (default "delayed")
    w_bar         start-to-invariant distance cap [0,1] (default 1.0)
    workers       thread count, int >= 1                (default 1)
    tol           burn-in tolerance in (0, 1)           (default 1e-3)
    draws         Monte Carlo sign draws, int >= 2      (default complexity.MC_DRAWS)
    rad_outer     trajectories per complexity average   (default 32)
    tie_break     "lowest_index" | "first_found"        (default "lowest_index")
    out_dir       output directory                      (default "results")

Complexity estimates enumerate every sign vector up to
``complexity.EXACT_N_CAP`` states and draw ``draws`` Monte Carlo sign vectors
above it; no key overrides that choice.

Structural validation happens here; value-level feasibility (contraction
below one, bounds kept invariant) stays with the constructors so that a
config describing an expanding map is rejected as an assumption violation,
not as a malformed file.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .certificates import WINDOW_MODES
from .complexity import MC_DRAWS
from .erm import TIE_RULES
from .errors import InvalidInputError
from .generators import (
    BoxBound,
    Generator,
    LabelMap,
    ZPoint,
    affine_ifs_generator,
    callable_label,
    identity_label,
    iid_generator,
    linear_label,
)
from .hypotheses import (
    HypothesisClass,
    LossEnv,
    constant_hypothesis,
    finalize_env,
    linear_hypothesis,
    make_abs_loss,
    make_squared_loss,
    tabulated_hypothesis,
)
from .metric import MetricSpec, pairwise_dist
from .presets import PresetBundle, load_preset

_BLOCK_KEYS = ("generator", "class", "loss")
_OPTIONAL_KEYS = ("preset", "n", "epsilon", "delta", "trials") + _BLOCK_KEYS
_DEFAULTS = {
    "seed": 0,
    "window_mode": "delayed",
    "w_bar": 1.0,
    "workers": 1,
    "tol": 1e-3,
    "draws": MC_DRAWS,
    "rad_outer": 32,
    "tie_break": "lowest_index",
    "out_dir": "results",
}
_TOP_KEYS = frozenset(_OPTIONAL_KEYS) | frozenset(_DEFAULTS)


@dataclass(frozen=True)
class ExperimentConfig:
    preset: Optional[str] = None
    generator: Optional[dict] = None
    class_block: Optional[dict] = None
    loss: Optional[dict] = None
    n: Optional[int] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    trials: Optional[int] = None
    seed: int = 0
    window_mode: str = "delayed"
    w_bar: float = 1.0
    workers: int = 1
    tol: float = 1e-3
    draws: int = MC_DRAWS
    rad_outer: int = 32
    tie_break: str = "lowest_index"
    out_dir: str = "results"


# -- low-level field checks ------------------------------------------------------


def _check_keys(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise InvalidInputError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _get_str(d: dict, key: str, where: str, choices=None, default=None):
    if key not in d:
        if default is not None:
            return default
        raise InvalidInputError(f"{where} needs a {key!r} string")
    v = d[key]
    if not isinstance(v, str) or not v:
        raise InvalidInputError(f"{where}.{key} must be a non-empty string, got {v!r}")
    if choices is not None and v not in choices:
        raise InvalidInputError(f"{where}.{key} must be one of {list(choices)}, got {v!r}")
    return v


def _get_int(d: dict, key: str, where: str, lo: int, hi: Optional[int] = None, required=True):
    if key not in d:
        if required:
            raise InvalidInputError(f"{where} needs an integer {key!r}")
        return None
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidInputError(f"{where}.{key} must be an integer, got {v!r}")
    if v < lo or (hi is not None and v > hi):
        top = "inf" if hi is None else hi
        raise InvalidInputError(f"{where}.{key} must lie in [{lo}, {top}], got {v!r}")
    return v


def _get_num(d: dict, key: str, where: str, lo: float, hi: float,
             lo_open=False, hi_open=False, required=True):
    if key not in d:
        if required:
            raise InvalidInputError(f"{where} needs a number {key!r}")
        return None
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidInputError(f"{where}.{key} must be a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise InvalidInputError(f"{where}.{key} lies past the float range") from None
    if not np.isfinite(v):
        raise InvalidInputError(f"{where}.{key} must be finite, got {v!r}")
    if (v < lo or (lo_open and v <= lo)) or (v > hi or (hi_open and v >= hi)):
        lb = "(" if lo_open else "["
        rb = ")" if hi_open else "]"
        raise InvalidInputError(f"{where}.{key} must lie in {lb}{lo}, {hi}{rb}, got {v!r}")
    return v


def _get_array(d: dict, key: str, where: str, ndim: int) -> np.ndarray:
    if key not in d:
        raise InvalidInputError(f"{where} needs a numeric array {key!r}")
    try:
        arr = np.asarray(d[key])
    except ValueError:  # ragged nesting
        arr = None
    # strings, booleans and integers past the float range are not numbers here
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{where}.{key} must be a numeric array")
    arr = arr.astype(float)
    if arr.ndim == ndim - 1:
        arr = arr[..., np.newaxis] if ndim == 2 else arr[np.newaxis, ...]
    if arr.ndim != ndim or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InvalidInputError(
            f"{where}.{key} must be a non-empty finite array of depth {ndim}"
        )
    return arr


# -- block structure checks ------------------------------------------------------


def _check_label_block(d: dict, where: str) -> None:
    kind = _get_str(d, "kind", where, choices=("identity", "linear", "tabulated"))
    if kind == "identity":
        _check_keys(d, ("kind",), where)
    elif kind == "linear":
        _check_keys(d, ("kind", "weight", "bias"), where)
        _get_array(d, "weight", where, 2)
        _get_array(d, "bias", where, 1)
    else:
        _check_keys(d, ("kind", "table_x", "table_y", "lip"), where)
        _get_array(d, "table_x", where, 2)
        _get_array(d, "table_y", where, 2)
        _get_num(d, "lip", where, 0.0, float("inf"), hi_open=True)


def _check_generator_block(d: dict) -> None:
    where = "generator"
    kind = _get_str(d, "kind", where, choices=("iid", "affine_ifs"))
    if kind == "iid":
        _check_keys(d, ("kind", "atoms_x", "atoms_y", "weights", "kappa"), where)
        ax = _get_array(d, "atoms_x", where, 2)
        ay = _get_array(d, "atoms_y", where, 2)
        if ax.shape[0] != ay.shape[0]:
            raise InvalidInputError("generator.atoms_x and atoms_y need one row per atom each")
        if "weights" in d:
            w = _get_array(d, "weights", where, 1)
            if w.shape[0] != ax.shape[0]:
                raise InvalidInputError("generator.weights needs one entry per atom")
        _get_num(d, "kappa", where, 0.0, float("inf"), lo_open=True, hi_open=True)
    else:
        _check_keys(
            d, ("kind", "mats", "vecs", "weights", "label", "attractor_radius", "z0_x"), where
        )
        mats = _get_array(d, "mats", where, 3)
        vecs = _get_array(d, "vecs", where, 2)
        if mats.shape[0] != vecs.shape[0]:
            raise InvalidInputError("generator.mats and vecs need one entry per map each")
        if "weights" in d:
            w = _get_array(d, "weights", where, 1)
            if w.shape[0] != mats.shape[0]:
                raise InvalidInputError("generator.weights needs one entry per map")
        _get_num(d, "attractor_radius", where, 0.0, float("inf"), lo_open=True, hi_open=True)
        _get_array(d, "z0_x", where, 1)
        if "label" in d:
            if not isinstance(d["label"], dict):
                raise InvalidInputError("generator.label must be an object")
            _check_label_block(d["label"], "generator.label")


def _check_member(d: dict, where: str) -> None:
    kind = _get_str(d, "kind", where, choices=("constant", "linear", "tabulated"))
    if kind == "constant":
        _check_keys(d, ("kind", "id", "value"), where)
        _get_array(d, "value", where, 1)
    elif kind == "linear":
        _check_keys(d, ("kind", "id", "weight", "bias", "lip"), where)
        _get_array(d, "weight", where, 2)
        _get_array(d, "bias", where, 1)
        if "lip" in d:
            _get_num(d, "lip", where, 0.0, float("inf"), hi_open=True)
    else:
        _check_keys(d, ("kind", "id", "table_x", "table_y", "lip"), where)
        _get_array(d, "table_x", where, 2)
        _get_array(d, "table_y", where, 2)
        _get_num(d, "lip", where, 0.0, float("inf"), hi_open=True)
    if "id" in d:
        _get_str(d, "id", where)


def _check_class_block(d: dict) -> None:
    where = "class"
    kind = _get_str(d, "kind", where, choices=("finite_list", "linear_grid"))
    if kind == "finite_list":
        _check_keys(d, ("kind", "members"), where)
        members = d.get("members")
        if not isinstance(members, list) or not members:
            raise InvalidInputError("class.members must be a non-empty list")
        for i, m in enumerate(members):
            if not isinstance(m, dict):
                raise InvalidInputError(f"class.members[{i}] must be an object")
            _check_member(m, f"class.members[{i}]")
    else:
        _check_keys(
            d, ("kind", "w_lo", "w_hi", "w_points", "b_lo", "b_hi", "b_points"), where
        )
        w_lo = _get_num(d, "w_lo", where, -np.inf, np.inf)
        w_hi = _get_num(d, "w_hi", where, -np.inf, np.inf)
        b_lo = _get_num(d, "b_lo", where, -np.inf, np.inf)
        b_hi = _get_num(d, "b_hi", where, -np.inf, np.inf)
        _get_int(d, "w_points", where, 1)
        _get_int(d, "b_points", where, 1)
        if w_lo > w_hi or b_lo > b_hi:
            raise InvalidInputError("class grid bounds must satisfy lo <= hi")


def _check_loss_block(d: dict) -> None:
    where = "loss"
    kind = _get_str(d, "kind", where, choices=("abs_clipped", "squared_clipped"))
    if kind == "abs_clipped":
        _check_keys(d, ("kind", "clip"), where)
    else:
        _check_keys(d, ("kind", "clip", "domain_diameter"), where)
        _get_num(d, "domain_diameter", where, 0.0, float("inf"), lo_open=True, hi_open=True)
    _get_num(d, "clip", where, 0.0, float("inf"), lo_open=True, hi_open=True)


# -- parse / serialize -----------------------------------------------------------


def parse_config(data: Any) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InvalidInputError("config must be a JSON object at the top level")
    _check_keys(data, _TOP_KEYS, "config")

    preset = _get_str(data, "preset", "config") if "preset" in data else None
    for key in _BLOCK_KEYS:
        if key in data and not isinstance(data[key], dict):
            raise InvalidInputError(f"config.{key} must be an object")
    if preset is not None and any(key in data for key in _BLOCK_KEYS):
        raise InvalidInputError(
            "config.preset already fixes generator, class, and loss; drop the explicit blocks"
        )
    if "generator" in data:
        _check_generator_block(data["generator"])
    if "class" in data:
        _check_class_block(data["class"])
    if "loss" in data:
        _check_loss_block(data["loss"])

    epsilon = _get_num(data, "epsilon", "config", 0.0, 1.0, hi_open=True, required=False)
    delta = _get_num(data, "delta", "config", 0.0, 1.0, lo_open=True, hi_open=True, required=False)
    if epsilon is not None and delta is not None:
        raise InvalidInputError("config sets both epsilon and delta; give exactly one")

    return ExperimentConfig(
        preset=preset,
        generator=copy.deepcopy(data.get("generator")),
        class_block=copy.deepcopy(data.get("class")),
        loss=copy.deepcopy(data.get("loss")),
        n=_get_int(data, "n", "config", 1, required=False),
        epsilon=epsilon,
        delta=delta,
        trials=_get_int(data, "trials", "config", 2, required=False),
        seed=_get_int(data, "seed", "config", 0, 2**64 - 1, required=False) or 0,
        window_mode=_get_str(data, "window_mode", "config", choices=WINDOW_MODES,
                             default=_DEFAULTS["window_mode"]),
        w_bar=(w if (w := _get_num(data, "w_bar", "config", 0.0, 1.0, required=False)) is not None
               else _DEFAULTS["w_bar"]),
        workers=_get_int(data, "workers", "config", 1, required=False) or _DEFAULTS["workers"],
        tol=(t if (t := _get_num(data, "tol", "config", 0.0, 1.0, lo_open=True, hi_open=True,
                                 required=False)) is not None else _DEFAULTS["tol"]),
        draws=_get_int(data, "draws", "config", 2, required=False) or _DEFAULTS["draws"],
        rad_outer=_get_int(data, "rad_outer", "config", 1, required=False) or _DEFAULTS["rad_outer"],
        tie_break=_get_str(data, "tie_break", "config", choices=TIE_RULES,
                           default=_DEFAULTS["tie_break"]),
        out_dir=_get_str(data, "out_dir", "config", default=_DEFAULTS["out_dir"]),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config file {path!r} is not valid JSON: {exc}") from None
    return parse_config(data)


def canonical_dict(cfg: ExperimentConfig) -> dict:
    out: dict[str, Any] = dict(_DEFAULTS)
    out["seed"] = cfg.seed
    out["window_mode"] = cfg.window_mode
    out["w_bar"] = cfg.w_bar
    out["workers"] = cfg.workers
    out["tol"] = cfg.tol
    out["draws"] = cfg.draws
    out["rad_outer"] = cfg.rad_outer
    out["tie_break"] = cfg.tie_break
    out["out_dir"] = cfg.out_dir
    for key, value in (
        ("preset", cfg.preset), ("generator", cfg.generator), ("class", cfg.class_block),
        ("loss", cfg.loss), ("n", cfg.n), ("epsilon", cfg.epsilon), ("delta", cfg.delta),
        ("trials", cfg.trials),
    ):
        if value is not None:
            out[key] = value
    return out


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(canonical_dict(cfg)).encode("utf-8")).hexdigest()


def merge_overrides(cfg: ExperimentConfig, **overrides: Any) -> ExperimentConfig:
    """Apply CLI-style overrides; None values mean 'keep the config value'.

    Setting epsilon drops a config delta (and vice versa) so the exclusivity
    rule keeps holding after the merge.
    """
    data = canonical_dict(cfg)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _TOP_KEYS:
            raise InvalidInputError(f"unknown override {key!r}")
        data[key] = value
        if key == "epsilon":
            data.pop("delta", None)
        elif key == "delta":
            data.pop("epsilon", None)
    return parse_config(data)


# -- object construction from blocks ---------------------------------------------


def _build_label(d: Optional[dict], dim_x: int) -> LabelMap:
    if d is None or d["kind"] == "identity":
        return identity_label()
    if d["kind"] == "linear":
        return linear_label(d["weight"], d["bias"])
    table_x = np.asarray(d["table_x"], dtype=float)
    table_y = np.asarray(d["table_y"], dtype=float)
    if table_x.ndim == 1:
        table_x = table_x[:, np.newaxis]
    if table_y.ndim == 1:
        table_y = table_y[:, np.newaxis]
    if table_x.shape[0] != table_y.shape[0]:
        raise InvalidInputError("tabulated label needs one y row per x row")
    if table_x.shape[1] != dim_x:
        raise InvalidInputError(
            f"tabulated label table_x needs {dim_x} columns, one per state coordinate"
        )

    def lookup(x: np.ndarray) -> np.ndarray:
        gaps = np.linalg.norm(table_x - np.asarray(x, dtype=float).reshape(1, -1), axis=1)
        return table_y[int(np.argmin(gaps))]

    return callable_label(lookup, float(d["lip"]))


def build_generator(block: dict) -> Generator:
    if block["kind"] == "iid":
        ax = _get_array(block, "atoms_x", "generator", 2)
        ay = _get_array(block, "atoms_y", "generator", 2)
        count = ax.shape[0]
        weights = (np.asarray(block["weights"], dtype=float) if "weights" in block
                   else np.full(count, 1.0 / count))
        metric = MetricSpec(ax.shape[1], ay.shape[1], float(block["kappa"]))
        gaps = pairwise_dist(ax, ay, ax, ay, metric)
        if float(gaps.max(initial=0.0)) > 1.0:
            raise InvalidInputError(
                "iid atoms span a diameter above one under the declared kappa; "
                f"worst pair distance {float(gaps.max())!r}"
            )
        pad = 1e-9
        x_bound = BoxBound(ax.min(axis=0) - pad, ax.max(axis=0) + pad)
        y_bound = BoxBound(ay.min(axis=0) - pad, ay.max(axis=0) + pad)
        atoms = tuple(ZPoint(ax[i], ay[i]) for i in range(count))
        return iid_generator(atoms, weights, metric, x_bound, y_bound, name="config_iid")
    mats = _get_array(block, "mats", "generator", 3)
    vecs = _get_array(block, "vecs", "generator", 2)
    count = mats.shape[0]
    weights = (np.asarray(block["weights"], dtype=float) if "weights" in block
               else np.full(count, 1.0 / count))
    return affine_ifs_generator(
        mats=list(mats), vecs=list(vecs), weights=weights,
        label_map=_build_label(block.get("label"), mats.shape[-1]),
        attractor_radius=float(block["attractor_radius"]),
        z0_x=np.asarray(block["z0_x"], dtype=float),
        name="config_affine_ifs",
    )


def build_class(block: dict) -> HypothesisClass:
    if block["kind"] == "linear_grid":
        ws = np.linspace(block["w_lo"], block["w_hi"], block["w_points"])
        bs = np.linspace(block["b_lo"], block["b_hi"], block["b_points"])
        members = tuple(
            linear_hypothesis(f"line_{i}_{j}", [[float(w)]], [float(b)])
            for i, w in enumerate(ws)
            for j, b in enumerate(bs)
        )
        return HypothesisClass(members)
    members = []
    for i, m in enumerate(block["members"]):
        hid = m.get("id", f"h{i}")
        if m["kind"] == "constant":
            members.append(constant_hypothesis(hid, np.asarray(m["value"], dtype=float)))
        elif m["kind"] == "linear":
            lip = float(m["lip"]) if "lip" in m else None
            members.append(
                linear_hypothesis(hid, np.asarray(m["weight"], dtype=float),
                                  np.asarray(m["bias"], dtype=float), declared_lip=lip)
            )
        else:
            members.append(
                tabulated_hypothesis(hid, np.asarray(m["table_x"], dtype=float),
                                     np.asarray(m["table_y"], dtype=float),
                                     declared_lip=float(m["lip"]))
            )
    return HypothesisClass(tuple(members))


def build_loss(block: dict) -> LossEnv:
    if block["kind"] == "abs_clipped":
        return make_abs_loss(clip=float(block["clip"]))
    return make_squared_loss(clip=float(block["clip"]),
                             domain_diameter=float(block["domain_diameter"]))


def build_bundle(cfg: ExperimentConfig) -> PresetBundle:
    """Materialize the chain, class, and finalized loss a config describes."""
    if cfg.preset is not None:
        return load_preset(cfg.preset)
    missing = [name for name, blk in
               (("generator", cfg.generator), ("class", cfg.class_block), ("loss", cfg.loss))
               if blk is None]
    if missing:
        raise InvalidInputError(
            f"config needs either a preset or all three blocks; missing {missing}"
        )
    gen = build_generator(cfg.generator)
    cls = build_class(cfg.class_block)
    env = finalize_env(build_loss(cfg.loss), cls, gen.metric)
    return PresetBundle(name="custom", gen=gen, cls=cls, env=env,
                        description="assembled from explicit config blocks")
