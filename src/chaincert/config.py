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
    tol           burn-in tolerance in (0, 1)           (default 1e-3)
    draws         Monte Carlo sign draws, even int >= 4 (default complexity.MC_DRAWS)
    rad_outer     complexity trajectories, int >= 2     (default 32)
    tie_break     "lowest_index" | "first_found"        (default "lowest_index")
    out_dir       output directory                      (default "results")

At every window length, complexity estimates enumerate the sums of signs
over groups of equal loss columns when that grid has at most
2^complexity.EXACT_N_CAP points, and draw ``draws`` Monte Carlo sign vectors
when it does not. No key overrides that choice.

Each block has one reader: it checks the block's structure and returns the
call that builds its object. ``parse_config`` runs the readers for their
checks, so a malformed block raises ``InvalidInputError`` (exit 2) at parse
time; ``build_bundle`` runs them again and makes the calls. Value checks
(contraction below one, bounds kept invariant) stay with the constructors, so
an expanding map exits 3 as an assumption violation, not 2 as a malformed file.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from .certificates import WINDOW_MODES
from .complexity import MC_DRAWS, check_draws
from .erm import TIE_RULES
from .errors import InvalidInputError
from .generators import (
    BoxBound,
    Generator,
    LabelMap,
    ZPoint,
    affine_ifs_generator,
    identity_label,
    iid_generator,
    linear_label,
)
from .hypotheses import (
    HYPOTHESIS_KINDS,
    Hypothesis,
    HypothesisClass,
    LossEnv,
    constant_hypothesis,
    finalize_env,
    linear_hypothesis,
    make_abs_loss,
    make_squared_loss,
    tabulated_hypothesis,
)
from .metric import MetricSpec, pairwise_dist, sha256
from .presets import PresetBundle, load_preset


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
    tol: float = 1e-3
    draws: int = MC_DRAWS
    rad_outer: int = 32
    tie_break: str = "lowest_index"
    out_dir: str = "results"


# config key of each field; the class block is the one whose name differs
_KEY_OF = {f.name: "class" if f.name == "class_block" else f.name
           for f in fields(ExperimentConfig)}
_TOP_KEYS = frozenset(_KEY_OF.values())
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not None}
_GRID_CAP = 10_000  # members a linear_grid class may have (100 x 100)


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


# -- block readers ---------------------------------------------------------------


def _read_weights(d: dict, count: int, what: str) -> np.ndarray:
    if "weights" not in d:
        return np.full(count, 1.0 / count)
    w = _get_array(d, "weights", "generator", 1)
    if w.shape[0] != count:
        raise InvalidInputError(f"generator.weights needs one entry per {what}")
    return w


def _read_generator(d: dict) -> Callable[[], Generator]:
    where = "generator"
    kind = _get_str(d, "kind", where, choices=("iid", "affine_ifs"))
    if kind == "iid":
        _check_keys(d, ("kind", "atoms_x", "atoms_y", "weights", "kappa"), where)
        ax = _get_array(d, "atoms_x", where, 2)
        ay = _get_array(d, "atoms_y", where, 2)
        if ax.shape[0] != ay.shape[0]:
            raise InvalidInputError("generator.atoms_x and atoms_y need one row per atom each")
        weights = _read_weights(d, ax.shape[0], "atom")
        kappa = _get_num(d, "kappa", where, 0.0, np.inf, lo_open=True, hi_open=True)
        return partial(_iid_generator, ax, ay, weights, kappa)
    _check_keys(d, ("kind", "mats", "vecs", "weights", "label", "attractor_radius", "z0_x"), where)
    mats = _get_array(d, "mats", where, 3)
    vecs = _get_array(d, "vecs", where, 2)
    if mats.shape[0] != vecs.shape[0]:
        raise InvalidInputError("generator.mats and vecs need one entry per map each")
    weights = _read_weights(d, mats.shape[0], "map")
    radius = _get_num(d, "attractor_radius", where, 0.0, np.inf, lo_open=True, hi_open=True)
    z0_x = _get_array(d, "z0_x", where, 1)
    label = _read_label(d["label"]) if "label" in d else identity_label
    return lambda: affine_ifs_generator(
        mats=list(mats), vecs=list(vecs), weights=weights, label_map=label(),
        attractor_radius=radius, z0_x=z0_x, name="config_affine_ifs")


def _iid_generator(ax: np.ndarray, ay: np.ndarray, weights: np.ndarray,
                   kappa: float) -> Generator:
    metric = MetricSpec(ax.shape[1], ay.shape[1], kappa)
    gaps = pairwise_dist(ax, ay, ax, ay, metric)
    if float(gaps.max(initial=0.0)) > 1.0:
        raise InvalidInputError(
            "iid atoms span a diameter above one under the declared kappa; "
            f"worst pair distance {float(gaps.max())!r}"
        )
    pad = 1e-9
    x_bound = BoxBound(ax.min(axis=0) - pad, ax.max(axis=0) + pad)
    y_bound = BoxBound(ay.min(axis=0) - pad, ay.max(axis=0) + pad)
    atoms = tuple(ZPoint(ax[i], ay[i]) for i in range(ax.shape[0]))
    return iid_generator(atoms, weights, metric, x_bound, y_bound, name="config_iid")


def _read_label(d: Any) -> Callable[[], LabelMap]:
    where = "generator.label"
    if not isinstance(d, dict):
        raise InvalidInputError(f"{where} must be an object")
    kind = _get_str(d, "kind", where, choices=("identity", "linear"))
    if kind == "identity":
        _check_keys(d, ("kind",), where)
        return identity_label
    _check_keys(d, ("kind", "weight", "bias"), where)
    _get_array(d, "weight", where, 2)
    _get_array(d, "bias", where, 1)
    # the JSON values as written: the constructor rejects a weight of depth one,
    # which the depth check above promotes to a matrix
    return partial(linear_label, d["weight"], d["bias"])


def _read_member(d: Any, i: int) -> Callable[[], Hypothesis]:
    # the constructors take the JSON values as written, as linear labels do
    where = f"class.members[{i}]"
    if not isinstance(d, dict):
        raise InvalidInputError(f"{where} must be an object")
    kind = _get_str(d, "kind", where, choices=HYPOTHESIS_KINDS)
    if kind == "constant":
        _check_keys(d, ("kind", "id", "value"), where)
        _get_array(d, "value", where, 1)
        build = partial(constant_hypothesis, value=d["value"])
    elif kind == "linear":
        _check_keys(d, ("kind", "id", "weight", "bias", "lip"), where)
        _get_array(d, "weight", where, 2)
        _get_array(d, "bias", where, 1)
        lip = _get_num(d, "lip", where, 0.0, np.inf, hi_open=True, required=False)
        build = partial(linear_hypothesis, weight=d["weight"], bias=d["bias"], declared_lip=lip)
    else:
        _check_keys(d, ("kind", "id", "table_x", "table_y", "lip"), where)
        _get_array(d, "table_x", where, 2)
        _get_array(d, "table_y", where, 2)
        lip = _get_num(d, "lip", where, 0.0, np.inf, hi_open=True)
        build = partial(tabulated_hypothesis, table_x=d["table_x"], table_y=d["table_y"],
                        declared_lip=lip)
    return partial(build, _get_str(d, "id", where) if "id" in d else f"h{i}")


def _read_class(d: dict) -> Callable[[], HypothesisClass]:
    where = "class"
    kind = _get_str(d, "kind", where, choices=("finite_list", "linear_grid"))
    if kind == "finite_list":
        _check_keys(d, ("kind", "members"), where)
        members = d.get("members")
        if not isinstance(members, list) or not members:
            raise InvalidInputError("class.members must be a non-empty list")
        builds = [_read_member(m, i) for i, m in enumerate(members)]
        return lambda: HypothesisClass(tuple(build() for build in builds))
    _check_keys(d, ("kind", "w_lo", "w_hi", "w_points", "b_lo", "b_hi", "b_points"), where)
    w_lo = _get_num(d, "w_lo", where, -np.inf, np.inf)
    w_hi = _get_num(d, "w_hi", where, -np.inf, np.inf)
    b_lo = _get_num(d, "b_lo", where, -np.inf, np.inf)
    b_hi = _get_num(d, "b_hi", where, -np.inf, np.inf)
    w_points = _get_int(d, "w_points", where, 1)
    b_points = _get_int(d, "b_points", where, 1)
    if w_lo > w_hi or b_lo > b_hi:
        raise InvalidInputError("class grid bounds must satisfy lo <= hi")
    if w_points * b_points > _GRID_CAP:
        raise InvalidInputError(
            f"class grid of {w_points} x {b_points} points exceeds the cap of {_GRID_CAP} members"
        )

    def linear_grid() -> HypothesisClass:
        ws = np.linspace(w_lo, w_hi, w_points)
        bs = np.linspace(b_lo, b_hi, b_points)
        return HypothesisClass(tuple(
            linear_hypothesis(f"line_{i}_{j}", [[float(w)]], [float(b)])
            for i, w in enumerate(ws)
            for j, b in enumerate(bs)
        ))
    return linear_grid


def _read_loss(d: dict) -> Callable[[], LossEnv]:
    where = "loss"
    kind = _get_str(d, "kind", where, choices=("abs_clipped", "squared_clipped"))
    if kind == "abs_clipped":
        _check_keys(d, ("kind", "clip"), where)
        build = make_abs_loss
    else:
        _check_keys(d, ("kind", "clip", "domain_diameter"), where)
        diameter = _get_num(d, "domain_diameter", where, 0.0, np.inf, lo_open=True, hi_open=True)
        build = partial(make_squared_loss, domain_diameter=diameter)
    return partial(build, clip=_get_num(d, "clip", where, 0.0, np.inf, lo_open=True, hi_open=True))


# config key of each block, and its reader
_READERS = {"generator": _read_generator, "class": _read_class, "loss": _read_loss}


def _check_objects(blocks: dict) -> None:
    """Raise unless every block, keyed by its config key, is a JSON object."""
    for key, block in blocks.items():
        if not isinstance(block, dict):
            raise InvalidInputError(f"config.{key} must be an object")


def build_generator(block: dict) -> Generator:
    _check_objects({"generator": block})
    return _read_generator(block)()


def build_bundle(cfg: ExperimentConfig) -> PresetBundle:
    """Materialize the chain, class, and finalized loss a config describes."""
    if cfg.preset is not None:
        return load_preset(cfg.preset)
    blocks = {"generator": cfg.generator, "class": cfg.class_block, "loss": cfg.loss}
    missing = [key for key, block in blocks.items() if block is None]
    if missing:
        raise InvalidInputError(
            f"config needs either a preset or all three blocks; missing {missing}"
        )
    _check_objects(blocks)
    make_gen, make_cls, make_loss = (read(blocks[key]) for key, read in _READERS.items())
    gen, cls = make_gen(), make_cls()
    env = finalize_env(make_loss(), cls, gen.metric)
    return PresetBundle(name="custom", gen=gen, cls=cls, env=env)


# -- parse / serialize -----------------------------------------------------------


def parse_config(data: Any) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InvalidInputError("config must be a JSON object at the top level")
    _check_keys(data, _TOP_KEYS, "config")

    preset = _get_str(data, "preset", "config") if "preset" in data else None
    _check_objects({key: data[key] for key in _READERS if key in data})
    if preset is not None and any(key in data for key in _READERS):
        raise InvalidInputError(
            "config.preset already fixes generator, class, and loss; drop the explicit blocks"
        )
    for key, read in _READERS.items():
        if key in data:
            read(data[key])  # its checks alone; build_bundle makes the call it returns

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
        tol=(t if (t := _get_num(data, "tol", "config", 0.0, 1.0, lo_open=True, hi_open=True,
                                 required=False)) is not None else _DEFAULTS["tol"]),
        draws=check_draws(data["draws"], "config.draws") if "draws" in data else _DEFAULTS["draws"],
        rad_outer=_get_int(data, "rad_outer", "config", 2, required=False) or _DEFAULTS["rad_outer"],
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
    """Every set field under its config key; unset optional fields are left out."""
    values = {key: getattr(cfg, name) for name, key in _KEY_OF.items()}
    return {key: value for key, value in values.items() if value is not None}


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)


def config_digest(cfg: ExperimentConfig) -> str:
    return sha256(canonical_json(canonical_dict(cfg)).encode("utf-8")).hexdigest()


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
