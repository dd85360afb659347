"""Source hygiene of the library: every top-level import is used, and
importing the command line loads no scipy.

The unused-import check is a stdlib AST scan, so it runs wherever the tests
do. A module's top-level import counts as used when the bound name appears as
a name anywhere in the module (code or unquoted annotation) or, for a
package's ``__init__``, in its ``__all__``.
"""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaincert"


def _bound_names(node):
    if isinstance(node, ast.Import):
        return [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
    if node.module == "__future__":
        return []
    return [(a.asname or a.name, f"{node.module or ''}.{a.name}") for a in node.names]


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return sorted(
        source
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name, source in _bound_names(node)
        if name not in used
    )


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Sequence[int]) -> Optional[int]:\n"
        "    return np.sum(x)\n",
        encoding="utf-8",
    )
    assert _unused_imports(mod) == ["math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path) == []


_IMPORT_GUARD = """
import sys
from chaincert import cli
from chaincert.config import build_bundle, parse_config
from chaincert.presets import load_preset, preset_names
for name in preset_names():
    load_preset(name)
build_bundle(parse_config({
    "generator": {"kind": "iid", "atoms_x": [[0.2], [0.7]], "atoms_y": [[0.2], [0.7]],
                  "kappa": 2.0},
    "class": {"kind": "finite_list",
              "members": [{"kind": "constant", "id": "lo", "value": [0.0]}]},
    "loss": {"kind": "abs_clipped", "clip": 1.0},
}))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.random" in sys.modules)
"""


def test_cli_and_bundles_load_no_scipy():
    # scipy is imported by the transport solvers alone; numpy.random is loaded
    # with the package so no command pays for it on its first seed stream
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True, check=True,
        env=env,
    ).stdout.split("\n")
    assert out[0] == "[]"
    assert out[1] == "True"
