"""Source hygiene of the library: every top-level import is used, every
private module-level function and class is referenced, every public one
has a caller outside the tests or is on a short list, a private name is
imported only from the module that defines it, no module of the
package or the scripts uses ``numpy.random`` and only ``metric`` imports a
SHA-256 module, only ``cli._ensure_dir`` makes directories, importing the command line loads no scipy, an assignment
solve loads no ``scipy.optimize``, the commands never load ``numpy.random``
or OpenSSL's ``_hashlib``, and the hooks the benchmark
(``perfbench/``) attaches to still exist with the arguments it reads.

The unused-import check is a stdlib AST scan, so it runs wherever the tests
do. A module's top-level import counts as used when the bound name appears as
a name anywhere in the module (code or unquoted annotation). The dead-helper
check is the same kind of scan over the whole package: a module-level
``_name`` function or class is dead when no module names it (as a name or an
attribute) outside its own body, and a module-level ``_NAME = ...`` constant
is dead when no module reads it (loads it as a name or an attribute).
"""
import ast
import collections
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chaincert"
PERFBENCH = ROOT / "perfbench"


def _bound_names(node):
    if isinstance(node, ast.Import):
        return [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
    if node.module == "__future__":
        return []
    return [(a.asname or a.name, f"{node.module or ''}.{a.name}") for a in node.names]


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


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


def _references(node):
    return [sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_constants(tree):
    """Names bound by the module-level ``_NAME = ...`` assignments of ``tree``."""
    return [target.id
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and _is_private(target.id)]


def _dead_private_helpers(paths):
    """Module-level ``_name`` functions and classes that no module of
    ``paths`` names outside the helper's own body, and module-level
    ``_NAME = ...`` constants that no module of ``paths`` reads."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    named = collections.Counter(ref for tree in trees.values() for ref in _references(tree))
    read = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
    helpers = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _is_private(node.name) and named[node.name] == _references(node).count(node.name)
    ]
    constants = [f"{module}:{name}" for module, tree in trees.items()
                 for name in _private_constants(tree) if name not in read]
    return sorted(helpers + constants)


def test_scan_flags_a_dead_private_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n"
        "def _dead():\n    return _dead()\n"  # calls itself alone
        "class _Shape:\n    pass\n"
        "_X = 1\n"  # bound, never read
        "_LIMIT: int = 2\n"
        "_SIZE = _LIMIT\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nx = a._used()\ny = a._Shape\nz = a._SIZE\n", encoding="utf-8")
    assert _dead_private_helpers(sorted(tmp_path.glob("*.py"))) == ["a.py:_X", "a.py:_dead"]


def test_no_dead_private_helpers():
    assert _dead_private_helpers(sorted(PACKAGE.glob("*.py"))) == []


# public names that only tests and README examples use: library entry points
# kept for readers of the API
_UNCALLED_PUBLIC = {
    "build_generator", "callable_label", "comparable_summary", "growth_bound",
    "sample_complexity",
}


def _uncalled_public(modules, others):
    """Module-level public functions and classes of ``modules`` that no file
    of ``modules`` or ``others`` names outside their own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules + others}
    named = collections.Counter(ref for tree in trees.values() for ref in _references(tree))
    return sorted(
        node.name
        for path in modules
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and named[node.name] == _references(node).count(node.name)
    )


def test_public_names_have_a_caller_outside_the_tests():
    # ``__init__`` re-exports every public name, so it does not count
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    others = sorted((ROOT / "scripts").glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert set(_uncalled_public(modules, others)) == _UNCALLED_PUBLIC


def test_scan_flags_an_uncalled_public_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n"
        "def recursive():\n    return recursive()\n"
        "def scripted():\n    return 2\n"
        "class Shape:\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from . import a\nx = used()\ny = a.Shape\n",
                                   encoding="utf-8")
    (tmp_path / "c.py").write_text("from a import scripted\nscripted()\n", encoding="utf-8")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _uncalled_public(modules, [tmp_path / "c.py"]) == ["recursive"]


def _defined_names(tree):
    """Names a module binds itself at its top level, inside ``if`` and
    ``try`` blocks too: its functions, classes and assigned names, not the
    names it imports."""
    names, body = set(), list(tree.body)
    while body:
        node = body.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            body += node.body + node.orelse + getattr(node, "finalbody", [])
            body += [sub for handler in getattr(node, "handlers", []) for sub in handler.body]
    return names


def _private_reimports(modules, paths):
    """``file:module._name`` for each ``_name`` that a file of ``paths``
    imports from a package module of ``modules`` (``from .module`` or
    ``from chaincert.module``) that does not define it but imports it too."""
    defined = {path.stem: _defined_names(ast.parse(path.read_text(encoding="utf-8")))
               for path in modules}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and (node.level or node.module.startswith("chaincert."))):
                continue
            module = node.module.rpartition(".")[2]
            found += [f"{path.name}:{module}.{a.name}" for a in node.names
                      if _is_private(a.name) and module in defined
                      and a.name not in defined[module]]
    return sorted(found)


def test_scan_flags_a_private_name_imported_through_another_module(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\ntry:\n    _FAST = True\nexcept ImportError:\n    _FAST = False\n"
        "def _helper():\n    return _LIMIT\nclass _Shape:\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import _FAST, _Shape, _helper\nfrom .a import _LIMIT as limit\n",
        encoding="utf-8")
    (tmp_path / "c.py").write_text(
        "from .b import _helper, public\nfrom chaincert.b import _Shape\n"
        "from numpy import _core\n", encoding="utf-8")
    paths = sorted(tmp_path.glob("*.py"))
    assert _private_reimports(paths, paths) == ["c.py:b._Shape", "c.py:b._helper"]


def test_private_names_are_imported_from_their_own_module():
    # a private helper has one home; importing it through a module that
    # only imports it ties that module's imports to its callers
    modules = sorted(PACKAGE.glob("*.py"))
    paths = modules + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert _private_reimports(modules, paths) == []


_STREAM_KEYERS = {"PCG64", "SeedSequence", "default_rng", "RandomState"}
# metric takes SHA-256 from the first of these that imports; no other module may
_SHA256_MODULES = {"hashlib", "_sha2", "_sha256"}


def _numpy_random(node) -> bool:
    """Whether ``node`` imports ``numpy.random`` (or ``random`` from numpy)
    or takes ``random`` as an attribute of ``np`` or ``numpy``."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[:2] == ["numpy", "random"] or (
            module == ["numpy"] and any(a.name == "random" for a in node.names))
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def _stream_keyers(paths):
    """``file:name`` for each name of ``_STREAM_KEYERS`` that a file of
    ``paths`` imports, reads or takes as an attribute, ``file:numpy.random``
    for a file that imports ``numpy.random`` or reads ``np.random``, and
    ``file:module`` for a module of ``_SHA256_MODULES`` that a file other than
    ``metric.py`` imports."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.rpartition(".")[2] for a in node.names]
                modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                           else [node.module or ""])
                if path.name != "metric.py":
                    found.update(f"{path.name}:{m}" for m in modules
                                 if m.split(".")[0] in _SHA256_MODULES)
            else:
                names = _references(node) if isinstance(node, (ast.Name, ast.Attribute)) else []
            found.update(f"{path.name}:{name}" for name in names if name in _STREAM_KEYERS)
            if _numpy_random(node):
                found.add(f"{path.name}:numpy.random")
    return sorted(found)


def test_scan_flags_a_second_stream_keyer(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\nfrom numpy.random import PCG64 as bits\n"
        "rng = np.random.default_rng(0)\n"
        "# a comment on SeedSequence, and RandomState in a string, name nothing\n"
        "text = 'RandomState'\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("import numpy.random.RandomState\n", encoding="utf-8")
    (tmp_path / "c.py").write_text("from numpy import random\n", encoding="utf-8")
    (tmp_path / "d.py").write_text("import numpy\nbits = numpy.random.bytes(8)\n",
                                   encoding="utf-8")
    (tmp_path / "e.py").write_text("import random\nimport numpy as np\nx = np.zeros(3)\n"
                                   "y = random.random()\n", encoding="utf-8")
    assert _stream_keyers(sorted(tmp_path.glob("*.py"))) == [
        "a.py:PCG64", "a.py:default_rng", "a.py:numpy.random", "b.py:RandomState",
        "b.py:numpy.random", "c.py:numpy.random", "d.py:numpy.random"]


def test_scan_flags_a_second_sha256_import(tmp_path):
    # metric's fallback chain is allowed; any of its three modules imported
    # elsewhere, at the top or in a function, is flagged; a name taken from
    # metric, or the word in a string, imports none of them
    (tmp_path / "metric.py").write_text(
        "try:\n    from _sha2 import sha256\nexcept ImportError:\n"
        "    try:\n        from _sha256 import sha256\n    except ImportError:\n"
        "        from hashlib import sha256\n", encoding="utf-8")
    (tmp_path / "a.py").write_text("import hashlib\nx = hashlib.sha256(b'')\n",
                                   encoding="utf-8")
    (tmp_path / "b.py").write_text("from _sha2 import sha256 as digest\n", encoding="utf-8")
    (tmp_path / "c.py").write_text("import json, _sha256\n", encoding="utf-8")
    (tmp_path / "d.py").write_text("from .metric import sha256\ntext = 'import hashlib'\n",
                                   encoding="utf-8")
    (tmp_path / "e.py").write_text("def f():\n    from hashlib import blake2b\n",
                                   encoding="utf-8")
    assert _stream_keyers(sorted(tmp_path.glob("*.py"))) == [
        "a.py:hashlib", "b.py:_sha2", "c.py:_sha256", "e.py:hashlib"]


def test_only_metric_keys_random_streams():
    # every random stream is metric's counter-based SplitMix64; no module of
    # the package or the scripts uses numpy.random (the tests may, for data),
    # and only metric imports SHA-256 (tests/oracles.py keeps hashlib's as the
    # independent check on it)
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert _stream_keyers(paths) == []


def _makedirs_callers(paths):
    """``file:name`` for each call of ``makedirs`` (``os.makedirs``, or the
    bare name) in ``paths``, named by the top-level function or class that
    holds it, or ``<module>`` outside one."""
    found = set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(top, "name", "<module>")
            found.update(f"{path.name}:{name}" for node in ast.walk(top)
                         if isinstance(node, ast.Call) and "makedirs" in _references(node.func))
    return sorted(found)


def test_scan_flags_a_second_makedirs_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\ndef _ensure_dir(path):\n    os.makedirs(path, exist_ok=True)\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import os\ndef run(args):\n    def inner():\n        os.makedirs(args.out)\n"
        "    inner()\n", encoding="utf-8")
    (tmp_path / "c.py").write_text("from os import makedirs\nmakedirs('x')\n", encoding="utf-8")
    (tmp_path / "d.py").write_text(
        "import os\n# os.makedirs in a comment, and in a string, makes nothing\n"
        "text = 'os.makedirs(out)'\nos.path.exists('x')\n", encoding="utf-8")
    assert _makedirs_callers(sorted(tmp_path.glob("*.py"))) == [
        "a.py:_ensure_dir", "b.py:run", "c.py:<module>"]


def test_only_ensure_dir_makes_directories():
    # the scripts call cli._ensure_dir, which maps a directory that cannot
    # be made to exit 2, as every command does
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert _makedirs_callers(paths) == ["cli.py:_ensure_dir"]


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
    # scipy is imported by the transport solvers alone, and numpy.random by
    # nothing: the streams are metric's own
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True, check=True,
        env=env,
    ).stdout.split("\n")
    assert out[0] == "[]"
    assert out[1] == "False"


_WASSERSTEIN_GUARD = """
import contextlib, io, sys
from chaincert import cli
mu, *targets = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["wasserstein", mu, nu, "--kappa", "2.0"]) for nu in targets]
print(codes)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_wasserstein_assignments_load_no_scipy_optimize(tmp_path):
    # equal sizes and doubled targets both go to the assignment, which loads
    # scipy's compiled extension alone; scipy.optimize costs ~0.6 s to import
    rng = np.random.default_rng(7)
    files = []
    for name, count in (("mu", 64), ("nu", 64), ("nu2", 128)):
        path = tmp_path / f"{name}.csv"
        rows = rng.uniform(0.0, 0.4, (count, 2)).tolist()
        path.write_text("x_0,y_0\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows),
                        encoding="utf-8")
        files.append(str(path))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _WASSERSTEIN_GUARD, *files], capture_output=True, text=True,
        check=True, env=env,
    ).stdout.split("\n")
    assert out[0] == "[0, 0]"
    loaded = ast.literal_eval(out[1])
    assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded
    assert "scipy.optimize._lsap" in loaded


_COMMAND_GUARD = """
import contextlib, importlib.util, io, json, sys
from chaincert import cli
work, mu, nu, script = sys.argv[1:]

def config(name, body):
    path = f"{work}/{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(body, out_dir=f"{work}/{name}"), fh)
    return path

def decay(argv):
    spec = importlib.util.spec_from_file_location("contraction_decay", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)

runs = {
    "coverage": lambda: cli.main(["coverage", "--config", config("cov", {
        "preset": "halving_map", "n": 40, "epsilon": 0.1, "trials": 10, "rad_outer": 4})]),
    "coverage_mc": lambda: cli.main(["coverage", "--config", config("mc", {
        "preset": "affine_triangle", "n": 40, "epsilon": 0.1, "trials": 2, "rad_outer": 2,
        "draws": 64})]),
    "lemma3": lambda: cli.main(["validate", "lemma3", "--config", config("l3", {
        "preset": "affine_triangle", "n": 12, "epsilon": 0.3, "trials": 4})]),
    "wasserstein": lambda: cli.main(["wasserstein", mu, nu, "--kappa", "2.0"]),
    "contraction_decay": lambda: decay(["--preset", "affine_triangle", "--n-max", "3",
                                        "--atoms", "16", "--out", f"{work}/decay"]),
}
seen = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name, run in runs.items():
        seen[name] = [run(), "numpy.random" in sys.modules, "_hashlib" in sys.modules]
print(json.dumps(seen))
"""


def test_commands_never_load_numpy_random(tmp_path):
    rng = np.random.default_rng(9)
    files = []
    for name in ("mu", "nu"):
        path = tmp_path / f"{name}.csv"
        rows = rng.uniform(0.0, 0.4, (16, 2)).tolist()
        path.write_text("x_0,y_0\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows),
                        encoding="utf-8")
        files.append(str(path))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _COMMAND_GUARD, str(tmp_path), *files,
         str(ROOT / "scripts" / "contraction_decay.py")],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    # nor OpenSSL: the streams and config digests take the built-in SHA-256
    assert json.loads(out) == {name: [0, False, False] for name in (
        "coverage", "coverage_mc", "lemma3", "wasserstein", "contraction_decay")}


# -- the benchmark's hooks -------------------------------------------------------
# perfbench/ is read here, never edited: the tracer wraps library functions by
# name and derives its counters from their arguments, and the workload calls
# entry points and reads measures. A renamed function or parameter would make
# a traced run fail or count nothing, so these checks keep them in step.


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argument_keys(node, functions, seen=()):
    """Keys of ``a["key"]`` read in ``node``, following calls into the
    module-level ``functions`` it names."""
    keys = set()
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == "a" and isinstance(sub.slice, ast.Constant)):
            keys.add(sub.slice.value)
        elif isinstance(sub, ast.Name) and sub.id in functions and sub.id not in seen:
            keys |= _argument_keys(functions[sub.id], functions, seen + (sub.id,))
    return keys


def _traced_spans():
    """(module, function, argument keys its layer and counters read) for each
    span of the tracer's ``_named_spans``."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    listing = next(n for n in ast.walk(functions["_named_spans"]) if isinstance(n, ast.List))
    spans = []
    for entry in listing.elts:
        module, attr = (e.value for e in entry.elts[:2])
        keys = set()
        for part in entry.elts[2:]:
            keys |= _argument_keys(part, functions)
        spans.append((module, attr, keys))
    return spans


def test_tracer_wraps_functions_that_take_the_arguments_it_reads():
    spans = _traced_spans()
    assert [(m, f) for m, f, _ in spans] == [
        (m, f) for m, f, _, _ in _load_perfbench("tracer")._named_spans()
    ]
    read = set()
    for module, attr, keys in spans:
        fn = getattr(importlib.import_module(module), attr)
        params = inspect.signature(fn).parameters
        assert keys <= set(params), (module, attr, sorted(keys - set(params)))
        read |= keys
    assert {"n", "cls", "xs", "draws", "matrix", "mu1", "mu2"} <= read


def test_tracer_entry_points_and_module_layers_exist():
    tracer = _load_perfbench("tracer")
    from chaincert import cli

    assert list(inspect.signature(cli.main).parameters) == ["argv"]
    for short in tracer._MODULE_LAYERS:
        module = importlib.import_module("chaincert." + short)
        assert any(inspect.isfunction(v) and v.__module__ == module.__name__
                   and not k.startswith("_") for k, v in vars(module).items()), short
    spec = importlib.util.spec_from_file_location(
        "_decay_script", ROOT / "scripts" / "contraction_decay.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert list(inspect.signature(script.main).parameters) == ["argv"]


def test_workload_calls_exist_and_reads_measures_as_it_expects():
    workload = _load_perfbench("workload")
    tree = ast.parse((PERFBENCH / "workload.py").read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chaincert"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                target = getattr(module, alias.name)  # raises if the name is gone
                if inspect.ismodule(target):
                    aliases[alias.asname or alias.name] = target
    assert {"cli", "generators", "reporting"} <= set(aliases)
    used = 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            assert hasattr(aliases[node.value.id], node.attr), (node.value.id, node.attr)
            used += 1
    assert used >= 3

    from chaincert.generators import invariant_sampler
    from chaincert.metric import SeedSpec
    from chaincert.presets import load_preset
    from chaincert.transport import EmpiricalMeasure

    for attr in ("__len__", "is_uniform", "atoms"):
        assert hasattr(EmpiricalMeasure, attr), attr
    gen = load_preset("affine_triangle").gen
    measure = invariant_sampler(gen, 1e-3, 5, SeedSpec(3))
    assert len(measure) == 5 and measure.is_uniform()
    rows = workload._atom_rows(measure)
    assert rows == [tuple(x) + tuple(y) for x, y in zip(measure.xs, measure.ys)]
    assert np.array_equal(np.array(rows), np.hstack([measure.xs, measure.ys]))
