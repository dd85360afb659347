"""The README's examples run against the library as it is.

The quick-start ``python`` block runs in a fresh interpreter, every
``json`` block must parse as a config and build its bundle, and every call
the prose names in backticks must exist, so an example that names a removed
function, parameter or config key fails here.
"""
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaincert
from chaincert.config import build_bundle, parse_config

ROOT = Path(__file__).resolve().parents[1]


def _blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def _params(lang):
    return [pytest.param(block, id=f"block{i}") for i, block in enumerate(_blocks(lang))]


def test_readme_has_examples():
    assert len(_blocks("python")) >= 1 and len(_blocks("json")) >= 1


@pytest.mark.parametrize("code", _params("python"))
def test_readme_python_block_runs(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("text", _params("json"))
def test_readme_json_block_builds(text):
    bundle = build_bundle(parse_config(json.loads(text)))
    assert len(bundle.cls) >= 1


def _library_names():
    """The attribute names of every chaincert module and of every class the
    package defines."""
    names = set()
    for info in pkgutil.iter_modules(chaincert.__path__):
        module = importlib.import_module(f"chaincert.{info.name}")
        names.update(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("chaincert"):
                names.update(dir(value))
    return names


def test_readme_prose_calls_name_library_attributes():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.MULTILINE | re.DOTALL)
    calls = set(re.findall(r"`([A-Za-z_][\w.]*)\(", prose))
    assert calls
    names = _library_names()
    assert sorted(c for c in calls if not set(c.split(".")) <= names) == []
