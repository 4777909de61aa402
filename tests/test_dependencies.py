import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twowayqkd

PACKAGE = Path(twowayqkd.__file__).parent
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        spec = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", s).group(0).lower() for s in spec}


def _third_party_imports():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != PACKAGE.name}


def test_imports_match_declared_dependencies():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = "import sys, twowayqkd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
