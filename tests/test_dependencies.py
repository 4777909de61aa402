import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twowayqkd

from _util import run_cli

PACKAGE = Path(twowayqkd.__file__).parent
TESTS = Path(__file__).parent
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

#: the helper modules in tests/, imported by the tests alone
TEST_HELPERS = {"_util", "_hiprec", "_symbolic"}


def _project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the package supports 3.10
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]


def _names(spec):
    return {re.match(r"[A-Za-z0-9_.-]+", s).group(0).lower() for s in spec}


def _declared_dependencies():
    return _names(_project()["dependencies"])


def _absolute_imports(directory=PACKAGE):
    """Top-level names of every absolute import in the modules of a directory."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _third_party_imports():
    return {n for n in _absolute_imports()
            if n not in sys.stdlib_module_names and n != PACKAGE.name}


def test_imports_match_declared_dependencies():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


def test_test_imports_are_declared():
    # a test may import the standard library, its helpers, the package and what
    # pyproject.toml declares for the package or its test extra, and nothing else
    declared = _declared_dependencies() | _names(_project()["optional-dependencies"]["test"])
    undeclared = {n for n in _absolute_imports(TESTS) if n not in sys.stdlib_module_names
                  and n not in TEST_HELPERS | {PACKAGE.name} | declared}
    assert undeclared == set()


def test_console_script_is_the_module_entry_point():
    # the installed command and `python -m twowayqkd.cli` end through the same function
    module, _, name = _project()["scripts"]["twowayqkd"].partition(":")
    assert module == "twowayqkd.cli"
    assert callable(getattr(importlib.import_module(module), name))
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main_block = next(node for node in tree.body if isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'")
    assert ast.unparse(main_block.body[0]) == f"{name}()"


def test_main_returns_the_exit_code():
    # main serves in-process callers (tests, the traced bench); only the entry point exits
    code = run_cli("keyrate", "--T", "0.8", "--omega", "2", "--attack", "collective")[0]
    assert type(code) is int and code == 2


def _fresh(code, **env_overrides):
    """Standard output of `code` run in a fresh interpreter with the package on its path."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def _unused_imports(path):
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `from m import x as y` binds `y`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_never_uses():
    # no linter is a dependency; this is its unused-import rule, stdlib only, over the
    # package and the tests
    unused = {f"{path.parent.name}/{path.name}": sorted(_unused_imports(path))
              for path in (*PACKAGE.glob("*.py"), *TESTS.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


#: the covariance-matrix toolbox: the oracle of the closed forms, not a production path
TOOLBOX = {"symplectic_form", "vacuum_cm", "thermal_cm", "epr_cm", "eve_cm", "beam_splitter",
           "is_symplectic", "apply_symplectic", "tensor", "partial_trace", "symplectic_spectrum",
           "is_bona_fide", "von_neumann_entropy", "heterodyne_condition", "ppt_separable"}


def _toolbox_references(path):
    """Toolbox functions a module names, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return sorted(names & TOOLBOX)


def test_only_the_toolbox_and_the_circuit_model_use_the_matrix_toolbox():
    # every other module runs on closed forms; the toolbox checks them from the tests
    used = {path.name: _toolbox_references(path) for path in PACKAGE.glob("*.py")
            if path.name not in ("gaussian.py", "circuit.py")}
    assert {name: names for name, names in used.items() if names} == {}


def test_no_module_imports_dataclasses():
    # the record types are NamedTuples: dataclasses would cost every CLI start-up its import
    assert "dataclasses" not in _absolute_imports()


_MODULES = "import sys; print(' '.join(sorted(sys.modules)))"


def test_cli_import_adds_only_its_own_modules():
    # beyond what numpy and argparse load anyway, the CLI loads the package's
    # modules and nothing else: no dataclasses, no json, not the circuit model
    base = set(_fresh("import numpy, argparse; " + _MODULES).split())
    added = set(_fresh("import twowayqkd.cli; " + _MODULES).split()) - base
    assert {"twowayqkd", "twowayqkd.cli", "twowayqkd.protocol"} <= added
    assert {m for m in added if m.split(".")[0] != "twowayqkd"} == set()
    assert "twowayqkd.circuit" not in added


@pytest.mark.parametrize("fmt, loads_json", [("csv", False), ("json", True)])
def test_scan_loads_json_only_for_json_output(fmt, loads_json):
    code = ("import contextlib, io, sys, twowayqkd.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['scan', '--T', '0.8', '--omega', '1.5', '--step', '0.1',"
            f" '--format', '{fmt}'])\n"
            "print(code, 'json' in sys.modules)")
    assert _fresh(code) == f"0 {loads_json}"


def test_cli_import_loads_no_scipy():
    code = ("import sys, twowayqkd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(code) == "[]"


def test_package_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, twowayqkd; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'twowayqkd')))")
    assert _fresh(code) == "['twowayqkd']"


class TestLazyNamespace:
    def test_every_public_name_is_its_module_object(self):
        assert sorted(twowayqkd._ORIGIN) == sorted(twowayqkd.__all__)
        for name in twowayqkd.__all__:
            module = importlib.import_module(f"twowayqkd.{twowayqkd._ORIGIN[name]}")
            assert getattr(twowayqkd, name) is getattr(module, name), name
        # and the table lists every public function and class its modules define, and no other
        defined, exported = set(), set()
        for module_name, names in twowayqkd._EXPORTS.items():
            module = importlib.import_module(f"twowayqkd.{module_name}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    if obj.__module__ == module.__name__ and not name.startswith("_"):
                        defined.add((module_name, name))
                    if name in names:
                        exported.add((module_name, name))
        assert defined == exported

    def test_dir_covers_all(self):
        assert set(twowayqkd.__all__) <= set(dir(twowayqkd))

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from twowayqkd import *", ns)
        assert {name: ns[name] for name in twowayqkd.__all__} == \
            {name: getattr(twowayqkd, name) for name in twowayqkd.__all__}

    def test_unknown_attribute(self):
        # then single-field getters deleted in favour of keyrate_report's fields, and
        # single-curve threshold wrappers and their exceptions deleted in favour of
        # threshold_curves and its status column, and names only their own tests used,
        # and the one-T variations wrapper deleted in favour of class_variations
        for name in ("no_such_name", "asymptotic_total_spectrum", "total_entropy_asymptotic",
                     "conditional_spectrum_asymptotic", "conditional_entropy_asymptotic",
                     "holevo_asymptotic", "mutual_information_asymptotic", "threshold_curve",
                     "oneway_threshold_curve", "threshold_omega", "oneway_threshold_omega",
                     "DivergentThresholdError", "MonotonicityError", "entropic_h_asymptotic",
                     "omega_from_excess", "conditioning_deviation", "relative_variations"):
            with pytest.raises(AttributeError, match=name):
                getattr(twowayqkd, name)


_THREADS = ("import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
            "len(os.listdir('/proc/self/task')))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")
class TestBlasThreads:
    def test_cli_import_starts_one_blas_thread(self):
        assert _fresh("import twowayqkd.cli; " + _THREADS) == "1 1"

    def test_user_value_wins(self):
        assert _fresh("import twowayqkd.cli; " + _THREADS,
                      OPENBLAS_NUM_THREADS="2").split()[0] == "2"

    def test_numpy_loaded_first_leaves_environment_alone(self):
        assert _fresh("import numpy, twowayqkd.cli; " + _THREADS).split()[0] == "None"
