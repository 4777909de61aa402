"""tools/compare_cli.py: its lines, a tree matching itself, and a reported difference."""

import importlib.util
import shutil
from pathlib import Path

import twowayqkd

TOOL = Path(__file__).parents[1] / "tools" / "compare_cli.py"
SRC = Path(twowayqkd.__file__).parents[1]

_spec = importlib.util.spec_from_file_location("compare_cli", TOOL)
compare_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli)


def test_lines_start_with_every_workload_line():
    # the benchmark's full-size command lines, seed 0 then seed 1, each in workload order
    workloads = [inv.args for seed in (0, 1)
                 for name in ("threshold-curves", "optimal-scan", "grid-export")
                 for inv in compare_cli.WORKLOADS[name](seed, small=False)]
    assert len(workloads) == 30
    assert compare_cli.LINES[:30] == workloads
    assert compare_cli.LINES[0][:3] == ["threshold", "--attack", "collective"]
    assert compare_cli.LINES[1] == ["scan", "--T", "0.5000", "--omega", "1.5", "--step", "0.01"]


def test_tree_matches_itself():
    # a workload line, an output-format line and a rejected input
    lines = [["scan", "--T", "0.8000", "--omega", "2", "--step", "0.01"],
             ["appendix", "--T", "0.65", "--T", "0.95", "--mu", "1e6", "--omega-max", "5",
              "--omega-step", "0.5", "--format", "json"],
             ["appendix", "--T", "0.65", "--omega-min", "3", "--omega-max", "2"]]
    assert all(argv in compare_cli.LINES for argv in lines)
    assert compare_cli.compare(SRC, SRC, lines) == []


def test_difference_is_reported(tmp_path):
    # a copy of the package whose program description has changed
    shutil.copytree(SRC / "twowayqkd", tmp_path / "twowayqkd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "twowayqkd" / "cli.py"
    cli.write_text(cli.read_text().replace("Key rates and security", "Key rates and"))
    (difference,) = compare_cli.compare(SRC, tmp_path, [["--help"], ["keyrate", "--help"]])
    assert difference.startswith("--help: stdout ")
