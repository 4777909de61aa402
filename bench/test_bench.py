"""Tests of the benchmark itself: the checker against the package, corrupted
outputs, and a smoke run of every workload at reduced size.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twowayqkd import cli, gaussian  # noqa: E402
from twowayqkd.attacks import AttackParams, _physical_mask, eve_cm  # noqa: E402
from twowayqkd.protocol import _keyrate_arrays  # noqa: E402
from twowayqkd.security import oneway_keyrate  # noqa: E402


def _cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return buf.getvalue(), code


# ---------------------------------------------------------------------------
# the checker's closed forms against the package
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega", [1.5, 2.0, 3.0])
def test_physicality_matches_eigh_mask_at_every_node(omega):
    k = int(np.floor(omega / 0.01 + 1e-9))
    vals = np.arange(-k, k + 1) * 0.01
    G, GP = np.meshgrid(vals, vals, indexing="ij")
    assert np.array_equal(checker.physical(omega, G, GP), _physical_mask(omega, G, GP))


def test_ppt_matches_package_test():
    rng = np.random.default_rng(7)
    g, gp = checker.grid_nodes(2.0, 0.05)
    for i in rng.choice(g.size, size=300, replace=False):
        V = eve_cm(AttackParams(2.0, float(g[i]), float(gp[i])))
        assert bool(checker.ppt_separable(2.0, g[i], gp[i])) == gaussian.ppt_separable(V)


def test_rates_match_package():
    for T in (0.5, 0.8, 0.95):
        for omega in (1.0, 1.5, 3.0):
            g, gp = checker.grid_nodes(omega, 0.05)
            gap = np.abs(checker.rate(T, omega, g, gp) - _keyrate_arrays(T, omega, g, gp))
            assert gap.max() <= 1e-12
            assert abs(checker.oneway_rate(T, omega) - oneway_keyrate(T, omega)) <= checker.ONEWAY_GAP


# ---------------------------------------------------------------------------
# corrupted outputs are rejected
# ---------------------------------------------------------------------------

CLASSES = list(checker.TWO_WAY_CLASSES)
T_GRID = checker.t_grid(0.60, 0.99, 0.13)


@pytest.fixture(scope="module")
def threshold_text():
    args = ["threshold", *[x for c in CLASSES for x in ("--attack", c)],
            "--t-min", "0.60", "--t-max", "0.99", "--t-step", "0.13", "--with-oneway"]
    out, code = _cli(args)
    assert code == 0
    assert checker.check_threshold(out, CLASSES, T_GRID, with_oneway=True) == []
    return out


def test_moved_root_is_rejected(threshold_text):
    lines = threshold_text.splitlines()
    i = next(k for k, line in enumerate(lines)
             if line.startswith("sep-sym-,") and line.endswith(",true"))
    label, T, w, _, secure = lines[i].split(",")
    w_moved = float(w) + 1e-6
    n_moved = (1.0 - float(T)) * (w_moved - 1.0) / float(T)  # N* stays consistent
    lines[i] = ",".join([label, T, repr(w_moved), repr(n_moved), secure])
    errors = checker.check_threshold("\n".join(lines) + "\n", CLASSES, T_GRID, True)
    assert any("no sign change" in e for e in errors)


def test_reordered_curves_are_rejected(threshold_text):
    assert checker.check_threshold(threshold_text, CLASSES[::-1], T_GRID, True)


def test_moved_minimiser_is_rejected():
    out, code = _cli(["scan", "--T", "0.8", "--omega", "2", "--step", "0.05"])
    ref = checker.ScanReference(0.8, 2.0, 0.05)
    assert checker.check_scan(out, "csv", code, ref, full_grid=False) == []
    header, row = out.splitlines()
    cells = row.split(",")
    cells[2] = repr(float(cells[2]) - 0.05)  # best_g one node over
    errors = checker.check_scan(f"{header}\n{','.join(cells)}\n", "csv", code, ref, False)
    assert any("minimiser" in e for e in errors)


@pytest.fixture(scope="module")
def grid_json():
    out, code = _cli(["scan", "--T", "0.8", "--omega", "3", "--step", "0.1",
                      "--full-grid", "--format", "json"])
    ref = checker.ScanReference(0.8, 3.0, 0.1)
    assert checker.check_scan(out, "json", code, ref, full_grid=True) == []
    return json.loads(out), code, ref


def test_perturbed_row_is_rejected(grid_json):
    payload, code, ref = grid_json
    payload = dict(payload, grid=[dict(r) for r in payload["grid"]])
    payload["grid"][len(payload["grid"]) // 3]["R"] += 1e-8
    errors = checker.check_scan(json.dumps(payload), "json", code, ref, True)
    assert any("has R=" in e for e in errors)


def test_dropped_row_is_rejected(grid_json):
    payload, code, ref = grid_json
    payload = dict(payload, grid=payload["grid"][:10] + payload["grid"][11:])
    errors = checker.check_scan(json.dumps(payload), "json", code, ref, True)
    assert any("rows" in e for e in errors)


def test_dropped_csv_row_is_rejected():
    out, code = _cli(["scan", "--T", "0.8", "--omega", "2", "--step", "0.1", "--full-grid"])
    ref = checker.ScanReference(0.8, 2.0, 0.1)
    assert checker.check_scan(out, "csv", code, ref, True) == []
    lines = out.splitlines()
    assert checker.check_scan("\n".join(lines[:-1]) + "\n", "csv", code, ref, True)


# ---------------------------------------------------------------------------
# smoke runs at reduced size
# ---------------------------------------------------------------------------

def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--small"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_benchmark_directory_fails():
    bare = run.RESULTS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-export",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=180, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
