"""What the benchmark harness in bench/ imports from the package and reads of it.

The harness's own tests are not part of this suite, and the harness changes
only with the benchmark, so this module pins the package's side: the
private kernels the harness imports, the public functions whose traced calls
and results it reads, and the command lines of its workloads.
"""

import inspect
import json

import numpy as np
import pytest

from twowayqkd import (ATTACK_CLASSES, AttackParams, _serialize, attacks, cli, gaussian,
                       keyrate_asymptotic, protocol, security)
from twowayqkd.attacks import _physical_mask, eve_cm
from twowayqkd.protocol import _keyrate_arrays
from twowayqkd.security import oneway_keyrate, threshold_curves

from _util import record_calls, run_cli

#: functions whose traced calls or results the harness reads, by module
TRACED = {
    gaussian: ("entropic_h", "symplectic_spectrum", "heterodyne_condition"),
    attacks: ("attack_from_class", "physical_region_grid"),
    protocol: ("keyrate_asymptotic",),
    security: ("oneway_keyrate", "optimal_attack_scan", "scan_grid"),
    _serialize: ("csv_table", "json_text"),
    cli: ("main",),
}


def test_physicality_kernels():
    vals = np.arange(-20, 21) * 0.1
    G, GP = np.meshgrid(vals, vals, indexing="ij")
    mask = _physical_mask(2.0, G, GP)
    assert mask.shape == G.shape and mask.dtype == bool and mask[20, 20]
    assert eve_cm(AttackParams(2.0, 0.5, -0.5)).shape == (4, 4)


def test_rate_kernel_broadcasts_over_correlation_arrays():
    g = np.array([0.0, -0.5, 0.3, -0.9])
    gp = np.array([0.0, -0.5, -0.2, -0.8])
    rates = _keyrate_arrays(0.8, 2.0, g, gp)
    assert rates.shape == g.shape
    assert rates.tolist() == [keyrate_asymptotic(0.8, AttackParams(2.0, a, b))
                              for a, b in zip(g.tolist(), gp.tolist())]


def test_oneway_rate_is_a_float():
    assert isinstance(oneway_keyrate(0.9, 1.2), float)


@pytest.mark.parametrize("label", [*ATTACK_CLASSES, "one-way"])
def test_curve_has_one_point_per_transmissivity(label):
    grid = [0.6, 0.73, 0.86, 0.99]
    if label == "one-way":
        curve, = threshold_curves([], grid, with_oneway=True)
    else:
        curve, = threshold_curves([label], grid)
    for column in (curve.T, curve.omega_star, curve.N_star, curve.secure, curve.status):
        assert column.shape == (len(grid),)


def test_traced_functions_are_public_module_functions():
    # the tracer wraps public functions defined in the module itself
    for module, names in TRACED.items():
        for name in names:
            fn = getattr(module, name)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_serializers_return_text():
    # the harness counts the bytes of the returned text, here also of the grid-export
    # documents: a record and the grid, as CSV and JSON
    table = _serialize.Table(["x"], (np.array([0.5]),))
    assert isinstance(_serialize.csv_table(table), str)
    assert isinstance(_serialize.json_text({"x": 0.5}), str)
    rows = security.scan_grid(0.8, 2.0, 0.1)
    record = _serialize.Table.record({"T": 0.8, "R_min": float(rows[:, 2].min())})
    grid = _serialize.Table(("g", "g_prime", "R"), tuple(rows.T))
    assert type(_serialize.csv_table(record, grid)) is str
    assert type(_serialize.json_text({"T": 0.8, "grid": grid})) is str


def test_scan_grid_builds_its_grid_once_through_the_module_global(monkeypatch):
    # the tracer's node and physical counts come from this one call
    grid_fn = security.physical_region_grid
    calls = record_calls(monkeypatch, security, "physical_region_grid")
    rows = security.scan_grid(0.8, 2.0, 0.1)
    assert calls == [((2.0, 0.1), {})]
    assert len(rows) == len(grid_fn(2.0, 0.1))


def test_workload_command_lines(monkeypatch):
    # the grid observer unpacks (omega, resolution) from positional arguments
    seen = record_calls(monkeypatch, security, "physical_region_grid")
    classes = [x for c in ATTACK_CLASSES for x in ("--attack", c)]
    code, out, _ = run_cli("threshold", *classes, "--t-min", "0.60", "--t-max", "0.99",
                           "--t-step", "0.13", "--with-oneway")
    assert code == 0 and len(out.splitlines()) == 1 + 8 * 4
    assert run_cli("scan", "--T", "0.8", "--omega", "1.5", "--step", "0.05")[0] in (0, 2)
    code, out, _ = run_cli("scan", "--T", "0.8", "--omega", "3", "--step", "0.1", "--full-grid",
                           "--format", "json")
    assert code in (0, 2) and json.loads(out)["grid"]
    assert run_cli("scan", "--T", "0.8", "--omega", "2", "--step", "0.1", "--full-grid",
                   "--format", "csv")[0] in (0, 2)
    assert seen and all(len(args) == 2 and not kwargs for args, kwargs in seen)
