import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twowayqkd import (ATTACK_CLASSES, attack_from_class, attacks, cli, gaussian,
                       keyrate_report, physical_region_grid, protocol, security)
from twowayqkd.attacks import MAX_GRID_NODES, _grid_half_width
from twowayqkd.cli import MAX_GRID_POINTS, _build_parser, _even_grid, main

from _util import record_calls, run_cli


class TestKeyrateCommand:
    def test_secure_point_json(self):
        code, out, _ = run_cli("keyrate", "--T", "0.9", "--omega", "1", "--attack", "collective")
        assert code == 0
        payload = json.loads(out)
        assert payload["R"] == pytest.approx(np.log2(0.9 * 1.9 / (np.e * 0.1)), abs=1e-12)
        assert list(payload) == ["nu1", "nu2", "nu3nu4_product", "nubar1", "nubar2", "S_E",
                                 "S_E_cond", "I_AB", "chi_EA", "R", "sigma", "sigma_prime",
                                 "Delta"]

    def test_insecure_point_exit_code(self):
        code, out, _ = run_cli("keyrate", "--T", "0.65", "--omega", "2",
                               "--attack", "sep-sym-")
        assert code == 2
        payload = json.loads(out)
        assert payload["R"] < 0.0
        assert payload["nu1"] == pytest.approx(3.0, rel=1e-12)

    def test_unphysical_custom_attack(self):
        code, _, _ = run_cli("keyrate", "--T", "0.9", "--omega", "1",
                             "--g", "5", "--g-prime", "0")
        assert code == 1

    def test_named_class_conflicts_with_raw_correlations(self):
        code, _, _ = run_cli("keyrate", "--T", "0.9", "--omega", "2",
                             "--attack", "collective", "--g", "0.5", "--g-prime", "0")
        assert code == 1

    def test_custom_attack_matches_library(self):
        code, out, _ = run_cli("keyrate", "--T", "0.8", "--omega", "1.5",
                               "--attack", "custom", "--g", "0.2", "--g-prime", "-0.1")
        assert code == 0
        from twowayqkd import AttackParams
        expected = keyrate_report(0.8, AttackParams(1.5, 0.2, -0.1)).R
        assert json.loads(out)["R"] == expected

    def test_json_round_trip_is_exact(self):
        _, out, _ = run_cli("keyrate", "--T", "0.77", "--omega", "1.9",
                            "--attack", "sep-anti+", "--mu", "1e6")
        payload = json.loads(out)
        rep = keyrate_report(0.77, attack_from_class("sep-anti+", 1.9), mu=1e6)
        for key, value in rep._asdict().items():
            assert payload[key] == value

    def test_missing_required_flag(self):
        code, _, _ = run_cli("keyrate", "--T", "0.9")
        assert code == 1


@pytest.mark.parametrize("argv", [
    ("keyrate", "--T", "0.77", "--omega", "1.9", "--attack", "sep-anti+"),
    ("keyrate", "--T", "0.77", "--omega", "1.9", "--attack", "sep-anti+", "--format", "csv"),
    ("appendix", "--T", "0.65", "--T", "0.95", "--omega-max", "3"),
    ("appendix", "--T", "0.65", "--omega-max", "2", "--format", "json"),
], ids=["keyrate-json", "keyrate-csv", "appendix-csv", "appendix-json"])
def test_default_modulation_is_1e6(argv):
    assert protocol.DEFAULT_MU == 1e6
    assert run_cli(*argv) == run_cli(*argv, "--mu", "1e6")


class TestThresholdCommand:
    def test_csv_shape_and_determinism(self):
        args = ("threshold", "--attack", "sep-sym-", "--attack", "collective",
                "--t-min", "0.7", "--t-max", "0.75", "--t-step", "0.01")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0] == "attack,T,omega_star,N_star,secure"
        assert len(lines) == 1 + 2 * 6
        assert lines[1].startswith("sep-sym-,")

    def test_requires_at_least_one_class(self):
        code, _, _ = run_cli("threshold", "--t-min", "0.7", "--t-max", "0.8",
                             "--t-step", "0.05")
        assert code == 1

    def test_with_oneway_baseline(self):
        code, out, _ = run_cli("threshold", "--attack", "collective",
                               "--t-min", "0.8", "--t-max", "0.85", "--t-step", "0.05",
                               "--with-oneway", "--format", "json")
        assert code == 0
        curves = json.loads(out)
        assert [c["attack_class"] for c in curves] == ["collective", "oneway"]
        for c in curves:
            assert all(p["N_star"] >= 0.0 for p in c["points"])

    def test_epr_sign_curves_identical_after_label_strip(self):
        base = ("--t-min", "0.4", "--t-max", "0.7", "--t-step", "0.1")
        _, out_pos, _ = run_cli("threshold", "--attack", "epr+", *base)
        _, out_neg, _ = run_cli("threshold", "--attack", "epr-", *base)
        strip = lambda text: [line.split(",", 1)[1] for line in text.splitlines()[1:]]
        assert strip(out_pos) == strip(out_neg)

    def test_one_point_grid_is_the_first_row_of_each_curve(self):
        base = ("threshold", "--t-min", "0.9", "--t-step", "0.05", "--attack", "sep-sym-",
                "--with-oneway")
        code, one, err = run_cli(*base, "--t-max", "0.9")
        assert (code, err) == (0, "")
        _, two, _ = run_cli(*base, "--t-max", "0.95")
        header, *rows = two.splitlines(keepends=True)
        firsts = {}
        for row in rows:
            firsts.setdefault(row.split(",", 1)[0], row)
        assert list(firsts) == ["sep-sym-", "oneway"]
        assert one == header + "".join(firsts.values())


class TestScanCommand:
    def test_minimizer_at_vacuum_noise(self):
        code, out, _ = run_cli("scan", "--T", "0.65", "--omega", "1",
                               "--step", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_g"] == 0 and payload["best_g_prime"] == 0

    def test_insecure_scan_exit_code(self):
        code, _, _ = run_cli("scan", "--T", "0.5", "--omega", "2", "--step", "0.25")
        assert code == 2

    def test_full_grid_row_count(self):
        code, out, _ = run_cli("scan", "--T", "0.9", "--omega", "1.5",
                               "--step", "0.25", "--full-grid")
        assert code == 0
        summary, grid = out.split("\n\n")
        assert grid.splitlines()[0] == "g,g_prime,R"
        assert len(grid.splitlines()) - 1 == len(physical_region_grid(1.5, 0.25))

    def test_full_grid_json(self):
        _, out, _ = run_cli("scan", "--T", "0.9", "--omega", "1.5",
                            "--step", "0.25", "--full-grid", "--format", "json")
        payload = json.loads(out)
        assert len(payload["grid"]) == len(physical_region_grid(1.5, 0.25))

    def test_full_grid_evaluates_the_grid_once(self, monkeypatch):
        calls = record_calls(monkeypatch, security, "_keyrate_arrays")
        code, out, _ = run_cli("scan", "--T", "0.9", "--omega", "1.5",
                               "--step", "0.25", "--full-grid", "--format", "json")
        assert code == 0
        assert len(calls) == 1
        payload = json.loads(out)
        best = min((row["R"], row["g"], row["g_prime"]) for row in payload["grid"])
        assert (payload["R_min"], payload["best_g"], payload["best_g_prime"]) == best


class TestThresholdBatching:
    def test_threshold_builds_no_attack_params(self, monkeypatch):
        from_class = [record_calls(monkeypatch, m, "attack_from_class") for m in (attacks, cli)]
        keyrate = record_calls(monkeypatch, protocol, "keyrate_asymptotic")
        two_way = record_calls(monkeypatch, security, "_keyrate_arrays")
        oneway_keyrate = record_calls(monkeypatch, security, "oneway_keyrate")
        quantities = record_calls(monkeypatch, security, "_oneway_quantities")
        one_way = record_calls(monkeypatch, security, "_oneway_arrays")
        excess_noise = record_calls(monkeypatch, security, "excess_noise")
        results = []

        def threshold_curves(*args, **kwargs):
            results.append(security.threshold_curves(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "threshold_curves", threshold_curves)
        classes = [x for c in ATTACK_CLASSES for x in ("--attack", c)]
        code, out, _ = run_cli("threshold", *classes, "--t-min", "0.3", "--t-max", "0.99",
                               "--t-step", "0.01", "--with-oneway")
        assert code == 0 and len(out.splitlines()) == 1 + 8 * 70
        assert sum(map(len, from_class)) == 0 and len(keyrate) == 0
        assert len(oneway_keyrate) == 0 and len(quantities) == 0
        # the curves reach the emitter as arrays, with no per-point work in between
        assert len(excess_noise) == 0
        (curves,) = results
        for c in curves:
            for column in (c.T, c.omega_star, c.N_star):
                assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert isinstance(c.secure, np.ndarray) and c.secure.dtype == np.bool_
        # one kernel call per solver step for the open lanes of all seven curves, not one
        # per curve or per lane
        assert 0 < len(two_way) <= 60
        assert 0 < len(one_way) <= 60

    def test_workload_kernel_calls(self, monkeypatch):
        # the threshold-curves benchmark line: one two-way call per solver step while any
        # class lane is open, one one-way call per step while the one-way lanes are
        two_way = record_calls(monkeypatch, security, "_keyrate_arrays")
        one_way = record_calls(monkeypatch, security, "_oneway_arrays")
        classes = [x for c in ATTACK_CLASSES for x in ("--attack", c)]
        code, _, _ = run_cli("threshold", *classes, "--t-min", "0.30", "--t-max", "0.99",
                             "--t-step", "0.01", "--with-oneway")
        assert code == 0
        assert (len(two_way), len(one_way)) == (47, 41)


# the README's examples with their exit codes, plus a scan without --full-grid
README_RUNS = [
    (("keyrate", "--T", "0.9", "--omega", "1", "--attack", "collective"), 0),
    (("keyrate", "--T", "0.8", "--omega", "1.6", "--attack", "custom",
      "--g", "0.2", "--g-prime", "-0.3"), 0),
    (("threshold", "--attack", "sep-sym-", "--attack", "collective", "--t-min", "0.65",
      "--t-max", "0.98", "--t-step", "0.01", "--with-oneway", "--output", "curves.csv"), 0),
    (("scan", "--T", "0.8", "--omega", "2", "--step", "0.02", "--full-grid",
      "--format", "json"), 2),
    (("oneway", "--T", "0.9", "--omega", "1.2"), 0),
    (("appendix", "--T", "0.65", "--T", "0.95", "--mu", "1e6", "--omega-max", "5",
      "--omega-step", "0.5"), 0),
    (("scan", "--T", "0.8", "--omega", "2", "--step", "0.02"), 2),
]


@pytest.mark.parametrize("argv, expected", README_RUNS, ids=[a[0] for a, _ in README_RUNS])
def test_commands_make_no_blas_call(argv, expected, monkeypatch, tmp_path):
    """The CLI starts BLAS with one thread because no command reaches it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a CLI command called linear algebra")
    for name in ("cholesky", "svd", "solve", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("symplectic_spectrum", "heterodyne_condition", "apply_symplectic",
                 "is_symplectic", "ppt_separable"):
        monkeypatch.setattr(gaussian, name, forbidden)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv)[0] == expected


def _cli_command(*argv, flags=(), **env_overrides):
    """Command line and environment of a fresh `python -m twowayqkd.cli` process,
    with buffered standard output as a user gets it unless `env_overrides` sets
    PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return [sys.executable, *flags, "-m", "twowayqkd.cli", *argv], env


def _cli_process(*argv, flags=(), stdout=subprocess.PIPE, **env_overrides):
    """A fresh `python -m twowayqkd.cli` process (see _cli_command), run to its end."""
    command, env = _cli_command(*argv, flags=flags, **env_overrides)
    return subprocess.run(command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


class _Exit(Exception):
    """Raised by a stand-in for os._exit, so that cli.run can be called in-process."""


def _raise_exit(code):
    raise _Exit(code)


class _FullStream(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


class TestEntryPoint:
    def test_module_run_raises_no_warning(self):
        # runpy warns when the package's __init__ has already imported the cli module
        done = _cli_process("scan", "--T", "0.8", "--omega", "2", "--step", "0.05",
                            flags=("-W", "error"))
        assert (done.returncode, done.stderr) == (2, "")

    @pytest.mark.parametrize("argv", [
        ("keyrate", "--T", "0.9", "--omega", "1", "--attack", "collective"),
        ("threshold", "--attack", "sep-sym-", "--attack", "collective", "--t-min", "0.65",
         "--t-max", "0.98", "--t-step", "0.01", "--with-oneway"),
        ("scan", "--T", "0.8", "--omega", "2", "--step", "0.05", "--full-grid", "--format", "json"),
        ("oneway", "--T", "0.9", "--omega", "1.2"),
        ("appendix", "--T", "0.65", "--T", "0.95", "--omega-step", "0.5"),
    ], ids=lambda v: v[0])
    def test_output_does_not_depend_on_blas_threads(self, argv):
        one, two = (_cli_process(*argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert one.stdout and one.stderr == ""
        assert (one.returncode, one.stdout) == (two.returncode, two.stdout)

    @pytest.mark.parametrize("argv", [
        ("keyrate", "--T", "0.9", "--omega", "1", "--attack", "collective"),
        ("scan", "--T", "0.8000", "--omega", "2", "--step", "0.01"),
        ("scan", "--T", "0.8", "--omega", "2", "--step", "0.01", "--no-such-flag"),
        ("threshold", *[x for c in ATTACK_CLASSES for x in ("--attack", c)],
         "--t-min", "0.30", "--t-max", "0.99", "--t-step", "0.01", "--with-oneway"),
        ("scan", "--T", "0.8000", "--omega", "3", "--step", "0.02", "--full-grid",
         "--format", "json"),
        ("scan", "--help"),
    ], ids=("keyrate", "scan", "usage-error", "threshold", "full-grid-json", "help"))
    def test_process_matches_main(self, argv, monkeypatch):
        """A process ends with os._exit, after its output, and prints what main prints."""
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width in both
        done = _cli_process(*argv)
        assert (done.returncode, done.stdout, done.stderr) == run_cli(*argv)

    def test_process_output_file_matches_main(self, tmp_path):
        argv = ("scan", "--T", "0.8", "--omega", "2", "--step", "0.02", "--full-grid")
        done = _cli_process(*argv, "--output", str(tmp_path / "process.csv"))
        in_process = run_cli(*argv, "--output", str(tmp_path / "main.csv"))
        assert (done.returncode, done.stdout, done.stderr) == in_process == (2, "", "")
        assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, env", [
        (("keyrate", "--T", "0.8", "--omega", "2", "--attack", "collective"), {}),
        (("keyrate", "--T", "0.8", "--omega", "2", "--attack", "collective"),
         {"PYTHONUNBUFFERED": "1"}),
        (("scan", "--T", "0.8", "--omega", "3", "--step", "0.1", "--full-grid"), {}),
        (("scan", "--T", "0.8", "--omega", "3", "--step", "0.1", "--full-grid"),
         {"PYTHONUNBUFFERED": "1"}),
        # argparse writes the help: buffered, the flush in cli.run reports the failure;
        # unbuffered, the write itself raises, and cli._Parser lets the error reach main
        (("scan", "--help"), {}),
        (("scan", "--help"), {"PYTHONUNBUFFERED": "1"}),
    ], ids=("keyrate", "keyrate-unbuffered", "full-grid", "full-grid-unbuffered", "help",
            "help-unbuffered"))
    def test_failed_write_exits_1_with_message(self, argv, env):
        with open("/dev/full", "w") as full:
            done = _cli_process(*argv, stdout=full, **env)
        assert (done.returncode, done.stderr) == \
            (1, "twowayqkd: error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}],
                             ids=("buffered", "unbuffered"))
    @pytest.mark.parametrize("argv, stdout_full", [
        (("keyrate", "--T", "2", "--omega", "2", "--attack", "collective"), False),
        (("scan", "--T", "0.8", "--omega", "3", "--step", "0.1", "--full-grid"), True),
    ], ids=("invalid-input", "failed-write"))
    def test_unwritable_stderr_still_exits_1(self, argv, stdout_full, env):
        # main's own error message cannot be written: the run still ends with exit code 1
        command, env = _cli_command(*argv, **env)
        with open("/dev/full", "w") as full:
            done = subprocess.run(command, env=env, stderr=full, timeout=120,
                                  stdout=full if stdout_full else subprocess.DEVNULL)
        assert done.returncode == 1

    @pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}],
                             ids=("buffered", "unbuffered"))
    def test_reader_that_quits_early_exits_1_with_message(self, env):
        # 5.2 MB of JSON: reading first leaves the process blocked in a write far larger
        # than the pipe holds, so closing the pipe cuts that write short every time
        command, env = _cli_command("scan", "--T", "0.8", "--omega", "3", "--step", "0.02",
                                    "--full-grid", "--format", "json", **env)
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{"T": 0.80'
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, err) == (1, b"twowayqkd: error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("main_code, code, message", [
        (0, 1, "twowayqkd: error: [Errno 28] No space left on device\n"),
        (2, 1, "twowayqkd: error: [Errno 28] No space left on device\n"),
        (1, 1, ""),  # main has already reported the failed write
    ], ids=("secure", "insecure", "failed"))
    def test_run_reports_a_failed_final_flush(self, main_code, code, message, monkeypatch):
        err = io.StringIO()
        monkeypatch.setattr(cli, "main", lambda: main_code)
        monkeypatch.setattr(os, "_exit", _raise_exit)
        monkeypatch.setattr(sys, "stdout", _FullStream())
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(_Exit) as exit_:
            cli.run()
        assert (exit_.value.args, err.getvalue()) == ((code,), message)

    def test_run_with_both_streams_closed(self, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: 2)
        monkeypatch.setattr(os, "_exit", _raise_exit)
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(_Exit) as exit_:
            cli.run()
        assert exit_.value.args == (2,)


class TestClosedStdout:
    def test_closed_stdout_is_an_error(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["keyrate", "--T", "0.8", "--omega", "2", "--attack", "collective"])
        assert (code, err.getvalue()) == (1, "twowayqkd: error: standard output is closed\n")

    def test_output_file_needs_no_stdout(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stdout", None)
        target = tmp_path / "scan.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["scan", "--T", "0.8", "--omega", "2", "--step", "0.02",
                         "--output", str(target)])
        assert (code, err.getvalue()) == (2, "")
        assert target.read_text().startswith("T,omega,best_g,best_g_prime,R_min")


class TestInvalidInput:
    """Non-finite and out-of-range values fail with exit code 1 and a message
    naming the value, never with a traceback or a physics verdict."""

    @pytest.mark.parametrize("argv, named", [
        (("scan", "--T", "0.8", "--omega", "inf", "--step", "0.1"), ("omega", "inf")),
        (("scan", "--T", "1.5", "--omega", "2", "--step", "0.1"), ("T", "1.5")),
        (("scan", "--T", "nan", "--omega", "2", "--step", "0.1"), ("T", "nan")),
        (("scan", "--T", "0", "--omega", "2", "--step", "0.1"), ("T", "0.0")),
        (("scan", "--T", "0.8", "--omega", "2", "--step", "inf"), ("resolution", "inf")),
        (("keyrate", "--T", "0.8", "--omega", "inf", "--attack", "collective"), ("omega", "inf")),
        (("oneway", "--T", "0.9", "--omega", "inf"), ("omega", "inf")),
        (("oneway", "--T", "0.9", "--omega", "nan"), ("omega", "nan")),
        (("oneway", "--T", "0.9", "--omega", "1.2", "--mu", "inf"), ("mu", "inf")),
        (("keyrate", "--T", "0.8", "--omega", "1.5", "--attack", "collective", "--mu", "inf"),
         ("mu", "inf")),
        (("appendix", "--T", "0.65", "--mu", "inf", "--omega-max", "2"), ("mu", "inf")),
        (("appendix", "--T", "0.65", "--omega-max", "inf"), ("omega-max", "inf")),
        (("threshold", "--attack", "collective", "--t-min", "0.5", "--t-max", "0.9",
          "--t-step", "1e-300"), ("4e+299", "grid points", str(MAX_GRID_POINTS))),
        (("appendix", "--T", "0.65", "--omega-step", "1e-300"),
         ("4e+300", "grid points", str(MAX_GRID_POINTS))),
        (("scan", "--T", "0.8", "--omega", "3", "--step", "1e-4"),
         ("3.60012e+09", "grid nodes", str(MAX_GRID_NODES))),
        (("scan", "--T", "0.8", "--omega", "2", "--step", "1e-300"),
         ("grid nodes", str(MAX_GRID_NODES))),
        (("scan", "--T", "0.8", "--omega", "2", "--step", "1e-300", "--full-grid"),
         ("grid nodes", str(MAX_GRID_NODES))),
        (("oneway", "--T", "0.9", "--omega", "1.2", "--mu", "-0.5"), ("--mu", "-0.5")),
        (("oneway", "--T", "0.9", "--omega", "1.2", "--mu", "nan"), ("--mu", "nan")),
        (("oneway", "--T", "0.9", "--omega", "1.2", "--mu", "1e15"),
         ("--mu", "1000000000000000.0", "1e+09")),
        (("appendix", "--T", "0.5", "--mu", "1e200"), ("mu", "1e+200", "1e+09")),
        (("scan", "--T", "0.5", "--omega", "1e300", "--step", "1e299"),
         ("omega", "1e+300", "1e+09")),
        (("oneway", "--T", "0.9", "--omega", "1.2", "--mu", "1e200"),
         ("--mu", "1e+200", "1e+09")),
        (("keyrate", "--T", "0.8", "--omega", "1.5", "--attack", "collective", "--mu", "1e160"),
         ("mu", "1e+160", "1e+09")),
        (("keyrate", "--T", "0.8", "--omega", "2e9", "--attack", "collective"),
         ("omega", "2000000000.0", "1e+09")),
        (("appendix", "--T", "0.5", "--omega-max", "2e9", "--omega-step", "1e5"),
         ("omega", "1e+09")),
        (("keyrate", "--T", "1e-300", "--omega", "1", "--attack", "collective"),
         ("T*mu", "T=1e-300", "1.49e-154")),
        (("keyrate", "--T", "0.5", "--omega", "1", "--attack", "collective", "--mu", "1e-300"),
         ("T*mu", "mu=1e-300", "1.49e-154")),
        (("appendix", "--T", "0.5", "--T", "1e-300"), ("T*mu", "T=1e-300", "1.49e-154")),
        (("keyrate", "--T", "0.999999999", "--omega", "1", "--attack", "collective",
          "--mu", "1.6e-154"), ("(1-T)*mu", "mu=1.6e-154", "1.49e-154")),
        (("scan", "--T", "5e-324", "--omega", "2", "--step", "0.5"),
         ("T", "5e-324", "smallest normal double 2.23e-308")),
        (("keyrate", "--T", "0.9999", "--omega", "2", "--attack", "collective", "--mu", "1000"),
         ("(1-T)*mu = 0.09999999999998899", "asymptotic regime", "chi_EA=-2.5017")),
        (("threshold", "--attack", "collective", "--t-min", "5e-324", "--t-max", "0.5",
          "--t-step", "0.25"), ("T", "5e-324", "smallest normal double 2.23e-308")),
        (("threshold", "--attack", "collective", "--t-min", "0.9", "--t-max", "0.7",
          "--t-step", "0.05"), ("t-min", "t-max", "0.9", "0.7")),
        (("appendix", "--T", "0.65", "--omega-min", "3", "--omega-max", "2"),
         ("omega-min", "omega-max", "3.0", "2.0")),
        (("threshold", "--attack", "collective", "--t-min", "0.5",
          "--t-max", "0.5000000000000001", "--t-step", "1e-20"), ("t-step", "1e-20", "repeats")),
        (("appendix", "--T", "0.65", "--omega-min", "2", "--omega-max", "2.0000000000000004",
          "--omega-step", "1e-16"), ("omega-step", "1e-16", "repeats")),
    ], ids=["scan-omega-inf", "scan-T-above-one", "scan-T-nan", "scan-T-zero",
            "scan-step-inf", "keyrate-omega-inf", "oneway-omega-inf", "oneway-omega-nan",
            "oneway-mu-inf", "keyrate-mu-inf", "appendix-mu-inf", "appendix-omega-max-inf",
            "threshold-grid-over-cap", "appendix-grid-over-cap", "scan-grid-over-cap",
            "scan-grid-far-over-cap", "full-grid-far-over-cap",
            "oneway-mu-negative", "oneway-mu-nan", "oneway-mu-over-bound",
            "appendix-mu-over-bound", "scan-omega-over-bound", "oneway-mu-far-over-bound",
            "keyrate-mu-over-bound", "keyrate-omega-over-bound", "appendix-omega-over-bound",
            "keyrate-T-mu-underflow", "keyrate-mu-underflow", "appendix-T-mu-underflow",
            "keyrate-one-minus-T-mu-underflow", "scan-T-subnormal", "threshold-t-min-subnormal",
            "keyrate-outside-asymptotic-regime", "threshold-grid-reversed",
            "appendix-grid-reversed", "threshold-step-below-spacing",
            "appendix-step-below-spacing"])
    def test_rejected_with_message(self, argv, named):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert all(word in err for word in named)
        assert "must" in err and "unphysical" not in err

    def test_appendix_checks_every_T_before_any_block(self, monkeypatch):
        # the one class_variations call checks every T, and raises before it evaluates
        variations = record_calls(monkeypatch, cli, "class_variations")
        information = record_calls(monkeypatch, security, "_information")
        code, out, err = run_cli("appendix", "--T", "0.5", "--T", "1.5")
        assert (code, out) == (1, "")
        assert "channel transmissivity T must lie in (0, 1), got 1.5" in err
        assert (len(variations), len(information)) == (1, 0)

    @pytest.mark.parametrize("lo, hi, step, count", [
        (0.0, MAX_GRID_POINTS - 1.0, 1.0, MAX_GRID_POINTS),
        (0.25, 0.25 + (MAX_GRID_POINTS - 1) * 0.013, 0.013, MAX_GRID_POINTS),
        (0.3, 0.99, 0.01, 70), (1.0, 5.0, 0.37, 11)],
        ids=["cap", "cap-odd-step", "t-grid", "odd-step"])
    def test_even_grid_is_the_scalar_sum(self, lo, hi, step, count):
        grid = _even_grid(_build_parser(), "t", lo, hi, step)
        assert grid.dtype == np.float64
        assert grid.tolist() == [lo + k * step for k in range(count)]

    def test_grid_cap_is_inclusive(self, capsys):
        parser = _build_parser()
        assert len(_even_grid(parser, "t", 0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(SystemExit):
            _even_grid(parser, "t", 0.0, float(MAX_GRID_POINTS), 1.0)
        assert f"gives {MAX_GRID_POINTS + 1} grid points" in capsys.readouterr().err

    def test_scan_grid_cap_is_inclusive(self, monkeypatch):
        # node counts only: nothing of the grid is allocated
        assert _grid_half_width(3.0, 0.01) == 300  # 361,201 nodes, the largest scan in use
        assert _grid_half_width(499.0, 1.0) == 499  # 999^2 <= MAX_GRID_NODES < 1001^2
        with pytest.raises(ValueError, match="1.002e\\+06 grid nodes"):
            _grid_half_width(500.0, 1.0)
        monkeypatch.setattr(attacks, "MAX_GRID_NODES", 25)
        assert _grid_half_width(2.0, 1.0) == 2
        with pytest.raises(ValueError, match="at most 25"):
            _grid_half_width(3.0, 1.0)

    @pytest.mark.parametrize("argv, cfg, flags", [
        (("threshold",), {"attack": "sep-sym-", "t-min": 0.5, "t-max": 0.9, "t-step": 0.1},
         ("threshold", "--attack", "sep-sym-", "--t-min", "0.5", "--t-max", "0.9",
          "--t-step", "0.1")),
        (("appendix", "--omega-max", "2"), {"T": 0.8},
         ("appendix", "--omega-max", "2", "--T", "0.8")),
    ], ids=["threshold-attack-scalar", "appendix-T-scalar"])
    def test_config_scalar_for_repeatable_flag(self, tmp_path, argv, cfg, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(*argv, "--config", str(path))
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(*flags)

    @pytest.mark.parametrize("command, cfg, named", [
        ("scan", {"T": "0.8", "omega": 2, "step": 0.1}, ("'T'", "number", "'0.8'")),
        ("scan", {"T": True, "omega": 2, "step": 0.1}, ("'T'", "number", "True")),
        ("threshold", {"attack": ["collective", 3], "t-min": 0.5, "t-max": 0.9, "t-step": 0.1},
         ("'attack'", "string", "3")),
        ("threshold", {"attack": "collective", "t-min": 0.5, "t-max": 0.9, "t-step": 0.1,
                       "with-oneway": "yes"}, ("'with-oneway'", "true or false", "'yes'")),
        ("appendix", {"T": [0.65, None]}, ("'T'", "list of numbers", "None")),
        ("keyrate", {"T": 0.9, "omega": 1, "attack": "collective", "format": "xml"},
         ("'format'", "csv, json", "'xml'")),
        ("keyrate", {"T": 0.9, "omega": 10 ** 400, "attack": "collective"},
         ("'omega'", "number", "1000")),
        ("oneway", {"config": "/nonexistent.json", "T": 0.8, "omega": 1.2},
         ("'config'", "not allowed")),
    ], ids=["scan-T-string", "scan-T-bool", "threshold-attack-number",
            "threshold-with-oneway-string", "appendix-T-null", "keyrate-format-choice",
            "keyrate-omega-overflow", "oneway-nested-config"])
    def test_config_value_of_wrong_type(self, tmp_path, command, cfg, named):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(command, "--config", str(path))
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert all(word in err for word in named)


class TestParserPerCommand:
    """Every run builds the one parser, which holds all the subcommands."""

    def test_top_level_help_lists_every_command(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli("--help")
        assert (code, err) == (0, "")
        assert "{keyrate,threshold,scan,oneway,appendix}" in out
        assert all(f"\n    {c} " in out for c in cli._SUBCOMMANDS)


class TestOnewayCommand:
    def test_secure_point(self):
        code, out, _ = run_cli("oneway", "--T", "0.9", "--omega", "1")
        assert code == 0
        assert json.loads(out)["R"] > 0

    def test_insecure_point(self):
        code, out, _ = run_cli("oneway", "--T", "0.7", "--omega", "1")
        assert code == 2

    @pytest.mark.parametrize("T, omega", [("0.9", "1.2"), ("0.3", "2")])
    def test_zero_modulation_has_zero_rate(self, T, omega):
        code, out, _ = run_cli("oneway", "--T", T, "--omega", omega, "--mu", "0")
        assert code == 2
        assert json.loads(out)["R"] == 0.0


class TestAppendixCommand:
    def test_vacuum_noise_row_degenerates(self):
        code, out, _ = run_cli("appendix", "--T", "0.65", "--mu", "1e6",
                               "--omega-max", "2", "--omega-step", "0.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        first = rows[0]
        assert first["omega"] == 1
        i_cols = [v for k, v in first.items() if k.startswith("I_AB_")]
        chi_cols = [v for k, v in first.items() if k.startswith("chi_EA_")]
        assert len(set(i_cols)) == 1 and len(set(chi_cols)) == 1
        assert first["dI_AB"] == 0 and first["dchi_EA"] == 0

    def test_optimal_attack_has_largest_holevo(self):
        _, out, _ = run_cli("appendix", "--T", "0.65", "--mu", "1e6",
                            "--omega-max", "5", "--omega-step", "1", "--format", "json")
        for row in json.loads(out):
            if row["omega"] == 1:
                continue
            others = [v for k, v in row.items()
                      if k.startswith("chi_EA_") and not k.endswith("sep-sym-")]
            assert all(row["chi_EA_sep-sym-"] > v for v in others)

    def test_two_transmissivities(self):
        _, out, _ = run_cli("appendix", "--T", "0.65", "--T", "0.95", "--mu", "1e6",
                            "--omega-max", "2", "--omega-step", "1", "--format", "json")
        rows = json.loads(out)
        assert sorted({row["T"] for row in rows}) == [0.65, 0.95]

    def test_appendix_builds_no_attack_params(self, monkeypatch):
        from_class = [record_calls(monkeypatch, m, "attack_from_class") for m in (attacks, cli)]
        report = [record_calls(monkeypatch, m, "keyrate_report") for m in (protocol, cli)]
        two_way_at = record_calls(monkeypatch, protocol, "_two_way_at")
        information = record_calls(monkeypatch, security, "_information")
        monkeypatch.setattr(attacks.AttackParams, "__new__",
                            lambda cls, *args, **kwargs: pytest.fail("AttackParams built"))
        code, out, _ = run_cli("appendix", "--T", "0.65", "--T", "0.95", "--omega-step", "0.01")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 401
        assert sum(map(len, from_class)) == 0
        assert sum(map(len, report)) == len(two_way_at) == 0
        # one five-class evaluation of the whole (T, omega) grid; the variations come from it
        assert len(information) == 1

    @pytest.mark.parametrize("ts", [("0.65",), ("0.65", "0.95"),
                                    ("0.3", "0.5", "0.65", "0.8", "0.95")])
    def test_one_evaluation_per_run(self, ts, monkeypatch):
        information = record_calls(monkeypatch, security, "_information")
        code, out, err = run_cli("appendix", *(x for t in ts for x in ("--T", t)),
                                 "--omega-max", "2", "--omega-step", "0.5")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 3 * len(ts)
        assert len(information) == 1

    @pytest.mark.parametrize("ts", [("1.5", "0.5", "0.65", "0.8", "0.95"),
                                    ("0.3", "0.5", "1.5", "0.8", "0.95"),
                                    ("0.3", "0.5", "0.65", "0.8", "1.5")],
                             ids=["first", "middle", "last"])
    def test_invalid_T_anywhere_evaluates_nothing(self, ts, monkeypatch):
        information = record_calls(monkeypatch, security, "_information")
        code, out, err = run_cli("appendix", *(x for t in ts for x in ("--T", t)))
        assert (code, out) == (1, "")
        assert err == "twowayqkd: error: channel transmissivity T must lie in (0, 1), got 1.5\n"
        assert len(information) == 0

    def test_matches_point_calls(self):
        # each cell against the scalar report's information fields at the class's attack
        _, out, _ = run_cli("appendix", "--T", "0.3", "--T", "0.9", "--mu", "1e5",
                            "--omega-max", "4", "--omega-step", "0.75", "--format", "json")
        for row in json.loads(out):
            for label in cli._APPENDIX_CLASSES:
                a = attack_from_class(label, row["omega"])
                rep = keyrate_report(row["T"], a, 1e5)
                assert (row[f"I_AB_{label}"], row[f"chi_EA_{label}"]) == (rep.I_AB, rep.chi_EA)

    def test_rejects_small_modulation(self):
        # the message of class_variations, which owns the rule
        assert run_cli("appendix", "--T", "0.65", "--mu", "10") == (
            1, "", "twowayqkd: error: the asymptotic regime needs mu >= 1e3, got 10.0\n")


def _threshold_error(label, t_min, t_max, t_step):
    """What a threshold command prints for the ValueError of threshold_curves on its grid."""
    grid = _even_grid(_build_parser(), "t", t_min, t_max, t_step)
    with pytest.raises(ValueError) as exc:
        security.threshold_curves([label], grid)
    return f"twowayqkd: error: {exc.value}\n"


class TestLibraryOwnsPhysicalBounds:
    """The CLI leaves each physical bound and class label to the library function
    that applies it: a command fails with that function's own message, and takes
    the boundary that the function takes."""

    UNKNOWN_CLASS = ("twowayqkd: error: unknown attack class 'bogus'; expected one of "
                     + ", ".join(ATTACK_CLASSES) + "\n")

    @pytest.mark.parametrize("argv, message", [
        (("appendix", "--T", "0.65", "--omega-min", "0.5"),
         "twowayqkd: unphysical parameters: thermal variance omega must be >= 1 SNU, "
         "got 0.5\n"),
        (("threshold", "--attack", "bogus", "--t-min", "0.5", "--t-max", "0.9",
          "--t-step", "0.1"), UNKNOWN_CLASS),
        (("keyrate", "--T", "0.8", "--omega", "2", "--attack", "bogus"), UNKNOWN_CLASS),
        (("threshold", "--attack", "collective", "--t-min", "0", "--t-max", "0.5",
          "--t-step", "0.25"), _threshold_error("collective", 0.0, 0.5, 0.25)),
        (("threshold", "--attack", "collective", "--t-min", "0.5", "--t-max", "1",
          "--t-step", "0.25"), _threshold_error("collective", 0.5, 1.0, 0.25)),
    ], ids=["appendix-omega-min-below-vacuum", "threshold-unknown-class",
            "keyrate-unknown-class", "threshold-t-min-zero", "threshold-grid-reaches-one"])
    def test_rejected_with_the_library_message(self, argv, message):
        assert run_cli(*argv) == (1, "", message)

    @pytest.mark.parametrize("argv", [
        ("appendix", "--T", "0.65", "--T", "0.95", "--omega-min", "1", "--omega-max", "1"),
        ("appendix", "--T", "0.65", "--mu", "1e3", "--omega-max", "2", "--omega-step", "1"),
    ], ids=["appendix-omega-at-vacuum", "appendix-mu-at-regime-bound"])
    def test_boundary_accepted(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 2  # header and two (T, omega) rows


class TestConfigAndOutput:
    def test_config_file_supplies_missing_flags(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 0.9, "omega": 1.0, "attack": "collective"}))
        code, out, _ = run_cli("keyrate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["R"] == pytest.approx(2.6532293791095727, abs=1e-12)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 0.9, "omega": 1.0, "attack": "collective"}))
        code, out, _ = run_cli("keyrate", "--config", str(cfg), "--omega", "2.0")
        assert code == 0
        assert json.loads(out)["nu1"] == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"testing": 1}))
        code, _, _ = run_cli("keyrate", "--T", "0.9", "--omega", "1",
                             "--attack", "collective", "--config", str(cfg))
        assert code == 1

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli("keyrate", "--T", "0.9", "--omega", "1",
                               "--attack", "collective", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["R"] > 0

    def test_csv_format_of_keyrate(self):
        code, out, _ = run_cli("keyrate", "--T", "0.9", "--omega", "1",
                               "--attack", "collective", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[0] == "nu1"
        assert len(lines) == 2
