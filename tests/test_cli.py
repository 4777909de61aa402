import contextlib
import io
import json

import numpy as np
import pytest

from twowayqkd import (ATTACK_CLASSES, attack_from_class, attacks, cli, holevo_asymptotic,
                       keyrate_report, mutual_information_asymptotic, physical_region_grid,
                       protocol, security)
from twowayqkd.attacks import MAX_GRID_NODES, _grid_half_width
from twowayqkd.cli import MAX_GRID_POINTS, _build_parser, _even_grid, main

from _util import count_calls


def run_with_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run(_capsys, *argv):
    code, out, _ = run_with_stderr(*argv)
    return code, out


class TestKeyrateCommand:
    def test_secure_point_json(self, capsys):
        code, out = run(capsys, "keyrate", "--T", "0.9", "--omega", "1", "--attack", "collective")
        assert code == 0
        payload = json.loads(out)
        assert payload["R"] == pytest.approx(np.log2(0.9 * 1.9 / (np.e * 0.1)), abs=1e-12)
        assert list(payload) == ["nu1", "nu2", "nu3nu4_product", "nubar1", "nubar2", "S_E",
                                 "S_E_cond", "I_AB", "chi_EA", "R", "sigma", "sigma_prime",
                                 "Delta"]

    def test_insecure_point_exit_code(self, capsys):
        code, out = run(capsys, "keyrate", "--T", "0.65", "--omega", "2",
                        "--attack", "sep-sym-")
        assert code == 2
        payload = json.loads(out)
        assert payload["R"] < 0.0
        assert payload["nu1"] == pytest.approx(3.0, rel=1e-12)

    def test_unphysical_custom_attack(self, capsys):
        code, _ = run(capsys, "keyrate", "--T", "0.9", "--omega", "1",
                      "--g", "5", "--g-prime", "0")
        assert code == 1

    def test_named_class_conflicts_with_raw_correlations(self, capsys):
        code, _ = run(capsys, "keyrate", "--T", "0.9", "--omega", "2",
                      "--attack", "collective", "--g", "0.5", "--g-prime", "0")
        assert code == 1

    def test_custom_attack_matches_library(self, capsys):
        code, out = run(capsys, "keyrate", "--T", "0.8", "--omega", "1.5",
                        "--attack", "custom", "--g", "0.2", "--g-prime", "-0.1")
        assert code == 0
        from twowayqkd import AttackParams
        expected = keyrate_report(0.8, AttackParams(1.5, 0.2, -0.1)).R
        assert json.loads(out)["R"] == expected

    def test_json_round_trip_is_exact(self, capsys):
        _, out = run(capsys, "keyrate", "--T", "0.77", "--omega", "1.9",
                     "--attack", "sep-anti+", "--mu", "1e6")
        payload = json.loads(out)
        rep = keyrate_report(0.77, attack_from_class("sep-anti+", 1.9), mu=1e6)
        for key, value in rep.to_dict().items():
            assert payload[key] == value

    def test_missing_required_flag(self, capsys):
        code, _ = run(capsys, "keyrate", "--T", "0.9")
        assert code == 1


class TestThresholdCommand:
    def test_csv_shape_and_determinism(self, capsys):
        args = ("threshold", "--attack", "sep-sym-", "--attack", "collective",
                "--t-min", "0.7", "--t-max", "0.75", "--t-step", "0.01")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0] == "attack,T,omega_star,N_star,secure"
        assert len(lines) == 1 + 2 * 6
        assert lines[1].startswith("sep-sym-,")

    def test_requires_at_least_one_class(self, capsys):
        code, _ = run(capsys, "threshold", "--t-min", "0.7", "--t-max", "0.8",
                      "--t-step", "0.05")
        assert code == 1

    def test_with_oneway_baseline(self, capsys):
        code, out = run(capsys, "threshold", "--attack", "collective",
                        "--t-min", "0.8", "--t-max", "0.85", "--t-step", "0.05",
                        "--with-oneway", "--format", "json")
        assert code == 0
        curves = json.loads(out)
        assert [c["attack_class"] for c in curves] == ["collective", "oneway"]
        for c in curves:
            assert all(p["N_star"] >= 0.0 for p in c["points"])

    def test_epr_sign_curves_identical_after_label_strip(self, capsys):
        base = ("--t-min", "0.4", "--t-max", "0.7", "--t-step", "0.1")
        _, out_pos = run(capsys, "threshold", "--attack", "epr+", *base)
        _, out_neg = run(capsys, "threshold", "--attack", "epr-", *base)
        strip = lambda text: [line.split(",", 1)[1] for line in text.splitlines()[1:]]
        assert strip(out_pos) == strip(out_neg)

    def test_bad_grid(self, capsys):
        code, _ = run(capsys, "threshold", "--attack", "collective",
                      "--t-min", "0.9", "--t-max", "0.7", "--t-step", "0.05")
        assert code == 1


class TestScanCommand:
    def test_minimizer_at_vacuum_noise(self, capsys):
        code, out = run(capsys, "scan", "--T", "0.65", "--omega", "1",
                        "--step", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_g"] == 0 and payload["best_g_prime"] == 0

    def test_insecure_scan_exit_code(self, capsys):
        code, _ = run(capsys, "scan", "--T", "0.5", "--omega", "2", "--step", "0.25")
        assert code == 2

    def test_full_grid_row_count(self, capsys):
        code, out = run(capsys, "scan", "--T", "0.9", "--omega", "1.5",
                        "--step", "0.25", "--full-grid")
        assert code == 0
        summary, grid = out.split("\n\n")
        assert grid.splitlines()[0] == "g,g_prime,R"
        assert len(grid.splitlines()) - 1 == len(physical_region_grid(1.5, 0.25))

    def test_full_grid_json(self, capsys):
        _, out = run(capsys, "scan", "--T", "0.9", "--omega", "1.5",
                     "--step", "0.25", "--full-grid", "--format", "json")
        payload = json.loads(out)
        assert len(payload["grid"]) == len(physical_region_grid(1.5, 0.25))

    def test_full_grid_evaluates_the_grid_once(self, capsys, monkeypatch):
        calls = []
        keyrate_arrays = security._keyrate_arrays

        def counted(*args):
            calls.append(args)
            return keyrate_arrays(*args)

        monkeypatch.setattr(security, "_keyrate_arrays", counted)
        code, out = run(capsys, "scan", "--T", "0.9", "--omega", "1.5",
                        "--step", "0.25", "--full-grid", "--format", "json")
        assert code == 0
        assert len(calls) == 1
        payload = json.loads(out)
        best = min((row["R"], row["g"], row["g_prime"]) for row in payload["grid"])
        assert (payload["R_min"], payload["best_g"], payload["best_g_prime"]) == best


class TestThresholdBatching:
    def test_threshold_builds_no_attack_params(self, capsys, monkeypatch):
        calls = {}
        count_calls(monkeypatch, calls, [
            (attacks, "attack_from_class"), (cli, "attack_from_class"),
            (protocol, "keyrate_asymptotic"), (security, "_keyrate_arrays"),
            (security, "oneway_keyrate"), (security, "_oneway_quantities"),
            (security, "_oneway_arrays")])
        classes = [x for c in ATTACK_CLASSES for x in ("--attack", c)]
        code, out = run(capsys, "threshold", *classes, "--t-min", "0.3", "--t-max", "0.99",
                        "--t-step", "0.01", "--with-oneway")
        assert code == 0 and len(out.splitlines()) == 1 + 8 * 70
        assert calls["attack_from_class"] == 0 and calls["keyrate_asymptotic"] == 0
        assert calls["oneway_keyrate"] == 0 and calls["_oneway_quantities"] == 0
        # one kernel call per solver step for all 70 lanes of a curve, not one per lane
        assert 0 < calls["_keyrate_arrays"] <= 7 * 60
        assert 0 < calls["_oneway_arrays"] <= 60


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
        (("threshold", "--attack", "collective", "--t-min", "5e-324", "--t-max", "0.5",
          "--t-step", "0.25"), ("T", "5e-324", "smallest normal double 2.23e-308")),
    ], ids=["scan-omega-inf", "scan-T-above-one", "scan-T-nan", "scan-T-zero",
            "scan-step-inf", "keyrate-omega-inf", "oneway-omega-inf", "oneway-omega-nan",
            "oneway-mu-inf", "keyrate-mu-inf", "appendix-mu-inf", "appendix-omega-max-inf",
            "threshold-grid-over-cap", "appendix-grid-over-cap", "scan-grid-over-cap",
            "oneway-mu-negative", "oneway-mu-nan", "oneway-mu-over-bound",
            "appendix-mu-over-bound", "scan-omega-over-bound", "oneway-mu-far-over-bound",
            "keyrate-mu-over-bound", "keyrate-omega-over-bound", "appendix-omega-over-bound",
            "keyrate-T-mu-underflow", "keyrate-mu-underflow", "appendix-T-mu-underflow",
            "keyrate-one-minus-T-mu-underflow", "scan-T-subnormal", "threshold-t-min-subnormal"])
    def test_rejected_with_message(self, argv, named):
        code, out, err = run_with_stderr(*argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert all(word in err for word in named)
        assert "must" in err and "unphysical" not in err

    def test_appendix_checks_every_T_before_any_block(self, monkeypatch):
        calls = {}
        count_calls(monkeypatch, calls, [(cli, "_class_variations"),
                                         (security, "_information_arrays")])
        code, out, err = run_with_stderr("appendix", "--T", "0.5", "--T", "1.5")
        assert (code, out) == (1, "")
        assert "channel transmissivity T must lie in (0, 1), got 1.5" in err
        assert calls == {"_class_variations": 0, "_information_arrays": 0}

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
        code, out, err = run_with_stderr(*argv, "--config", str(path))
        assert (code, err) == (0, "")
        assert (code, out, err) == run_with_stderr(*flags)

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
        code, out, err = run_with_stderr(command, "--config", str(path))
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert all(word in err for word in named)


class TestOnewayCommand:
    def test_secure_point(self, capsys):
        code, out = run(capsys, "oneway", "--T", "0.9", "--omega", "1")
        assert code == 0
        assert json.loads(out)["R"] > 0

    def test_insecure_point(self, capsys):
        code, out = run(capsys, "oneway", "--T", "0.7", "--omega", "1")
        assert code == 2

    @pytest.mark.parametrize("T, omega", [("0.9", "1.2"), ("0.3", "2")])
    def test_zero_modulation_has_zero_rate(self, capsys, T, omega):
        code, out = run(capsys, "oneway", "--T", T, "--omega", omega, "--mu", "0")
        assert code == 2
        assert json.loads(out)["R"] == 0.0


class TestAppendixCommand:
    def test_vacuum_noise_row_degenerates(self, capsys):
        code, out = run(capsys, "appendix", "--T", "0.65", "--mu", "1e6",
                        "--omega-max", "2", "--omega-step", "0.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        first = rows[0]
        assert first["omega"] == 1
        i_cols = [v for k, v in first.items() if k.startswith("I_AB_")]
        chi_cols = [v for k, v in first.items() if k.startswith("chi_EA_")]
        assert len(set(i_cols)) == 1 and len(set(chi_cols)) == 1
        assert first["dI_AB"] == 0 and first["dchi_EA"] == 0

    def test_optimal_attack_has_largest_holevo(self, capsys):
        _, out = run(capsys, "appendix", "--T", "0.65", "--mu", "1e6",
                     "--omega-max", "5", "--omega-step", "1", "--format", "json")
        for row in json.loads(out):
            if row["omega"] == 1:
                continue
            others = [v for k, v in row.items()
                      if k.startswith("chi_EA_") and not k.endswith("sep-sym-")]
            assert all(row["chi_EA_sep-sym-"] > v for v in others)

    def test_two_transmissivities(self, capsys):
        _, out = run(capsys, "appendix", "--T", "0.65", "--T", "0.95", "--mu", "1e6",
                     "--omega-max", "2", "--omega-step", "1", "--format", "json")
        rows = json.loads(out)
        assert sorted({row["T"] for row in rows}) == [0.65, 0.95]

    def test_appendix_builds_no_attack_params(self, capsys, monkeypatch):
        calls = {}
        count_calls(monkeypatch, calls, [
            (attacks, "attack_from_class"), (cli, "attack_from_class"),
            (protocol, "mutual_information_asymptotic"), (protocol, "holevo_asymptotic"),
            (security, "_information_arrays")])
        monkeypatch.setattr(attacks.AttackParams, "__post_init__",
                            lambda self: pytest.fail("AttackParams built"))
        code, out = run(capsys, "appendix", "--T", "0.65", "--T", "0.95", "--omega-step", "0.01")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 401
        assert calls["attack_from_class"] == 0
        assert calls["mutual_information_asymptotic"] == calls["holevo_asymptotic"] == 0
        # one five-class block per T; the variations are derived from it
        assert calls["_information_arrays"] == 2

    def test_matches_point_calls(self, capsys):
        # each cell against the scalar information functions at the class's attack
        _, out = run(capsys, "appendix", "--T", "0.3", "--T", "0.9", "--mu", "1e5",
                     "--omega-max", "4", "--omega-step", "0.75", "--format", "json")
        for row in json.loads(out):
            for label in cli._APPENDIX_CLASSES:
                a = attack_from_class(label, row["omega"])
                assert row[f"I_AB_{label}"] == mutual_information_asymptotic(row["T"], a, 1e5)[0]
                assert row[f"chi_EA_{label}"] == holevo_asymptotic(row["T"], a, 1e5)

    def test_rejects_small_modulation(self, capsys):
        code, _ = run(capsys, "appendix", "--T", "0.65", "--mu", "10")
        assert code == 1


class TestConfigAndOutput:
    def test_config_file_supplies_missing_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 0.9, "omega": 1.0, "attack": "collective"}))
        code, out = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["R"] == pytest.approx(2.6532293791095727, abs=1e-12)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 0.9, "omega": 1.0, "attack": "collective"}))
        code, out = run(capsys, "keyrate", "--config", str(cfg), "--omega", "2.0")
        assert code == 0
        assert json.loads(out)["nu1"] == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"testing": 1}))
        code, _ = run(capsys, "keyrate", "--T", "0.9", "--omega", "1",
                      "--attack", "collective", "--config", str(cfg))
        assert code == 1

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run(capsys, "keyrate", "--T", "0.9", "--omega", "1",
                        "--attack", "collective", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["R"] > 0

    def test_csv_format_of_keyrate(self, capsys):
        code, out = run(capsys, "keyrate", "--T", "0.9", "--omega", "1",
                        "--attack", "collective", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[0] == "nu1"
        assert len(lines) == 2
