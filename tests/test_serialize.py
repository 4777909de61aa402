import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twowayqkd import (ATTACK_CLASSES, attack_from_class, class_variations, keyrate_report,
                       oneway_report, optimal_attack_scan, scan_grid, threshold_curves)
from twowayqkd import _serialize
from twowayqkd._serialize import Table
from twowayqkd._serialize import csv_table as column_csv
from twowayqkd._serialize import json_text as column_json
from twowayqkd.cli import _build_parser, _even_grid

from _util import csv_table, json_text, run_cli


def record(payload, fmt):
    """A one-row result as the per-value emitter prints it."""
    if fmt == "json":
        return json_text(payload)
    return csv_table(list(payload), [list(payload.values())])


def oracle_keyrate(fmt):
    return record(keyrate_report(0.8, attack_from_class("sep-anti+", 1.6))._asdict(), fmt)


def oracle_threshold(fmt):
    # T up to 0.999 holds NaN rows (the EPR rebound) and an inf row (sep-sym+ at 0.999)
    grid = _even_grid(_build_parser(), "t", 0.90, 0.999, 0.003)
    # one curve per solve, where the CLI solves them all at once
    curves = [threshold_curves([c], grid)[0] for c in ATTACK_CLASSES]
    curves += threshold_curves([], grid, with_oneway=True)
    header = ("T", "omega_star", "N_star", "secure")
    rows = [list(zip(*(getattr(c, h).tolist() for h in header))) for c in curves]
    if fmt == "json":
        return json_text([{"attack_class": c.attack_class,
                           "points": [dict(zip(header, row)) for row in points]}
                          for c, points in zip(curves, rows)])
    return csv_table(("attack", *header),
                     [[c.attack_class, *row] for c, points in zip(curves, rows) for row in points])


def oracle_scan(fmt):
    return record(optimal_attack_scan(0.8, 1.5, 0.1)._asdict(), fmt)


def oracle_full_grid(fmt):
    rows = scan_grid(0.8, 1.5, 0.1).tolist()
    payload = optimal_attack_scan(0.8, 1.5, 0.1)._asdict()
    if fmt == "json":
        payload["grid"] = [{"g": g, "g_prime": gp, "R": r} for g, gp, r in rows]
        return json_text(payload)
    return record(payload, fmt) + "\n" + csv_table(("g", "g_prime", "R"), rows)


def oracle_oneway(fmt):
    return record(oneway_report(0.9, 1.2), fmt)


def oracle_appendix(fmt):
    classes = ("collective", "epr+", "sep-sym+", "sep-anti+", "sep-sym-")
    header = ["T", "omega", *(f"I_AB_{c}" for c in classes), *(f"chi_EA_{c}" for c in classes),
              "dI_AB", "dchi_EA"]
    rows = []
    for T in (0.65, 0.95):
        _, omegas, _, _, d_is, d_chis = class_variations((T,), 1e6, [1.0, 1.5, 2.0], classes)
        for omega, d_i, d_chi in zip(omegas.tolist(), d_is.tolist(), d_chis.tolist()):
            reports = [keyrate_report(T, attack_from_class(c, omega), 1e6) for c in classes]
            rows.append([T, omega, *(r.I_AB for r in reports), *(r.chi_EA for r in reports),
                         d_i, d_chi])
    if fmt == "json":
        return json_text([dict(zip(header, row)) for row in rows])
    return csv_table(header, rows)


class TestPerValueOracle:
    """Every command prints, in either format, the text of the per-value emitter."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, oracle", [
        (("keyrate", "--T", "0.8", "--omega", "1.6", "--attack", "sep-anti+"), oracle_keyrate),
        (("threshold", *(x for c in ATTACK_CLASSES for x in ("--attack", c)), "--with-oneway",
          "--t-min", "0.90", "--t-max", "0.999", "--t-step", "0.003"), oracle_threshold),
        (("scan", "--T", "0.8", "--omega", "1.5", "--step", "0.1"), oracle_scan),
        (("scan", "--T", "0.8", "--omega", "1.5", "--step", "0.1", "--full-grid"),
         oracle_full_grid),
        (("oneway", "--T", "0.9", "--omega", "1.2"), oracle_oneway),
        (("appendix", "--T", "0.65", "--T", "0.95", "--omega-max", "2", "--omega-step", "0.5"),
         oracle_appendix),
    ], ids=["keyrate", "threshold", "scan", "scan-full-grid", "oneway", "appendix"])
    def test_cli_text_equals_oracle(self, argv, oracle, fmt):
        code, out, _ = run_cli(*argv, "--format", fmt)
        assert code in (0, 2) and out == oracle(fmt)

    def test_threshold_oracle_holds_non_finite_rows(self):
        csv = oracle_threshold("csv")
        assert ",nan,nan," in csv and ",inf,inf," in csv
        assert '"omega_star": null' in oracle_threshold("json")


def bits(x):
    return struct.pack("<d", x)


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
columns = st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(floats | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308]),
             min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(columns)
    def test_csv_cells_reparse_to_the_same_bits(self, cols):
        xs, flags = cols
        text = column_csv(Table(("x", "flag"), (np.array(xs, dtype=float), flags)))
        lines = text.splitlines()
        assert text.endswith("\n") and lines[0] == "x,flag" and len(lines) == 1 + len(xs)
        for line, x, flag in zip(lines[1:], xs, flags):
            cell, word = line.split(",")
            assert math.isnan(float(cell)) if math.isnan(x) else bits(float(cell)) == bits(x)
            assert word == ("true" if flag else "false")

    @settings(max_examples=300, deadline=None)
    @given(columns)
    def test_json_gives_the_same_floats_and_null_for_non_finite(self, cols):
        xs, flags = cols
        rows = json.loads(column_json(Table(("x", "flag"), (np.array(xs, dtype=float), flags))),
                          parse_int=float)
        assert len(rows) == len(xs)
        for row, x, flag in zip(rows, xs, flags):
            assert list(row) == ["x", "flag"]
            assert row["x"] is None if not math.isfinite(x) else bits(row["x"]) == bits(x)
            assert row["flag"] is flag


def float_from_bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


# both zeros, NaNs of four payloads, both infinities, subnormals and the smallest normal
SPECIAL = [0.0, -0.0, math.nan, float_from_bits(0xFFF8000000000000),
           float_from_bits(0x7FF8000000000001), float_from_bits(0x7FF0000000000001), math.inf,
           -math.inf, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308]
HEADERS = st.text(st.sampled_from('a%"\\{}, é∞ '), max_size=5) | st.text(max_size=5)
LABELS = ["sep-sym-", "one-way", 'q"uote', "per%cent", "ünïcode", ""]


@st.composite
def tables(draw):
    """(header, columns): repeat-heavy float columns drawn from a small pool, bools, labels."""
    n = draw(st.integers(0, 30))
    header = draw(st.lists(HEADERS, min_size=1, max_size=4, unique=True))
    pool = draw(st.lists(floats, min_size=1, max_size=3)) + SPECIAL
    cells = {"f": st.sampled_from(pool), "b": st.booleans(), "s": st.sampled_from(LABELS)}
    columns = [draw(st.lists(cells[draw(st.sampled_from("ffbs"))], min_size=n, max_size=n))
               for _ in header]
    return header, columns


class TestColumnEmitter:
    """The column emitter prints the bytes of the per-value oracle."""

    @settings(max_examples=300, deadline=None)
    @given(tables())
    @example((["x", "y"], [[0.0, -0.0, -0.0, 0.0, *SPECIAL[2:6], 0.0], [-0.0] * 9]))
    @example((['%s "\\{', "ñ"], [[], []]))
    def test_bytes_equal_per_value_oracle(self, drawn):
        header, columns = drawn
        table = Table(tuple(header), tuple(np.asarray(c) for c in columns))
        rows = list(zip(*columns))
        assert column_csv(table) == csv_table(header, rows)
        assert column_json(table) == json_text([dict(zip(header, row)) for row in rows])

    def test_strided_columns_match_contiguous(self):
        rows = np.array([[0.5, -0.0, math.inf], [0.5, 0.0, math.nan], [1e-320, -0.0, 0.5]])
        header = ("g", "g_prime", "R")
        assert column_json(Table(header, tuple(rows.T))) == json_text(
            [dict(zip(header, row)) for row in rows.tolist()])

    @pytest.mark.parametrize("columns", [([1.0, 2.0], [3.0]), ([1.0], [], [2.0])])
    def test_unequal_column_lengths_raise(self, columns):
        table = Table(("a", "b", "c")[:len(columns)], columns)
        lengths = str([len(c) for c in columns])
        for emit in (column_csv, column_json):
            with pytest.raises(ValueError, match=re.escape(lengths)):
                emit(table)

    def test_header_and_column_counts_must_agree(self):
        with pytest.raises(ValueError, match="2 header entries"):
            column_csv(Table(("a", "b"), ([1.0],)))

    def test_full_grid_export_formats_each_distinct_float_once(self, monkeypatch):
        # the step-0.02 grid at (0.8, 3) holds 283 distinct g, 283 distinct g' and 33,714
        # distinct R in 67,227 rows; the summary record adds its six fields
        formatted = []
        fmt = _serialize._format_floats
        monkeypatch.setattr(_serialize, "_format_floats",
                            lambda values: formatted.append(len(values)) or fmt(values))
        code, text, _ = run_cli("scan", "--T", "0.8", "--omega", "3", "--step", "0.02",
                                "--full-grid", "--format", "json")
        assert code in (0, 2)
        rows = scan_grid(0.8, 3.0, 0.02)
        distinct = [len(np.unique(c.view(np.int64))) for c in rows.T]
        assert (len(rows), distinct) == (67227, [283, 283, 33714])
        summary = len(json.loads(text)) - 1
        assert sum(formatted) <= sum(distinct) + summary == 34280 + 6
