"""Deterministic CSV/JSON emission with full double precision.

Formatting is column-wise.  A table is a header plus one equal-length column
per header entry; each column is formatted in one pass by its dtype.  Floats
get 17 significant digits ("%.17g") so that re-parsing reproduces the exact
binary value, and inf, -inf and nan print as such.  Each distinct float of a
column is formatted once: the distinct values are found on the float64 bit
patterns (so -0.0 and 0.0, and NaNs of different payloads, stay apart) and
their texts are spread back over the rows.  A full scan grid holds both
(g, g') and (g', g), and its rate column is symmetric bit for bit, so most of
its cells repeat.

CSV renders a table as a header row and one data row per line, with '.'
decimals, ',' separators and '\\n' line endings.  JSON renders it as a list
of {header: value} objects, and prints non-finite floats as null (strict
JSON has no inf/nan).  Either way the rows of a table are one "".join over a
flat list of literals and cells.
"""

from typing import NamedTuple

import numpy as np


class Table(NamedTuple):
    """Named columns: one sequence or 1-d array per header entry, all the same length."""

    header: tuple
    columns: tuple

    @classmethod
    def record(cls, mapping):
        """One-row table of a mapping's keys and values."""
        return cls(tuple(mapping), tuple([v] for v in mapping.values()))


def _format_floats(values):
    """'%.17g' text of each float of a float64 array; every float printed goes through here."""
    return list(map("%.17g".__mod__, values))


def _cells(column, null):
    """Text of every value of one column; null: print non-finite floats as JSON's null."""
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "f":
        bits, inverse = np.unique(values.astype(float, copy=False).view(np.int64),
                                  return_inverse=True)
        distinct = bits.view(float)
        texts = _format_floats(distinct)
        if null:
            for i in np.flatnonzero(~np.isfinite(distinct)):
                texts[i] = "null"
        return np.array(texts, dtype=object)[inverse].tolist()
    if kind == "b":
        return ["true" if v else "false" for v in values]
    if kind == "U":
        if not null:
            return list(map(str, values))
        import json  # JSON output only, so that CSV runs never load it
        return list(map(json.dumps, values))
    raise TypeError(f"cannot serialize a column of dtype {values.dtype}")


def _rows(table, literals, null):
    """Text of every row of `table`: literals[j] before cell j, literals[-1] after the row."""
    lengths = [len(c) for c in table.columns]
    if len(lengths) != len(table.header) or len(set(lengths)) > 1:
        raise ValueError(f"a table needs one column per header entry, all of one length; "
                         f"got {len(table.header)} header entries and column lengths {lengths}")
    n = lengths[0] if lengths else 0
    width = 2 * len(lengths) + 1
    flat = [literals[-1]] * (width * n)
    for j, column in enumerate(table.columns):
        flat[2 * j::width] = [literals[j]] * n
        flat[2 * j + 1::width] = _cells(column, null)
    return "".join(flat)


def csv_table(*tables):
    """CSV text of one or more tables, separated by a blank line."""
    texts = []
    for table in tables:
        literals = ["", *[","] * (len(table.header) - 1), "\n"]
        texts.append(",".join(table.header) + "\n" + _rows(table, literals, False))
    return "\n".join(texts)


def _json(value):
    import json  # JSON output only, so that CSV runs never load it
    if isinstance(value, Table):
        keys = [json.dumps(str(h)) + ": " for h in value.header]
        literals = ["{" + k if j == 0 else ", " + k for j, k in enumerate(keys)] + ["}, "]
        return "[" + _rows(value, literals, True)[:-2] + "]"  # no ", " after the last row
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    return _cells([value], True)[0]


def json_text(value):
    """Deterministic JSON text of nested dicts, lists, scalars and Tables.

    Keys keep insertion order; a Table becomes a list of row objects.
    """
    return _json(value) + "\n"
