"""Deterministic CSV/JSON emission with full double precision.

Formatting is column-wise.  A table is a header plus one equal-length column
per header entry; each column is formatted in one pass by its dtype.  Floats
get 17 significant digits ("%.17g") so that re-parsing reproduces the exact
binary value, and inf, -inf and nan print as such.  CSV renders a table as a
header row and one data row per line, with '.' decimals, ',' separators and
'\\n' line endings.  JSON renders it as a list of {header: value} objects
through one per-row template, and prints non-finite floats as null (strict
JSON has no inf/nan).
"""

import json
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


def _cells(column, null):
    """Text of every value of one column; null: print non-finite floats as JSON's null."""
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "f":
        cells = list(map("%.17g".__mod__, values))
        if null:
            for i in np.flatnonzero(~np.isfinite(values)):
                cells[i] = "null"
        return cells
    if kind == "b":
        return ["true" if v else "false" for v in values]
    if kind == "U":
        return list(map(json.dumps if null else str, values))
    raise TypeError(f"cannot serialize a column of dtype {values.dtype}")


def _rows(table, template, null):
    """Each row of `table` rendered through `template`, one '%s' per column."""
    cells = [_cells(c, null) for c in table.columns]
    return map(template.__mod__, zip(*cells))


def csv_table(*tables):
    """CSV text of one or more tables, separated by a blank line."""
    texts = []
    for table in tables:
        template = ",".join(["%s"] * len(table.header))
        texts.append("\n".join([",".join(table.header), *_rows(table, template, False)]) + "\n")
    return "\n".join(texts)


def _json(value):
    if isinstance(value, Table):
        template = "{" + ", ".join(json.dumps(str(h)).replace("%", "%%") + ": %s"
                                   for h in value.header) + "}"
        return "[" + ", ".join(_rows(value, template, True)) + "]"
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
