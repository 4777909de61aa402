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
JSON has no inf/nan).  Either way every piece of a document goes into one
list, joined once.  Each cell's text carries the literal in front of it
(',' or ', "R": '), made once per distinct text, so a row is one piece per
column plus its ending, and no text is sliced or concatenated afterwards.
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


def _cells(column, null, literal=""):
    """Text of every value of one column, `literal` in front of each; null: print
    non-finite floats as JSON's null."""
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
        if literal:
            texts = [literal + t for t in texts]
        return np.array(texts, dtype=object)[inverse].tolist()
    if kind == "b":
        true, false = literal + "true", literal + "false"
        return [true if v else false for v in values]
    if kind == "U":
        if not null:
            return [literal + v for v in map(str, values)]
        import json  # JSON output only, so that CSV runs never load it
        return [literal + v for v in map(json.dumps, values)]
    raise TypeError(f"cannot serialize a column of dtype {values.dtype}")


def _emit_rows(out, table, literals, end, last_end, null):
    """Append the pieces of every row of `table` to `out`: cell j with literals[j] in front,
    then `end` after each row but the last, which gets `last_end`."""
    lengths = [len(c) for c in table.columns]
    if len(lengths) != len(table.header) or len(set(lengths)) > 1:
        raise ValueError(f"a table needs one column per header entry, all of one length; "
                         f"got {len(table.header)} header entries and column lengths {lengths}")
    n = lengths[0] if lengths else 0
    if not n:
        return
    width = len(lengths) + 1
    start = len(out)
    out += [end] * (width * n)
    out[-1] = last_end
    for j, column in enumerate(table.columns):
        out[start + j::width] = _cells(column, null, literals[j])


def csv_table(*tables):
    """CSV text of one or more tables, separated by a blank line."""
    out = []
    for i, table in enumerate(tables):
        out.append(("\n" if i else "") + ",".join(table.header) + "\n")
        _emit_rows(out, table, ["", *[","] * (len(table.header) - 1)], "\n", "\n", False)
    return "".join(out)


def _emit_json(out, value):
    import json  # JSON output only, so that CSV runs never load it
    if isinstance(value, Table):
        keys = [json.dumps(str(h)) + ": " for h in value.header]
        out.append("[")
        _emit_rows(out, value, ["{" + k if j == 0 else ", " + k for j, k in enumerate(keys)],
                   "}, ", "}", True)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            out.append((", " if i else "") + json.dumps(str(k)) + ": ")
            _emit_json(out, v)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _emit_json(out, v)
        out.append("]")
    else:
        out += _cells([value], True)


def json_text(value):
    """Deterministic JSON text of nested dicts, lists, scalars and Tables.

    Keys keep insertion order; a Table becomes a list of row objects.
    """
    out = []
    _emit_json(out, value)
    out.append("\n")
    return "".join(out)
