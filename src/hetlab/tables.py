"""Tables of named columns, written as CSV or JSON.

A column is numeric or text. A numeric column is a float, int or bool
array of any shape, a Python or numpy scalar included; the numeric columns
broadcast against each other by numpy's rule (a length-1 axis stretches),
and the rows are the C-order ravel of the broadcast shape, so a sweep hands
over its grid-shaped arrays as they are. A text column is a list or tuple
of str (None where a value is missing) with exactly one cell per row: it
counts as a 1-D column in the broadcast and is never stretched. Columns
that do not fit one table shape are a ``ValidationError`` naming the column.

Every column is written by one rule: floats at 12 significant digits (the
JSON value is the written number) and booleans as ``true``/``false``; an
undefined value (NaN or None) is an empty CSV cell and a JSON ``null``,
+-inf the JSON string of its CSV text ``"inf"`` or ``"-inf"``. A CSV text
cell that holds a comma, a quote, CR or LF is quoted, with its quotes
doubled (RFC 4180); nothing else is quoted, and a lone empty cell is
written ``""``. A numeric column is formatted once per stored value, at its
own shape, and its cells are then broadcast to the table. No timestamps:
identical inputs give byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import ValidationError

_QUOTE_CHARS = re.compile('[,"\r\n]')  # what a CSV field must be quoted for


def _quoted(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, if it needs it."""
    return '"' + text.replace('"', '""') + '"' if _QUOTE_CHARS.search(text) else text


def _is_text(column) -> bool:
    return not isinstance(column, (np.ndarray, np.generic, int, float))


def _shape(columns: dict) -> tuple:
    """The shape of a table of columns, by the rule of the module docstring."""
    shape = ()
    for name, column in columns.items():
        own = (len(column),) if _is_text(column) else np.shape(column)
        try:
            shape = np.broadcast_shapes(shape, own)
        except ValueError:
            raise ValidationError(f"column {name!r} of shape {own} does not broadcast "
                                  f"against the table shape {shape}") from None
    n = math.prod(shape)
    for name, column in columns.items():
        if _is_text(column) and len(column) != n:
            raise ValidationError(f"text column {name!r} has {len(column)} cells for "
                                  f"{n} rows")
    return shape


def _cells(column, fmt: str, shape=None) -> list:
    """The cells of one column, in row order of a table of ``shape`` (the
    column's own shape when None), as CSV strings (``fmt`` "csv") or as JSON
    values, by the rule of the module docstring."""
    if _is_text(column):
        return ["" if v is None else _quoted(v) for v in column] if fmt == "csv" else list(column)
    column = np.asarray(column)
    values = column.ravel().tolist()
    if column.dtype.kind in "biu":
        text = [str(v).lower() for v in values] if fmt == "csv" else values
    else:
        text = list(map("%.12g".__mod__, values))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            text[i] = ""
        if fmt != "csv":
            text = [t if "inf" in t else float(t) if t else None for t in text]
    if shape is None or column.shape == shape:
        return text
    cells = np.array(text, dtype=object).reshape(column.shape)
    return np.broadcast_to(cells, shape).ravel().tolist()


def _rows(columns: dict, fmt: str):
    """The rows of a table of columns, their cells in ``fmt``."""
    shape = _shape(columns)
    return zip(*(_cells(column, fmt, shape) for column in columns.values()))


def _write_csv(stream, columns: dict) -> None:
    """A table of columns as ``\\n``-terminated CSV that reads back losslessly:
    each row is its cells joined by commas, and a row that joins to nothing
    is ``""`` (an empty line reads back as no record)."""
    lines = map(",".join, itertools.chain([_cells(list(columns), "csv")],
                                          _rows(columns, "csv")))
    stream.write("".join(f"{line}\n" if line else '""\n' for line in lines))


class SweepResult:
    """Named columns plus run metadata for the emitters. The columns follow
    the rule of the module docstring: numeric ones broadcast to the table
    shape (a float array holds NaN where a value is not defined), and a text
    column holds one str or None per row. A metadata value is one cell."""

    def __init__(self, columns: dict, metadata: dict):
        _shape(columns)
        self.columns, self.metadata = columns, metadata

    def write(self, stream, fmt: str = "csv") -> None:
        meta = {key: _cells([v] if v is None or isinstance(v, str) else v, fmt)[0]
                for key, v in self.metadata.items()}
        if fmt == "csv":
            for key, text in meta.items():
                stream.write(f"# {key}={text}\n")
            _write_csv(stream, self.columns)
        elif fmt == "json":
            import json
            payload = {
                "metadata": meta,
                "columns": list(self.columns),
                "rows": list(_rows(self.columns, fmt)),
            }
            json.dump(payload, stream, indent=1, allow_nan=False)
            stream.write("\n")
        else:
            raise ValidationError(f"unknown format {fmt!r}")
