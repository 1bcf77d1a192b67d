"""Input tables: the reader behind `hetlab.datasets.read_embeddings` and
`read_assignments`, and the file formats it reads.

File formats
------------
Embedding CSV: header ``id,label,m_1..m_{nz},s_1..s_{nz}``, one record per
row; ``label`` may be empty. Soft-assignment CSV: header ``id,p_1..p_{nz}``.
Both have JSON mirrors ``{"records": [...]}`` with the same field names
(``label`` may be null; an integer ``id`` reads as its digits), in any key
order. The JSON header has as many numbered fields per prefix as the
first record has keys named by the first prefix and a number (``p_1``,
``p_7``; not ``p_note``), and a JSON record is judged by the CSV row rule:
one that lacks a header field is a short row, and one that holds every
header field and another is a long row (``expected N fields, got M``); no
key is dropped. The readers
take the format from the content: a file whose first non-blank character
is ``{`` or ``[`` is JSON, anything else is CSV after an optional leading
``#`` comment block (a ``#`` line after the header is a
record whose id starts with ``#``). Both formats go through one header
check. A CSV body is converted in one bulk pass; JSON
records, and a CSV body that pass rejects, go through one record loop that
names the first bad record, so errors read alike in both formats (``record
{i}`` counts records from 0). The readers take a text stream, so
a UTF-8 byte-order mark is the opener's to drop: the CLI opens inputs with
``encoding="utf-8-sig"``.
"""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np

# a module, not names: it executes only when a call first reads it
from . import decomposition
from .errors import ValidationError


def _header(text: tuple, prefixes: tuple, n: int) -> list:
    """The canonical header: the text columns, then ``n`` numbered columns
    per prefix."""
    return list(text) + [f"{p}{j}" for p in prefixes for j in range(1, n + 1)]


def _is_number(cell) -> bool:
    """Whether ``float`` reads ``cell`` as a number: a JSON ``true``/``false``,
    which it reads as 1/0, is none."""
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return type(cell) is not bool


def _table_rows(rows, what: str, text: tuple, header: list) -> tuple:
    """The text cells and numbers of ``rows``, checked one record at a time
    so that the first bad record is named: its width, the floats after the
    ``text`` columns (the first cell that is no number is named by its
    column), and (in JSON) that the id is a string or an integer, which is
    read as its decimal digits, and the text cells after it are strings or
    null."""
    import json  # names a bad cell as its JSON text
    cells, values = [], []
    try:
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise ValidationError(
                    f"{what} record {i}: expected {len(header)} fields, got {len(row)}")
            numbers = row[len(text):]
            try:
                floats = [float(v) for v in numbers]
            except (TypeError, ValueError):
                floats = None
            if floats is None or bool in map(type, numbers):
                j = next(j for j, v in enumerate(numbers) if not _is_number(v))
                raise ValidationError(f"{what} record {i}: {header[len(text) + j]} must be "
                                      f"a number, got {json.dumps(numbers[j])}")
            values.append(floats)
            rid = str(row[0]) if type(row[0]) is int else row[0]  # a bool is no id
            if not isinstance(rid, str):
                raise ValidationError(f"{what} record {i}: id must be a string or an "
                                      f"integer, got {json.dumps(rid)}")
            for name, v in zip(text[1:], row[1:len(text)]):
                if not isinstance(v, (str, type(None))):
                    raise ValidationError(f"{what} record {i}: {name} must be a string "
                                          f"or null, got {json.dumps(v)}")
            cells.append([rid, *row[1:len(text)]])
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise ValidationError(f"{what} record {len(cells)}: {exc}") from exc
    if not cells:
        raise ValidationError(f"{what} file holds no records")
    return np.array(cells, dtype=object), np.array(values, dtype=float)


def _loop_only(body: str) -> bool:
    """Whether a CSV body must go through the record loop before any bulk
    pass: it is empty or starts with an empty line (all of it may be empty
    lines, which np.loadtxt warns about), or it holds a line longer than
    ``csv.field_size_limit()``, which may hold a field that csv.reader
    refuses and np.loadtxt reads."""
    return body[:1] in ("", "\n", "\r") or _has_long_line(body, csv.field_size_limit())


def _line_count(body: str) -> int:
    """The lines of a non-empty ``body``, each ended by ``\\n``, ``\\r\\n``,
    ``\\r`` or the end of the body, as csv.reader and np.loadtxt split them."""
    n = body.count("\n") + (body[-1] not in "\r\n")
    if "\r" in body:
        n += body.count("\r") - body.count("\r\n")
    return n


def _has_long_line(body: str, limit: int) -> bool:
    """Whether a ``\\n``-separated line of ``body`` is longer than ``limit``.
    Such a line covers a whole aligned block of (limit + 1) // 2 characters
    without a line break, so only those blocks are measured to their line
    ends: a few ``find`` calls per megabyte, where splitting the body into
    lines would copy all of it."""
    h = max(1, (limit + 1) // 2)
    for start in range(0, len(body) - h + 1, h):
        if body.find("\n", start, start + h) < 0:
            end = body.find("\n", start + h)
            if (len(body) if end < 0 else end) - body.rfind("\n", 0, start) - 1 > limit:
                return True
    return False


def _read_table(stream, what: str, text: tuple, prefixes: tuple) -> tuple:
    """The text cells, an ``(N, len(text))`` object array, and the numbers,
    a C-contiguous ``(N, n)`` float array, of an input file whose format is
    read from the content (see the module docstring). The header is checked
    for both formats. A CSV body is converted in one ``np.loadtxt`` pass.
    JSON records, a CSV body holding an empty line or a record spanning
    lines, and one that pass rejects go through the record loop, which
    names the first bad record or reads the numbers that ``float`` takes and
    numpy does not (``1_0``). So does a body holding a field longer than
    ``csv.field_size_limit()``, which the loop refuses whatever else the
    body holds."""
    head = []
    for line in stream:
        head.append(line)
        if not line.isspace():
            break
    if head and head[-1].lstrip()[:1] in ("{", "["):
        import json
        try:
            payload = json.loads("".join(head) + stream.read())
        except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
            raise ValidationError(f"{what} file is not valid JSON: {exc}") from exc
        records = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise ValidationError(
                f'{what} file must be a JSON object whose "records" is a list of objects')
        if not records:
            raise ValidationError(f"{what} file holds no records")
        # the width is the count of numbered keys (p_1, p_3, ...) in the first record
        header = _header(text, prefixes, sum(
            1 for key in records[0]
            if key.startswith(prefixes[0]) and key[len(prefixes[0]):].isdecimal()))
        keys = set(header)
        # a record is a row of its values in header order; one holding every
        # header field and more is a row of all its values, so a long row
        rows = (list(rec.values()) if rec.keys() > keys
                else [rec[key] for key in header if key in rec] for rec in records)
    else:
        lines = itertools.dropwhile(lambda line: line.startswith("#"),
                                    itertools.chain(head, stream))
        try:
            header = next(csv.reader(lines), None)
        except csv.Error as exc:
            raise ValidationError(f"{what} header: {exc}") from exc
        if header is None:
            raise ValidationError(f"{what} file is empty")
        rows = None
    n = sum(1 for h in header if h.startswith(prefixes[0]))
    if n < 1 or header != _header(text, prefixes, n):
        layout = ",".join([*text, *(f"{p}1..{p}n" for p in prefixes)])
        raise ValidationError(f"{what} header must be {layout}")
    if rows is None:
        # the header was the last line read: a blank line read ahead of it
        # to detect the format would have been read as the header
        body = stream.read()
        if not _loop_only(body):
            dtype = [("text", object, (len(text),)),
                     ("numbers", float, (len(header) - len(text),))]
            try:
                table = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",",
                                   quotechar='"', comments=None, ndmin=1)
            except ValueError:
                pass
            else:
                # fewer records than lines: np.loadtxt skipped an empty line,
                # which csv.reader reads as a record of no fields, or a quoted
                # field spans lines, where it may pass csv.field_size_limit()
                if len(table) == _line_count(body):
                    return table["text"], np.ascontiguousarray(table["numbers"])
        rows = csv.reader(io.StringIO(body, newline=""))
    return _table_rows(rows, what, text, header)


def read_assignments(stream) -> tuple:
    """Read a soft-assignment table, CSV or JSON; returns
    (ids, SubsystemEnsemble)."""
    cells, table = _read_table(stream, "assignment", ("id",), ("p_",))
    try:
        ensemble = decomposition.SubsystemEnsemble(table=table)
    except ValidationError as exc:
        raise ValidationError(f"assignment table rejected: {exc}") from exc
    return cells[:, 0].tolist(), ensemble
