"""Dataset ingestion, synthetic embedding generation, and the per-group /
per-neighborhood embedding analyses.

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
``encoding="utf-8-sig"``. Output tables, embedding files included, are
written by the cell rule of `hetlab.tables`.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Optional, Sequence

import numpy as np

# modules, not names: each one executes only when a call first reads it
from . import decomposition, gaussian
from .errors import ValidationError
from .tables import SweepResult, _rows, _write_csv

_NEIGHBOR_BLOCK = 256  # records per block of neighbor distance estimates: 256 x N floats


class EmbeddingDataset:
    """N embedded observations: diagonal-Gaussian posterior means and
    log-variances as ``(N, n)`` arrays, with an id and an optional label
    per row."""

    def __init__(self, ids: tuple, labels: tuple, means: np.ndarray, log_var: np.ndarray):
        ids, labels = tuple(ids), tuple(labels)
        if not ids:
            raise ValidationError("embedding dataset must contain at least one record")
        try:
            means = np.asarray(means, dtype=float)
            log_var = np.asarray(log_var, dtype=float)
        except ValueError as exc:  # ragged rows
            raise ValidationError("all records must share the same latent dimension") from exc
        if len(labels) != len(ids) or means.ndim != 2 or means.shape[0] != len(ids):
            raise ValidationError("ids, labels and mean rows must correspond one to one")
        if log_var.shape != means.shape:
            raise ValidationError("log-variances must have the shape of the means")
        bad_mean = (means.shape[1] < 1) | ~np.isfinite(means).all(axis=1)
        with np.errstate(over="ignore"):
            var = np.exp(log_var)  # nan, inf or 0 where a log-variance is not finite
        bad = bad_mean | ~((var >= gaussian.PIVOT_FLOOR) & (var < np.inf)).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            what = ("mean must be a finite vector" if bad_mean[i] else
                    "log-variance must be a finite vector matching the mean, "
                    f"with every exp(s) finite and >= {gaussian.PIVOT_FLOOR}")
            raise ValidationError(f"record {ids[i]!r}: {what}")
        self.ids, self.labels, self.means, self.log_var = ids, labels, means, log_var

    @property
    def n_z(self) -> int:
        return self.means.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def ensemble(self, indices: Optional[Sequence[int]] = None) -> gaussian.GaussianEnsemble:
        """Uniform-weight Gaussian ensemble over all records or a subset; a
        2-D ``(B, m)`` index array gives a stack of B ensembles of m members."""
        rows = slice(None) if indices is None else np.asarray(indices)
        return gaussian.GaussianEnsemble(means=self.means[rows],
                                         covariances=np.exp(self.log_var[rows]))


def _header(text: tuple, prefixes: tuple, n: int) -> list:
    """The canonical header: the text columns, then ``n`` numbered columns
    per prefix."""
    return list(text) + [f"{p}{j}" for p in prefixes for j in range(1, n + 1)]


def _embedding_header(nz: int) -> list:
    return _header(("id", "label"), ("m_", "s_"), nz)


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


def write_embeddings(dataset: EmbeddingDataset, stream, fmt: str = "csv") -> None:
    """Write an embedding file: a table with no metadata lines in CSV, one
    record per row in JSON."""
    header = _embedding_header(dataset.n_z)
    values = np.hstack([dataset.means, dataset.log_var]).T
    columns = dict(zip(header, [dataset.ids, dataset.labels, *values]))
    if fmt == "csv":
        _write_csv(stream, columns)
    elif fmt == "json":
        import json
        json.dump({"records": [dict(zip(header, row)) for row in _rows(columns, fmt)]},
                  stream, indent=1, allow_nan=False)
        stream.write("\n")
    else:
        raise ValidationError(f"unknown format {fmt!r}")


def read_embeddings(stream) -> EmbeddingDataset:
    """Read an embedding file, CSV or JSON. A file stream should be opened
    with ``newline=""`` so that line breaks inside quoted CSV ids survive."""
    cells, numbers = _read_table(stream, "embedding", ("id", "label"), ("m_", "s_"))
    labels = cells[:, 1]
    nz = numbers.shape[1] // 2
    return EmbeddingDataset(ids=tuple(cells[:, 0].tolist()),
                            labels=tuple(np.where(labels == "", None, labels).tolist()),
                            means=np.ascontiguousarray(numbers[:, :nz]),
                            log_var=np.ascontiguousarray(numbers[:, nz:]))


def read_assignments(stream) -> tuple:
    """Read a soft-assignment table, CSV or JSON; returns
    (ids, SubsystemEnsemble)."""
    cells, table = _read_table(stream, "assignment", ("id",), ("p_",))
    try:
        ensemble = decomposition.SubsystemEnsemble(table=table)
    except ValidationError as exc:
        raise ValidationError(f"assignment table rejected: {exc}") from exc
    return cells[:, 0].tolist(), ensemble


def synth_embeddings(n_labels: int, per_label: int, n_z: int, seed: int, *,
                     separation: float = 10.0, spread: float = 1.0,
                     log_var_range: tuple = (-2.0, -1.0),
                     contract_label: Optional[int] = None,
                     contract_factor: float = 10.0) -> EmbeddingDataset:
    """Deterministic synthetic embedding dataset.

    One cluster per label: cluster centers are standard-normal draws scaled
    by ``separation``; per-point means add ``spread``-scaled noise around
    the center; per-point log-variances are uniform over ``log_var_range``.
    ``contract_label`` (a label index) shrinks that cluster's mean spread
    by ``contract_factor``, collapsing its means toward the center while
    leaving the per-point variances untouched.
    """
    if n_labels < 1 or per_label < 1 or n_z < 1:
        raise ValidationError("n_labels, per_label and n_z must all be >= 1")
    if not (separation >= 0 and spread >= 0 and contract_factor > 0):
        raise ValidationError("separation/spread must be >= 0 and contract_factor > 0")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    lo, hi = log_var_range
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ValidationError(
            "log_var_range must be (low, high) with low <= high and a finite width")
    if contract_label is not None and not 0 <= contract_label < n_labels:
        raise ValidationError(f"contract_label must index a label, got {contract_label}")

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_labels, n_z)) * separation
    means, log_var = [], []
    for lab in range(n_labels):
        scale = spread / contract_factor if lab == contract_label else spread
        means.append(centers[lab] + rng.standard_normal((per_label, n_z)) * scale)
        log_var.append(rng.uniform(lo, hi, size=(per_label, n_z)))
    return EmbeddingDataset(
        ids=tuple(f"{lab}-{j}" for lab in range(n_labels) for j in range(per_label)),
        labels=tuple(str(lab) for lab in range(n_labels) for _ in range(per_label)),
        means=np.concatenate(means), log_var=np.concatenate(log_var),
    )


def group_decomposition(dataset: EmbeddingDataset, q_list: Sequence[float],
                        group_by_label: bool = True) -> SweepResult:
    """Pooled/within/between Gaussian heterogeneity per label group: the
    `gaussian_decomposition` of each group with uniform weights, at orders
    q in (0, inf]. A singleton group has pooled = within (its own volume)
    and between = 1, and its ``singleton`` flag is set.
    """
    if group_by_label:
        if None in dataset.labels:
            raise ValidationError("group-by requires every record to carry a label")
        groups = {}
        for i, label in enumerate(dataset.labels):
            groups.setdefault(label, []).append(i)
        items = sorted(groups.items())
    else:
        items = [("*", list(range(len(dataset))))]

    parts = [gaussian.gaussian_decomposition(dataset.ensemble(idx), q_list) for _, idx in items]
    sizes = np.repeat([len(idx) for _, idx in items], len(q_list))
    return SweepResult(
        columns={"label": [label for label, _ in items for _ in q_list],
                 "n": sizes,
                 "q": np.tile(np.asarray(q_list, dtype=float), len(items)),
                 **{name: np.concatenate([part[name] for part in parts])
                    for name in ("pooled", "within", "between")},
                 "singleton": sizes == 1},
        metadata={"command": "embeddings-decompose",
                  "group_by": group_by_label,
                  "n_records": len(dataset), "n_z": dataset.n_z},
    )


def neighborhood_between(dataset: EmbeddingDataset, k: int, q: float) -> np.ndarray:
    """Between-observation heterogeneity of each record's neighborhood.

    The neighborhood is the record plus its k nearest records by Euclidean
    distance on means (distance ties broken by ascending record index);
    uniform weights over the k + 1 members, pooled as one stacked ensemble.
    """
    n = len(dataset)
    if not 1 <= k < n:
        raise ValidationError(f"k must satisfy 1 <= k < N={n}, got {k}")
    means = dataset.means
    with np.errstate(over="ignore"):  # an infinite square makes every entry a candidate
        sq = np.einsum("ij,ij->i", means, means)
    members = np.empty((n, k + 1), dtype=np.intp)
    for start in range(0, n, _NEIGHBOR_BLOCK):
        rows = np.arange(start, min(start + _NEIGHBOR_BLOCK, n))
        members[rows] = _nearest(means, rows, *_candidates(means, sq, rows, k), k + 1)
    # in ascending record order, so that equal member sets pool bit for bit alike
    members.sort(axis=1)
    return gaussian.gaussian_between(dataset.ensemble(members), q)


def _candidates(means: np.ndarray, sq: np.ndarray, rows: np.ndarray, k: int) -> tuple:
    """The (row position, index) pairs, in row-major order, of the records
    that may be among the k + 1 nearest of each record ``rows[i]``, itself
    included, by the squared distances ``sq[i] + sq[j] - 2 means[i].means[j]``
    estimated from one matrix product, ``sq`` being the squared norms.

    Why no member is missed: with u = 2^-53, n the dimension and gamma_m =
    m u / (1 - m u) (Higham 2002, sec. 3.1), let P = ||a||^2 + ||b||^2 and
    d = ||a - b||, so d^2 <= 2P. Each of the three dot products is off by at
    most gamma_n P (|a.b| <= P / 2), and the sum and difference add two
    roundings of sizes up to P and 2P, so the estimate is off d^2 by at most
    2 gamma_{n+2} P. ``np.linalg.norm`` rounds the n differences, the n
    squares, the sum and the square root, so the square of the exact-pass
    distance is d^2 (1 + theta) with |theta| <= gamma_{n+4}, off d^2 by at
    most 2 gamma_{n+4} P. As P <= (sq_a + sq_b) / (1 - gamma_n), both errors
    together are below E(a, b) = 5 gamma_{n+4} (sq_a + sq_b). Let t be a
    row's (k + 1)-th estimate and S the k + 1 entries at or below it. A
    member b is no farther, by the exact pass, than the farthest of S, so
    its estimate is at most t + E(a, b) + max over S of E(a, .). The test
    takes 8 gamma_{n+4} for 5: the rest covers the rounding of the test's
    own sums, and the added ``tiny`` covers underflow, at most 2^-1075 per
    operation. Squares near the float range void the bound, and there every
    entry is a candidate (c = inf), as is every NaN estimate. When all means
    are equal, so is every entry: the work of a dense pass."""
    mu = (means.shape[1] + 4) * 2.0 ** -53
    c = 8.0 * mu / (1.0 - mu) if sq.max() < np.finfo(float).max / 8.0 else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        approx = sq[rows, None] + sq - 2.0 * (means[rows] @ means.T)
        approx[np.arange(len(rows)), rows] = -np.inf  # the record itself always leads
        part = np.argpartition(approx, k, axis=1)
        t = np.take_along_axis(approx, part[:, k:k + 1], axis=1)[:, 0]
        reach = (t + c * (2.0 * sq[rows] + sq[part[:, :k + 1]].max(axis=1))
                 + np.finfo(float).tiny)
        return np.nonzero(~(approx - c * sq > reach[:, None]))


def _nearest(means: np.ndarray, rows: np.ndarray, r: np.ndarray, cand: np.ndarray,
             m: int) -> np.ndarray:
    """For each record ``rows[i]``, the ``m`` candidates ``cand[r == i]``
    nearest by the exact distance ``norm(means[j] - means[rows[i]])`` (the
    record itself first), in ascending (distance, index) order: the first
    ``m`` of a stable argsort of the full row. The candidates come in
    row-major order, ascending index within a row."""
    i = rows[r]
    with np.errstate(over="ignore"):  # a distance past the float range is inf, sorting last
        d = np.linalg.norm(means[cand] - means[i], axis=-1)
    d[cand == i] = -1.0
    order = np.lexsort((d, r))  # stable: by row, then distance, then index
    counts = np.bincount(r, minlength=len(rows))
    starts = np.cumsum(counts) - counts
    return cand[order][starts[:, None] + np.arange(m)]


def neighborhood_sweep(dataset: EmbeddingDataset, k: int, q: float,
                       top: int = 10) -> SweepResult:
    """Per-record neighborhood heterogeneity, reporting the ``top`` highest
    and lowest neighborhoods (ascending record index breaks score ties in
    both lists)."""
    if top < 1:
        raise ValidationError("top must be >= 1")
    between = neighborhood_between(dataset, k, q)
    order = np.concatenate([np.argsort(key, kind="stable")[:top]  # stable = index tie-break
                            for key in (-between, between)]).tolist()
    m = len(order) // 2
    return SweepResult(
        columns={"kind": ["high"] * m + ["low"] * m,
                 "rank": np.tile(np.arange(1, m + 1), 2),
                 "id": [dataset.ids[i] for i in order],
                 "label": [dataset.labels[i] for i in order],
                 "between": between[order]},
        metadata={"command": "embeddings-neighborhoods", "k": k,
                  "q": float(q), "n_records": len(dataset), "n_z": dataset.n_z},
    )
