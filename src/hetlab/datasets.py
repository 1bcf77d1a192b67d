"""Embedding files, synthetic embedding generation, and the per-group /
per-neighborhood embedding analyses.

The file formats are described in `hetlab.ingest`, which holds the table
reader behind `read_embeddings`. Output tables, embedding files included,
are written by the cell rule of `hetlab.tables`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

# a module, not names: it executes only when a call first reads it
from . import gaussian
from .errors import ValidationError
# read_assignments is bound here too, as perfbench/tracing.py times it by this name
from .ingest import _header, _read_table, read_assignments
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


def _embedding_header(nz: int) -> list:
    return _header(("id", "label"), ("m_", "s_"), nz)


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
