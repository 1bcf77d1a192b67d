"""Dataset ingestion, synthetic embedding generation, tabular sweep
results, and the per-group / per-neighborhood embedding analyses.

File formats
------------
Embedding CSV: header ``id,label,m_1..m_{nz},s_1..s_{nz}``, one record per
row; ``label`` may be empty. Soft-assignment CSV: header ``id,p_1..p_{nz}``.
Both have JSON mirrors with the same field names. All numeric output is
written with 12 significant digits and no timestamps, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .decomposition import SubsystemEnsemble
from .errors import ValidationError
from .gaussian import (
    GaussianComponent,
    GaussianEnsemble,
    gaussian_pool,
    gaussian_renyi,
    gaussian_within,
)

_FMT = "%.12g"


def format_number(v) -> str:
    """Render a cell deterministically: floats at 12 significant digits,
    booleans as true/false, missing values as the empty string."""
    if v is None:
        return ""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _FMT % float(v)
    return str(v)


def _skip_leading_comments(stream):
    """The lines of a CSV stream after its leading ``#`` comment block.

    Only lines before the header are comments; a later line starting with
    ``#`` is a record whose id begins with ``#``.
    """
    return itertools.dropwhile(lambda line: line.startswith("#"), stream)


def thread_count() -> int:
    """Parallelism cap from HETLAB_THREADS (0 or unset = auto)."""
    raw = os.environ.get("HETLAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"HETLAB_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValidationError("HETLAB_THREADS must be >= 0")
    if n == 0:
        return min(os.cpu_count() or 1, 8)
    return n


@dataclass(frozen=True)
class EmbeddingRecord:
    """One embedded observation: diagonal-Gaussian posterior mean and
    log-variance."""

    id: str
    label: Optional[str]
    mean: np.ndarray
    log_variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        logvar = np.asarray(self.log_variance, dtype=float)
        if mean.ndim != 1 or mean.size < 1 or not np.all(np.isfinite(mean)):
            raise ValidationError(f"record {self.id!r}: mean must be a finite vector")
        if logvar.shape != mean.shape or not np.all(np.isfinite(logvar)):
            raise ValidationError(
                f"record {self.id!r}: log-variance must be a finite vector matching the mean"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_variance", logvar)

    def component(self) -> GaussianComponent:
        return GaussianComponent(mean=self.mean, covariance=np.exp(self.log_variance))


@dataclass(frozen=True)
class EmbeddingDataset:
    """A list of embedding records with shared dimension and optional
    weights (default uniform)."""

    records: tuple
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        records = tuple(self.records)
        if not records:
            raise ValidationError("embedding dataset must contain at least one record")
        nz = records[0].mean.size
        if any(r.mean.size != nz for r in records):
            raise ValidationError("all records must share the same latent dimension")
        if self.weights is None:
            weights = np.full(len(records), 1.0 / len(records))
        else:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (len(records),):
                raise ValidationError("weights length must match the number of records")
            if np.any(weights < 0) or not np.all(np.isfinite(weights)):
                raise ValidationError("weights must be finite and non-negative")
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "weights", weights)

    @property
    def n_z(self) -> int:
        return self.records[0].mean.size

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> list:
        return [r.label for r in self.records]

    def ensemble(self, indices: Optional[Sequence[int]] = None) -> GaussianEnsemble:
        """Uniform-weight Gaussian ensemble over all records or a subset."""
        if indices is None:
            recs = self.records
        else:
            recs = [self.records[i] for i in indices]
        comps = tuple(r.component() for r in recs)
        return GaussianEnsemble(components=comps)


def _embedding_header(nz: int) -> list:
    return (["id", "label"]
            + [f"m_{j + 1}" for j in range(nz)]
            + [f"s_{j + 1}" for j in range(nz)])


def write_embeddings(dataset: EmbeddingDataset, stream, fmt: str = "csv") -> None:
    nz = dataset.n_z
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_embedding_header(nz))
        for r in dataset.records:
            writer.writerow(
                [r.id, r.label if r.label is not None else ""]
                + [format_number(v) for v in r.mean]
                + [format_number(v) for v in r.log_variance]
            )
    elif fmt == "json":
        records = []
        for r in dataset.records:
            rec = {"id": r.id, "label": r.label}
            for j in range(nz):
                rec[f"m_{j + 1}"] = float(_FMT % r.mean[j])
            for j in range(nz):
                rec[f"s_{j + 1}"] = float(_FMT % r.log_variance[j])
            records.append(rec)
        json.dump({"records": records}, stream, indent=1)
        stream.write("\n")
    else:
        raise ValidationError(f"unknown format {fmt!r}")


def read_embeddings(stream, fmt: str = "csv") -> EmbeddingDataset:
    if fmt == "json":
        payload = json.load(stream)
        rows = payload.get("records", [])
        if not rows:
            raise ValidationError("embedding file holds no records")
        nz = sum(1 for k in rows[0] if k.startswith("m_"))
        records = []
        for i, rec in enumerate(rows):
            try:
                records.append(EmbeddingRecord(
                    id=str(rec["id"]),
                    label=rec.get("label") or None,
                    mean=[float(rec[f"m_{j + 1}"]) for j in range(nz)],
                    log_variance=[float(rec[f"s_{j + 1}"]) for j in range(nz)],
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"embedding record {i}: {exc}") from exc
        return EmbeddingDataset(records=tuple(records))

    reader = csv.reader(_skip_leading_comments(stream))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("embedding file is empty")
    nz = sum(1 for h in header if h.startswith("m_"))
    if nz < 1 or header[:2] != ["id", "label"] or header != _embedding_header(nz):
        raise ValidationError("embedding header must be id,label,m_1..m_n,s_1..s_n")
    records = []
    for i, row in enumerate(reader):
        if len(row) != 2 + 2 * nz:
            raise ValidationError(f"embedding row {i}: expected {2 + 2 * nz} fields, got {len(row)}")
        try:
            mean = [float(v) for v in row[2:2 + nz]]
            logvar = [float(v) for v in row[2 + nz:]]
        except ValueError as exc:
            raise ValidationError(f"embedding row {i}: {exc}") from exc
        records.append(EmbeddingRecord(
            id=row[0], label=row[1] or None, mean=mean, log_variance=logvar,
        ))
    if not records:
        raise ValidationError("embedding file holds no records")
    return EmbeddingDataset(records=tuple(records))


def read_assignments(stream, fmt: str = "csv") -> tuple:
    """Read a soft-assignment table; returns (ids, SubsystemEnsemble)."""
    if fmt == "json":
        payload = json.load(stream)
        rows = payload.get("records", [])
        if not rows:
            raise ValidationError("assignment file holds no records")
        nz = sum(1 for k in rows[0] if k.startswith("p_"))
        ids, table = [], []
        for i, rec in enumerate(rows):
            try:
                ids.append(str(rec["id"]))
                table.append([float(rec[f"p_{j + 1}"]) for j in range(nz)])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"assignment record {i}: {exc}") from exc
    else:
        reader = csv.reader(_skip_leading_comments(stream))
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("assignment file is empty")
        nz = len(header) - 1
        if nz < 1 or header != ["id"] + [f"p_{j + 1}" for j in range(nz)]:
            raise ValidationError("assignment header must be id,p_1..p_n")
        ids, table = [], []
        for i, row in enumerate(reader):
            if len(row) != 1 + nz:
                raise ValidationError(f"assignment row {i}: expected {1 + nz} fields")
            try:
                ids.append(row[0])
                table.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ValidationError(f"assignment row {i}: {exc}") from exc
    try:
        ensemble = SubsystemEnsemble(table=np.asarray(table, dtype=float))
    except ValidationError as exc:
        raise ValidationError(f"assignment table rejected: {exc}") from exc
    return ids, ensemble


@dataclass(frozen=True)
class SweepResult:
    """An ordered table of sweep rows plus run metadata for the emitters."""

    columns: tuple
    rows: tuple
    metadata: dict

    def write(self, stream, fmt: str = "csv") -> None:
        if fmt == "csv":
            for key, value in self.metadata.items():
                stream.write(f"# {key}={format_number(value)}\n")
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([format_number(v) for v in row])
        elif fmt == "json":
            def cell(v):
                if isinstance(v, (float, np.floating)):
                    return float(_FMT % float(v))
                if isinstance(v, (bool, np.bool_)):
                    return bool(v)
                if isinstance(v, (int, np.integer)):
                    return int(v)
                return v
            payload = {
                "metadata": {k: cell(v) for k, v in self.metadata.items()},
                "columns": list(self.columns),
                "rows": [[cell(v) for v in row] for row in self.rows],
            }
            json.dump(payload, stream, indent=1)
            stream.write("\n")
        else:
            raise ValidationError(f"unknown format {fmt!r}")

    def to_string(self, fmt: str = "csv") -> str:
        buf = io.StringIO()
        self.write(buf, fmt)
        return buf.getvalue()


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
    lo, hi = log_var_range
    if not lo <= hi:
        raise ValidationError("log_var_range must be (low, high) with low <= high")
    if contract_label is not None and not 0 <= contract_label < n_labels:
        raise ValidationError(f"contract_label must index a label, got {contract_label}")

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_labels, n_z)) * separation
    records = []
    for lab in range(n_labels):
        scale = spread / contract_factor if lab == contract_label else spread
        means = centers[lab] + rng.standard_normal((per_label, n_z)) * scale
        logvars = rng.uniform(lo, hi, size=(per_label, n_z))
        for j in range(per_label):
            records.append(EmbeddingRecord(
                id=f"{lab}-{j}", label=str(lab),
                mean=means[j], log_variance=logvars[j],
            ))
    return EmbeddingDataset(records=tuple(records))


def group_decomposition(dataset: EmbeddingDataset, q_list: Sequence[float],
                        group_by_label: bool = True) -> SweepResult:
    """Pooled/within/between Gaussian heterogeneity per label group.

    Uniform weights within each group. A singleton group is emitted with
    pooled = within (its own component heterogeneity), between = 1, and the
    ``singleton`` flag set.
    """
    if group_by_label:
        if any(r.label is None for r in dataset.records):
            raise ValidationError("group-by requires every record to carry a label")
        groups = {}
        for i, r in enumerate(dataset.records):
            groups.setdefault(r.label, []).append(i)
        items = sorted(groups.items())
    else:
        items = [("*", list(range(len(dataset))))]

    rows = []
    for label, idx in items:
        if len(idx) == 1:
            comp = dataset.records[idx[0]].component()
            for q in q_list:
                val = gaussian_renyi(comp.covariance, q)
                rows.append((label, 1, float(q), val, val, 1.0, True))
            continue
        ens = dataset.ensemble(idx)
        pool = gaussian_pool(ens)
        for q in q_list:
            pooled = gaussian_renyi(pool.covariance, q)
            within = gaussian_within(ens, q)
            rows.append((label, len(idx), float(q), pooled, within,
                         pooled / within, False))
    return SweepResult(
        columns=("label", "n", "q", "pooled", "within", "between", "singleton"),
        rows=tuple(rows),
        metadata={"command": "embeddings-decompose",
                  "group_by": group_by_label,
                  "n_records": len(dataset), "n_z": dataset.n_z},
    )


def neighborhood_between(dataset: EmbeddingDataset, k: int, q: float) -> np.ndarray:
    """Between-observation heterogeneity of each record's neighborhood.

    The neighborhood is the record plus its k nearest records by Euclidean
    distance on means (distance ties broken by ascending record index);
    uniform weights over the k + 1 members.
    """
    n = len(dataset)
    if not 1 <= k < n:
        raise ValidationError(f"k must satisfy 1 <= k < N={n}, got {k}")
    qf = float(q)
    if not (qf > 0 and math.isfinite(qf)):
        raise ValidationError("neighborhood heterogeneity requires q in (0, inf)")
    means = np.stack([r.mean for r in dataset.records])

    def one(i: int) -> float:
        d = np.linalg.norm(means - means[i], axis=1)
        d[i] = -1.0  # the record itself always leads the ordering
        order = np.argsort(d, kind="stable")  # stable sort = index tie-break
        ens = dataset.ensemble(order[: k + 1])
        pooled = gaussian_renyi(gaussian_pool(ens).covariance, qf)
        return pooled / gaussian_within(ens, qf)

    workers = thread_count()
    if workers > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(one, range(n)))
    else:
        vals = [one(i) for i in range(n)]
    return np.asarray(vals)


def neighborhood_sweep(dataset: EmbeddingDataset, k: int, q: float,
                       top: int = 10) -> SweepResult:
    """Per-record neighborhood heterogeneity, reporting the ``top`` highest
    and lowest neighborhoods (record index breaks score ties)."""
    if top < 1:
        raise ValidationError("top must be >= 1")
    between = neighborhood_between(dataset, k, q)
    n = len(dataset)
    order_low = np.argsort(between, kind="stable")
    order_high = order_low[::-1]
    rows = []
    for rank, i in enumerate(order_high[: min(top, n)], start=1):
        r = dataset.records[int(i)]
        rows.append(("high", rank, r.id, r.label, float(between[i])))
    for rank, i in enumerate(order_low[: min(top, n)], start=1):
        r = dataset.records[int(i)]
        rows.append(("low", rank, r.id, r.label, float(between[i])))
    return SweepResult(
        columns=("kind", "rank", "id", "label", "between"),
        rows=tuple(rows),
        metadata={"command": "embeddings-neighborhoods", "k": k,
                  "q": float(q), "n_records": n, "n_z": dataset.n_z},
    )
