"""Categorical Renyi heterogeneity of a single distribution, plus the
classical diversity/inequality indices it generalizes or transforms into.

The elasticity order q is a plain non-negative float. The values 0.0, 1.0
and math.inf are distinguished encodings selecting the richness, perplexity
and Berger-Parker branches. Every other order goes through `_log_hill`, the
one power-mean kernel behind all numbers-equivalent indices of the package:
it keeps full accuracy for orders close to 1 and log-sum-exp elsewhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import UndefinedOrderError, ValidationError

PROB_TOL = 1e-9
SYM_TOL = 1e-12

_NEAR_ONE = 1e-2  # |q - 1| below which _log_hill uses its expm1/log1p form

TABLE_INDICES = (
    "richness",
    "perplexity",
    "inverse_simpson",
    "berger_parker",
    "renyi_entropy",
    "shannon_entropy",
    "tsallis_entropy",
    "simpson_concentration",
    "gini_simpson",
    "generalized_entropy_index",
)

_Q_REQUIRED = {"renyi_entropy", "tsallis_entropy", "generalized_entropy_index"}


def first_invalid_row(table: np.ndarray):
    """``(index, reason)`` for the first row of a 2-D float table that is not
    a probability distribution, or None when every row is one.

    A row must be finite, then non-negative, then sum to 1 within `PROB_TOL`;
    the reason names the first of these rules the row breaks.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        sums = table.sum(axis=1)
    # Entries >= 0 exclude NaN and -inf; a +inf entry makes the sum miss 1.
    ok = (table >= 0).all(axis=1) & (np.abs(sums - 1.0) <= PROB_TOL)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    row = table[i]
    if not np.isfinite(row).all():
        return i, "distribution entries must be finite"
    if (row < 0).any():
        return i, "distribution entries must be non-negative"
    return i, f"distribution must sum to 1 within {PROB_TOL}, got {float(sums[i])!r}"


def as_distributions(p) -> np.ndarray:
    """Validate one probability vector or an (..., n) stack of them, each
    row held to the rules and messages of `as_distribution`."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim < 1 or arr.size < 1:
        raise ValidationError("distribution must be a non-empty 1-D vector")
    bad = first_invalid_row(arr.reshape(-1, arr.shape[-1]))
    if bad is not None:
        raise ValidationError(bad[1])
    return arr


def as_distribution(p) -> np.ndarray:
    """Validate a probability vector. Rejects rather than renormalizes."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("distribution must be a non-empty 1-D vector")
    return as_distributions(arr)


def check_weights(weights, n: int, members: str) -> np.ndarray:
    """Validate the weights of an ensemble of ``n`` ``members`` (None means
    uniform): one distribution under the rules of `first_invalid_row`."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValidationError(f"weights length must match the number of {members}")
    bad = first_invalid_row(w[None])
    if bad is not None:
        raise ValidationError(f"weights: {bad[1]}")
    return w


def normalize(p) -> np.ndarray:
    """Explicitly rescale a non-negative vector to sum to 1."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError("expected a non-empty 1-D vector")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValidationError("entries must be finite and non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise ValidationError("cannot normalize a zero vector")
    return arr / total


def check_order(q) -> float:
    """Validate an elasticity order: a non-negative real, inf allowed."""
    qf = float(q)
    if math.isnan(qf) or qf < 0:
        raise UndefinedOrderError(f"elasticity order must be >= 0, got {q}")
    return qf


def check_orders(q_list) -> list:
    """Validate a list of orders: at least one, each as `check_order`."""
    orders = [check_order(q) for q in q_list]
    if not orders:
        raise ValidationError("at least one order is required")
    return orders


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (None: every entry), in the steps of
    SciPy 1.17's logsumexp, so the two agree bit for bit: the m entries tied
    at the maximum leave the shifted sum s and the result is
    log1p(s / m) + log(m) + max, or the maximum itself where it is -inf, inf
    or NaN.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        a, axis = a.ravel(), 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=axis, keepdims=True, dtype=float)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        out = np.where(np.isfinite(a_max), np.log1p(s / m) + np.log(m), 0.0) + a_max
    return out.squeeze(axis)[()]


def _dot(a, b):
    """sum_i a_i b_i along the last axis, one value per leading index: the
    BLAS dot of `np.dot` on each row, through `np.matmul`."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _log_hill(log_p, w, q: float, log_w=None):
    """log (sum_i w_i p_i^(q-1))^(1/(1-q)) along the last axis, one value per
    leading index, for weights summing to 1 along it and finite q: the power
    mean behind every numbers-equivalent index of the package. ``log_w`` is
    log w, -inf where w_i = 0; None means w = p, whose generic term is
    q log p_i. log p_i may be -inf where w_i = 0 only when ``log_w`` is None.

    Near q=1 the sum is 1 + sum w expm1((q-1) log p), which keeps the digits
    that its log would lose to cancellation before the division by 1 - q;
    there and at q=1 a zero weight takes log p_i = 0. Other orders sum terms
    log w_i + (q-1)(log p_i - m) in the log domain, m the largest log p_i of a
    positive weight, so no power under- or overflows even at q near the
    largest float; a zero weight is a -inf term.
    """
    if abs(q - 1.0) < _NEAR_ONE:
        log_p = np.where(w > 0.0, log_p, 0.0)
        if q == 1.0:
            return -_dot(w, log_p)
        return np.log1p(_dot(w, np.expm1((q - 1.0) * log_p))) / (1.0 - q)
    m = np.where(w > 0.0, log_p, -np.inf).max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        term = (log_p if log_w is None else log_w) + (q - 1.0) * np.where(w > 0.0, log_p - m, 0.0)
    return logsumexp(term, axis=-1) / (1.0 - q) - m[..., 0]


def renyi_heterogeneity(p, q):
    """Effective number of equally probable states of order q.

    (sum p_i^q)^(1/(1-q)) for generic q; support count at q=0, perplexity
    at q=1, inverse maximum probability at q=inf. Always in [1, n].

    ``p`` is one distribution, giving a float, or an (..., n) stack of them,
    giving an array of the leading shape; every row is validated as
    `as_distribution` validates one.
    """
    arr = as_distributions(p)
    qf = check_order(q)
    if qf == 0.0:
        out = np.count_nonzero(arr > 0.0, axis=-1).astype(float)
    elif math.isinf(qf):
        out = 1.0 / arr.max(axis=-1)
    else:
        log_p = np.log(arr, out=np.full(arr.shape, -np.inf), where=arr > 0.0)
        out = np.exp(_log_hill(log_p, arr, qf))
    return float(out) if arr.ndim == 1 else out


class IndexValue(NamedTuple):
    """An index value plus a flag marking that a q-limit branch was used."""

    value: float
    limit_branch: bool = False


def table1_index(p, index: str, q=None) -> IndexValue:
    """One of the classical indices expressed as a transform of the
    Renyi heterogeneity. q is required only by renyi_entropy,
    tsallis_entropy and generalized_entropy_index.
    """
    if index not in TABLE_INDICES:
        raise ValidationError(f"unknown index {index!r}; choose from {TABLE_INDICES}")
    arr = as_distribution(p)
    if index in _Q_REQUIRED:
        if q is None:
            raise ValidationError(f"{index} requires an elasticity order q")
        qf = check_order(q)
    else:
        qf = None

    if index == "richness":
        return IndexValue(renyi_heterogeneity(arr, 0.0))
    if index == "perplexity":
        return IndexValue(renyi_heterogeneity(arr, 1.0))
    if index == "inverse_simpson":
        return IndexValue(renyi_heterogeneity(arr, 2.0))
    if index == "berger_parker":
        return IndexValue(renyi_heterogeneity(arr, math.inf))
    if index == "renyi_entropy":
        return IndexValue(math.log(renyi_heterogeneity(arr, qf)))
    if index == "shannon_entropy":
        return IndexValue(math.log(renyi_heterogeneity(arr, 1.0)))
    if index == "simpson_concentration":
        return IndexValue(1.0 / renyi_heterogeneity(arr, 2.0))
    if index == "gini_simpson":
        return IndexValue(1.0 - 1.0 / renyi_heterogeneity(arr, 2.0))

    if math.isinf(qf):
        raise UndefinedOrderError(f"{index} is not defined at q=inf")

    # Both indices are expm1 of (1 - q) log pi, which stays accurate as q -> 1.
    if index == "tsallis_entropy":
        if qf == 1.0:
            return IndexValue(math.log(renyi_heterogeneity(arr, 1.0)), limit_branch=True)
        log_pi = math.log(renyi_heterogeneity(arr, qf))
        return IndexValue(-math.expm1((1.0 - qf) * log_pi) / (qf - 1.0))

    # generalized_entropy_index
    n = arr.size
    if qf == 1.0:
        # Theil-style limit: log n - Shannon entropy.
        h = math.log(renyi_heterogeneity(arr, 1.0))
        return IndexValue(math.log(n) - h, limit_branch=True)
    if qf == 0.0:
        # Mean log deviation limit.
        if np.any(arr == 0.0):
            return IndexValue(math.inf, limit_branch=True)
        mld = -math.log(n) - float(np.mean(np.log(arr)))
        return IndexValue(mld, limit_branch=True)
    log_pi_n = math.log(renyi_heterogeneity(arr, qf) / n)
    return IndexValue(math.expm1((1.0 - qf) * log_pi_n) / (qf * (qf - 1.0)))
