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

from .errors import NumericalError, UndefinedOrderError, ValidationError

PROB_TOL = 1e-9
SYM_TOL = 1e-12

_NEAR_ONE = 1e-2  # |q - 1| below which _log_hill uses its expm1/log1p form
_HUGE_ORDER = 1e300  # q above which _log_hill takes its q = inf limit

# Table 1: index -> (order, transform of the Renyi heterogeneity pi at that
# order). Order None takes the caller's q; transform None marks the two
# indices formed in `table1_index` itself.
_TABLE = {
    "richness": (0.0, float),
    "perplexity": (1.0, float),
    "inverse_simpson": (2.0, float),
    "berger_parker": (math.inf, float),
    "renyi_entropy": (None, math.log),
    "shannon_entropy": (1.0, math.log),
    "tsallis_entropy": (None, None),
    "simpson_concentration": (2.0, lambda pi: 1.0 / pi),
    "gini_simpson": (2.0, lambda pi: 1.0 - 1.0 / pi),
    "generalized_entropy_index": (None, None),
}
TABLE_INDICES = tuple(_TABLE)


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
    row held to the rules and messages of `first_invalid_row`. Rejects
    rather than renormalizes."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim < 1 or arr.size < 1:
        raise ValidationError("distribution must be a non-empty 1-D vector")
    bad = first_invalid_row(arr.reshape(-1, arr.shape[-1]))
    if bad is not None:
        raise ValidationError(bad[1])
    return arr


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
    leading index, for weights summing to 1 along it and q >= 0 (q = 0 only
    with ``log_w``): the power mean behind every numbers-equivalent index of
    the package. ``log_w`` is log w, -inf where w_i = 0; None means w = p,
    whose generic term is q log p_i. log p_i may be -inf where w_i = 0 only
    when ``log_w`` is None.

    Near q=1 the sum is 1 + sum w expm1((q-1) log p), which keeps the digits
    that its log would lose to cancellation before the division by 1 - q;
    there and at q=1 a zero weight takes log p_i = 0. Other orders are summed
    in the log domain, so no power under- or overflows, and a zero weight is
    a -inf term that needs no mask. Orders above `_HUGE_ORDER`, q = inf
    included, give the limit -max log p_i over the positive weights, which
    the power mean equals to rounding there: it differs by |log S| / (q - 1),
    with S between the weight at the largest p_i and 1.
    """
    if q > _HUGE_ORDER:
        return -np.where(w > 0.0, log_p, -np.inf).max(axis=-1)
    if abs(q - 1.0) < _NEAR_ONE:
        log_p = np.where(w > 0.0, log_p, 0.0)
        if q == 1.0:
            return -_dot(w, log_p)
        return np.log1p(_dot(w, np.expm1((q - 1.0) * log_p))) / (1.0 - q)
    term = q * log_p if log_w is None else log_w + (q - 1.0) * log_p
    return logsumexp(term, axis=-1) / (1.0 - q)


def renyi_heterogeneity(p, q):
    """Effective number of equally probable states of order q.

    (sum p_i^q)^(1/(1-q)) for generic q; support count at q=0, perplexity
    at q=1, inverse maximum probability at q=inf. Always in [1, n].

    ``p`` is one distribution, giving a float, or an (..., n) stack of them,
    giving an array of the leading shape; every row is validated by
    `as_distributions`.
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


def _gei(arr: np.ndarray, q: float) -> IndexValue:
    """Generalized entropy index (Shorrocks 1980) at a finite order q: the
    mean of f(x_i), x_i = n p_i, with f(x) = (x^q - 1 - q(x - 1)) / (q(q - 1)).
    The term q(x - 1) has mean 0; taken out of each term it leaves every
    f(x_i) >= 0, so the mean cancels nowhere. With L = log x, f is
    (expm1(qL) - q(x - 1)) / (q(q - 1)) below q = 1/2, with the q = 0 limit
    x - 1 - L, and (x expm1((q - 1)L) / (q - 1) - (x - 1)) / q from there on,
    with the q = 1 limit xL - (x - 1)."""
    n = arr.size
    x = n * arr
    if q < 0.5:  # a zero p_i is L = -inf: expm1(qL) = -1, and f(0) = inf at q = 0
        log_x = np.log(x, out=np.full(n, -np.inf), where=arr > 0.0)
        if q == 0.0:
            return IndexValue(float(np.mean(x - 1.0 - log_x)), limit_branch=True)
        return IndexValue(float(np.mean(np.expm1(q * log_x) - q * (x - 1.0))) / (q * (q - 1.0)))
    log_x = np.log(x, out=np.zeros(n), where=arr > 0.0)  # a zero p_i adds only 1 / q
    if q == 1.0:
        grown = arr * log_x
    else:
        # x expm1(t) / n as p expm1(t/2) (expm1(t/2) + 2): no factor overflows first
        with np.errstate(over="ignore"):
            half = np.expm1(0.5 * (q - 1.0) * log_x)
            grown = arr * half * (half + 2.0) / (q - 1.0)
    value = float(np.sum(grown - (x - 1.0) / n)) / q
    if not math.isfinite(value):
        raise NumericalError(f"generalized entropy index at q={q:g} overflows a float")
    return IndexValue(value, limit_branch=q == 1.0)


def table1_index(p, index: str, q=None) -> IndexValue:
    """One of the classical indices expressed as a transform of the
    Renyi heterogeneity. q is required only by renyi_entropy,
    tsallis_entropy and generalized_entropy_index.
    """
    if index not in _TABLE:
        raise ValidationError(f"unknown index {index!r}; choose from {TABLE_INDICES}")
    if np.ndim(p) != 1:
        raise ValidationError("distribution must be a non-empty 1-D vector")
    arr = as_distributions(p)
    order, transform = _TABLE[index]
    if order is None:
        if q is None:
            raise ValidationError(f"{index} requires an elasticity order q")
        order = check_order(q)
    if transform is not None:
        return IndexValue(transform(renyi_heterogeneity(arr, order)))
    if math.isinf(order):
        raise UndefinedOrderError(f"{index} is not defined at q=inf")
    if index == "generalized_entropy_index":
        return _gei(arr, order)
    # tsallis_entropy: expm1 of (1 - q) log pi, which stays accurate as q -> 1
    log_pi = math.log(renyi_heterogeneity(arr, order))
    if order == 1.0:
        return IndexValue(log_pi, limit_branch=True)
    return IndexValue(-math.expm1((1.0 - order) * log_pi) / (order - 1.0))
