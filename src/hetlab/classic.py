"""The existing non-categorical numbers-equivalent indices (quadratic
entropy, functional Hill numbers, Leinster-Cobbold), distance/similarity
utilities, metric predicates, and the parametric 3-state testbed.

The validators, indices and predicates take one n x n matrix or an
(..., n, n) stack of them, and the indices one distribution p or an
(..., n) stack of them whose leading shape broadcasts against the
matrices', so a sweep makes one call per index over its whole grid. One
matrix and one p give a float (a bool for the predicates); otherwise the
result is an array of the broadcast leading shape. Stacks are validated
as a whole, each member held to the single-matrix or single-vector rules
and messages. The testbed builds such stacks: an array of heights gives
an (..., 3, 3) stack of triangles, an array of skews an (..., 3) stack of
distributions.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _HUGE_ORDER, SYM_TOL, _log_hill, as_distributions, check_order
from .errors import DegenerateDistanceError, SingularityError, ValidationError

DEFAULT_METRIC_TOL = 1e-9


def _square_stack(m, what: str) -> np.ndarray:
    """``m`` as a float n x n matrix or (..., n, n) stack of them, n >= 1;
    a ragged stack, whose members differ in size, is not one."""
    try:
        arr = np.asarray(m, dtype=float)
    except ValueError:
        arr = None
    if arr is None or arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.size < 1:
        raise ValidationError(f"{what} matrix must be square and non-empty")
    return arr


def as_distance_matrix(d, *, require_zero_diagonal: bool = True) -> np.ndarray:
    """Validate a square symmetric non-negative dissimilarity matrix, or an
    (..., n, n) stack of them, each held to the same rules.

    The beta-mixture comparison uses expected-distance matrices whose
    diagonal is legitimately positive; those callers disable the
    zero-diagonal check.
    """
    arr = _square_stack(d, "distance")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("distance matrix entries must be finite")
    if np.any(arr < 0):
        raise ValidationError("distances must be non-negative")
    if np.max(np.abs(arr - arr.swapaxes(-1, -2))) > SYM_TOL:
        raise ValidationError("distance matrix must be symmetric")
    diag = np.diagonal(arr, axis1=-2, axis2=-1)
    if require_zero_diagonal and np.any(np.abs(diag) > SYM_TOL):
        raise ValidationError("distance matrix must have a zero diagonal")
    return arr


def as_similarity_matrix(s, *, require_unit_diagonal: bool = True) -> np.ndarray:
    """Validate a square affinity matrix with entries in [0, 1], or an
    (..., n, n) stack of them."""
    arr = _square_stack(s, "similarity")
    if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
        raise ValidationError("similarities must lie in [0, 1]")
    diag = np.diagonal(arr, axis1=-2, axis2=-1)
    if require_unit_diagonal and np.any(np.abs(diag - 1.0) > SYM_TOL):
        raise ValidationError("similarity matrix must have a unit diagonal")
    return arr


def _check_sizes(m: np.ndarray, pv: np.ndarray, what: str) -> None:
    """Matrices and distributions of one size n, whose stacks broadcast."""
    if m.shape[-1] != pv.shape[-1]:
        raise ValidationError(f"{what} matrix and distribution sizes disagree")
    try:
        np.broadcast_shapes(m.shape[:-2], pv.shape[:-1])
    except ValueError:
        raise ValidationError(f"{what} matrix and distribution stacks do not broadcast, "
                              f"{m.shape[:-2]} against {pv.shape[:-1]}") from None


def _distance_and_distribution(d, p, require_zero_diagonal: bool) -> tuple:
    """A validated distance matrix (or stack) and distribution (or stack) of
    matching size."""
    dm = as_distance_matrix(d, require_zero_diagonal=require_zero_diagonal)
    pv = as_distributions(p)
    _check_sizes(dm, pv, "distance")
    return dm, pv


def _per_member(x, kind=float):
    """``x`` as a ``kind`` scalar for one matrix and one distribution, else
    as the array of the broadcast leading shape."""
    return kind(x) if np.ndim(x) == 0 else x


def _support(pv: np.ndarray) -> np.ndarray:
    """The states where some distribution of ``pv`` is positive. A stack
    keeps the union of its rows' supports; a row's zeros inside it carry no
    weight."""
    return (pv > 0.0).reshape(-1, pv.shape[-1]).any(axis=0)


def _outer(pv: np.ndarray) -> np.ndarray:
    """p_i p_j of each distribution, ``(..., n, n)``."""
    return pv[..., :, None] * pv[..., None, :]


def _pair_sum(a: np.ndarray) -> np.ndarray:
    """The sum of the entries of each n x n member of an (..., n, n) stack."""
    return np.asarray(a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1))


def rqe(d, p, q=1.0, *, require_zero_diagonal: bool = True):
    """Generalized Rao quadratic entropy: sum_ij D_ij (p_i p_j)^q."""
    dm, pv = _distance_and_distribution(d, p, require_zero_diagonal)
    qf = check_order(q)
    return _per_member(_pair_sum(dm * _outer(pv) ** qf))


def rescale_distance(d, *, require_zero_diagonal: bool = True) -> np.ndarray:
    """Affine rescaling (D - min) / (max - min) onto [0, 1]; each member of a
    stack by its own min and max."""
    dm = as_distance_matrix(d, require_zero_diagonal=require_zero_diagonal)
    lo = dm.min(axis=(-2, -1), keepdims=True)
    hi = dm.max(axis=(-2, -1), keepdims=True)
    if np.any(hi <= lo):
        raise DegenerateDistanceError("constant distance matrix cannot be rescaled")
    return (dm - lo) / (hi - lo)


def neqrqe(d, p, *, require_zero_diagonal: bool = True):
    """Numbers-equivalent quadratic entropy 1/(1 - Q_1) on a [0,1]-scaled D.

    The caller is responsible for rescaling; entries outside [0, 1] are
    rejected rather than silently rescaled.
    """
    dm, pv = _distance_and_distribution(d, p, require_zero_diagonal)
    if np.any(dm > 1.0 + SYM_TOL):
        raise ValidationError("neqrqe requires a distance matrix rescaled to [0, 1]")
    q1 = _pair_sum(dm * _outer(pv))
    near_one = q1 >= 1.0 - 1e-12
    if np.any(near_one):
        raise SingularityError(f"quadratic entropy {q1[near_one].flat[0]} too close to 1")
    return _per_member(1.0 / (1.0 - q1))


def functional_hill(d, p, q, *, require_zero_diagonal: bool = True):
    """Functional Hill number (Q_q / Q_1)^(1/(2(1-q))), with the analytic
    q=1 limit exp(-sum_ij D_ij p_i p_j log(p_i p_j) / (2 Q_1)).

    NaN where the number is undefined, per member: at q=inf and where
    Q_1 = 0, as for a point mass. Near a point mass Q_q / Q_1 behaves like
    (p_i p_j)^(q-1), so the number grows like (p_i p_j)^(-1/2) and has no
    finite limit to stand in.
    """
    dm, pv = _distance_and_distribution(d, p, require_zero_diagonal)
    qf = check_order(q)
    if math.isinf(qf):
        return _per_member(np.full(np.broadcast_shapes(dm.shape[:-2], pv.shape[:-1]), np.nan))
    # Pairs off the support carry no weight; leaving them out keeps log p_i p_j finite.
    support = _support(pv)
    # np.compress keeps C order, unlike a boolean index on the last axis, so
    # each member's dot product in _log_hill sums as one vector's does
    dm = np.compress(support, np.compress(support, dm, axis=-1), axis=-2)
    pp = _outer(np.compress(support, pv, axis=-1))
    q1 = _pair_sum(dm * pp)
    # Q_q / Q_1 is a power mean of p_i p_j with weights D_ij p_i p_j / Q_1;
    # a zero p_i p_j inside the union of supports takes log 0, as _log_hill asks.
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dm * pp / q1[..., None, None]).reshape(q1.shape + (-1,))
        log_w = np.log(w, out=np.full(w.shape, -np.inf), where=w > 0.0)
        log_pp = np.log(pp, out=np.zeros(pp.shape), where=pp > 0.0)
        value = np.exp(0.5 * _log_hill(log_pp.reshape(pp.shape[:-2] + (-1,)), w, qf, log_w))
    return _per_member(np.where(q1 > 0.0, value, np.nan))


def check_scaling(u) -> np.ndarray:
    """Similarity scaling factors u as a float array, each finite and >= 0."""
    u = np.asarray(u, dtype=float)
    ok = (u >= 0) & (u < np.inf)
    if not ok.all():
        raise ValidationError(
            f"similarity scaling factor u must be finite and must be >= 0, got {u[~ok][0]}")
    return u


def similarity_from_distance(d, u, *, require_zero_diagonal: bool = True) -> np.ndarray:
    """Entrywise affinity transform S_ij = exp(-u D_ij), u >= 0. ``u`` may be
    an array that broadcasts against the distance matrix or stack, such as
    a (U, 1, 1) column of factors giving one similarity matrix per factor."""
    dm = as_distance_matrix(d, require_zero_diagonal=require_zero_diagonal)
    return np.exp(-check_scaling(u) * dm)


def leinster_cobbold(s, p, q, *, require_unit_diagonal: bool = True):
    """Similarity-sensitive heterogeneity [sum_i p_i (Sp)_i^(q-1)]^(1/(1-q)),
    with the limit 1 / max (Sp)_i over the support at q=inf and every order
    above 10**300."""
    sm = as_similarity_matrix(s, require_unit_diagonal=require_unit_diagonal)
    pv = as_distributions(p)
    qf = check_order(q)
    _check_sizes(sm, pv, "similarity")
    support = _support(pv)
    sp = np.compress(support, (sm @ pv[..., None])[..., 0], axis=-1)
    pv = np.compress(support, pv, axis=-1)
    # A row's own zeros inside the union of supports are no candidate for the
    # maximum and take log (Sp)_i = 0 beside their log p_i = -inf in the sum.
    if qf > _HUGE_ORDER:
        return _per_member(1.0 / np.where(pv > 0.0, sp, 0.0).max(axis=-1))
    with np.errstate(divide="ignore"):  # (Sp)_i = 0 on the support: log 0 = -inf
        log_sp = np.log(np.where(pv > 0.0, sp, 1.0))
    log_pv = np.log(pv, out=np.full(pv.shape, -np.inf), where=pv > 0.0)
    return _per_member(np.exp(_log_hill(log_sp, pv, qf, log_pv)))


def is_metric(d):
    """True iff off-diagonal distances exceed `DEFAULT_METRIC_TOL` (distinct
    states are at nonzero distance) and every triangle inequality holds
    within it; one bool per member of a stack."""
    dm = as_distance_matrix(d)
    n = dm.shape[-1]
    distinct = np.all(dm[..., ~np.eye(n, dtype=bool)] > DEFAULT_METRIC_TOL, axis=-1)
    # d(x,z) <= d(x,y) + d(y,z) within the tolerance over all triples, vectorized over y.
    detours = (dm[..., :, :, None] + dm[..., None, :, :]).min(axis=-2)
    triangles = np.all(dm <= detours + DEFAULT_METRIC_TOL, axis=(-2, -1))
    return _per_member(distinct & triangles, bool)


def is_ultrametric(d):
    """True iff is_metric and d(x,z) <= max(d(x,y), d(y,z)) holds within
    `DEFAULT_METRIC_TOL`."""
    dm = as_distance_matrix(d)
    maxes = np.maximum(dm[..., :, :, None], dm[..., None, :, :]).min(axis=-2)
    ultra = np.all(dm <= maxes + DEFAULT_METRIC_TOL, axis=(-2, -1))
    return _per_member(is_metric(dm) & ultra, bool)


def three_state_probs(kappa) -> np.ndarray:
    """The 3-state distribution (1, sqrt(kappa), kappa) / (1 + sqrt(kappa) +
    kappa) of skewness kappa >= 0, exact at kappa = 0 (a point mass) and 1
    (even); kappa = inf gives the opposite point mass (0, 0, 1). An array of
    skews gives an (..., 3) stack, one row per skew."""
    k = np.asarray(kappa, dtype=float)
    bad = ~(k >= 0)
    if bad.any():
        raise ValidationError(f"kappa must be >= 0, got {k[bad].flat[0]}")
    root = np.sqrt(k)
    with np.errstate(invalid="ignore"):  # inf / inf at kappa = inf
        p = np.stack([np.ones_like(k), root, k], axis=-1) / (1.0 + root + k)[..., None]
    return np.where(np.isinf(k)[..., None], [0.0, 0.0, 1.0], p)


def three_state_distance(h, b: float) -> np.ndarray:
    """Triangle distance matrix with base b (states 1-2) and legs
    sqrt(b^2/4 + h^2) (states 1-3 and 2-3). An array of heights h gives an
    (..., 3, 3) stack, one matrix per height."""
    h = np.asarray(h, dtype=float)
    if not (np.all(h > 0) and b > 0):
        raise ValidationError("triangle height and base must be positive")
    with np.errstate(over="ignore"):  # an infinite leg, which as_distance_matrix refuses
        leg = np.sqrt(b * b / 4.0 + h * h)
    d = np.zeros(h.shape + (3, 3))
    d[..., 0, 1] = d[..., 1, 0] = b
    d[..., :2, 2] = d[..., 2, :2] = leg[..., None]
    return d
