"""The existing non-categorical numbers-equivalent indices (quadratic
entropy, functional Hill numbers, Leinster-Cobbold), distance/similarity
utilities, metric predicates, and the parametric 3-state testbed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SYM_TOL, _log_hill, as_distribution, check_order
from .errors import (
    DegenerateDistanceError,
    SingularityError,
    UndefinedOrderError,
    ValidationError,
)

DEFAULT_METRIC_TOL = 1e-9


def as_distance_matrix(d, *, require_zero_diagonal: bool = True) -> np.ndarray:
    """Validate a square symmetric non-negative dissimilarity matrix.

    The beta-mixture comparison uses expected-distance matrices whose
    diagonal is legitimately positive; those callers disable the
    zero-diagonal check.
    """
    arr = np.asarray(d, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError("distance matrix must be square and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("distance matrix entries must be finite")
    if np.any(arr < 0):
        raise ValidationError("distances must be non-negative")
    if np.max(np.abs(arr - arr.T)) > SYM_TOL:
        raise ValidationError("distance matrix must be symmetric")
    if require_zero_diagonal and np.any(np.abs(np.diag(arr)) > SYM_TOL):
        raise ValidationError("distance matrix must have a zero diagonal")
    return arr


def as_similarity_matrix(s, *, require_unit_diagonal: bool = True) -> np.ndarray:
    """Validate a square affinity matrix with entries in [0, 1]."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError("similarity matrix must be square and non-empty")
    if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
        raise ValidationError("similarities must lie in [0, 1]")
    if require_unit_diagonal and np.any(np.abs(np.diag(arr) - 1.0) > SYM_TOL):
        raise ValidationError("similarity matrix must have a unit diagonal")
    return arr


def _distance_and_distribution(d, p, require_zero_diagonal: bool) -> tuple:
    """A validated distance matrix and distribution of matching size."""
    dm = as_distance_matrix(d, require_zero_diagonal=require_zero_diagonal)
    pv = as_distribution(p)
    if dm.shape[0] != pv.size:
        raise ValidationError("distance matrix and distribution sizes disagree")
    return dm, pv


def rqe(d, p, q=1.0, *, require_zero_diagonal: bool = True) -> float:
    """Generalized Rao quadratic entropy: sum_ij D_ij (p_i p_j)^q."""
    dm, pv = _distance_and_distribution(d, p, require_zero_diagonal)
    qf = check_order(q)
    pp = np.outer(pv, pv)
    return float(np.sum(dm * pp ** qf))


def rescale_distance(d, *, require_zero_diagonal: bool = True) -> np.ndarray:
    """Affine rescaling (D - min) / (max - min) onto [0, 1]."""
    dm = as_distance_matrix(d, require_zero_diagonal=require_zero_diagonal)
    lo = float(dm.min())
    hi = float(dm.max())
    if hi <= lo:
        raise DegenerateDistanceError("constant distance matrix cannot be rescaled")
    return (dm - lo) / (hi - lo)


def neqrqe(d, p, *, require_zero_diagonal: bool = True) -> float:
    """Numbers-equivalent quadratic entropy 1/(1 - Q_1) on a [0,1]-scaled D.

    The caller is responsible for rescaling; entries outside [0, 1] are
    rejected rather than silently rescaled.
    """
    dm, pv = _distance_and_distribution(d, p, require_zero_diagonal)
    if np.any(dm > 1.0 + SYM_TOL):
        raise ValidationError("neqrqe requires a distance matrix rescaled to [0, 1]")
    q1 = float(np.sum(dm * np.outer(pv, pv)))
    if q1 >= 1.0 - 1e-12:
        raise SingularityError(f"quadratic entropy {q1} too close to 1")
    return 1.0 / (1.0 - q1)


def functional_hill(d, p, q, *, require_zero_diagonal: bool = True) -> float:
    """Functional Hill number (Q_q / Q_1)^(1/(2(1-q))), with the analytic
    q=1 limit exp(-sum_ij D_ij p_i p_j log(p_i p_j) / (2 Q_1))."""
    dm, pv = _distance_and_distribution(d, p, require_zero_diagonal)
    qf = check_order(q)
    if math.isinf(qf):
        raise UndefinedOrderError("functional Hill numbers are computed at finite q")
    pp = np.outer(pv, pv)
    q1 = float(np.sum(dm * pp))
    if q1 <= 0.0:
        raise SingularityError("functional Hill number undefined when Q_1 = 0")
    # Q_q / Q_1 is a power mean of p_i p_j with weights D_ij p_i p_j / Q_1.
    log_pp = np.log(pp, out=np.full(pp.shape, -np.inf), where=pp > 0.0)
    return float(np.exp(0.5 * _log_hill(log_pp, dm * pp / q1, qf)))


def functional_hill_or_none(d, p, q, *, require_zero_diagonal: bool = True):
    """`functional_hill`, or None where it is undefined: at q=inf and when
    Q_1 = 0, as for a point mass. Near a point mass Q_q / Q_1 behaves like
    (p_i p_j)^(q-1), so the number grows like (p_i p_j)^(-1/2) and has no
    finite limit to stand in. The sweep commands print None as an empty cell.
    """
    if float(q) == math.inf:  # functional_hill validates q itself
        return None
    try:
        return functional_hill(d, p, q, require_zero_diagonal=require_zero_diagonal)
    except SingularityError:
        return None


def similarity_from_distance(d, u: float, *, require_zero_diagonal: bool = True) -> np.ndarray:
    """Entrywise affinity transform S_ij = exp(-u D_ij), u >= 0."""
    dm = as_distance_matrix(d, require_zero_diagonal=require_zero_diagonal)
    if u < 0:
        raise ValidationError(f"similarity scaling factor must be >= 0, got {u}")
    return np.exp(-u * dm)


def leinster_cobbold(s, p, q, *, require_unit_diagonal: bool = True) -> float:
    """Similarity-sensitive heterogeneity [sum_i p_i (Sp)_i^(q-1)]^(1/(1-q))."""
    sm = as_similarity_matrix(s, require_unit_diagonal=require_unit_diagonal)
    pv = as_distribution(p)
    qf = check_order(q)
    if sm.shape[0] != pv.size:
        raise ValidationError("similarity matrix and distribution sizes disagree")
    sp = sm @ pv
    support = pv > 0.0
    if math.isinf(qf):
        return float(1.0 / np.max(sp[support]))
    return float(np.exp(_log_hill(np.log(sp[support]), pv[support], qf)))


def is_metric(d, tol: float = DEFAULT_METRIC_TOL) -> bool:
    """True iff off-diagonal distances exceed tol (distinct states are at
    nonzero distance) and every triangle inequality holds within tol."""
    dm = as_distance_matrix(d)
    n = dm.shape[0]
    off = dm[~np.eye(n, dtype=bool)]
    if off.size and np.any(off <= tol):
        return False
    # d(x,z) <= d(x,y) + d(y,z) + tol over all triples, vectorized over y.
    detours = (dm[:, :, None] + dm[None, :, :]).min(axis=1)
    return bool(np.all(dm <= detours + tol))


def is_ultrametric(d, tol: float = DEFAULT_METRIC_TOL) -> bool:
    """True iff is_metric and d(x,z) <= max(d(x,y), d(y,z)) + tol holds."""
    dm = as_distance_matrix(d)
    if not is_metric(dm, tol):
        return False
    maxes = np.maximum(dm[:, :, None], dm[None, :, :]).min(axis=1)
    return bool(np.all(dm <= maxes + tol))


def three_state_probs(kappa: float) -> np.ndarray:
    """Parametric 3-state distribution with skewness kappa >= 0
    (kappa=0, 1 and inf select the degenerate, even and opposite-degenerate
    branches exactly)."""
    if math.isnan(kappa) or kappa < 0:
        raise ValidationError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0.0:
        return np.array([1.0, 0.0, 0.0])
    if kappa == 1.0:
        return np.full(3, 1.0 / 3.0)
    if math.isinf(kappa):
        return np.array([0.0, 0.0, 1.0])
    root = math.sqrt(kappa)
    return np.array([1.0, root, kappa]) / (1.0 + root + kappa)


def three_state_distance(h: float, b: float) -> np.ndarray:
    """Triangle distance matrix with base b (states 1-2) and legs
    sqrt(b^2/4 + h^2) (states 1-3 and 2-3)."""
    if not (h > 0 and b > 0):
        raise ValidationError("triangle height and base must be positive")
    leg = math.sqrt(b * b / 4.0 + h * h)
    return np.array([
        [0.0, b, leg],
        [b, 0.0, leg],
        [leg, leg, 0.0],
    ])
