"""Renyi heterogeneity on Gaussian latent representations.

Closed-form heterogeneity of a single Gaussian, within-observation
heterogeneity of a weighted Gaussian ensemble, moment-matched parametric
pooling and their ratio (between). Within and between follow the rule of
the categorical within term: the heterogeneity of a joint distribution over
that of the weights, one power mean (`_log_within`).

A `GaussianEnsemble` holds its N members as arrays with optional leading
stack axes: means ``(..., N, n)`` and covariances, diagonal entries of the
means' shape or ``(..., N, n, n)`` full matrices. The pool, within and
between functions reduce the member axis, so one code path serves one
ensemble and a stack. One validator checks ensembles and components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SYM_TOL, _log_hill, check_order, check_orders, check_weights
from .errors import DegeneratePoolError, NumericalError, UndefinedOrderError, ValidationError

PIVOT_FLOOR = 1e-10

_LOG_2PI = math.log(2.0 * math.pi)


def _validate_gaussians(means, covs, min_ndim: int) -> tuple:
    """Validate means ``(..., n)`` of at least ``min_ndim`` axes and their
    covariances: diagonal entries of the same shape, or ``(..., n, n)`` full
    matrices. Return both with the log-determinants ``(...)``. Positive
    definiteness means every factorization pivot stays above PIVOT_FLOOR."""
    means = np.asarray(means, dtype=float)
    if means.ndim < min_ndim or means.size < 1 or not np.all(np.isfinite(means)):
        raise ValidationError("means must be finite non-empty vectors")
    arr, shape = np.asarray(covs, dtype=float), means.shape
    if arr.shape not in (shape, shape + shape[-1:]):
        raise ValidationError("mean and covariance dimensions disagree")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("covariance entries must be finite")
    if arr.shape == shape:
        if np.any(arr < PIVOT_FLOOR):
            raise ValidationError(
                f"diagonal covariance entries must be >= {PIVOT_FLOOR}"
            )
        return means, arr, np.sum(np.log(arr), axis=-1)
    if np.max(np.abs(arr - arr.swapaxes(-1, -2))) > SYM_TOL:
        raise ValidationError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("covariance is not positive-definite") from exc
    pivots = np.diagonal(chol, axis1=-2, axis2=-1)
    if np.any(pivots ** 2 < PIVOT_FLOOR):
        raise ValidationError(
            f"covariance factorization pivot fell below {PIVOT_FLOOR}"
        )
    return means, arr, 2.0 * np.sum(np.log(pivots), axis=-1)


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    """One multivariate Gaussian or a stack: mean ``(..., n)``, covariance of
    its shape (diagonal entries) or ``(..., n, n)``, and ``logdet`` ``(...)``."""

    mean: np.ndarray
    covariance: np.ndarray
    logdet: float = field(init=False, repr=False)

    def __post_init__(self):
        mean, cov, logdet = _validate_gaussians(self.mean, self.covariance, 1)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "logdet", logdet[()])

    @property
    def is_diagonal(self) -> bool:
        return self.covariance.shape == self.mean.shape


@dataclass(frozen=True, eq=False)
class GaussianEnsemble:
    """N Gaussians of a shared dimension n: means ``(..., N, n)``, covariances
    ``(..., N, n)`` (diagonal entries) or ``(..., N, n, n)`` (full), weights
    ``(N,)`` shared by the stack (None means uniform), and the derived
    per-member log-determinants ``logdets`` ``(..., N)``."""

    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    logdets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        means, covs, logdets = _validate_gaussians(self.means, self.covariances, 2)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "logdets", logdets)
        object.__setattr__(self, "weights",
                           check_weights(self.weights, len(self), "members"))

    @property
    def dim(self) -> int:
        return self.means.shape[-1]

    @property
    def is_diagonal(self) -> bool:
        return self.covariances.shape == self.means.shape

    def __len__(self) -> int:
        return self.means.shape[-2]


def _check_positive_order(q) -> float:
    qf = check_order(q)
    if qf == 0.0:
        raise UndefinedOrderError("Gaussian heterogeneity is undefined at q=0")
    return qf


def _exp_volume(log_val):
    try:  # math.exp per entry: numpy's SIMD exp differs in the last bit on some inputs
        vals = np.vectorize(math.exp, otypes=[float])(log_val)
    except OverflowError:
        raise NumericalError(
            f"Gaussian heterogeneity exp({np.max(log_val):.6g}) overflows a float") from None
    return float(vals) if vals.ndim == 0 else vals


def _log_volume(logdet, n: int, qf: float):
    """Log effective volume of an n-dimensional Gaussian with log|Sigma| =
    logdet (a float or an array) at a positive order qf."""
    log_val = 0.5 * (n * _LOG_2PI + logdet)
    if qf == 1.0:
        log_val += 0.5 * n
    elif not math.isinf(qf):
        log_val += n * math.log(qf) / (2.0 * (qf - 1.0))
    return log_val


def gaussian_renyi(cov, q) -> float:
    """Effective latent volume of a single Gaussian with covariance cov.

    (2*pi)^(n/2) q^(n/(2(q-1))) sqrt|Sigma| for generic q > 0, with the
    q=1 limit (2*pi*e)^(n/2) sqrt|Sigma| and q=inf limit
    (2*pi)^(n/2) sqrt|Sigma|. Values below 1 are meaningful (small volume).
    """
    qf = _check_positive_order(q)
    mean, _, logdet = _validate_gaussians(np.zeros(np.shape(cov)[:1]), cov, 1)
    return _exp_volume(_log_volume(logdet, mean.size, qf))


def _log_within(log_x, w, qf: float):
    """log of the within rule along the last axis of ``log_x`` (log x_i of
    the members, one row per ensemble of a stack) for weights ``w`` summing to
    1: the heterogeneity of the joint cells w_i / x_i over that of w,
    [sum_i w_i^q x_i^(1-q) / sum_i w_i^q]^(1/(1-q)), a power mean of the x_i.
    Its limits are exact, through `_log_hill`: sum_i w_i log x_i at q=1 and
    log max_i w_i - log max_i (w_i / x_i) at q=inf. Where every x_i is 1 the
    two power sums are formed from the same numbers, so the result is 0.
    """
    log_w = np.log(w, out=np.full(len(w), -np.inf), where=w > 0.0)
    # A zero-weight member keeps a finite log(w_i / x_i), which _log_hill
    # needs once it is given log w.
    log_w0 = np.where(w > 0.0, log_w, 0.0)
    log_wx = log_w0 - log_x
    return (_log_hill(log_wx, w, qf, log_w)
            - _log_hill(np.broadcast_to(log_w0, log_wx.shape), w, qf, log_w))


def gaussian_within(ensemble: GaussianEnsemble, q):
    """Within-observation heterogeneity of a weighted Gaussian ensemble.

    As for categorical subsystems, the heterogeneity of the joint density
    w_i f_i(z) over that of the weights: the power mean
    [sum_i w_i^q V_i^(1-q) / sum_i w_i^q]^(1/(1-q)) of the member volumes
    V_i = `gaussian_renyi` (Sigma_i, q). The q=1 limit is
    exp{(n + sum_i w_i ln|2 pi Sigma_i|) / 2} and the q=inf limit
    max_i w_i / max_i (w_i p_i), with p_i = |2 pi Sigma_i|^(-1/2) the peak
    density of member i.
    """
    qf = _check_positive_order(q)
    log_volumes = _log_volume(ensemble.logdets, ensemble.dim, qf)
    return _exp_volume(_log_within(log_volumes, ensemble.weights, qf))


def gaussian_pool(ensemble: GaussianEnsemble) -> GaussianComponent:
    """Moment-matched parametric pool of a Gaussian ensemble (stack).

    mu* = sum w_i mu_i; Sigma* = sum w_i Sigma_i + sum w_i (mu_i - mu*)(mu_i - mu*)^T,
    stored diagonal only when every pool of the stack is (within SYM_TOL).
    The spread of the means is taken about mu*, so no mu_i mu_i^T is formed
    that cancels against mu* mu*^T when the means lie far from the origin.
    """
    w, means, n = ensemble.weights, ensemble.means, ensemble.dim
    mu = w @ means
    mixed = w @ ensemble.covariances.reshape(means.shape[:-1] + (-1,))
    if ensemble.is_diagonal:
        mixed = mixed[..., None] * np.eye(n)
    centred = means - mu[..., None, :]
    cov = (mixed.reshape(mu.shape + (n,))
           + np.einsum("i,...ij,...ik->...jk", w, centred, centred))
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    off = np.where(np.eye(n, dtype=bool), 0.0, cov)
    if np.max(np.abs(off)) <= SYM_TOL:
        cov = np.diagonal(cov, axis1=-2, axis2=-1).copy()
    try:
        return GaussianComponent(mean=mu, covariance=cov)
    except ValidationError as exc:
        raise DegeneratePoolError(f"pooled covariance is numerically singular: {exc}") from exc


def _log_between(ensemble: GaussianEnsemble, pool: GaussianComponent, qf: float):
    # V_i / V* = r_i / r*: the factors of q and 2 pi cancel from every ratio
    log_r = 0.5 * (ensemble.logdets - np.expand_dims(pool.logdet, -1))
    return -_log_within(log_r, ensemble.weights, qf)


def gaussian_between(ensemble: GaussianEnsemble, q):
    """Effective number of distinct observations, pooled / within: the
    reciprocal power mean (the within rule of `gaussian_within`) of the
    ratios r_i / r* = (|Sigma_i| / |Sigma*|)^(1/2), with Sigma* the covariance
    of the `gaussian_pool`. The ratios do not depend on q, so identical
    members and a single member give exactly 1, and no volume is formed that
    could overflow."""
    qf = _check_positive_order(q)
    return _exp_volume(_log_between(ensemble, gaussian_pool(ensemble), qf))


def gaussian_decomposition(ensemble: GaussianEnsemble, q_list) -> dict:
    """Pooled, within and between heterogeneity of an ensemble (stack) at
    each order of ``q_list`` in (0, inf], as columns of shape ``(..., Q)``:
    pooled is the volume of the `gaussian_pool`, between is as in
    `gaussian_between`, and within = pooled / between, the power mean of the
    member volumes taken relative to the pooled volume."""
    orders = [_check_positive_order(q) for q in check_orders(q_list)]
    pool = gaussian_pool(ensemble)
    log_pooled = np.stack([_log_volume(pool.logdet, ensemble.dim, q) for q in orders], -1)
    log_between = np.stack([_log_between(ensemble, pool, q) for q in orders], -1)
    return {"pooled": _exp_volume(log_pooled),
            "within": _exp_volume(log_pooled - log_between),
            "between": _exp_volume(log_between)}
