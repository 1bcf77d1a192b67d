"""Fully analytic two-component beta-mixture testbed.

Provides the mixture density, the optimal decision threshold for hard
assignment, the expected soft-assignment mass, its between-component
heterogeneity, the closed-form expected absolute distance between two
beta variables, and the head-to-head comparison against the
non-categorical indices.
"""

from __future__ import annotations

import math

import numpy as np

from .classic import (
    check_scaling,
    functional_hill,
    leinster_cobbold,
    neqrqe,
    rescale_distance,
    similarity_from_distance,
)
from .core import check_orders, renyi_heterogeneity
from .errors import DegenerateDistanceError, NumericalError, ValidationError
from .special import BetaShape, beta_pdf, beta_tails, log_beta, log_gamma, reg_hyp3f2_unit

_EQUAL_SHAPE_TOL = 1e-12


class BetaMixtureParams:
    """Mixture (1-theta1) Beta(theta2, theta3) + theta1 Beta(theta3, theta2); a
    theta1 array is a stack of mixtures sharing (theta2, theta3), such as a grid."""

    def __init__(self, theta1: float | np.ndarray, theta2: float, theta3: float):
        arr = np.array(theta1, dtype=float)
        if arr.ndim > 1 or not arr.size or not np.all((arr > 0.0) & (arr < 1.0)):
            raise ValidationError(
                f"theta1 must be in (0, 1), a float or a non-empty 1-D array, got {theta1}")
        for name, value in (("theta2", theta2), ("theta3", theta3)):
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        self.theta1 = arr if arr.ndim else float(arr)
        self.theta2, self.theta3 = theta2, theta3

    @property
    def component1(self) -> BetaShape:
        return BetaShape(self.theta2, self.theta3)

    @property
    def component2(self) -> BetaShape:
        return BetaShape(self.theta3, self.theta2)


def bmm_marginal_pdf(x: float, theta: BetaMixtureParams) -> float:
    """Marginal density of the observable at x in (0, 1)."""
    return (1.0 - theta.theta1) * beta_pdf(x, theta.component1) \
        + theta.theta1 * beta_pdf(x, theta.component2)


def _threshold(theta1: float, diff: float) -> float:
    if abs(diff) < _EQUAL_SHAPE_TOL:
        return 0.0 if theta1 > 0.5 else 1.0
    # math, not numpy: numpy's log1p and exp differ from libm in the last bit
    log_r = (math.log1p(-theta1) - math.log(theta1)) / diff
    # tau = 1/(1 + r); where r overflows a float, tau is 0 to double precision.
    try:
        return 1.0 / (1.0 + math.exp(log_r))
    except OverflowError:
        return 0.0


def optimal_threshold(theta: BetaMixtureParams):
    """Decision threshold where the two component posteriors are equal: a
    float, or an array of one per theta1.

    For theta2 != theta3 the posteriors cross at
    tau = 1 / (1 + r) with r = ((1 - theta1) / theta1)^(1 / (theta2 - theta3)).
    With identical shapes the posteriors never cross and the whole interval
    is assigned to the more probable component (tau = 0 if theta1 > 1/2,
    else tau = 1).
    """
    theta1 = np.asarray(theta.theta1)
    diff = theta.theta2 - theta.theta3
    tau = np.reshape([_threshold(t, diff) for t in theta1.ravel().tolist()], theta1.shape)
    return float(tau) if tau.ndim == 0 else tau


def assignment_mass(theta: BetaMixtureParams, tau) -> np.ndarray:
    """Expected hard-assignment distribution (fbar(z=1), fbar(z=2)) at
    threshold tau: mass above tau goes to component 2. ``theta1`` and
    ``tau`` broadcast; the result has their shape plus a last axis of 2.
    Each mass is a weighted sum of the component tails on its side of tau,
    from one `beta_tails` pass per component. Neither mass is 1 minus the
    other, so a mass far below an ulp of 1 keeps its digits."""
    if not np.all(np.greater_equal(tau, 0.0) & np.less_equal(tau, 1.0)):
        raise ValidationError(f"tau must be in [0, 1], got {tau}")
    (below1, above1), (below2, above2) = (beta_tails(tau, c)
                                          for c in (theta.component1, theta.component2))
    w1, w2 = 1.0 - theta.theta1, theta.theta1
    return np.stack([w1 * below1 + w2 * below2, w1 * above1 + w2 * above2], axis=-1)


def bmm_between_rrh(theta: BetaMixtureParams, tau, q_list) -> np.ndarray:
    """Between-component heterogeneity of the thresholded assignments as one
    array of shape ``np.shape(tau) + (len(q_list),)``: ``tau`` is one
    threshold or an array of them, and the last axis follows ``q_list``.

    Every observation is assigned with certainty, so the within term is
    identically 1 and between equals the pooled heterogeneity of the
    expected assignment mass, which is computed once for all thresholds.
    Always in [1, 2].
    """
    orders = check_orders(q_list)
    mass = assignment_mass(theta, tau)
    return np.stack([renyi_heterogeneity(mass, q) for q in orders], axis=-1)


def beta_abs_distance(a: BetaShape, b: BetaShape) -> float:
    """Closed-form E|X - Y| for independent X ~ Beta(a), Y ~ Beta(b).

    d = E[X] - E[Y] + eta * 3F~2(alpha1, alpha1 + alpha2 + 1, 1 - beta1;
    alpha1 + 2, alpha1 + alpha2 + beta2 + 1; 1), where eta collects the
    gamma/beta prefactors and 3F~2 is regularized at unit argument. The one
    series is Phi_a - alpha1 * Phi_b, the difference of the series with
    (alpha1; alpha1 + 1) and (alpha1 + 1; alpha1 + 2) in the first
    numerator and denominator places, folded term by term with
    (alpha)_k / Gamma(alpha + 1 + k) - alpha (alpha + 1)_k / Gamma(alpha + 2 + k)
    = (alpha)_k / Gamma(alpha + 2 + k).
    """
    a1, b1 = a.alpha, a.beta
    a2, b2 = b.alpha, b.beta
    mean_diff = a1 / (a1 + b1) - a2 / (a2 + b2)
    log_eta = (
        math.log(2.0)
        + log_gamma(a1)
        + log_gamma(b2)
        + log_gamma(a1 + a2 + 1.0)
        - log_beta(a1, b1)
        - log_beta(a2, b2)
    )
    try:
        eta = math.exp(log_eta)
    except OverflowError:
        raise NumericalError(
            f"E|X - Y| for Beta({a1:g}, {b1:g}) and Beta({a2:g}, {b2:g}): the "
            f"prefactor exp({log_eta:.6g}) overflows a float") from None
    return mean_diff + eta * reg_hyp3f2_unit(
        (a1, a1 + a2 + 1.0, 1.0 - b1),
        (a1 + 2.0, a1 + a2 + b2 + 1.0),
    )


def expected_distance_matrix(theta: BetaMixtureParams) -> np.ndarray:
    """2x2 expected absolute distance between draws of the two components.

    The diagonal holds the (positive) expected distance between two
    independent draws of the same component. Component 2 is component 1
    mirrored by x -> 1 - x, so both diagonal entries are one value,
    evaluated on component 1.
    """
    c1, c2 = theta.component1, theta.component2
    d_same = beta_abs_distance(c1, c1)
    d12 = beta_abs_distance(c1, c2)
    return np.array([[d_same, d12], [d12, d_same]])


def bmm_index_comparison(theta: BetaMixtureParams, q_list, u: float = 1.0) -> dict:
    """Evaluate the categorical and non-categorical indices on the same
    analytic two-component problem: ``{"tau", "rrh", "fhn", "neqrqe",
    "lci"}``, each a float array of shape (number of theta1, len(q_list)),
    where ``tau`` is the optimal threshold the rrh column is taken at.

    The expected-distance matrix and the similarity matrix depend only on
    (theta2, theta3) and are computed once per call; the optimal thresholds
    once for a theta1 stack, and the rrh column at them by `bmm_between_rrh`;
    and each other index once per order, on the stack of priors
    (1 - theta1, theta1).

    Absent values are NaN. The quadratic-entropy column is filled only at
    q=2 and only when the expected-distance matrix is non-constant (it
    cannot be rescaled otherwise). The functional Hill number is NaN where
    `functional_hill` says so, which here means q=inf.
    """
    orders = check_orders(q_list)
    check_scaling(u)
    theta1 = np.atleast_1d(theta.theta1)
    prior = np.stack([1.0 - theta1, theta1], axis=-1)
    dist = expected_distance_matrix(theta)
    tau = np.atleast_1d(optimal_threshold(theta))
    sim = similarity_from_distance(dist, u, require_zero_diagonal=False)

    neq = np.full(len(theta1), np.nan)
    if 2.0 in orders:
        try:
            scaled = rescale_distance(dist, require_zero_diagonal=False)
            neq = neqrqe(scaled, prior, require_zero_diagonal=False)
        except DegenerateDistanceError:
            pass
    return {
        "tau": np.repeat(tau[:, None], len(orders), axis=1),
        "rrh": bmm_between_rrh(theta, tau, orders),
        "fhn": np.stack([functional_hill(dist, prior, qf, require_zero_diagonal=False)
                         for qf in orders], axis=1),
        "neqrqe": np.where(np.equal(orders, 2.0), neq[:, None], np.nan),
        "lci": np.stack([leinster_cobbold(sim, prior, qf, require_unit_diagonal=False)
                         for qf in orders], axis=1),
    }
