"""Pooled / within-group / between-group Renyi heterogeneity for a weighted
ensemble of subsystem distributions defined over a shared event space.

Rows must already be aligned to the pooled event space; no label matching
is attempted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_orders, check_weights, first_invalid_row, renyi_heterogeneity
from .errors import ValidationError

_WEIGHT_EQUAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SubsystemEnsemble:
    """N aligned subsystem distributions (rows) with normalized weights."""

    table: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValidationError("ensemble table must be a non-empty N x n matrix")
        bad = first_invalid_row(table)
        if bad is not None:
            raise ValidationError(f"row {bad[0]} is not a valid distribution: {bad[1]}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "weights",
                           check_weights(self.weights, table.shape[0], "rows"))

    @property
    def n_states(self) -> int:
        return self.table.shape[1]


def pooled_heterogeneity(ensemble: SubsystemEnsemble, q) -> float:
    """Heterogeneity of the weight-averaged pooled distribution."""
    pooled = ensemble.weights @ ensemble.table
    # Row/weight validation guarantees the pool sums to 1 up to roundoff.
    pooled = pooled / pooled.sum()
    return renyi_heterogeneity(pooled, q)


def within_heterogeneity(ensemble: SubsystemEnsemble, q) -> float:
    """Effective number of unique states contributed per subsystem: the
    heterogeneity of the joint distribution w_i p_ij over that of the weights,
    (sum_i w_i^q sum_j p_ij^q / sum_i w_i^q)^(1/(1-q)) for generic q.

    `renyi_heterogeneity` takes both limits, so they are exact: q=0 is the
    mean support size of the rows with w_i > 0, q=1 is exp(sum_i w_i H(p_i)),
    and q=inf is max_i w_i / max_ij (w_i p_ij). Rows and weights each sum to
    1 only within PROB_TOL, so the joint is renormalised first.
    """
    joint = (ensemble.weights[:, None] * ensemble.table).ravel()
    # Zero cells count for nothing at any order; dropping them once spares
    # every later pass over the joint.
    joint = joint[joint > 0.0]
    joint /= joint.sum()
    return renyi_heterogeneity(joint, q) / renyi_heterogeneity(ensemble.weights, q)


def decompose(ensemble: SubsystemEnsemble, q_list) -> dict:
    """Pooled/within/between decomposition at each order of ``q_list``, as
    ``(Q,)`` columns ``pooled``, ``within``, ``between`` (pooled / within by
    construction) and ``lande_warning``, which marks unequal weights at q
    outside {0, 1}, where the between >= 1 bound is not guaranteed."""
    orders = check_orders(q_list)
    pooled = np.array([pooled_heterogeneity(ensemble, q) for q in orders])
    within = np.array([within_heterogeneity(ensemble, q) for q in orders])
    unequal = np.ptp(ensemble.weights) > _WEIGHT_EQUAL_TOL
    return {"pooled": pooled, "within": within, "between": pooled / within,
            "lande_warning": np.array([unequal and q not in (0.0, 1.0) for q in orders])}
