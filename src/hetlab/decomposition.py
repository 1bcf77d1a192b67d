"""Pooled / within-group / between-group Renyi heterogeneity for a weighted
ensemble of subsystem distributions defined over a shared event space.

Rows must already be aligned to the pooled event space; no label matching
is attempted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _log_hill, check_order, check_weights, first_invalid_row, renyi_heterogeneity
from .errors import ValidationError

_WEIGHT_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
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
    def n_subsystems(self) -> int:
        return self.table.shape[0]

    @property
    def n_states(self) -> int:
        return self.table.shape[1]

    def has_equal_weights(self) -> bool:
        w = self.weights
        return float(w.max() - w.min()) <= _WEIGHT_EQUAL_TOL


@dataclass(frozen=True)
class DecompositionResult:
    """pooled = within * between by construction; lande_warning marks
    unequal weights at q outside {0, 1}, where the between >= 1 bound is
    not guaranteed."""

    pooled: float
    within: float
    between: float
    lande_warning: bool


def pooled_heterogeneity(ensemble: SubsystemEnsemble, q) -> float:
    """Heterogeneity of the weight-averaged pooled distribution."""
    pooled = ensemble.weights @ ensemble.table
    # Row/weight validation guarantees the pool sums to 1 up to roundoff.
    pooled = pooled / pooled.sum()
    return renyi_heterogeneity(pooled, q)


def within_heterogeneity(ensemble: SubsystemEnsemble, q) -> float:
    """Effective number of unique states contributed per subsystem.

    Rows with zero weight are left out. For generic q this is
    (sum_i w_i^q sum_j p_ij^q / sum_i w_i^q)^(1/(1-q)), the heterogeneity of
    the joint distribution w_i p_ij over that of the weights. The limits are
    exact: q=0 is the mean support size of the rows, q=1 is
    exp(sum_i w_i H(p_i)), and q=inf is max_i w_i / max_ij (w_i p_ij).
    """
    qf = check_order(q)
    keep = ensemble.weights > 0.0
    table = ensemble.table[keep]
    weights = ensemble.weights[keep]

    if qf == 0.0:
        return float(np.count_nonzero(table > 0.0, axis=1).mean())
    if math.isinf(qf):
        return float(weights.max() / (weights * table.max(axis=1)).max())

    # w_i^q itself, which can underflow for every row but one, is never formed.
    # Zero cells carry no weight; dropping them once spares every later pass.
    joint = (weights[:, None] * table).ravel()
    joint = joint[joint > 0.0]
    return float(np.exp(_log_hill(np.log(joint), joint, qf)
                        - _log_hill(np.log(weights), weights, qf)))


def decompose(ensemble: SubsystemEnsemble, q) -> DecompositionResult:
    """Full pooled/within/between decomposition at order q."""
    qf = check_order(q)
    pooled = pooled_heterogeneity(ensemble, qf)
    within = within_heterogeneity(ensemble, qf)
    between = pooled / within
    warn = (not ensemble.has_equal_weights()) and qf not in (0.0, 1.0)
    return DecompositionResult(pooled=pooled, within=within, between=between,
                               lande_warning=warn)
