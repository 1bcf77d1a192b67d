"""Pooled / within / between decomposition of subsystem ensembles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlab.core import renyi_heterogeneity
from hetlab.decomposition import (
    SubsystemEnsemble,
    decompose,
    pooled_heterogeneity,
    within_heterogeneity,
)
from hetlab.errors import ValidationError

from oracles import assert_near_one, random_distribution, within_heterogeneity_loop, within_mp


def random_ensemble(rng, n_rows=None, n_states=None, equal_weights=True):
    n_rows = n_rows or rng.integers(1, 6)
    n_states = n_states or rng.integers(2, 8)
    table = rng.dirichlet(np.ones(n_states), size=n_rows)
    if equal_weights:
        return SubsystemEnsemble(table=table)
    w = rng.dirichlet(np.ones(n_rows))
    return SubsystemEnsemble(table=table, weights=w)


class TestValidation:
    def test_bad_row(self):
        with pytest.raises(ValidationError) as err:
            SubsystemEnsemble(table=[[0.5, 0.5], [0.5, 0.4]])
        assert "row 1" in str(err.value)

    @pytest.mark.parametrize("table, message", [
        ([[0.5, 0.5], [0.5, 0.4], [-0.5, 1.5]],
         "row 1 is not a valid distribution: "
         "distribution must sum to 1 within 1e-09, got 0.9"),
        ([[0.5, 0.5], [1.5, -0.5], [math.nan, 1.0]],
         "row 1 is not a valid distribution: distribution entries must be non-negative"),
        ([[0.5, 0.5], [1.0, 0.0], [-math.inf, math.nan]],
         "row 2 is not a valid distribution: distribution entries must be finite"),
        ([[math.inf, 0.0], [0.6, 0.6]],
         "row 0 is not a valid distribution: distribution entries must be finite"),
        ([0.5, 0.5], "ensemble table must be a non-empty N x n matrix"),
    ])
    def test_first_bad_row_message(self, table, message):
        with pytest.raises(ValidationError) as err:
            SubsystemEnsemble(table=table)
        assert str(err.value) == message

    def test_bad_weights(self):
        with pytest.raises(ValidationError):
            SubsystemEnsemble(table=[[0.5, 0.5]], weights=[0.9])
        with pytest.raises(ValidationError):
            SubsystemEnsemble(table=[[0.5, 0.5], [1.0, 0.0]], weights=[1.5, -0.5])

    def test_decompose_needs_an_order(self):
        # one rule with the Gaussian and beta-mixture decompositions
        with pytest.raises(ValidationError, match="at least one order"):
            decompose(SubsystemEnsemble(table=[[0.5, 0.5]]), [])

    def test_default_weights_uniform(self):
        ens = SubsystemEnsemble(table=[[0.5, 0.5], [1.0, 0.0]])
        assert np.allclose(ens.weights, [0.5, 0.5])
        assert not decompose(ens, [0.5, 2.0])["lande_warning"].any()


class TestBranches:
    def test_identical_rows_between_one(self):
        table = np.tile([0.2, 0.3, 0.5], (4, 1))
        ens = SubsystemEnsemble(table=table)
        orders = [0.0, 0.5, 1.0, 2.0, 7.0]
        res = decompose(ens, orders)
        assert res["between"] == pytest.approx([1.0] * 5, rel=1e-9, abs=0)
        assert res["pooled"] == pytest.approx(
            [renyi_heterogeneity(table[0], q) for q in orders], rel=1e-9, abs=0)

    def test_disjoint_supports_between_n(self):
        # replication: N subsystems on disjoint supports, equal weights
        table = np.zeros((3, 6))
        table[0, :2] = [0.6, 0.4]
        table[1, 2:4] = [0.5, 0.5]
        table[2, 4:] = [0.9, 0.1]
        ens = SubsystemEnsemble(table=table)
        # at q=1 between is exactly N even for unequal row shapes
        assert decompose(ens, [1.0])["between"][0] == pytest.approx(3.0, rel=1e-9, abs=0)

    def test_q0_within_is_mean_richness(self):
        table = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        ens = SubsystemEnsemble(table=table)
        assert within_heterogeneity(ens, 0.0) == pytest.approx((2 + 1 + 3) / 3, rel=1e-6, abs=0)

    def test_q0_within_skips_zero_weight_rows(self):
        table = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        ens = SubsystemEnsemble(table=table, weights=[1.0, 0.0])
        assert within_heterogeneity(ens, 0.0) == pytest.approx(2.0, rel=1e-6, abs=0)

    def test_q1_within_formula(self):
        rng = np.random.default_rng(5)
        ens = random_ensemble(rng, 3, 4, equal_weights=False)
        ents = [-(r[r > 0] * np.log(r[r > 0])).sum() for r in ens.table]
        expected = math.exp(float(np.dot(ens.weights, ents)))
        assert within_heterogeneity(ens, 1.0) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_q1_continuity(self):
        rng = np.random.default_rng(11)
        ensembles = [random_ensemble(rng, equal_weights=False) for _ in range(20)]
        ensembles.append(SubsystemEnsemble(table=[[0.5, 0.5], [0.5, 0.5]]))
        ensembles.append(SubsystemEnsemble(table=[[0.7, 0.3, 0.0], [0.0, 0.2, 0.8]],
                                           weights=[0.9, 0.1]))
        for ens in ensembles:
            at_one = within_heterogeneity(ens, 1.0)
            for eps in (1e-6, -1e-6):
                assert within_heterogeneity(ens, 1.0 + eps) == pytest.approx(
                    at_one, rel=1e-4, abs=0)
            assert_near_one(lambda q: within_heterogeneity(ens, q),
                            lambda q: within_mp(ens.table, ens.weights, q))

    def test_inf_within_matches_large_q(self):
        rng = np.random.default_rng(13)
        ens = random_ensemble(rng, 4, 5, equal_weights=False)
        approx = within_heterogeneity(ens, math.inf)
        at_large = within_heterogeneity(ens, 1e5)
        assert approx == pytest.approx(at_large, rel=1e-3, abs=0)

    def test_inf_within_exact_with_ties(self):
        # w_i * max_j p_ij ties at 0.16 across the weighted rows, row 0 ties
        # within itself, and the zero-weight last row has the largest entry.
        table = [[0.4, 0.4, 0.2], [0.4, 0.3, 0.3], [0.1, 0.1, 0.8], [1.0, 0.0, 0.0]]
        ens = SubsystemEnsemble(table=table, weights=[0.4, 0.4, 0.2, 0.0])
        exact = within_heterogeneity(ens, math.inf)
        assert exact == pytest.approx(0.4 / 0.16, rel=1e-12, abs=0)
        gaps = [abs(within_heterogeneity(ens, q) - exact) for q in (1e2, 1e3, 1e4)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[2] < 1e-3 * exact

    def test_inf_within_uniform_weights_is_inverse_max(self):
        rng = np.random.default_rng(19)
        ens = random_ensemble(rng, 6, 4)
        assert within_heterogeneity(ens, math.inf) == pytest.approx(
            1.0 / ens.table.max(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_within_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_states = rng.integers(2, 9), rng.integers(2, 12)
        table = np.stack([random_distribution(rng, n_states, zeros=True)
                          for _ in range(n_rows)])
        weights = rng.dirichlet(np.ones(n_rows))
        weights[rng.integers(n_rows)] = 0.0
        weights /= weights.sum()
        ens = SubsystemEnsemble(table=table, weights=weights)
        for q in (0.5, 1.0, 2.0, 10.0):
            assert within_heterogeneity(ens, q) == pytest.approx(
                within_heterogeneity_loop(table, weights, q), rel=1e-12, abs=0)

    def test_rows_and_weights_at_the_tolerance(self):
        # Rows and weights each sum to 1 + 0.9e-9, within PROB_TOL; their
        # joint sums to 1 + 1.8e-9 and is renormalised before it is measured.
        table = np.array([[0.5, 0.5 + 0.9e-9, 0.0], [0.25, 0.25, 0.5 + 0.9e-9]])
        ens = SubsystemEnsemble(table=table, weights=[0.7 + 0.9e-9, 0.3])
        orders = [0.0, 0.5, 2.0, 7.0, math.inf]
        res = decompose(ens, orders)
        want = [within_mp(table, ens.weights, q) for q in orders[1:-1]]
        assert res["within"][1:-1] == pytest.approx(want, rel=1e-8, abs=0)
        assert res["within"][0] == 2.5
        assert res["within"][-1] == pytest.approx(
            ens.weights.max() / (ens.weights[:, None] * table).max(), rel=1e-8, abs=0)
        assert within_heterogeneity(ens, 1.0) == pytest.approx(
            within_heterogeneity(SubsystemEnsemble(table=table / table.sum(1)[:, None],
                                                   weights=[0.7, 0.3]), 1.0),
            rel=1e-8, abs=0)

    def test_pooled_matches_direct(self):
        rng = np.random.default_rng(17)
        ens = random_ensemble(rng, 4, 5, equal_weights=False)
        pool = ens.weights @ ens.table
        for q in (0.0, 0.7, 1.0, 3.0, math.inf):
            assert pooled_heterogeneity(ens, q) == pytest.approx(
                renyi_heterogeneity(pool, q), rel=1e-12, abs=0)


class TestIdentityAndWarnings:
    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_pooled_equals_within_times_between(self, seed):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, equal_weights=bool(seed % 2))
        res = decompose(ens, [0.0, 0.5, 1.0, 2.0, 10.0])
        assert res["pooled"] == pytest.approx(res["within"] * res["between"], rel=1e-9, abs=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_lande_bound_equal_weights(self, seed):
        # equal weights: pooled >= within, i.e. between >= 1
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, equal_weights=True)
        res = decompose(ens, [0.0, 0.5, 1.0, 2.0, 10.0])
        assert np.all(res["between"] >= 1.0 - 1e-9)
        assert not res["lande_warning"].any()

    def test_warning_flag(self):
        ens = SubsystemEnsemble(table=[[0.9, 0.1], [0.2, 0.8]], weights=[0.7, 0.3])
        assert decompose(ens, [2.0, 1.0, 0.0, math.inf])["lande_warning"].tolist() == [
            True, False, False, True]
        eq = SubsystemEnsemble(table=[[0.9, 0.1], [0.2, 0.8]])
        assert not decompose(eq, [2.0])["lande_warning"][0]
        # weights count as equal while max - min stays within 1e-12
        for half_gap, flag in ((4e-13, False), (1e-11, True)):
            near = SubsystemEnsemble(table=[[0.9, 0.1], [0.2, 0.8]],
                                     weights=[0.5 + half_gap, 0.5 - half_gap])
            assert decompose(near, [2.0])["lande_warning"].tolist() == [flag]
