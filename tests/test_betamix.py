"""Beta-mixture testbed: density, threshold, assignment heterogeneity,
closed-form expected distance, and the index comparison."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, betaincc, expit

from hetlab import betamix
from hetlab.betamix import (
    BetaMixtureParams,
    assignment_mass,
    beta_abs_distance,
    bmm_between_rrh,
    bmm_index_comparison,
    bmm_marginal_pdf,
    expected_distance_matrix,
    optimal_threshold,
)
from hetlab.errors import ValidationError
from hetlab.special import BetaShape

from oracles import (
    assignment_mass_scalar,
    beta_abs_distance_dblquad,
    beta_abs_distance_quad,
    bmm_index_comparison_loop,
    bmm_threshold_bisect,
)


class TestParams:
    @pytest.mark.parametrize("t1,t2,t3", [(0.0, 1, 1), (1.0, 1, 1),
                                          (0.5, 0, 1), (0.5, 1, -2)])
    def test_invalid(self, t1, t2, t3):
        with pytest.raises(ValidationError):
            BetaMixtureParams(t1, t2, t3)

    @pytest.mark.parametrize("theta1", [[], [[0.5]], [0.5, 1.0], [0.2, math.nan]])
    def test_invalid_theta1_stack(self, theta1):
        with pytest.raises(ValidationError, match="theta1"):
            BetaMixtureParams(theta1, 5.0, 20.0)

    def test_theta1_stack_is_a_float_array(self):
        theta = BetaMixtureParams([0.2, 0.5], 5.0, 20.0)
        assert theta.theta1.dtype == float and theta.theta1.tolist() == [0.2, 0.5]
        assert BetaMixtureParams(0.2, 5.0, 20.0).theta1 == 0.2


class TestMarginalPdf:
    def test_symmetry_at_half_prior(self):
        theta = BetaMixtureParams(0.5, 5.0, 20.0)
        for x in (0.1, 0.25, 0.4):
            assert bmm_marginal_pdf(x, theta) == pytest.approx(
                bmm_marginal_pdf(1.0 - x, theta), rel=1e-12, abs=0)

    def test_equal_shapes_collapse(self):
        for t1 in (0.2, 0.8):
            theta = BetaMixtureParams(t1, 3.0, 3.0)
            ref = BetaMixtureParams(0.5, 3.0, 3.0)
            for x in (0.1, 0.6, 0.9):
                assert bmm_marginal_pdf(x, theta) == pytest.approx(
                    bmm_marginal_pdf(x, ref), rel=1e-12, abs=0)

    def test_integrates_to_one(self):
        theta = BetaMixtureParams(0.7, 5.0, 20.0)
        val, _ = integrate.quad(lambda x: bmm_marginal_pdf(x, theta), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        theta = BetaMixtureParams(0.5, 2.0, 2.0)
        for x in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                bmm_marginal_pdf(x, theta)


class TestOptimalThreshold:
    def test_symmetric_prior_midpoint(self):
        assert optimal_threshold(BetaMixtureParams(0.5, 5.0, 20.0)) == \
            pytest.approx(0.5, abs=1e-14)
        assert optimal_threshold(BetaMixtureParams(0.5, 20.0, 5.0)) == \
            pytest.approx(0.5, abs=1e-14)

    def test_equal_shapes_branches(self):
        assert optimal_threshold(BetaMixtureParams(0.7, 5.0, 5.0)) == 0.0
        assert optimal_threshold(BetaMixtureParams(0.3, 5.0, 5.0)) == 1.0
        assert optimal_threshold(BetaMixtureParams(0.5, 5.0, 5.0)) == 1.0

    def test_logistic_matches_expit_bitwise(self):
        # oracle: scipy's expit(-log r) = 1/(1 + e^(log r)); shape gaps down
        # to about 1e-9 relative push log r past the exp overflow
        rng = np.random.default_rng(31)
        for _ in range(200):
            t1 = rng.uniform(0.01, 0.99)
            t2 = math.exp(rng.uniform(-2.0, 4.0))
            t3 = t2 * math.exp(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-20.0, 1.0)))
            log_r = (math.log1p(-t1) - math.log(t1)) / (t2 - t3)
            assert optimal_threshold(BetaMixtureParams(t1, t2, t3)) == float(expit(-log_r))

    def test_logistic_overflow_edges(self):
        # log r = -log(3/7) / 1e-11: e^(log r) overflows, so tau is exactly 0
        # (and no OverflowError escapes); the mirrored prior gives exactly 1
        assert optimal_threshold(BetaMixtureParams(0.7, 5.0, 5.0 + 1e-11)) == 0.0
        assert optimal_threshold(BetaMixtureParams(0.3, 5.0, 5.0 + 1e-11)) == 1.0

    @pytest.mark.parametrize("theta2,theta3", [(5.0, 20.0), (20.5, 2.5), (0.3, 0.45),
                                               (5.0, 5.0), (5.0, 5.0 + 1e-11)])
    def test_theta1_stack_matches_scalar_loop_bitwise(self, theta2, theta3):
        # the equal-shape branch, the overflow edge and ordinary pairs
        t1 = np.random.default_rng(32).uniform(0.01, 0.99, 50)
        taus = optimal_threshold(BetaMixtureParams(t1, theta2, theta3))
        assert taus.shape == t1.shape
        assert taus.tolist() == [optimal_threshold(BetaMixtureParams(v, theta2, theta3))
                                 for v in t1.tolist()]

    def test_against_bisection(self):
        # oracle: posterior-equality root found independently by brentq
        cases = [(0.7, 5.0, 20.0), (0.9, 2.0, 8.0), (0.2, 20.0, 5.0),
                 (0.6, 0.5, 3.0), (0.51, 4.0, 4.5)]
        for t1, t2, t3 in cases:
            ours = optimal_threshold(BetaMixtureParams(t1, t2, t3))
            assert ours == pytest.approx(bmm_threshold_bisect(t1, t2, t3),
                                         abs=1e-10)


class TestAssignmentMass:
    def test_endpoints(self):
        theta = BetaMixtureParams(0.5, 5.0, 20.0)
        assert np.allclose(assignment_mass(theta, 0.0), [0.0, 1.0])
        assert np.allclose(assignment_mass(theta, 1.0), [1.0, 0.0])

    def test_symmetric_split(self):
        theta = BetaMixtureParams(0.5, 4.0, 4.0)
        assert np.allclose(assignment_mass(theta, 0.5), [0.5, 0.5])

    def test_monotone_in_tau(self):
        theta = BetaMixtureParams(0.3, 2.0, 9.0)
        taus = np.linspace(0, 1, 41)
        mass2 = [assignment_mass(theta, t)[1] for t in taus]
        assert all(b <= a + 1e-12 for a, b in zip(mass2, mass2[1:]))

    @pytest.mark.parametrize("theta2,theta3", [(5.0, 20.0), (2.5, 20.5), (0.3, 0.45),
                                               (20.0, 5.0), (4.0, 4.0)])
    def test_stack_matches_scalar_loop_bitwise(self, theta2, theta3):
        # oracle: the scalar Lentz recurrence per (theta1, tau), with tau at
        # 0, 1, each switch point of the two components and random draws
        rng = np.random.default_rng(33)
        switch = [(a + 1.0) / (a + b + 2.0) for a, b in [(theta2, theta3), (theta3, theta2)]]
        taus = np.concatenate([[0.0, 1.0, *switch], rng.uniform(0.0, 1.0, 20)])
        t1 = rng.uniform(0.01, 0.99, taus.size)
        mass = assignment_mass(BetaMixtureParams(t1, theta2, theta3), taus)
        assert mass.shape == (taus.size, 2)
        assert [tuple(row) for row in mass.tolist()] == [
            assignment_mass_scalar(a, theta2, theta3, tau)
            for a, tau in zip(t1.tolist(), taus.tolist())]
        grid = assignment_mass(BetaMixtureParams(0.4, theta2, theta3), taus)
        assert [tuple(row) for row in grid.tolist()] == [
            assignment_mass_scalar(0.4, theta2, theta3, tau) for tau in taus.tolist()]

    @pytest.mark.parametrize("theta2,theta3", [(5.0, 20.0), (50.0, 60.0), (0.3, 0.45),
                                               (2.5, 20.5)])
    def test_tails_against_scipy(self, theta2, theta3):
        # oracle: scipy betainc below tau and betaincc above it. A tail far
        # below an ulp of 1, such as 3.0e-26 below 1e-6 for (5, 20), keeps
        # its digits on either side of the threshold.
        taus = np.array([0.0, 1e-6, 1e-4, 0.5, 0.999, 1.0 - 1e-9, 1.0])
        for t1 in (0.3, 0.7):
            below = (1.0 - t1) * betainc(theta2, theta3, taus) + t1 * betainc(theta3, theta2, taus)
            above = (1.0 - t1) * betaincc(theta2, theta3, taus) \
                + t1 * betaincc(theta3, theta2, taus)
            mass = assignment_mass(BetaMixtureParams(t1, theta2, theta3), taus)
            assert mass[:, 0].tolist() == pytest.approx(below.tolist(), rel=1e-12, abs=0)
            assert mass[:, 1].tolist() == pytest.approx(above.tolist(), rel=1e-12, abs=0)

    def test_tiny_tau_under_an_unbounded_density(self):
        # Beta(0.3, 0.45) has density ~ tau^-0.7 at 0: the mass above tau,
        # read at the rounded 1 - tau, would be off by 5.9e-10 at tau = 1e-12
        # and by 5.3e-9 at 1e-14, past the sum-to-1 check of every order
        taus = np.array([1e-300, 1e-14, 1e-12])
        mass = assignment_mass(BetaMixtureParams(0.5, 0.3, 0.45), taus)
        for tail, side in ((betainc, 0), (betaincc, 1)):
            want = 0.5 * tail(0.3, 0.45, taus) + 0.5 * tail(0.45, 0.3, taus)
            assert mass[:, side].tolist() == pytest.approx(want.tolist(), rel=1e-12, abs=0)
        assert bmm_between_rrh(BetaMixtureParams(0.5, 0.3, 0.45), taus, [0.0])[:, 0].tolist() \
            == [2.0, 2.0, 2.0]

    def test_tau_outside_unit_interval(self):
        theta = BetaMixtureParams(0.5, 5.0, 20.0)
        for tau in (-0.1, [0.5, 1.5], math.nan):
            with pytest.raises(ValidationError, match="tau must be in"):
                assignment_mass(theta, tau)

    def test_matches_quadrature(self):
        theta = BetaMixtureParams(0.7, 5.0, 20.0)
        tau = 0.37
        ref, _ = integrate.quad(lambda x: bmm_marginal_pdf(x, theta), tau, 1.0)
        assert assignment_mass(theta, tau)[1] == pytest.approx(ref, abs=1e-10)


class TestBetweenRrh:
    def test_equal_shapes_give_one(self):
        for t1 in (0.2, 0.5, 0.9):
            theta = BetaMixtureParams(t1, 6.0, 6.0)
            tau = optimal_threshold(theta)
            for q in (0.5, 1.0, 2.0, math.inf):
                assert bmm_between_rrh(theta, tau, [q])[0] == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_peak_of_two(self):
        theta = BetaMixtureParams(0.5, 5.0, 20.0)
        assert bmm_between_rrh(theta, optimal_threshold(theta), [1.0])[0] == \
            pytest.approx(2.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            theta = BetaMixtureParams(rng.uniform(0.05, 0.95),
                                      math.exp(rng.uniform(-1, 3)),
                                      math.exp(rng.uniform(-1, 3)))
            tau = rng.uniform(0, 1)
            q = rng.choice([0.5, 1.0, 2.0, 7.0])
            val = bmm_between_rrh(theta, tau, [float(q)])[0]
            assert 1.0 - 1e-9 <= val <= 2.0 + 1e-9

    def test_sweep_maximized_near_optimum(self):
        theta = BetaMixtureParams(0.5, 2.0, 8.0)
        taus = np.linspace(0.01, 0.99, 99)
        for q in (1.0, 2.0, math.inf):
            vals = [bmm_between_rrh(theta, t, [q])[0] for t in taus]
            best = taus[int(np.argmax(vals))]
            assert abs(best - optimal_threshold(theta)) < 0.05

    def test_tau_array_matches_single_thresholds(self):
        # Thresholds 0 and 1 put all the mass on one component.
        theta = BetaMixtureParams(0.37, 5.0, 20.0)
        taus = [0.0, 0.2, 0.5, 0.9, 1.0]
        qs = [0.0, 0.5, 1.0, 2.0, math.inf]
        vals = bmm_between_rrh(theta, taus, qs)
        assert vals.shape == (len(taus), len(qs)) and vals.dtype == float
        assert bmm_between_rrh(theta, np.reshape(taus, (5, 1)), qs).shape == (5, 1, len(qs))
        assert bmm_between_rrh(theta, 0.5, qs).shape == (len(qs),)
        with pytest.raises(ValidationError, match="at least one order"):
            bmm_between_rrh(theta, taus, [])
        for (i, tau), (j, q) in itertools.product(enumerate(taus), enumerate(qs)):
            assert vals[i, j] == pytest.approx(bmm_between_rrh(theta, tau, [q])[0],
                                               rel=1e-15, abs=0)

    def test_component_swap_symmetry(self):
        for t1, a, b in [(0.3, 2.0, 8.0), (0.7, 5.0, 20.0)]:
            th = BetaMixtureParams(t1, a, b)
            sw = BetaMixtureParams(1.0 - t1, b, a)
            for q in (1.0, 2.0):
                v1 = bmm_between_rrh(th, optimal_threshold(th), [q])[0]
                v2 = bmm_between_rrh(sw, optimal_threshold(sw), [q])[0]
                assert v1 == pytest.approx(v2, abs=1e-9)


class TestBetaAbsDistance:
    def test_two_uniforms(self):
        assert beta_abs_distance(BetaShape(1, 1), BetaShape(1, 1)) == \
            pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_symmetric_22(self):
        ref = beta_abs_distance_quad(2, 2, 2, 2)
        assert beta_abs_distance(BetaShape(2, 2), BetaShape(2, 2)) == \
            pytest.approx(ref, abs=1e-6)

    def test_dblquad_spot_checks(self):
        # oracle: direct 2-D adaptive quadrature, also validating the
        # 1-D CDF-identity oracle used in the acceptance suite
        cases = [(2.0, 2.0, 2.0, 2.0), (5.0, 20.0, 20.0, 5.0), (0.5, 1.0, 2.0, 5.0)]
        for a1, b1, a2, b2 in cases:
            two_d = beta_abs_distance_dblquad(a1, b1, a2, b2)
            one_d = beta_abs_distance_quad(a1, b1, a2, b2)
            assert one_d == pytest.approx(two_d, abs=1e-6)
            assert beta_abs_distance(BetaShape(a1, b1), BetaShape(a2, b2)) == \
                pytest.approx(two_d, abs=1e-6)

    def test_monte_carlo(self):
        # oracle: 1e7-sample Monte Carlo for the (5,20)/(20,5) pair
        rng = np.random.default_rng(99)
        n = 10_000_000
        x = rng.beta(5.0, 20.0, size=n)
        y = rng.beta(20.0, 5.0, size=n)
        diffs = np.abs(x - y)
        mc = diffs.mean()
        se = diffs.std() / math.sqrt(n)
        closed = beta_abs_distance(BetaShape(5, 20), BetaShape(20, 5))
        assert abs(closed - mc) < 3 * se

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a = BetaShape(math.exp(rng.uniform(-0.7, 3)), math.exp(rng.uniform(-0.7, 3)))
            b = BetaShape(math.exp(rng.uniform(-0.7, 3)), math.exp(rng.uniform(-0.7, 3)))
            assert beta_abs_distance(a, b) == pytest.approx(
                beta_abs_distance(b, a), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = BetaShape(math.exp(rng.uniform(-0.7, 3)), math.exp(rng.uniform(-0.7, 3)))
            b = BetaShape(math.exp(rng.uniform(-0.7, 3)), math.exp(rng.uniform(-0.7, 3)))
            d = beta_abs_distance(a, b)
            assert 0.0 <= d < 1.0


COLUMNS = ("tau", "rrh", "fhn", "neqrqe", "lci")


class TestIndexComparison:
    @staticmethod
    def cells(theta, q, u=1.0):
        """The comparison at one theta and one order, as a dict of floats."""
        out = bmm_index_comparison(theta, [q], u)
        assert list(out) == list(COLUMNS)
        assert all(col.shape == (1, 1) and col.dtype == float for col in out.values())
        return {name: float(col[0, 0]) for name, col in out.items()}

    def test_equal_shapes_rrh_one(self):
        for t1 in (0.2, 0.5, 0.8):
            row = self.cells(BetaMixtureParams(t1, 5.0, 5.0), 1.0)
            assert row["rrh"] == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_peak_row(self):
        row = self.cells(BetaMixtureParams(0.5, 5.0, 20.0), 1.0)
        assert row["rrh"] == pytest.approx(2.0, abs=1e-9)
        assert row["lci"] < 2.0
        assert math.isnan(row["neqrqe"])  # only defined at q=2

    def test_neqrqe_at_q2(self):
        row = self.cells(BetaMixtureParams(0.5, 5.0, 20.0), 2.0)
        assert row["neqrqe"] >= 1.0 - 1e-9

    def test_neqrqe_absent_for_constant_distance(self):
        # equal shapes make all four expected distances identical
        row = self.cells(BetaMixtureParams(0.5, 3.0, 3.0), 2.0)
        assert math.isnan(row["neqrqe"])

    def test_fhn_paradoxical_increase(self):
        # skewing the prior away from 0.5 initially RAISES the functional
        # Hill estimate above the 2-component truth, even though the true
        # heterogeneity falls; it returns to 1 only as one component vanishes
        grid = np.arange(0.5, 0.86, 0.05)
        vals = [self.cells(BetaMixtureParams(t1, 5.0, 20.0), 1.0)["fhn"] for t1 in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert max(vals) > 2.0
        near_one = self.cells(BetaMixtureParams(1 - 1e-6, 5.0, 20.0), 1.0)["fhn"]
        assert near_one == pytest.approx(1.0, abs=1e-3)

    def test_values_at_least_one(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            theta = BetaMixtureParams(rng.uniform(0.05, 0.95), 5.0, 20.0)
            for q in (1.0, 2.0):
                row = self.cells(theta, q, rng.uniform(0, 4))
                for name in ("rrh", "fhn", "lci"):
                    assert row[name] >= 1.0 - 1e-9
                assert math.isnan(row["neqrqe"]) == (q != 2.0)
                if q == 2.0:
                    assert row["neqrqe"] >= 1.0 - 1e-9

    def test_fhn_absent_at_q_inf(self):
        row = self.cells(BetaMixtureParams(0.5, 5.0, 20.0), math.inf)
        assert math.isnan(row["fhn"])
        assert row["rrh"] == pytest.approx(2.0, rel=1e-6, abs=0) and row["lci"] >= 1.0

    def test_columns_match_single_order_calls(self):
        orders = [0.5, 1.0, 2.0, math.inf]
        for theta, u in [(BetaMixtureParams(0.3, 5.0, 20.0), 1.0),
                         (BetaMixtureParams(0.7, 2.5, 20.5), 0.0),
                         (BetaMixtureParams(0.5, 3.0, 3.0), 2.5)]:
            out = bmm_index_comparison(theta, orders, u)
            for name in COLUMNS:
                assert out[name].shape == (1, len(orders))
                single = [bmm_index_comparison(theta, [q], u)[name][0, 0] for q in orders]
                assert np.array_equal(out[name][0], single, equal_nan=True), name
            assert out["tau"].tolist() == [[optimal_threshold(theta)] * len(orders)]
            assert np.isnan(out["neqrqe"][0]).tolist() == [
                True, True, theta.theta2 == theta.theta3, True]

    def test_orders_validated_before_any_work(self, monkeypatch):
        def fail(theta):
            raise AssertionError("distance matrix computed before validation")
        monkeypatch.setattr(betamix, "expected_distance_matrix", fail)
        stack = BetaMixtureParams(np.array([0.2, 0.5, 0.9]), 5.0, 20.0)
        with pytest.raises(ValidationError, match="elasticity order"):
            bmm_index_comparison(stack, [1.0, -1.0])
        with pytest.raises(ValidationError, match="at least one order"):
            bmm_index_comparison(stack, [])
        with pytest.raises(ValidationError, match="u must be"):
            bmm_index_comparison(stack, [1.0], -0.5)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_u_rejected_before_any_work(self, monkeypatch, u):
        def fail(theta):
            raise AssertionError("distance matrix computed before validation")
        monkeypatch.setattr(betamix, "expected_distance_matrix", fail)
        with pytest.raises(ValidationError, match="u must be finite"):
            bmm_index_comparison(BetaMixtureParams(0.5, 5.0, 20.0), [1.0], u)

    @pytest.mark.parametrize("theta2,theta3", [(5.0, 20.0), (2.5, 20.5), (0.3, 0.45),
                                               (3.0, 3.0)])
    def test_theta_stack_matches_per_theta_loop(self, theta2, theta3):
        # theta2 == theta3 leaves the distance matrix constant, so neqrqe is NaN
        orders = [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 2.0, math.inf]
        grid = np.array([0.01, 0.2, 0.37, 0.5, 0.81, 0.99])
        thetas = [BetaMixtureParams(t1, theta2, theta3) for t1 in grid.tolist()]
        for u in (0.0, 1.0, 3.5):
            out = bmm_index_comparison(BetaMixtureParams(grid, theta2, theta3), orders, u)
            want = bmm_index_comparison_loop(thetas, orders, u)
            assert list(out) == list(want) == list(COLUMNS)
            for name in COLUMNS:
                assert out[name].shape == (len(thetas), len(orders))
                assert np.array_equal(out[name], want[name], equal_nan=True), name
            assert not any(np.isnan(out[name]).any() for name in ("tau", "rrh", "lci"))
        assert np.isnan(out["neqrqe"][0]).tolist() == [
            q != 2.0 or theta2 == theta3 for q in orders]
        assert np.isnan(out["fhn"][0]).tolist() == [math.isinf(q) for q in orders]
        one = bmm_index_comparison(thetas[0], orders)
        for name, col in bmm_index_comparison(BetaMixtureParams(grid[:1], theta2, theta3),
                                              orders).items():
            assert np.array_equal(col, one[name], equal_nan=True)

    def test_distance_matrix_shape(self):
        d = expected_distance_matrix(BetaMixtureParams(0.5, 5.0, 20.0))
        assert d.shape == (2, 2)
        assert d[0, 0] > 0.0  # same-component expected distance is positive
        assert d[0, 1] == d[1, 0]
        assert d[0, 1] > d[0, 0]


class TestExpectedDistanceMatrix:
    # 2 * integral of F (1 - F) over [0, 1] for the Beta(alpha, beta) CDF F,
    # with alpha <= beta, at mpmath.mp.dps = 30:
    # 2 * mp.quad(lambda x: F(x) * (1 - F(x)), [0, alpha / (alpha + beta), 1])
    # with F = lambda x: mp.betainc(alpha, beta, 0, x, regularized=True);
    # dps = 45 agrees to 1e-32.
    SAME_COMPONENT = {
        (0.2, 0.9): 0.256405693783467780303322494394,
        (1.5, 7.25): 0.132064457684420157949437625683,
        (2.0, 40.0): 0.0348483882620428805167760991054,
        (0.7, 12.0): 0.0610548620402461724472104953713,
    }

    def test_equal_diagonal(self):
        # component 2 is component 1 mirrored, so E|X - X'| is one value
        for t2, t3 in [(2.5, 20.5), (20.5, 2.5), (0.3, 0.45), (5.0, 20.0)]:
            d = expected_distance_matrix(BetaMixtureParams(0.4, t2, t3))
            assert d[0, 0] == d[1, 1]

    def test_diagonal_against_mpmath(self):
        for (a, b), ref in self.SAME_COMPONENT.items():
            for t2, t3 in [(a, b), (b, a)]:
                d = expected_distance_matrix(BetaMixtureParams(0.5, t2, t3))
                assert d[0, 0] == pytest.approx(ref, rel=5e-13, abs=0), (t2, t3)
                assert d[1, 1] == pytest.approx(ref, rel=5e-13, abs=0), (t2, t3)
