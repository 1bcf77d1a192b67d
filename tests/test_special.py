"""Special-function kernel against mpmath and scipy references."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from hetlab import special
from hetlab.betamix import BetaMixtureParams, expected_distance_matrix
from hetlab.errors import ConvergenceError, NumericalError, ValidationError
from hetlab.special import (
    BetaShape,
    _hurwitz_zeta,
    beta_pdf,
    beta_tails,
    log_beta,
    log_gamma,
    reg_hyp3f2_unit,
    reg_inc_beta,
)

from oracles import beta_tails_scalar, reg_inc_beta_scalar

# high precision: mixed-sign parameter sets cancel catastrophically below
# ~80 digits, producing a wrong *reference*, not a wrong result under test
mpmath.mp.dps = 80


def mp_reg_hyp3f2(num, den):
    val = mpmath.hyper(list(num), list(den), 1.0)
    return float(val / (mpmath.gamma(den[0]) * mpmath.gamma(den[1])))


class TestBetaShape:
    def test_valid(self):
        s = BetaShape(2.0, 3.5)
        assert s.alpha == 2.0 and s.beta == 3.5

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0),
                                     (math.inf, 1.0), (math.nan, 1.0)])
    def test_invalid(self, a, b):
        with pytest.raises(ValidationError):
            BetaShape(a, b)


class TestLogGammaBeta:
    def test_against_scipy(self):
        for x in [0.1, 0.5, 1.0, 2.5, 10.0, 171.5]:
            assert log_gamma(x) == pytest.approx(float(sps.gammaln(x)), rel=1e-14, abs=0)

    def test_domain(self):
        with pytest.raises(ValidationError):
            log_gamma(0.0)
        with pytest.raises(ValidationError):
            log_gamma(-2.5)

    def test_overflow_is_a_numerical_error(self):
        # math.lgamma raises OverflowError above about 2.6e305
        assert log_gamma(1e305) == pytest.approx(float(sps.gammaln(1e305)), rel=1e-14, abs=0)
        for x in (1e306, 1.7e308):
            with pytest.raises(NumericalError, match=re.escape(f"log_gamma({x:g}) overflows")):
                log_gamma(x)
        with pytest.raises(NumericalError, match="log_gamma"):
            reg_hyp3f2_unit((0.0, 1.0, 1.0), (1e306, 2.0))

    def test_log_beta(self):
        assert log_beta(2.0, 3.0) == pytest.approx(math.log(1 / 12), rel=1e-14, abs=0)
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-14, abs=0)


class TestBetaPdf:
    def test_uniform(self):
        assert beta_pdf(0.37, BetaShape(1, 1)) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_against_mpmath(self):
        # oracle: reference values from mpmath's arbitrary-precision density
        for a, b, x in [(5, 20, 0.2), (0.5, 0.5, 0.9), (2, 2, 0.5), (20, 5, 0.7)]:
            ref = float(mpmath.power(x, a - 1) * mpmath.power(1 - x, b - 1)
                        / mpmath.beta(a, b))
            assert beta_pdf(x, BetaShape(a, b)) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_domain(self):
        for x in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                beta_pdf(x, BetaShape(2, 2))


class TestRegIncBeta:
    def test_endpoints(self):
        s = BetaShape(3.3, 0.7)
        assert reg_inc_beta(0.0, s) == 0.0
        assert reg_inc_beta(1.0, s) == 1.0

    def test_against_scipy(self):
        # oracle: scipy.special.betainc as the independent implementation
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = math.exp(rng.uniform(-2, 4))
            b = math.exp(rng.uniform(-2, 4))
            x = rng.uniform(1e-6, 1 - 1e-6)
            ours = reg_inc_beta(x, BetaShape(a, b))
            ref = float(sps.betainc(a, b, x))
            assert ours == pytest.approx(ref, abs=1e-12, rel=1e-10)

    @given(st.floats(0.05, 20), st.floats(0.05, 20),
           st.floats(0.01, 0.49), st.floats(0.51, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x(self, a, b, x_lo, x_hi):
        s = BetaShape(a, b)
        assert reg_inc_beta(x_lo, s) <= reg_inc_beta(x_hi, s) + 1e-14

    def test_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        assert reg_inc_beta(0.3, BetaShape(5, 20)) == pytest.approx(
            1.0 - reg_inc_beta(0.7, BetaShape(20, 5)), abs=1e-13)


# the beta-mixture shape pairs of the sweeps benchmark, both orientations
BENCHMARK_SHAPES = [(5.0, 20.0), (2.5, 20.5), (0.3, 0.45)]
BENCHMARK_SHAPES += [(b, a) for a, b in BENCHMARK_SHAPES]

# each kernel's outputs as a tuple: the CDF alone, or both tails
KERNELS = [pytest.param(lambda x, s: (reg_inc_beta(x, s),), id="reg_inc_beta"),
           pytest.param(beta_tails, id="beta_tails")]


class TestRegIncBetaArray:
    @staticmethod
    def grid(rng, a, b, n):
        """x in {0, 1}, the symmetry-switch point and its float neighbours,
        and n uniform draws."""
        switch = (a + 1.0) / (a + b + 2.0)
        return np.concatenate([[0.0, 1.0, switch, np.nextafter(switch, 0.0),
                                np.nextafter(switch, 1.0)], rng.uniform(0.0, 1.0, n)])

    @pytest.mark.parametrize("a,b", BENCHMARK_SHAPES)
    def test_benchmark_shapes_match_scalar_lentz_bitwise(self, a, b):
        # oracle: the scalar modified-Lentz recurrence, one x at a time
        xs = self.grid(np.random.default_rng(41), a, b, 200)
        want = [reg_inc_beta_scalar(x, a, b) for x in xs.tolist()]
        got = reg_inc_beta(xs, BetaShape(a, b))
        assert got.shape == xs.shape and got.tolist() == want
        assert [reg_inc_beta(x, BetaShape(a, b)) for x in xs.tolist()] == want
        tails = [beta_tails_scalar(x, a, b) for x in xs.tolist()]
        lower, upper = beta_tails(xs, BetaShape(a, b))
        assert upper.shape == xs.shape and list(zip(lower.tolist(), upper.tolist())) == tails
        assert [beta_tails(x, BetaShape(a, b)) for x in xs.tolist()] == tails

    def test_random_shapes_match_scalar_lentz_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = np.exp(rng.uniform(-2.0, 4.0, 2)).tolist()
            xs = self.grid(rng, a, b, 10)
            assert reg_inc_beta(xs, BetaShape(a, b)).tolist() == \
                [reg_inc_beta_scalar(x, a, b) for x in xs.tolist()]
            lower, upper = beta_tails(xs, BetaShape(a, b))
            assert list(zip(lower.tolist(), upper.tolist())) == \
                [beta_tails_scalar(x, a, b) for x in xs.tolist()]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shapes_and_types(self, kernel):
        s = BetaShape(2.0, 3.0)
        assert all(type(v) is float for v in kernel(0.3, s))
        assert all(type(v) is float for v in kernel(np.float64(0.3), s))
        assert all(v.shape == (2, 2) for v in kernel([[0.0, 0.3], [0.6, 1.0]], s))
        assert all(v.shape == (0,) for v in kernel(np.empty(0), s))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("x", [[0.5, -0.1], [1.5], [0.2, math.nan]])
    def test_any_entry_outside_the_domain_is_rejected(self, kernel, x):
        with pytest.raises(ValidationError, match="0 <= x <= 1"):
            kernel(x, BetaShape(2.0, 3.0))

    @pytest.mark.parametrize("a,b", [(5.0, 20.0), (2.5, 20.5), (0.3, 0.45), (50.0, 60.0),
                                     (300.0, 250.0)])
    def test_tails_against_scipy(self, a, b):
        # oracle: scipy betainc for the lower tail and betaincc for the upper;
        # a tail far below an ulp of 1 keeps its digits, and one that scipy
        # rounds to 0 is exactly 0
        xs = np.array([0.0, 1e-14, 1e-12, 1e-6, 1e-4, 0.1, 0.3, 0.5, 0.7, 0.999,
                       1.0 - 1e-9, 1.0 - 2.0 ** -53, 1.0])
        lower, upper = beta_tails(xs, BetaShape(a, b))
        for got, want in ((lower, sps.betainc(a, b, xs)), (upper, sps.betaincc(a, b, xs))):
            assert got.tolist() == pytest.approx(want.tolist(), rel=1e-12, abs=0)
            assert (got == 0.0).tolist() == (want == 0.0).tolist()

    # ROADMAP item 6: x^a (1 - x)^b / B(a, b) is formed from terms that grow
    # like a + b and cancel, so large shapes lose digits in the prefactor, and
    # at 10^6 the 400-step continued fraction does not converge at the mean
    @pytest.mark.parametrize("a", [
        pytest.param(1e5, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 6: up to 6.5e-10 relative off within 4 sd of the mean")),
        pytest.param(1e6, marks=pytest.mark.xfail(
            strict=True, raises=ConvergenceError,
            reason="ROADMAP item 6: the continued fraction does not converge at x = 0.5")),
    ])
    def test_large_shape_tails_against_scipy(self, a):
        sd = 0.5 / math.sqrt(2.0 * a + 1.0)  # of Beta(a, a), whose mean is 0.5
        xs = 0.5 + sd * np.linspace(-4.0, 4.0, 81)
        lower, upper = beta_tails(xs, BetaShape(a, a))
        for got, want in ((lower, sps.betainc(a, a, xs)), (upper, sps.betaincc(a, a, xs))):
            assert got.tolist() == pytest.approx(want.tolist(), rel=1e-12, abs=0)


class TestHurwitzZeta:
    @pytest.mark.parametrize("s", [1.05, 1.5, 2.0, 3.75])
    @pytest.mark.parametrize("a", [0.3, 1.0, 17.0, 1e5 + 1])
    def test_against_mpmath(self, s, a):
        # oracle: mpmath.zeta(s, a) at the module's 80 digits
        assert _hurwitz_zeta(s, a) == pytest.approx(float(mpmath.zeta(s, a)), rel=1e-14, abs=0)

    def test_tail_closure_arguments(self, monkeypatch):
        # the (s, a) pairs the 3F~2 tail closure evaluates for the
        # Beta(0.3, 0.45) mixture, against the same oracle
        seen = []

        def record(s, a):
            seen.append((s, a))
            return _hurwitz_zeta(s, a)

        monkeypatch.setattr(special, "_hurwitz_zeta", record)
        expected_distance_matrix(BetaMixtureParams(0.5, 0.3, 0.45))
        assert seen
        for s, a in seen:
            assert _hurwitz_zeta(s, a) == pytest.approx(float(mpmath.zeta(s, a)), rel=1e-14, abs=0)


class TestRegHyp3F2Unit:
    # b pairs over the whole range where 1 / (Gamma(b1) Gamma(b2)) is a normal
    # float; (60.303, 65.523) is the phi_a denominator of an E|X - Y| call
    PREFACTOR_PAIRS = [(60.303, 65.523), (1.0, 1.0), (0.5, 2.5), (1e-3, 3.0), (7.25, 0.01),
                       (26.0, 46.5), (99.5, 101.25), (150.0, 20.0), (170.5, 1.5)]

    def test_prefactor_against_mpmath(self):
        # A zero numerator leaves the single term 1 / (Gamma(b1) Gamma(b2)).
        # oracle: 40-digit mpmath; exp(-lgamma - lgamma) is 1.8e-14 off at the first pair
        for b1, b2 in self.PREFACTOR_PAIRS:
            with mpmath.workdps(40):
                ref = float(1 / (mpmath.gamma(b1) * mpmath.gamma(b2)))
            assert reg_hyp3f2_unit((0.0, 1.0, 1.0), (b1, b2)) == \
                pytest.approx(ref, rel=1e-15, abs=0)

    def test_prefactor_outside_normal_range_uses_log_gammas(self):
        # Gamma(180) overflows and (100, 100) gives a subnormal
        for b1, b2 in [(180.0, 2.0), (100.0, 100.0), (400.0, 300.0)]:
            assert reg_hyp3f2_unit((0.0, 1.0, 1.0), (b1, b2)) == \
                math.exp(-math.lgamma(b1) - math.lgamma(b2))

    def test_large_denominators_against_mpmath(self):
        num, den = (59.303, 64.507, 0.88), (60.303, 65.523)
        with mpmath.workdps(40):
            ref = float(mpmath.hyper(list(num), list(den), 1)
                        / (mpmath.gamma(den[0]) * mpmath.gamma(den[1])))
        assert reg_hyp3f2_unit(num, den) == pytest.approx(ref, rel=1e-15, abs=0)

    def test_terminating_simple(self):
        # num contains 0 => single term 1/(Gamma(b1) Gamma(b2))
        val = reg_hyp3f2_unit((0.0, 3.0, 5.0), (2.0, 4.0))
        assert val == pytest.approx(1.0 / (math.gamma(2) * math.gamma(4)), rel=1e-14, abs=0)

    def test_terminating_against_mpmath(self):
        # oracle: mpmath regularized sum at high precision
        cases = [
            ((-3.0, 2.5, 4.0), (1.5, 7.2)),
            ((-1.0, 26.0, 1.0 - 20.0), (6.0, 46.0)),
            ((2.0, 8.0, -4.0), (3.0, 13.5)),
        ]
        for num, den in cases:
            assert reg_hyp3f2_unit(num, den) == pytest.approx(
                mp_reg_hyp3f2(num, den), rel=1e-12, abs=0)
        pinned = [
            # The E|X - Y| series of Beta(5, 20) against Beta(20, 5) and
            # against itself: mpmath.hyp3f2(*num, *den, 1) / (gamma(den[0])
            # gamma(den[1])) at dps 80; dps 100 and 120 agree to 1e-81.
            ((5.0, 26.0, -19.0), (7.0, 31.0), 1.4869061300661739959e-39),
            ((5.0, 11.0, -19.0), (7.0, 31.0), 9.1889170853054885445e-38),
            # s = -5 and s = -7: a terminating series is a finite sum, whatever
            # the sign of s. 40-digit mpmath; a zero numerator leaves
            # 1 / Gamma(3/2)^2 = 4 / pi.
            ((-2.0, 5.0, 5.0), (1.5, 1.5), 54.46635830255973712979578),
            ((0.0, 5.0, 5.0), (1.5, 1.5), 4.0 / math.pi),
        ]
        for num, den, ref in pinned:
            assert reg_hyp3f2_unit(num, den) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_terminating_past_the_term_budget_rejected(self):
        with pytest.raises(ConvergenceError, match="100000-term budget"):
            reg_hyp3f2_unit((-200000.0, 1.0, 1.0), (1.0, 1.0))

    def test_nonterminating_against_mpmath(self):
        # oracle: non-integer beta parameters force the infinite series.
        # Relative only: the second case is of order 1e-63, so any absolute
        # tolerance would accept a wrong value.
        # The references are mp_reg_hyp3f2(num, den) at mpmath.mp.dps = 80,
        # stored because mpmath takes about 40 s over the four; dps = 100
        # gives the same floats. Do not recompute them at lower precision:
        # for the second case mpmath silently returns 4.6515e-77 at dps 50
        # and 60, and agrees on 5.2532428303783627e-63 at dps 70, 80, 100
        # and 120; the kernel gives 5.253242830378354e-63.
        cases = [
            ((0.5, 3.5, 0.5), (1.5, 6.0), 0.010831716252909573),
            ((5.0, 26.0, -19.5), (6.0, 46.5), 5.253242830378363e-63),
            ((0.5, 2.0, 0.5), (1.5, 3.0), 0.6801340485612273),
            ((2.5, 9.0, -3.5), (3.5, 15.0), 6.503382536646298e-13),
        ]
        for num, den, ref in cases:
            assert reg_hyp3f2_unit(num, den) == pytest.approx(ref, rel=1e-9, abs=0)

    def test_slow_tail_remainder_against_mpmath(self):
        # oracle: mpmath.hyp3f2(*num, *den, 1) / (gamma(den[0]) gamma(den[1]))
        # at mpmath.mp.dps = 40 (60 gives the same digits). Both series take
        # the exact-prefix path and decay like k^-(1+s) with s = 2.1 and 3:
        # stopping at the first tiny term, not on the estimated rest
        # |t_k| k / s, left errors of 3.5e-11 and 7.8e-12.
        cases = [
            ((0.2, 1.4, 1 - 0.9), (1.2, 2.3), 0.9469921539842810201901165),
            ((7.25, 15.5, -0.5), (8.25, 17.0), 2.435607558986250207937529e-18),
        ]
        for num, den, ref in cases:
            assert reg_hyp3f2_unit(num, den) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("num,den,value", [
        # mpmath.hyp3f2(*num, *den, 1) / (gamma(den[0]) gamma(den[1])): dps 40
        # and 60 agree on these digits, except on the first case, where both
        # give 4.65e-77 and dps 80 and 100 agree on the value below
        ((5.0, 26.0, -19.5), (6.0, 46.5), 5.253242830378363e-63),
        ((1.0, 1.0, 1.5), (3.0, 4.0), 0.09813847226611976),
        ((0.3, 1.75, 0.55), (1.3, 2.2), 1.2427749800096892),
        # s = 0.452: terms decay only like k^-1.452
        ((8.045, 19.16, 0.702), (9.045, 19.314), 1.3971267791140446e-20),
        # large parameters: the expansion needs K well past k0 + 64
        ((47.553, 48.056, 0.87), (48.553, 49.043), 8.619757586186131e-121),
        # the E|X - Y| series of Beta(2.5, 20.5) and Beta(0.3, 0.45), each
        # against its mirror and against itself: dps 80, 100 and 120 agree
        # to 1e-81
        ((2.5, 24.0, -19.5), (4.5, 26.5), 7.0033878427092181672e-30),
        ((2.5, 6.0, -19.5), (4.5, 26.5), 1.6505686859061118456e-28),
        ((0.3, 1.75, 0.55), (2.3, 2.05), 0.92002500421714421651),
        ((0.3, 1.6, 0.55), (2.3, 2.05), 0.91021745530192432606),
    ])
    def test_remainder_against_mpmath(self, num, den, value):
        assert reg_hyp3f2_unit(num, den) == pytest.approx(value, rel=1e-14, abs=0)

    def test_tail_past_the_term_limit_rejected(self):
        # parameters near 30,000: the expansion does not converge for any
        # K within 100,000 terms of k0
        with pytest.raises(ConvergenceError, match="100000 terms"):
            reg_hyp3f2_unit((30000.3, 30001.0, 0.2), (30001.3, 30000.6))

    @pytest.mark.parametrize("num,den,message", [
        # terms past e^700 before the series turns to decay
        ((1000.5, 1000.5, 0.5), (1.5, 2000.5), "series terms overflow double precision"),
        # (1 + s + 12) log K passes 700 at the first K, with s = 201
        ((600.5, 600.5, -0.5), (1.5, 1400.0), "series tail underflows double precision"),
        # the tail amplitude overflows while 1/Gamma(700) underflows to 0
        ((300.5, 300.5, -0.5), (1.5, 700.0), "is not a finite float"),
        # the exact sum of a terminating series is past the float range
        ((-2000.0, 3000.5, 3000.5), (0.5, 0.5), "is not a finite float"),
    ])
    def test_out_of_range_is_a_convergence_error(self, num, den, message):
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            reg_hyp3f2_unit(num, den)

    def test_divergent_rejected(self):
        with pytest.raises(ConvergenceError):
            reg_hyp3f2_unit((2.0, 2.0, 2.0), (1.5, 1.5))

    # on a gamma pole, negative, and within 1e-12 of a pole at 0 and -2
    @pytest.mark.parametrize("den", [(-1.0, 3.0), (-1.5, 3.0), (1e-13, 3.0), (-2.0 + 1e-13, 3.0)])
    def test_denominator_pole_rejected(self, den):
        with pytest.raises(ConvergenceError):
            reg_hyp3f2_unit((0.5, 0.5, 0.5), den)

    def test_parameter_count(self):
        with pytest.raises(ValidationError):
            reg_hyp3f2_unit((1.0, 2.0), (3.0, 4.0))

    def test_near_integer_snap(self):
        exact = reg_hyp3f2_unit((-3.0, 2.5, 4.0), (1.5, 7.2))
        fuzzy = reg_hyp3f2_unit((-3.0 + 5e-13, 2.5, 4.0), (1.5, 7.2))
        assert fuzzy == exact
