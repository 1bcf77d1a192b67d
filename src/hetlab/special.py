"""Self-contained special-function kernel for the beta-mixture machinery.

Provides log-gamma, the beta density, the (generalized) regularized
incomplete beta function, and the regularized hypergeometric 3F~2 at unit
argument. All functions are pure and deterministic. The kernel is
self-contained: it needs only ``math``, ``fractions`` and numpy, no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, PrecisionError, ValidationError

_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_FPMIN = 1e-300

_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 100_000
_SERIES_CHUNK = 1024
_INT_SNAP_TOL = 1e-12

# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin correction coefficients.
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)
_EM_SHIFT = 20.0


@dataclass(frozen=True)
class BetaShape:
    """Shape parameters (alpha, beta) of a beta distribution, both > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0:
        raise ValidationError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta_pdf(x: float, shape: BetaShape) -> float:
    """Beta density x^(a-1) (1-x)^(b-1) / B(a, b) on the open interval (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValidationError(f"beta_pdf requires 0 < x < 1, got {x}")
    a, b = shape.alpha, shape.beta
    ln = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)
    return math.exp(ln)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, shape: BetaShape) -> float:
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF at x."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    a, b = shape.alpha, shape.beta
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    # Symmetry switch keeps the continued fraction in its fast-converging regime.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def gen_reg_inc_beta(x0: float, x1: float, shape: BetaShape) -> float:
    """Generalized regularized incomplete beta: I_{x1}(a, b) - I_{x0}(a, b)."""
    if x0 > x1:
        raise ValidationError(f"gen_reg_inc_beta requires x0 <= x1, got x0={x0} x1={x1}")
    return reg_inc_beta(x1, shape) - reg_inc_beta(x0, shape)


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum_k (a + k)^-s for s > 1 and a > 0.

    Sums terms directly until a >= 20, then closes the rest with
    Euler-Maclaurin: a^(1-s)/(s-1) + a^-s/2 + sum_j B_2j/(2j)!
    s(s+1)...(s+2j-2) a^(-s-2j+1), stopping once a correction is below
    1e-17 of the sum.
    """
    total = 0.0
    while a < _EM_SHIFT:
        total += a ** -s
        a += 1.0
    total += a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s
    rising = s
    power = a ** (-s - 1.0)
    for j, coeff in enumerate(_EM_COEFFS):
        term = coeff * rising * power
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        power /= a * a
    return total


def _snap_nonpositive_int(a: float) -> float:
    r = round(a)
    if r <= 0 and abs(a - r) <= _INT_SNAP_TOL:
        return float(r)
    return a


def _exact_coeff_sum(a, b, min_terms, budget=0):
    """Sum series coefficients c_k (c_0 = 1, c_{k+1} = c_k
    (a1+k)(a2+k)(a3+k) / [(b1+k)(b2+k)(k+1)]) in exact rational arithmetic.

    Always sums the first min_terms coefficients; with a budget it keeps
    going until the next coefficient is negligible against the running sum
    at double precision (or the budget runs out). Returns (sum, next
    coefficient, number of terms consumed). Float parameters convert to
    Fractions exactly, so sign-alternating regions with huge intermediate
    terms incur no cancellation error.
    """
    af = [Fraction(v) for v in a]
    bf = [Fraction(v) for v in b]
    # Common-denominator integer arithmetic: Fraction would normalize with a
    # gcd on every operation, which dominates once terms grow to thousands
    # of bits.
    c_num = 1
    total_num = 0
    den = 1
    k = 0
    while True:
        if k >= min_terms:
            if budget <= 0 or total_num == 0:
                break
            if abs(c_num) << 60 < abs(total_num):
                break
            budget -= 1
        total_num += c_num
        step_num = 1
        step_den = k + 1
        for fr in af:
            t = fr + k
            step_num *= t.numerator
            step_den *= t.denominator
        for fr in bf:
            t = fr + k
            step_num *= t.denominator
            step_den *= t.numerator
        c_num *= step_num
        total_num *= step_den
        den *= step_den
        k += 1
    return Fraction(total_num, den), Fraction(c_num, den), k


def _fraction_log_abs(fr: Fraction) -> float:
    # math.log takes arbitrary-size ints, so this never overflows
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def reg_hyp3f2_unit(num, den) -> float:
    """Regularized 3F~2(num; den; 1) = sum_k prod (num)_k / [Gamma(den_1+k) Gamma(den_2+k) k!].

    Terminating series (a numerator parameter is a non-positive integer) are
    summed exactly in rational arithmetic. Otherwise any sign-alternating
    prefix (negative numerator parameters) is summed exactly, and the
    same-sign remainder is summed until the estimated rest of the series,
    |t_k| (k + 1) / s for terms decaying like k^-(1+s) with
    s = sum(den) - sum(num), drops below ``_SERIES_REL_TOL`` relative to
    the partial sum, with a cap of ``_SERIES_MAX_TERMS``; a slowly decaying
    polynomial tail is closed with a two-parameter Hurwitz-zeta estimate.
    """
    a = [_snap_nonpositive_int(float(v)) for v in num]
    b = [float(v) for v in den]
    if len(a) != 3 or len(b) != 2:
        raise ValidationError("reg_hyp3f2_unit takes three numerator and two denominator parameters")
    for v in b:
        r = round(v)
        if r <= 0 and abs(v - r) <= _INT_SNAP_TOL:
            raise ConvergenceError(f"denominator parameter {v} sits on a gamma pole")
    if any(v <= 0 for v in b):
        # a negative non-integer denominator flips term signs unpredictably;
        # outside the domain this kernel needs
        raise ConvergenceError("denominator parameters must be positive")

    terminating = [int(-v) for v in a if v <= 0 and v == int(v)]
    s_exp = b[0] + b[1] - a[0] - a[1] - a[2]
    if not terminating and s_exp <= 0:
        raise ConvergenceError(
            f"series at unit argument diverges: sum(den) - sum(num) = {s_exp} <= 0"
        )
    prefactor = math.exp(-math.lgamma(b[0]) - math.lgamma(b[1]))

    if terminating:
        coeff_sum, _, _ = _exact_coeff_sum(a, b, min(terminating) + 1)
        return prefactor * float(coeff_sum)

    # Exact prefix over the region where (a_i + k) can still be negative,
    # extended until the coefficients stop mattering at double precision
    # (fast-decay series finish entirely inside the budget).
    k_min = 0
    negs = [-v for v in a if v < 0]
    if negs:
        k_min = int(math.ceil(max(negs))) + 1
    if k_min > _SERIES_MAX_TERMS - 3:
        raise ConvergenceError(
            f"sign-alternating prefix of {k_min} terms exceeds the {_SERIES_MAX_TERMS}-term budget"
        )
    prefix_sum, c_k0, k0 = _exact_coeff_sum(a, b, k_min, budget=300)

    # Same-sign remainder via a vectorized log-magnitude recurrence, built in
    # chunks of doubling length so that a fast-converging series stops after
    # its first chunk. Each chunk's cumulative sums are seeded with the value
    # carried from the previous chunk, so every partial sum is bitwise the
    # one a single pass over all terms gives.
    n_rest = _SERIES_MAX_TERMS - k0
    sign = 1.0 if c_k0 > 0 else -1.0
    log_c0 = _fraction_log_abs(c_k0)
    base = float(prefix_sum)
    log_sum, term_sum, prev_small = 0.0, 0.0, False
    last_terms = np.empty(0)
    lo, size = 0, _SERIES_CHUNK
    while lo < n_rest:
        hi = min(lo + size, n_rest)
        k = np.arange(lo, hi, dtype=float) + k0
        ratio = ((a[0] + k) * (a[1] + k) * (a[2] + k)) / ((b[0] + k) * (b[1] + k) * (k + 1.0))
        log_sums = np.cumsum(np.concatenate(([log_sum], np.log(ratio))))
        log_terms = log_c0 + log_sums[:-1]
        if np.max(log_terms) > 700.0:
            raise ConvergenceError("series terms overflow double precision")
        terms = sign * np.exp(log_terms)
        term_sums = np.cumsum(np.concatenate(([term_sum], terms)))
        partial = base + term_sums[1:]
        # The unsummed rest after t_k is about |t_k| k / s, not |t_k|: at unit
        # argument the terms decay only polynomially. Require two consecutive
        # small estimates to guard against odd/even dips.
        rest = np.abs(terms) * ((np.arange(lo, hi) + (k0 + 1.0)) / s_exp)
        small = np.concatenate(([prev_small], rest <= _SERIES_REL_TOL * np.abs(partial)))
        converged = np.flatnonzero(small[1:] & small[:-1])
        if converged.size:
            return prefactor * float(partial[converged[0]])
        log_sum, term_sum, prev_small = log_sums[-1], term_sums[-1], small[-1]
        last_terms = np.concatenate((last_terms, terms))[-2:]
        lo, size = hi, 2 * size

    # Cap reached: close the k^-(1+s) tail with a Hurwitz-zeta fit through the
    # last two terms, t_k ~ c k^-(1+s) (1 + e1/k).
    total = base + float(term_sum)
    big_k = float(k0 + n_rest - 1)
    t_prev, t_last = map(float, last_terms)
    c0_last = t_last * big_k ** (1.0 + s_exp)
    c0_prev = t_prev * (big_k - 1.0) ** (1.0 + s_exp)
    uc = (c0_prev - c0_last) * big_k * (big_k - 1.0)
    c = c0_last - uc / big_k
    z1 = _hurwitz_zeta(1.0 + s_exp, big_k + 1.0)
    z2 = _hurwitz_zeta(2.0 + s_exp, big_k + 1.0)
    z3 = _hurwitz_zeta(3.0 + s_exp, big_k + 1.0)
    tail = c * z1 + uc * z2
    result = total + tail
    # Residual of the two-term tail model; generous factor for the unfit
    # next-order coefficient.
    err_bound = abs(uc) * big_k * z3 * 10.0
    if err_bound > max(1e-14, 1e-6 * abs(result)):
        raise PrecisionError(
            f"series truncated at {_SERIES_MAX_TERMS} terms, estimated tail error {err_bound:.3g}",
            partial=prefactor * result,
        )
    return prefactor * result
