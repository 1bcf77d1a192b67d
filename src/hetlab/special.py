"""Self-contained special-function kernel for the beta-mixture machinery.

Provides log-gamma, the beta density, both tails of the beta
distribution (the regularized incomplete beta function I_x(a, b) below x
and 1 - I_x(a, b) above it) and the regularized hypergeometric 3F~2 at
unit argument. All functions are pure and deterministic. The kernel is
self-contained: it needs only ``math``, ``fractions`` and numpy, no scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError

_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_FPMIN = 1e-300

_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 100_000
# expansion terms the tail keeps; the next one is its error estimate
_TAIL_TERMS = 12
_INT_SNAP_TOL = 1e-12

# B_2j / (2j)! for j = 1..8: the Euler-Maclaurin correction coefficients and
# the Bernoulli numbers of the 3F~2 tail expansion.
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
    """Natural log of the gamma function for x > 0; a value past the float
    range (x above about 2.6e305) is a ``NumericalError``."""
    if not x > 0:
        raise ValidationError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise NumericalError(f"log_gamma({x:g}) overflows a float") from None


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


def _floor(v):
    # keeps a Lentz denominator away from zero
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _beta_cont_frac(a, b, x) -> np.ndarray:
    """Modified Lentz evaluation of the incomplete-beta continued fraction over
    1-D float arrays a, b, x of one length; each entry stops at its own convergence."""
    idx, out, c = np.arange(x.size), np.empty(x.size), np.ones(x.size)
    h = d = 1.0 / _floor(1.0 - (a + b) * x / (a + 1.0))
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / _floor(1.0 + aa * d)
            c = _floor(1.0 + aa / c)
            h = h * (d * c)
        done = np.abs(d * c - 1.0) < _CF_EPS
        out[idx[done]] = h[done]
        if done.all():
            return out
        idx, a, b, x, c, d, h = (v[~done] for v in (idx, a, b, x, c, d, h))
    raise ConvergenceError("incomplete beta continued fraction did not converge for "
                           f"a={a[0]}, b={b[0]}, x={x[0]}")


def beta_tails(x, shape: BetaShape):
    """Both tails of Beta(a, b) at x, (I_x(a, b), 1 - I_x(a, b)): two floats
    for one x, two arrays of its shape for an array of them. The continued
    fraction gives the tail on its own side of the symmetry switch directly,
    and the other tail is 1 minus it."""
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValidationError(f"beta_tails requires 0 <= x <= 1, got {x}")
    flat, a, b = xs.ravel(), shape.alpha, shape.beta
    ln_beta = log_beta(a, b)
    # math per entry: numpy's log1p and exp differ from libm in the last bit.
    # The zero prefactor at x = 0 and x = 1 makes the tails exactly 0 and 1 there.
    front = np.array([math.exp(a * math.log(v) + b * math.log1p(-v) - ln_beta)
                      if 0.0 < v < 1.0 else 0.0 for v in flat.tolist()])
    # Symmetry switch keeps the continued fraction in its fast-converging regime.
    low = flat < (a + 1.0) / (a + b + 2.0)
    cf = _beta_cont_frac(np.where(low, a, b), np.where(low, b, a), np.where(low, flat, 1.0 - flat))
    tail = front * cf / np.where(low, a, b)
    lower, upper = (np.where(side, tail, 1.0 - tail).reshape(xs.shape) for side in (low, ~low))
    return (float(lower), float(upper)) if xs.ndim == 0 else (lower, upper)


def reg_inc_beta(x, shape: BetaShape):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF at x: the
    lower tail of `beta_tails`."""
    return beta_tails(x, shape)[0]


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


def _gamma_ratio_expansion(a, b):
    """e_0 ... e_N of t_k ~ C k^-(1+s) sum_j e_j k^-j, the asymptotic series
    of the 3F~2 terms (DLMF 5.11.8), e_N being the first term the tail
    leaves out. The e_j are the coefficients of exp(sum_m d_m x^m) with
    d_m = (-1)^(m+1) / (m(m+1)) [sum_i B_{m+1}(a_i) - B_{m+1}(b_1)
    - B_{m+1}(b_2) - B_{m+1}(1)]. The parameters' power sums are exact
    integers over a common power-of-two denominator: their leading terms
    cancel.
    """
    ratios = [v.as_integer_ratio() for v in (*a, *b, 1.0)]
    den = max(d for _, d in ratios)
    ints = [num * (den // d) for num, d in ratios]
    power = [(sum(x ** p for x in ints[:3]) - sum(x ** p for x in ints[3:])) / den ** p
             for p in range(_TAIL_TERMS + 2)]
    bern = [1.0, -0.5] + [v for c in _EM_COEFFS for v in (c, 0.0)]  # B_i / i!
    d = [0.0] + [(-1) ** (m + 1) * math.factorial(m - 1)
                 * sum(bern[i] * power[m + 1 - i] / math.factorial(m + 1 - i) for i in range(m + 2))
                 for m in range(1, _TAIL_TERMS + 1)]
    e = [1.0]
    for j in range(1, _TAIL_TERMS + 1):
        e.append(sum(m * d[m] * e[j - m] for m in range(1, j + 1)) / j)
    return e


def reg_hyp3f2_unit(num, den) -> float:
    """Regularized 3F~2(num; den; 1) = sum_k prod (num)_k / [Gamma(den_1+k) Gamma(den_2+k) k!].

    Terminating series (a numerator parameter is a non-positive integer) are
    summed exactly in rational arithmetic. Otherwise any sign-alternating
    prefix (negative numerator parameters) is summed exactly up to k0, the
    float head t_k0 ... t_{K-1} with ``math.fsum``, and the same-sign tail
    as C sum_j e_j zeta(1 + s + j, K) from the asymptotic series of its
    terms, s = sum(den) - sum(num). K doubles from k0 + 64 until the first
    omitted term is below ``_SERIES_REL_TOL`` / 10 of the result; no tail is
    needed once the rest estimate |t_K| (K + 1) / s is below
    ``_SERIES_REL_TOL``.
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
    try:  # 1/(Gamma(b1) Gamma(b2)); exp(-lgamma - lgamma) is up to 2e-13 off
        prefactor = 1.0 / math.gamma(b[0]) / math.gamma(b[1])
    except OverflowError:
        prefactor = 0.0
    if prefactor < sys.float_info.min:  # not a normal float: the log-gamma form
        prefactor = math.exp(-log_gamma(b[0]) - log_gamma(b[1]))

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
    if k_min > _SERIES_MAX_TERMS:
        raise ConvergenceError(
            f"sign-alternating prefix of {k_min} terms exceeds the {_SERIES_MAX_TERMS}-term budget"
        )
    prefix_sum, c_k0, k0 = _exact_coeff_sum(a, b, k_min, budget=300)

    # Same-sign remainder: float terms t_k0 ... t_K, then the tail from K on.
    sign = 1.0 if c_k0 > 0 else -1.0
    log_c0 = _fraction_log_abs(c_k0)
    e = None
    n = 64
    while n <= _SERIES_MAX_TERMS:
        big_k = float(k0 + n)
        k = np.arange(k0, big_k)
        # log(t_{k+1} / t_k) in log1p form, whose rounding does not grow with k
        log_terms = log_c0 + np.concatenate(([0.0], np.cumsum(
            np.log1p((a[0] - b[0]) / (b[0] + k)) + np.log1p((a[1] - b[1]) / (b[1] + k))
            + np.log1p((a[2] - 1.0) / (k + 1.0)))))
        if np.max(log_terms) > 700.0:
            raise ConvergenceError("series terms overflow double precision")
        *head, t_big = (sign * np.exp(log_terms)).tolist()
        head = math.fsum([float(prefix_sum), *head])
        # At unit argument the terms decay only like k^-(1+s), so the rest
        # after t_K is about |t_K| K / s, not |t_K|.
        if abs(t_big) * (big_k + 1.0) / s_exp <= _SERIES_REL_TOL * abs(head + t_big):
            return prefactor * (head + t_big)
        e = e or _gamma_ratio_expansion(a, b)
        if (1.0 + s_exp + _TAIL_TERMS) * math.log(big_k) > 700.0:  # K^(1+s), zeta out of range
            raise ConvergenceError("series tail underflows double precision")
        # C = t_K / A(K) with A(K) = K^-(1+s) sum_j e_j K^-j
        amp = t_big * big_k ** (1.0 + s_exp) / sum(c * big_k ** -j for j, c in enumerate(e[:-1]))
        zetas = [_hurwitz_zeta(1.0 + s_exp + j, big_k) for j in range(len(e))]
        result = head + amp * math.fsum(c * z for c, z in zip(e[:-1], zetas))
        if abs(amp * e[-1] * zetas[-1]) <= 0.1 * _SERIES_REL_TOL * abs(result):
            return prefactor * result
        n *= 2
    raise ConvergenceError(f"series tail expansion not converged within {_SERIES_MAX_TERMS} terms")
