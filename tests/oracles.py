"""Independent numerical oracles used by the tests.

Everything here is deliberately computed by a different route than the
library (quadrature, bisection, Monte Carlo, CDF identities, scipy/mpmath
special functions) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate, optimize, special

from hetlab import betamix, classic
from hetlab.core import renyi_heterogeneity
from hetlab.datasets import EmbeddingDataset
from hetlab.decomposition import SubsystemEnsemble
from hetlab.errors import DegenerateDistanceError, ValidationError
from hetlab.gaussian import gaussian_pool, gaussian_renyi, gaussian_within


def gaussian_logpdf(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Multivariate normal log density, full covariance, via slogdet/solve."""
    mean = np.asarray(mean, float)
    cov = np.atleast_2d(np.asarray(cov, float))
    if cov.shape[0] != cov.shape[1]:
        cov = np.diag(np.asarray(cov, float).ravel())
    n = mean.size
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    diff = np.atleast_2d(points) - mean
    sol = np.linalg.solve(cov, diff.T)
    maha = np.sum(diff.T * sol, axis=0)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + maha)


def gaussian_renyi_quad(cov, q: float, nodes: int = 220, span: float = 14.0) -> float:
    """Renyi heterogeneity of a zero-mean Gaussian by tensor Gauss-Legendre
    quadrature of the density power integral (entropy integral at q=1)."""
    cov = np.asarray(cov, float)
    full = np.diag(cov) if cov.ndim == 1 else cov
    n = full.shape[0]
    sd = np.sqrt(np.diag(full))
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes = [(x * span * sd[j], w * span * sd[j]) for j in range(n)]
    if n == 1:
        pts = axes[0][0][:, None]
        wts = axes[0][1]
    elif n == 2:
        g0, g1 = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
        pts = np.stack([g0.ravel(), g1.ravel()], axis=1)
        wts = np.outer(axes[0][1], axes[1][1]).ravel()
    else:
        raise ValueError("oracle supports n in {1, 2}")
    log_f = gaussian_logpdf(pts, np.zeros(n), full)
    if math.isinf(q):
        # The density maximum sits at the mean.
        return float(np.exp(-gaussian_logpdf(np.zeros((1, n)), np.zeros(n), full)[0]))
    f = np.exp(log_f)
    if q == 1.0:
        return float(np.exp(-np.sum(wts * f * log_f)))
    return float(np.sum(wts * f ** q) ** (1.0 / (1.0 - q)))


@dataclass(frozen=True)
class GridSpec:
    """Tensor-grid quadrature configuration for the model-average pool.

    span is in pooled marginal standard deviations on each side of the
    pooled mean.
    """

    points_per_dim: int = 2001
    span: float = 8.0


def model_average_pooled_numeric(ensemble, q: float, grid_spec: GridSpec = GridSpec()) -> float:
    """Pooled heterogeneity of the mixture density itself (no Gaussian
    re-fit), by trapezoid quadrature on a tensor grid around the parametric
    pool. Supports dimension <= 3 and targets ~1e-4 relative accuracy in
    one or two dimensions."""
    n = ensemble.dim
    if n > 3:
        raise ValidationError("model-average pooling supports dimension <= 3")
    pool = gaussian_pool(ensemble)
    sd = np.sqrt(pool.covariance if pool.is_diagonal else np.diag(pool.covariance))
    axes = [np.linspace(pool.mean[j] - grid_spec.span * sd[j],
                        pool.mean[j] + grid_spec.span * sd[j], grid_spec.points_per_dim)
            for j in range(n)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    # the weighted mixture's log density, one member at a time
    log_f = special.logsumexp([math.log(w) + gaussian_logpdf(points, mean, cov)
                               for w, mean, cov in zip(ensemble.weights, ensemble.means,
                                                       ensemble.covariances) if w > 0],
                              axis=0)
    if math.isinf(q):
        return math.exp(-float(np.max(log_f)))
    cell = functools.reduce(np.multiply.outer,
                            [np.convolve(np.diff(ax), [0.5, 0.5]) for ax in axes]).ravel()
    if q == 1.0:
        return math.exp(-float(np.sum(cell * np.exp(log_f) * log_f)))
    return math.exp(special.logsumexp(q * log_f, b=cell) / (1.0 - q))


def beta_abs_distance_quad(a1: float, b1: float, a2: float, b2: float,
                           epsabs: float = 1e-10) -> float:
    """E|X - Y| for X~Beta(a1,b1), Y~Beta(a2,b2) through the CDF identity

    E|X - Y| = int_0^1 [F_X(t)(1 - F_Y(t)) + F_Y(t)(1 - F_X(t))] dt,

    evaluated with scipy's betainc and adaptive 1-D quadrature.
    """
    def integrand(t):
        fx = special.betainc(a1, b1, t)
        fy = special.betainc(a2, b2, t)
        return fx * (1.0 - fy) + fy * (1.0 - fx)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=epsabs, epsrel=1e-12,
                              limit=200)
    assert err < 1e-8
    return val


def beta_abs_distance_dblquad(a1: float, b1: float, a2: float, b2: float) -> float:
    """E|X - Y| by direct 2-D adaptive quadrature, split along x = y."""
    def fx(x):
        return math.exp((a1 - 1.0) * math.log(x) + (b1 - 1.0) * math.log1p(-x)
                        - special.betaln(a1, b1))

    def fy(y):
        return math.exp((a2 - 1.0) * math.log(y) + (b2 - 1.0) * math.log1p(-y)
                        - special.betaln(a2, b2))

    upper, _ = integrate.dblquad(lambda y, x: (x - y) * fx(x) * fy(y),
                                 0.0, 1.0, 0.0, lambda x: x, epsabs=1e-9)
    lower, _ = integrate.dblquad(lambda y, x: (y - x) * fx(x) * fy(y),
                                 0.0, 1.0, lambda x: x, 1.0, epsabs=1e-9)
    return upper + lower


def bmm_threshold_bisect(theta1: float, theta2: float, theta3: float) -> float:
    """Posterior-equality threshold by bracketing bisection on the
    log posterior ratio."""
    def log_ratio(x):
        l1 = math.log1p(-theta1) + (theta2 - 1.0) * math.log(x) \
            + (theta3 - 1.0) * math.log1p(-x) - special.betaln(theta2, theta3)
        l2 = math.log(theta1) + (theta3 - 1.0) * math.log(x) \
            + (theta2 - 1.0) * math.log1p(-x) - special.betaln(theta3, theta2)
        return l1 - l2

    lo, hi = 1e-15, 1.0 - 1e-15
    if log_ratio(lo) * log_ratio(hi) > 0:
        # Posteriors never cross inside (0, 1).
        return 0.0 if log_ratio(0.5) < 0 else 1.0
    return float(optimize.brentq(log_ratio, lo, hi, xtol=1e-14, rtol=8.9e-16))


def beta_cont_frac_scalar(a: float, b: float, x: float) -> float:
    """The incomplete-beta continued fraction by the scalar modified Lentz
    recurrence, one entry at a time: the reference the array recurrence of
    `hetlab.special` must match bit for bit."""
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 401):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise AssertionError(f"no convergence for a={a}, b={b}, x={x}")


def beta_tails_scalar(x: float, a: float, b: float):
    """(I_x(a, b), 1 - I_x(a, b)) for one x: the libm prefactor times the
    scalar continued fraction gives the tail on the side of the symmetry
    switch where it converges fast, and the other tail is 1 minus it."""
    if x in (0.0, 1.0):
        return x, 1.0 - x
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * beta_cont_frac_scalar(a, b, x) / a
        return lower, 1.0 - lower
    upper = front * beta_cont_frac_scalar(b, a, 1.0 - x) / b
    return 1.0 - upper, upper


def reg_inc_beta_scalar(x: float, a: float, b: float) -> float:
    """I_x(a, b) for one x: the lower tail of `beta_tails_scalar`."""
    return beta_tails_scalar(x, a, b)[0]


def assignment_mass_scalar(theta1: float, theta2: float, theta3: float, tau: float):
    """(mass below tau, mass above tau) of the two-component beta mixture, each
    a weighted sum of the component tails on its side of tau from
    `beta_tails_scalar`."""
    below1, above1 = beta_tails_scalar(tau, theta2, theta3)
    below2, above2 = beta_tails_scalar(tau, theta3, theta2)
    return (1.0 - theta1) * below1 + theta1 * below2, (1.0 - theta1) * above1 + theta1 * above2


def random_pd_cov(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned random positive-definite covariance."""
    a = rng.standard_normal((n, n))
    scale = math.exp(rng.uniform(-1.5, 1.5))
    return scale * (a @ a.T + 0.1 * np.eye(n))


def random_distribution(rng: np.random.Generator, n: int, zeros: bool = False) -> np.ndarray:
    p = rng.gamma(1.0, 1.0, size=n)
    if zeros and n > 1:
        k = rng.integers(0, n - 1)
        if k:
            idx = rng.choice(n, size=k, replace=False)
            p[idx] = 0.0
    return p / p.sum()


def within_heterogeneity_loop(table, weights, q: float) -> float:
    """Within-group Renyi heterogeneity at finite q > 0, one row at a time:
    the per-row entropy sum at q = 1, else a per-row logsumexp over the
    positive entries. Zero-weight rows are dropped first."""
    table = np.asarray(table, float)
    weights = np.asarray(weights, float)
    keep = weights > 0.0
    table, weights = table[keep], weights[keep]
    if q == 1.0:
        ent = np.zeros(len(table))
        for i, row in enumerate(table):
            pos = row[row > 0.0]
            ent[i] = -float(np.dot(pos, np.log(pos)))
        return float(np.exp(np.dot(weights, ent)))
    log_w = np.log(weights)
    log_row_sums = np.array([
        special.logsumexp(q * np.log(row[row > 0.0])) for row in table
    ])
    log_num = special.logsumexp(q * log_w + log_row_sums)
    log_den = special.logsumexp(q * log_w)
    return float(np.exp((log_num - log_den) / (1.0 - q)))


def gaussian_pool_loop(means, covariances, weights) -> tuple:
    """Moment-matched pool (mean, full covariance) of a weighted Gaussian
    ensemble, one member at a time: Sigma* = -mu* mu*^T +
    sum_i w_i (Sigma_i + mu_i mu_i^T), with diagonal storage expanded."""
    means = np.asarray(means, float)
    weights = np.asarray(weights, float)
    mu = weights @ means
    cov = -np.outer(mu, mu)
    for wi, m, c in zip(weights, means, np.asarray(covariances, float)):
        full = np.diag(c) if c.ndim == 1 else c
        cov += wi * (full + np.outer(m, m))
    return mu, cov


def neighborhood_members(means, i: int, k: int) -> np.ndarray:
    """Record i, then its k nearest records by Euclidean distance on means,
    distance ties broken by ascending index: a full stable argsort of one
    row of distances."""
    d = np.linalg.norm(means - means[i], axis=1)
    d[i] = -1.0
    return np.argsort(d, kind="stable")[: k + 1]


def neighborhood_between_loop(dataset, k: int, q: float) -> np.ndarray:
    """Between heterogeneity of each record's neighborhood, one record at a
    time: the pooled volume of its single-ensemble pool over its within
    volume, each through its own closed form."""
    vals = np.empty(len(dataset))
    for i in range(len(dataset)):
        ens = dataset.ensemble(neighborhood_members(dataset.means, i, k))
        vals[i] = gaussian_renyi(gaussian_pool(ens).covariance, q) / gaussian_within(ens, q)
    return vals


def bmm_index_comparison_loop(thetas, q_list, u: float = 1.0) -> dict:
    """{"tau", "rrh", "fhn", "neqrqe", "lci"} as (theta, order) float arrays,
    NaN where a value is absent, filled one scalar at a time: each index
    called once per (theta, order) on that theta's prior vector and its own
    expected-distance matrix."""
    out = {name: np.full((len(thetas), len(q_list)), np.nan)
           for name in ("tau", "rrh", "fhn", "neqrqe", "lci")}
    for i, theta in enumerate(thetas):
        prior = np.array([1.0 - theta.theta1, theta.theta1])
        dist = betamix.expected_distance_matrix(theta)
        tau = betamix.optimal_threshold(theta)
        sim = classic.similarity_from_distance(dist, u, require_zero_diagonal=False)
        mass = betamix.assignment_mass(theta, tau)
        for j, q in enumerate(q_list):
            out["tau"][i, j] = tau
            out["rrh"][i, j] = renyi_heterogeneity(mass, q)
            out["fhn"][i, j] = classic.functional_hill(dist, prior, q,
                                                       require_zero_diagonal=False)
            out["lci"][i, j] = classic.leinster_cobbold(sim, prior, q,
                                                        require_unit_diagonal=False)
            if q == 2.0:
                try:
                    scaled = classic.rescale_distance(dist, require_zero_diagonal=False)
                    out["neqrqe"][i, j] = classic.neqrqe(scaled, prior,
                                                         require_zero_diagonal=False)
                except DegenerateDistanceError:
                    pass
    return out


def csv_text_per_row(rows) -> str:
    """The CSV text of ``rows`` (lists of str), each row through csv.writer
    with ``\\n`` line ends, fully quoted where a cell holds a ``\\r``."""
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if "\r" in "".join(row) else plain).writerow(row)
    return buf.getvalue()


def csv_table_loop(stream, what: str, text: tuple, prefixes: tuple) -> tuple:
    """(rows, numbers) of a CSV input file, one record at a time: csv.reader
    over the stream's lines after the leading ``#`` block, the header
    check, then a width check and ``float`` on each number cell of each
    record in turn, the first failure raising a ValidationError that names
    it (and its column)."""
    rows = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), stream))
    out, numbers = [], []
    try:
        header = next(rows, None)
        if header is None:
            raise ValidationError(f"{what} file is empty")
        n = sum(1 for h in header if h.startswith(prefixes[0]))
        if n < 1 or header != list(text) + [f"{p}{j}" for p in prefixes
                                            for j in range(1, n + 1)]:
            layout = ",".join([*text, *(f"{p}1..{p}n" for p in prefixes)])
            raise ValidationError(f"{what} header must be {layout}")
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise ValidationError(
                    f"{what} record {i}: expected {len(header)} fields, got {len(row)}")
            for name, v in zip(header[len(text):], row[len(text):]):
                try:
                    float(v)
                except ValueError:
                    raise ValidationError(f"{what} record {i}: {name} must be a number, "
                                          f"got {json.dumps(v)}") from None
            numbers.append([float(v) for v in row[len(text):]])
            out.append(row)
    except csv.Error as exc:
        raise ValidationError(f"{what} record {len(out)}: {exc}") from exc
    if not out:
        raise ValidationError(f"{what} file holds no records")
    return out, np.array(numbers, dtype=float)


def read_embeddings_loop(stream) -> EmbeddingDataset:
    """A CSV embedding file read through ``csv_table_loop``."""
    rows, numbers = csv_table_loop(stream, "embedding", ("id", "label"), ("m_", "s_"))
    nz = numbers.shape[1] // 2
    return EmbeddingDataset(ids=[row[0] for row in rows],
                            labels=[row[1] or None for row in rows],
                            means=numbers[:, :nz], log_var=numbers[:, nz:])


def read_assignments_loop(stream) -> tuple:
    """A CSV soft-assignment file read through ``csv_table_loop``:
    (ids, SubsystemEnsemble)."""
    rows, numbers = csv_table_loop(stream, "assignment", ("id",), ("p_",))
    try:
        ensemble = SubsystemEnsemble(table=numbers)
    except ValidationError as exc:
        raise ValidationError(f"assignment table rejected: {exc}") from exc
    return [row[0] for row in rows], ensemble


def gaussian_pooled_logdet_mp(means, covariances, weights=None, dps: int = 40):
    """log|Sigma*|, as an mpf at ``dps`` digits, of the moment-matched pool of
    Gaussians with float means ``(N, n)``, covariances ``(N, n)`` (diagonal
    entries) or ``(N, n, n)``, and weights ``(N,)`` (uniform when None). The
    input floats are taken exactly, the weights are normalised to sum to 1
    exactly, and Sigma* = sum_i w_i (Sigma_i + mu_i mu_i^T) - mu* mu*^T is
    formed at ``dps`` digits, where its cancellation costs none of the
    digits a float result can hold."""
    means = np.asarray(means, float)
    covs = np.asarray(covariances, float)
    if covs.shape == means.shape:
        covs = np.stack([np.diag(c) for c in covs])
    size, n = means.shape
    with mpmath.workdps(dps):
        w = ([mpmath.mpf(1)] * size if weights is None
             else [mpmath.mpf(float(x)) for x in weights])
        total = mpmath.fsum(w)
        w = [x / total for x in w]
        m = mpmath.matrix(means.tolist())
        mu = [mpmath.fsum(w[i] * m[i, j] for i in range(size)) for j in range(n)]
        pool = mpmath.matrix(n, n)
        for j in range(n):
            for l in range(n):
                pool[j, l] = mpmath.fsum(w[i] * (covs[i, j, l] + m[i, j] * m[i, l])
                                         for i in range(size)) - mu[j] * mu[l]
        return mpmath.log(mpmath.det(pool))


def gaussian_log_between_mp(means, variances, q: float, dps: int = 50):
    """log(pooled / within), as an mpf at ``dps`` digits, of the uniform-weight
    ensemble of diagonal Gaussians with float means and variances ``(N, n)``:
    the pool's log-determinant is `gaussian_pooled_logdet_mp`. The
    q-dependent factors of the two volumes cancel, leaving
    (n log 2pi + log|S|)/2 minus the order-q power mean of log|2 pi Sigma_i|/2."""
    with mpmath.workdps(dps):
        v = mpmath.matrix(np.asarray(variances, float).tolist())
        size, n = v.rows, v.cols
        log_2pi = mpmath.log(2 * mpmath.pi)
        half_log_dets = [(n * log_2pi + sum(mpmath.log(v[i, j]) for j in range(n))) / 2
                         for i in range(size)]
        if q == 1.0:
            log_within = sum(half_log_dets) / size
        else:
            qm = mpmath.mpf(q)
            log_within = mpmath.log(sum(mpmath.exp((1 - qm) * h) for h in half_log_dets)
                                    / size) / (1 - qm)
        log_det = gaussian_pooled_logdet_mp(means, variances, dps=dps)
        return (n * log_2pi + log_det) / 2 - log_within


# Orders around 1 for the q -> 1 continuity checks: one ulp either side of 1,
# held to the q = 1 value, and orders whose value a 50-digit mpmath
# evaluation of the plain power sum provides.
ULP_ORDERS = (1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52)
MP_ORDERS = (1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-3, 1.0 + 1e-3)
NEAR_ONE_REL = 1e-12


def assert_near_one(value_at, reference_at) -> None:
    """``value_at(q)`` within NEAR_ONE_REL of ``value_at(1)`` at ULP_ORDERS
    and of ``reference_at(q)`` at MP_ORDERS."""
    at_one = value_at(1.0)
    for q in ULP_ORDERS:
        got = value_at(q)
        assert math.isclose(got, at_one, rel_tol=NEAR_ONE_REL), (q, got, at_one)
    for q in MP_ORDERS:
        got, ref = value_at(q), reference_at(q)
        assert math.isclose(got, ref, rel_tol=NEAR_ONE_REL), (q, got, ref)


def _mp_distribution(p) -> list:
    """The float entries as mpf values, renormalized in mpmath: the
    distribution the float vector stands for. Left unnormalized, a sum that
    misses 1 by an ulp would move the reference by that ulp over |1 - q|."""
    p = [mpmath.mpf(float(x)) for x in np.ravel(p)]
    total = sum(p)
    return [x / total for x in p]


def _mp_hill(power_sum, q: float) -> float:
    """power_sum(q)^(1/(1-q)), with power_sum evaluated at 50 digits."""
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        return float(power_sum(qm) ** (1 / (1 - qm)))


def renyi_mp(p, q: float) -> float:
    """(sum_i p_i^q)^(1/(1-q))."""
    return _mp_hill(lambda qm: sum(x ** qm for x in _mp_distribution(p) if x > 0), q)


def within_mp(table, weights, q: float) -> float:
    """(sum_i w_i^q sum_j p_ij^q / sum_i w_i^q)^(1/(1-q)) over the rows with
    w_i > 0, each row renormalized."""
    def power_sum(qm):
        rows = [(mpmath.mpf(float(w)), _mp_distribution(r))
                for w, r in zip(weights, np.asarray(table, float)) if w > 0]
        num = sum(w ** qm * sum(x ** qm for x in r if x > 0) for w, r in rows)
        return num / sum(w ** qm for w, _ in rows)
    return _mp_hill(power_sum, q)


def gaussian_within_mp(weights, covariances, q: float) -> float:
    """[sum_i w_i^q q^(-n/2) |2 pi Sigma_i|^((1-q)/2) / sum_i w_i^q]^(1/(1-q))
    for full covariance matrices."""
    def power_sum(qm):
        num = den = 0
        for w, cov in zip(weights, covariances):
            w = mpmath.mpf(float(w))
            det = mpmath.det(2 * mpmath.pi * mpmath.matrix(np.asarray(cov).tolist()))
            num += w ** qm * qm ** (-mpmath.mpf(len(cov)) / 2) * det ** ((1 - qm) / 2)
            den += w ** qm
        return num / den
    return _mp_hill(power_sum, q)


def gaussian_within_inf_mp(weights, covariances):
    """max_i w_i / max_i (w_i p_i), p_i = |2 pi Sigma_i|^(-1/2), at 50 digits
    for full covariance matrices."""
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in weights]
        peaks = [mpmath.det(2 * mpmath.pi * mpmath.matrix(np.asarray(c).tolist())) ** -0.5
                 for c in covariances]
        return float(max(w) / max(x * p for x, p in zip(w, peaks)))


def leinster_cobbold_mp(s, p, q: float) -> float:
    """[sum_i p_i (Sp)_i^(q-1)]^(1/(1-q)) over the support of p."""
    def power_sum(qm):
        pm = _mp_distribution(p)
        sp = [sum(mpmath.mpf(float(x)) * y for x, y in zip(row, pm)) for row in s]
        return sum(x * y ** (qm - 1) for x, y in zip(pm, sp) if x > 0)
    return _mp_hill(power_sum, q)


def functional_hill_mp(d, p, q: float) -> float:
    """(Q_q / Q_1)^(1/(2(1-q))) with Q_q = sum_ij D_ij (p_i p_j)^q."""
    def power_sum(qm):
        pm = _mp_distribution(p)
        pairs = [(mpmath.mpf(float(d[i][j])), pm[i] * pm[j])
                 for i in range(len(pm)) for j in range(len(pm)) if pm[i] * pm[j] > 0]
        return sum(x * y ** qm for x, y in pairs) / sum(x * y for x, y in pairs)
    return _mp_hill(lambda qm: mpmath.sqrt(power_sum(qm)), q)


def tsallis_mp(p, q: float) -> float:
    """(1 - sum_i p_i^q) / (q - 1)."""
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        return float((1 - sum(x ** qm for x in _mp_distribution(p) if x > 0)) / (qm - 1))


def mld_mp(p) -> float:
    """Mean log deviation -mean_i log(n p_i): inf when some p_i is 0."""
    with mpmath.workdps(50):
        pm = _mp_distribution(p)
        n = len(pm)
        if min(pm) == 0:
            return math.inf
        return float(-sum(mpmath.log(n * x) for x in pm) / n)


def theil_mp(p) -> float:
    """Theil index sum_i p_i log(n p_i), a zero p_i adding nothing."""
    with mpmath.workdps(50):
        pm = _mp_distribution(p)
        n = len(pm)
        return float(sum(x * mpmath.log(n * x) for x in pm if x > 0))


def gei_mp(p, q: float) -> float:
    """Generalized entropy index (sum_i n^(q-1) p_i^q - 1) / (q (q - 1)),
    which is ((pi / n)^(1-q) - 1) / (q (q-1)) for the Renyi heterogeneity pi;
    its limits are `mld_mp` at q = 0 and `theil_mp` at q = 1."""
    if q == 0.0:
        return mld_mp(p)
    if q == 1.0:
        return theil_mp(p)
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        pm = _mp_distribution(p)
        n = len(pm)
        return float((sum(n ** (qm - 1) * x ** qm for x in pm if x > 0) - 1)
                     / (qm * (qm - 1)))
