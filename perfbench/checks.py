"""Independent references for the hetlab CLI outputs, and the checkers that
compare a CLI output file against them.

Nothing here imports hetlab: every reference is computed from the inputs
the benchmark generated, with numpy/scipy and the paper's formulas.

Tolerances
----------
The CLI prints every float with 12 significant digits, so a printed value
is off from the value the program computed by at most 5e-12 relative.

* ``ROUND_TOL = 1e-11`` compares values whose reference is exact: the
  generated inputs echoed back (grid keys, synth records regenerated with
  the same numpy generator). It is twice the 12-digit rounding.
* ``REL_TOL = 1e-9`` compares computed results. The references below each
  carry at most ``REF_ERR_MAX = 1e-11`` relative error; where that error
  depends on the input (quadrature, a root, conditioning of tau) it is
  estimated at run time and a reference that misses it raises
  ``InexactReference`` instead of checking with a loose number. 1e-9 is
  over 60 times the rounding plus the reference error (1.5e-11), and 1000
  times smaller than the 1e-6 shift the self-tests show each checker
  rejects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, optimize, special

ROUND_TOL = 1e-11
REL_TOL = 1e-9
REF_ERR_MAX = 1e-11
_LOG_2PI = math.log(2.0 * math.pi)
_METRIC_TOL = 1e-9  # the documented tolerance of the metric predicates


class InexactReference(RuntimeError):
    """A reference could not be computed to REF_ERR_MAX for these inputs."""


@dataclass(frozen=True)
class Op:
    """One checked unit of CLI output (a table row, or a whole synth file).

    ``known`` names a program fault that makes this op fail on every input;
    such a failure is counted but does not make the run incorrect."""

    key: str
    ok: bool
    message: str = ""
    known: Optional[str] = None


# --------------------------------------------------------------- parsing

def read_table(text: str):
    """Split CLI CSV output into (header, rows), past the leading
    ``# key=value`` metadata lines."""
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        i += 1
    rows = list(csv.reader(lines[i:]))
    return (rows[0], rows[1:]) if rows else ([], [])


def _close(cell: str, want, tol: float) -> bool:
    """True when a printed cell matches the reference value within tol
    relative (exactly for None, text, booleans, zero and infinities)."""
    if want is None:
        return cell == ""
    if isinstance(want, str):
        return cell == want
    if isinstance(want, bool):
        return cell == ("true" if want else "false")
    try:
        got = float(cell)
    except ValueError:
        return False
    if math.isinf(want) or want == 0.0:
        return got == want
    return abs(got - want) <= tol * abs(want)


def _compare_rows(rows, expected, key_cols: int, prefix: str, known=None):
    """Positional comparison of parsed rows against expected tuples.

    The first ``key_cols`` cells are inputs echoed back (ROUND_TOL); the
    rest are results (REL_TOL). One Op per expected row; a missing row
    fails. ``known(expected_row, bad_cells)`` may name the fault that
    explains a row's mismatch."""
    ops = []
    for i, want in enumerate(expected):
        key = f"{prefix}[{i}]"
        if i >= len(rows):
            ops.append(Op(key, False, "row missing"))
            continue
        got = rows[i]
        if len(got) != len(want):
            ops.append(Op(key, False, f"{len(got)} cells, want {len(want)}"))
            continue
        bad = [j for j, (c, w) in enumerate(zip(got, want))
               if not _close(c, w, ROUND_TOL if j < key_cols else REL_TOL)]
        if not bad:
            ops.append(Op(key, True))
            continue
        ops.append(Op(key, False, f"cells {bad}: got {[got[j] for j in bad]}, "
                                  f"want {[want[j] for j in bad]}",
                      known(want, bad) if known else None))
    return ops


def _whole_output(ops, rows, expected, header, want_header):
    """Fail every op of a command whose header is wrong or that printed
    rows nobody asked for."""
    if header != list(want_header):
        return [Op(o.key, False, f"header {header}", o.known) for o in ops]
    if len(rows) > len(expected):
        return [Op(o.key, False, f"{len(rows)} rows, want {len(expected)}", o.known)
                for o in ops]
    return ops


# ---------------------------------------------------- categorical Renyi

def renyi(p, q: float) -> float:
    """Renyi heterogeneity of one distribution, written from its definition."""
    p = np.asarray(p, dtype=float)
    pos = p[p > 0.0]
    if q == 0.0:
        return float(pos.size)
    if math.isinf(q):
        return float(1.0 / pos.max())
    if q == 1.0:
        return float(math.exp(-np.sum(pos * np.log(pos))))
    return float(np.sum(pos ** q) ** (1.0 / (1.0 - q)))


# ------------------------------------------------------- assign-rrh

def rrh_reference(table: np.ndarray, q_list):
    """Whole-table pooled/within/between with uniform weights. The q=inf
    within term is the exact limit max_i w_i / max_ij (w_i p_ij), which
    for uniform weights is 1 / max_ij p_ij."""
    pooled_p = table.mean(axis=0)
    out = []
    for q in q_list:
        pooled = renyi(pooled_p, q)
        if q == 0.0:
            within = float(np.count_nonzero(table > 0.0, axis=1).mean())
        elif q == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                plogp = np.where(table > 0.0, table * np.log(table), 0.0)
            within = math.exp(float(np.mean(-plogp.sum(axis=1))))
        elif math.isinf(q):
            within = float(1.0 / table.max())
        else:
            within = float(np.mean((table ** q).sum(axis=1)) ** (1.0 / (1.0 - q)))
        out.append((q, pooled, within, pooled / within, False))
    return out


WITHIN_INF_FAULT = ("decomposition.within_heterogeneity evaluates q=inf at the "
                    "stand-in order _WITHIN_INF_ORDER=1e6, not the exact limit")


def check_rrh(text: str, expected):
    header, rows = read_table(text)
    def known(row, bad):
        # only the q=inf row, and only its within and between cells
        return WITHIN_INF_FAULT if math.isinf(row[0]) and set(bad) <= {2, 3} else None
    ops = _compare_rows(rows, expected, 1, "rrh", known)
    return _whole_output(ops, rows, expected, header,
                         ("q", "pooled", "within", "between", "lande_warning"))


# ------------------------------------------------- Gaussian embeddings

def _gaussian_log_renyi(logdet: np.ndarray, n: int, q: float) -> np.ndarray:
    """log of the Renyi heterogeneity of N(.,Sigma) given log|Sigma|."""
    base = 0.5 * (n * _LOG_2PI + logdet)
    if q == 1.0:
        return base + 0.5 * n
    if math.isinf(q):
        return base
    return base + n * math.log(q) / (2.0 * (q - 1.0))


def _pool_logdet(means: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """log|Sigma*| of the moment-matched pool of uniform-weight diagonal
    Gaussians; means/logvar are (..., members, n). The spread term is
    formed from centred means, so no large cancellation enters."""
    centred = means - means.mean(axis=-2, keepdims=True)
    cov = np.einsum("...ki,...kj->...ij", centred, centred) / means.shape[-2]
    idx = np.arange(means.shape[-1])
    cov[..., idx, idx] += np.exp(logvar).mean(axis=-2)
    sign, logdet = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise InexactReference("pooled covariance is not positive definite")
    return logdet


def _within_log(logvar: np.ndarray, q: float) -> np.ndarray:
    """log within-heterogeneity of uniform-weight diagonal Gaussians;
    logvar is (..., members, n)."""
    n = logvar.shape[-1]
    ld2pi = n * _LOG_2PI + logvar.sum(axis=-1)  # log|2 pi Sigma_i|
    if q == 1.0:
        return 0.5 * (n + ld2pi.mean(axis=-1))
    terms = 0.5 * (1.0 - q) * ld2pi
    log_mean = special.logsumexp(terms, axis=-1) - math.log(ld2pi.shape[-1])
    return (log_mean - 0.5 * n * math.log(q)) / (1.0 - q)


def decompose_reference(labels, means, logvar, q_list):
    """Rows (label, n, q, pooled, within, between, singleton) per label in
    sorted label order, as `embeddings decompose` reports them."""
    out = []
    n = means.shape[1]
    for lab in sorted(set(labels)):
        sel = np.array([x == lab for x in labels])
        pool_ld = _pool_logdet(means[sel], logvar[sel])
        for q in q_list:
            pooled = math.exp(_gaussian_log_renyi(pool_ld, n, q))
            within = math.exp(_within_log(logvar[sel], q))
            out.append((lab, int(sel.sum()), q, pooled, within, pooled / within, False))
    return out


def check_decompose(text: str, expected):
    header, rows = read_table(text)
    ops = _compare_rows(rows, expected, 3, "decompose")
    ops = [_check_identities(o, rows[i], expected[i][2])
           if i < len(rows) and o.ok else o for i, o in enumerate(ops)]
    return _whole_output(ops, rows, expected, header,
                         ("label", "n", "q", "pooled", "within", "between",
                          "singleton"))


def _check_identities(op: Op, row, q: float) -> Op:
    """pooled = within * between on the printed numbers (each rounded by at
    most 5e-12, so the product is off by at most ~1.5e-11) and
    between >= 1 at q = 1 (the moment-matched pool maximises entropy)."""
    pooled, within, between = (float(c) for c in row[3:6])
    if abs(pooled - within * between) > 3 * ROUND_TOL * abs(pooled):
        return Op(op.key, False, "pooled != within * between", op.known)
    if q == 1.0 and between < 1.0 - ROUND_TOL:
        return Op(op.key, False, f"between {between} < 1 at q=1", op.known)
    return op


def neighborhood_reference(means: np.ndarray, logvar: np.ndarray, k: int, q: float):
    """Between heterogeneity of every record's neighbourhood: the record
    itself, then its k nearest records by Euclidean distance on the means,
    ties broken by ascending index. Brute force over all pairs."""
    n_rec, n = means.shape
    dist = np.sqrt(((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(dist, -1.0)
    index = np.broadcast_to(np.arange(n_rec), dist.shape)
    order = np.lexsort((index, dist), axis=-1)
    ranked = np.take_along_axis(dist, order, axis=-1)
    gap = ranked[:, k + 1] - ranked[:, k]
    if np.any(gap <= 1e-12 * ranked[:, k + 1]):
        raise InexactReference("a k-th and (k+1)-th neighbour tie within rounding")
    members = order[:, : k + 1]
    pool_ld = _pool_logdet(means[members], logvar[members])
    log_between = _gaussian_log_renyi(pool_ld, n, q) - _within_log(logvar[members], q)
    return np.exp(log_between)


def check_neighborhoods(text: str, ids, labels, between: np.ndarray, top: int, q: float):
    """Each reported row must name a record whose reference value matches
    the printed one, and that value must be the rank-th largest (high) or
    smallest (low) reference value. Near-equal values may swap places;
    a swap of distinct values, a wrong id or a wrong value fails."""
    header, rows = read_table(text)
    ranked = np.sort(between)
    position = {rid: i for i, rid in enumerate(ids)}
    expected = ([("high", r, float(ranked[-r])) for r in range(1, top + 1)]
                + [("low", r, float(ranked[r - 1])) for r in range(1, top + 1)])
    ops = []
    seen = set()
    for i, (kind, rank, value) in enumerate(expected):
        key = f"neighborhoods[{kind}{rank}]"
        if i >= len(rows):
            ops.append(Op(key, False, "row missing"))
            continue
        row = rows[i]
        if len(row) != 5 or row[0] != kind or row[1] != str(rank):
            ops.append(Op(key, False, f"row {row}"))
            continue
        rid = row[2]
        j = position.get(rid)
        problems = []
        if j is None or (kind, rid) in seen:
            problems.append(f"id {rid!r} unknown or repeated")
        else:
            seen.add((kind, rid))
            if row[3] != (labels[j] or ""):
                problems.append(f"label {row[3]!r}")
            if not _close(row[4], float(between[j]), REL_TOL):
                problems.append(f"value {row[4]} but record {rid} has {between[j]!r}")
        if not _close(row[4], value, REL_TOL):
            problems.append(f"value {row[4]} is not the rank-{rank} value {value!r}")
        elif q == 1.0 and float(row[4]) < 1.0 - ROUND_TOL:
            problems.append("between < 1 at q=1")
        ops.append(Op(key, not problems, "; ".join(problems)))
    return _whole_output(ops, rows, expected, header,
                         ("kind", "rank", "id", "label", "between"))


def synth_reference(n_labels, per_label, nz, seed, separation, spread,
                    log_var_range, contract_label, contract_factor):
    """The records `embeddings synth` documents: label centres are
    standard-normal draws times ``separation``, each point adds
    ``spread``-scaled noise (divided by ``contract_factor`` for the
    contracted label), log-variances are uniform on ``log_var_range``;
    drawn in that order from numpy's default generator seeded with seed."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_labels, nz)) * separation
    rows = []
    for lab in range(n_labels):
        scale = spread / contract_factor if lab == contract_label else spread
        means = centers[lab] + rng.standard_normal((per_label, nz)) * scale
        logvars = rng.uniform(*log_var_range, size=(per_label, nz))
        for j in range(per_label):
            rows.append((f"{lab}-{j}", str(lab), *means[j], *logvars[j]))
    return rows


def check_synth(text: str, expected_rows, nz: int):
    """One op for the whole written file."""
    rows = list(csv.reader(text.splitlines()))
    want_header = (["id", "label"] + [f"m_{j + 1}" for j in range(nz)]
                   + [f"s_{j + 1}" for j in range(nz)])
    if not rows or rows[0] != want_header:
        return [Op("synth", False, "header")]
    body = rows[1:]
    if len(body) != len(expected_rows):
        return [Op("synth", False, f"{len(body)} records, want {len(expected_rows)}")]
    for i, (got, want) in enumerate(zip(body, expected_rows)):
        if (len(got) != len(want) or got[:2] != list(want[:2])
                or not all(_close(c, w, ROUND_TOL) for c, w in zip(got[2:], want[2:]))):
            return [Op("synth", False, f"record {i}: {got}")]
    return [Op("synth", True)]


# ------------------------------------------------------------- sweeps

def beta_abs_distance_ref(a1, b1, a2, b2) -> float:
    """E|X - Y| for independent X ~ Beta(a1, b1), Y ~ Beta(a2, b2), by
    adaptive quadrature of E|X-Y| = int_0^1 F_X (1 - F_Y) + F_Y (1 - F_X)."""
    def integrand(t):
        fx = special.betainc(a1, b1, t)
        fy = special.betainc(a2, b2, t)
        return fx * special.betaincc(a2, b2, t) + fy * special.betaincc(a1, b1, t)
    value, abserr = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-16,
                                   epsrel=1e-13, limit=400)
    if abserr > REF_ERR_MAX * value:
        raise InexactReference(f"quadrature error {abserr:.2g} for E|X-Y| = {value}")
    return value


def distance_matrix_ref(theta2: float, theta3: float) -> np.ndarray:
    d11 = beta_abs_distance_ref(theta2, theta3, theta2, theta3)
    d12 = beta_abs_distance_ref(theta2, theta3, theta3, theta2)
    d22 = beta_abs_distance_ref(theta3, theta2, theta3, theta2)
    return np.array([[d11, d12], [d12, d22]])


def optimal_tau_ref(theta1: float, theta2: float, theta3: float) -> float:
    """Root in (0, 1) of log[(1-theta1) f1(x)] - log[theta1 f2(x)], with
    f1 = Beta(theta2, theta3) and f2 = Beta(theta3, theta2) densities."""
    if theta2 == theta3:
        return 0.0 if theta1 > 0.5 else 1.0

    def ratio(x):
        return (math.log1p(-theta1) - math.log(theta1)
                + (theta2 - theta3) * (math.log(x) - math.log1p(-x)))
    return optimize.brentq(ratio, 1e-300, 1.0 - 2 ** -53, xtol=1e-300,
                           rtol=4 * np.finfo(float).eps, maxiter=2000)


def _masses(theta1, theta2, theta3, tau):
    """Expected hard-assignment masses below and above tau."""
    lower = (1 - theta1) * special.betainc(theta2, theta3, tau) \
        + theta1 * special.betainc(theta3, theta2, tau)
    upper = (1 - theta1) * special.betaincc(theta2, theta3, tau) \
        + theta1 * special.betaincc(theta3, theta2, tau)
    return np.array([lower, upper])


def rrh_at_tau(theta1, theta2, theta3, tau, q) -> float:
    return renyi(_masses(theta1, theta2, theta3, tau), q)


def functional_hill_ref(dist, p, q):
    """(Q_q / Q_1)^(1 / (2 (1 - q))), Q_q = sum_ij D_ij (p_i p_j)^q, with
    the q = 1 limit exp(-sum D_ij p_i p_j log(p_i p_j) / (2 Q_1))."""
    if math.isinf(q):
        return None
    pp = np.outer(p, p)
    q1 = float(np.sum(dist * pp))
    if q == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(pp > 0.0, pp * np.log(pp), 0.0)
        return math.exp(-float(np.sum(dist * plogp)) / (2.0 * q1))
    return (float(np.sum(dist * pp ** q)) / q1) ** (1.0 / (2.0 * (1.0 - q)))


def leinster_cobbold_ref(sim, p, q):
    """[sum_i p_i (Z p)_i^(q-1)]^(1/(1-q)) over the support of p."""
    zp = sim @ p
    on = p > 0.0
    if math.isinf(q):
        return float(1.0 / zp[on].max())
    if q == 1.0:
        return math.exp(-float(np.sum(p[on] * np.log(zp[on]))))
    return float(np.sum(p[on] * zp[on] ** (q - 1.0))) ** (1.0 / (1.0 - q))


def neqrqe_ref(dist, p):
    """1 / (1 - Q_1) on D rescaled affinely onto [0, 1]."""
    scaled = (dist - dist.min()) / (dist.max() - dist.min())
    return 1.0 / (1.0 - float(p @ scaled @ p))


def bmm_optimal_reference(theta1_list, theta2, theta3, q_list, u):
    dist = distance_matrix_ref(theta2, theta3)
    rows = []
    for t1 in theta1_list:
        tau = optimal_tau_ref(t1, theta2, theta3)
        prior = np.array([1.0 - t1, t1])
        for q in q_list:
            rrh = rrh_at_tau(t1, theta2, theta3, tau, q)
            # tau is known to a few ulps; the rrh it implies must not move
            # by more than the reference error budget across them.
            eps = 4 * np.finfo(float).eps * max(tau, 1e-300)
            spread = abs(rrh_at_tau(t1, theta2, theta3, min(tau + eps, 1.0), q)
                         - rrh_at_tau(t1, theta2, theta3, max(tau - eps, 0.0), q))
            if spread > REF_ERR_MAX * rrh:
                raise InexactReference(f"rrh is ill-conditioned in tau at theta1={t1}")
            rows.append((t1, theta2, theta3, q, u, tau, rrh,
                         functional_hill_ref(dist, prior, q),
                         neqrqe_ref(dist, prior) if q == 2.0 else None,
                         leinster_cobbold_ref(np.exp(-u * dist), prior, q)))
    return rows


def check_bmm_optimal(text, expected):
    header, rows = read_table(text)
    ops = _compare_rows(rows, expected, 5, "bmm-optimal")
    return _whole_output(ops, rows, expected, header,
                         ("theta1", "theta2", "theta3", "q", "u", "tau", "rrh", "fhn",
                          "neqrqe", "lci"))


def bmm_grid_reference(theta1, theta2, theta3, taus, q_list):
    masses = [_masses(theta1, theta2, theta3, tau) for tau in taus]
    return [(theta1, theta2, theta3, tau, q, renyi(m, q))
            for tau, m in zip(taus, masses) for q in q_list]


def check_bmm_grid(text, expected):
    header, rows = read_table(text)
    ops = _compare_rows(rows, expected, 5, "bmm-grid")
    return _whole_output(ops, rows, expected, header,
                         ("theta1", "theta2", "theta3", "tau", "q", "rrh"))


def three_state_probs_ref(kappa: float) -> np.ndarray:
    """p = (1, sqrt(kappa), kappa) / (1 + sqrt(kappa) + kappa)."""
    root = math.sqrt(kappa)
    return np.array([1.0, root, kappa]) / (1.0 + root + kappa)


def _triangle_predicates(dist):
    """(metric, ultrametric) by checking every ordered triple."""
    n = len(dist)
    off = [dist[i][j] for i in range(n) for j in range(n) if i != j]
    metric = all(d > _METRIC_TOL for d in off) and all(
        dist[x][z] <= dist[x][y] + dist[y][z] + _METRIC_TOL
        for x in range(n) for y in range(n) for z in range(n))
    ultra = metric and all(
        dist[x][z] <= max(dist[x][y], dist[y][z]) + _METRIC_TOL
        for x in range(n) for y in range(n) for z in range(n))
    return metric, ultra


def three_state_reference(hs, b, kappas, q_list, u_list):
    rows = []
    for h in hs:
        leg = math.sqrt(b * b / 4.0 + h * h)
        dist = np.array([[0.0, b, leg], [b, 0.0, leg], [leg, leg, 0.0]])
        if abs(leg - b) <= 1e-6:
            raise InexactReference(f"h={h} sits on the ultrametric boundary")
        metric, ultra = _triangle_predicates(dist.tolist())
        for kappa in kappas:
            p = three_state_probs_ref(kappa)
            qe = 1.0 / (1.0 - float(p @ (dist / dist.max()) @ p))
            for q in q_list:
                fhn = functional_hill_ref(dist, p, q)
                for u in u_list:
                    lci = leinster_cobbold_ref(np.exp(-u * dist), p, q)
                    rows.append((h, b, kappa, q, u, qe, fhn, lci, renyi(p, q),
                                 metric, ultra))
    return rows


def check_three_state(text, expected):
    header, rows = read_table(text)
    ops = _compare_rows(rows, expected, 5, "three-state")
    return _whole_output(ops, rows, expected, header,
                         ("h", "b", "kappa", "q", "u", "qe", "fhn", "lci", "rrh",
                          "metric", "ultrametric"))
