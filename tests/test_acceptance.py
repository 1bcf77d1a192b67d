"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ``[ACCEPTANCE] criterion N ... PASS/FAIL`` line
(visible even under pytest capture) and enforces both the numerical
tolerance and the runtime budget stated in its docstring.
"""

import itertools
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from hetlab import cli
from hetlab.betamix import (
    BetaMixtureParams,
    beta_abs_distance,
    bmm_index_comparison,
    optimal_threshold,
)
from hetlab.classic import (
    functional_hill,
    is_ultrametric,
    leinster_cobbold,
    neqrqe,
    rescale_distance,
    similarity_from_distance,
    three_state_distance,
    three_state_probs,
)
from hetlab.core import renyi_heterogeneity
from hetlab.datasets import (
    group_decomposition,
    neighborhood_between,
    synth_embeddings,
)
from hetlab.decomposition import SubsystemEnsemble, decompose
from hetlab.gaussian import gaussian_renyi
from hetlab.special import BetaShape

from oracles import (
    MP_ORDERS,
    NEAR_ONE_REL,
    ULP_ORDERS,
    beta_abs_distance_dblquad,
    beta_abs_distance_quad,
    bmm_threshold_bisect,
    gaussian_renyi_quad,
    random_pd_cov,
    renyi_mp,
)

_APEX = math.sqrt(3.0) / 2.0


def _report(capsys, number, title, checks, elapsed, budget):
    """Print the single acceptance line and fail on any violated check."""
    ok = all(passed for _, passed in checks) and elapsed < budget
    with capsys.disabled():
        print(f"[ACCEPTANCE] criterion {number} ({title}): "
              f"{'PASS' if ok else 'FAIL'}  [{elapsed:.1f}s / budget {budget:.0f}s]")
    failed = [name for name, passed in checks if not passed]
    assert not failed, f"criterion {number} failed checks: {failed}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_gaussian_closed_form(capsys):
    """Closed-form Gaussian heterogeneity vs numeric quadrature of the
    density-power integral: 50 random PD covariances, n in {1,2},
    q in {0.5,1,2,5,inf}, 1e-6 relative; < 1 min."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        n = 1 + (i % 2)
        cov = random_pd_cov(rng, n)
        for q in (0.5, 1.0, 2.0, 5.0, math.inf):
            ours = gaussian_renyi(cov, q)
            ref = gaussian_renyi_quad(cov, q)
            worst = max(worst, abs(ours - ref) / abs(ref))
    _report(capsys, 1, "Gaussian closed form vs quadrature",
            [(f"worst rel err {worst:.3g} <= 1e-6", worst <= 1e-6)],
            time.time() - t0, 60.0)


def test_criterion_2_beta_distance_closed_form(capsys):
    """Closed-form expected absolute distance between beta variables vs
    adaptive quadrature over the shape grid {0.5,1,2,5,20}^2 paired both
    ways, 1e-6 absolute; < 2 min. The grid oracle reduces the double
    integral exactly to a 1-D adaptive quadrature of the CDF identity
    E|X-Y| = int F_X(1-F_Y) + F_Y(1-F_X); it is anchored against direct
    2-D adaptive quadrature on a subset."""
    t0 = time.time()
    vals = (0.5, 1.0, 2.0, 5.0, 20.0)
    shapes = list(itertools.product(vals, vals))
    worst = 0.0
    for a1, b1 in shapes:
        for a2, b2 in shapes:
            ours = beta_abs_distance(BetaShape(a1, b1), BetaShape(a2, b2))
            ref = beta_abs_distance_quad(a1, b1, a2, b2)
            worst = max(worst, abs(ours - ref))
    worst_2d = 0.0
    for a1, b1, a2, b2 in [(0.5, 0.5, 20.0, 20.0), (1.0, 2.0, 5.0, 0.5),
                           (5.0, 20.0, 20.0, 5.0), (2.0, 2.0, 2.0, 2.0),
                           (20.0, 0.5, 0.5, 20.0)]:
        ours = beta_abs_distance(BetaShape(a1, b1), BetaShape(a2, b2))
        worst_2d = max(worst_2d, abs(ours - beta_abs_distance_dblquad(a1, b1, a2, b2)))
    _report(capsys, 2, "beta |X-Y| closed form vs quadrature",
            [(f"grid worst abs err {worst:.3g} <= 1e-6", worst <= 1e-6),
             (f"2-D anchor worst abs err {worst_2d:.3g} <= 1e-6", worst_2d <= 1e-6)],
            time.time() - t0, 120.0)


def test_criterion_3_bmm_index_comparison(capsys):
    """Beta-mixture index comparison at theta2=5, theta3=20 over the
    default theta1 grid 0.5..0.95 step 0.05: the between-RRH peaks at
    exactly 2 for the even prior and strictly decreases with skew; the
    functional Hill number paradoxically rises above 2 over the skew range
    (non-decreasing through theta1=0.85, its analytic peak near 0.87,
    before returning toward 1); the Leinster-Cobbold index stays below 2
    at u=1; overlapping components give between-RRH 1 everywhere; < 1 min."""
    t0 = time.time()
    grid = [0.5 + 0.05 * i for i in range(10)]
    columns = bmm_index_comparison(BetaMixtureParams(np.array(grid), 5.0, 20.0), [1.0], 1.0)
    rrh, fhn, lci = (columns[name][:, 0].tolist() for name in ("rrh", "fhn", "lci"))
    rising = [f for t1, f in zip(grid, fhn) if t1 <= 0.85 + 1e-12]

    overlap = bmm_index_comparison(BetaMixtureParams(np.array(grid), 5.0, 5.0), [1.0, 2.0], 1.0)
    overlap_ok = bool(np.all(np.abs(overlap["rrh"] - 1.0) <= 1e-9))

    checks = [
        ("rrh(0.5) == 2 within 1e-9", abs(rrh[0] - 2.0) <= 1e-9),
        ("rrh strictly decreasing in theta1",
         all(b < a for a, b in zip(rrh, rrh[1:]))),
        ("fhn non-decreasing through theta1=0.85",
         all(b >= a - 1e-9 for a, b in zip(rising, rising[1:]))),
        ("fhn paradoxically exceeds its even-prior value 2",
         max(fhn) > 2.0),
        ("lci < 2 everywhere at u=1", all(v < 2.0 for v in lci)),
        ("theta2=theta3 gives rrh == 1 for q in {1,2}", overlap_ok),
    ]
    _report(capsys, 3, "beta-mixture qualitative comparison", checks,
            time.time() - t0, 60.0)


def test_criterion_4_three_state_distance_sweep(capsys):
    """3-state triangle sweep with base 1 over heights 0.1..3.0 step 0.1:
    the quadratic-entropy index rises until the apex height sqrt(3)/2
    (equilateral point) and falls beyond it; the functional Hill number at
    even probabilities is exactly 3 for every height; at skew kappa=10 some
    height below the equilateral point pushes it above 3; the matrix is
    ultrametric exactly for heights >= sqrt(3)/2; < 30 s."""
    t0 = time.time()
    hs = [round(0.1 * i, 10) for i in range(1, 31)]
    p_even = three_state_probs(1.0)
    p_skew = three_state_probs(10.0)

    def qe_at(h):
        return neqrqe(rescale_distance(three_state_distance(h, 1.0)), p_even)

    qes = [qe_at(h) for h in hs]
    before = [q for h, q in zip(hs, qes) if h <= _APEX] + [qe_at(_APEX)]
    after = [qe_at(_APEX)] + [q for h, q in zip(hs, qes) if h > _APEX]
    fhn_even = [functional_hill(three_state_distance(h, 1.0), p_even, 1.0)
                for h in hs]
    fhn_skew = [(h, functional_hill(three_state_distance(h, 1.0), p_skew, 1.0))
                for h in hs]
    ultra = [(h, is_ultrametric(three_state_distance(h, 1.0))) for h in hs]

    checks = [
        ("qe increasing up to sqrt(3)/2",
         all(b > a for a, b in zip(before, before[1:]))),
        ("qe decreasing after sqrt(3)/2",
         all(b < a for a, b in zip(after, after[1:]))),
        ("fhn == 3 within 1e-9 at even probabilities for all h",
         all(abs(v - 3.0) <= 1e-9 for v in fhn_even)),
        ("exists h < sqrt(3)/2 with fhn > 3 at kappa=10",
         any(h < _APEX and v > 3.0 for h, v in fhn_skew)),
        ("ultrametric iff h >= sqrt(3)/2 - 1e-9",
         all(u == (h >= _APEX - 1e-9) for h, u in ultra)),
    ]
    _report(capsys, 4, "3-state distance sweep", checks, time.time() - t0, 30.0)


def test_criterion_5_similarity_scaling_sweep(capsys):
    """Leinster-Cobbold index on the unit triangle (h=b=1) under
    exponential similarity with scaling u in {0,0.5,...,10} and skew
    kappa in {1,10,100}: non-decreasing in u, exactly 1 at u=0, and still
    below the 3-state maximum at u=10; < 30 s."""
    t0 = time.time()
    dist = three_state_distance(1.0, 1.0)
    checks = []
    for kappa in (1.0, 10.0, 100.0):
        p = three_state_probs(kappa)
        us = [0.5 * i for i in range(21)]
        vals = [leinster_cobbold(similarity_from_distance(dist, u), p, 1.0)
                for u in us]
        checks.append((f"kappa={kappa:g}: lci(u=0) == 1",
                       abs(vals[0] - 1.0) <= 1e-12))
        checks.append((f"kappa={kappa:g}: lci non-decreasing in u",
                       all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))))
        checks.append((f"kappa={kappa:g}: lci(u=10) < 3", vals[-1] < 3.0))
    _report(capsys, 5, "similarity scaling sweep", checks, time.time() - t0, 30.0)


def test_criterion_6_property_suites(capsys):
    """Six randomized property suites, >= 1000 instances each: replication
    principle, principle of transfers, q-monotonicity, q->1 continuity,
    the decomposition identity pooled = within * between, and the
    equal-weight within <= pooled bound; < 2 min."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    n_inst = 1000
    q_pool = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]

    replication = True
    for _ in range(n_inst):
        base = rng.dirichlet(np.ones(rng.integers(2, 7)))
        r = int(rng.integers(2, 5))
        rep = np.concatenate([base / r] * r)
        q = q_pool[rng.integers(len(q_pool))]
        replication &= math.isclose(renyi_heterogeneity(rep, q),
                                    r * renyi_heterogeneity(base, q),
                                    rel_tol=1e-9)

    transfers = True
    for _ in range(n_inst):
        p = rng.dirichlet(np.ones(rng.integers(3, 8)))
        i, j = int(np.argmax(p)), int(np.argmin(p))
        delta = 0.25 * (p[i] - p[j])
        if delta <= 1e-6:
            continue
        p2 = p.copy()
        p2[i] -= delta
        p2[j] += delta
        q = [0.5, 1.0, 2.0, 5.0][rng.integers(4)]
        transfers &= renyi_heterogeneity(p2, q) > renyi_heterogeneity(p, q)

    monotone = True
    for _ in range(n_inst):
        p = rng.dirichlet(np.ones(rng.integers(2, 9)))
        vals = [renyi_heterogeneity(p, q) for q in q_pool]
        monotone &= all(lo <= hi * (1 + 1e-9) for hi, lo in zip(vals, vals[1:]))

    continuity = True
    for _ in range(n_inst):
        p = rng.dirichlet(np.ones(rng.integers(2, 9)))
        at_one = renyi_heterogeneity(p, 1.0)
        for eps in (1e-6, -1e-6):
            near = renyi_heterogeneity(p, 1.0 + eps)
            continuity &= abs(near - at_one) <= 1e-4 * at_one
        for q in ULP_ORDERS:
            continuity &= math.isclose(renyi_heterogeneity(p, q), at_one,
                                       rel_tol=NEAR_ONE_REL)
        for q in MP_ORDERS:
            continuity &= math.isclose(renyi_heterogeneity(p, q), renyi_mp(p, q),
                                       rel_tol=NEAR_ONE_REL)

    identity = True
    lande = True
    for _ in range(n_inst):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 6))
        table = rng.dirichlet(np.ones(cols), size=rows)
        w = rng.dirichlet(np.ones(rows))
        q = [0.0, 0.5, 1.0, 2.0, 7.0][rng.integers(5)]
        res = decompose(SubsystemEnsemble(table=table, weights=w), [q])
        identity &= math.isclose(res["pooled"][0], res["within"][0] * res["between"][0],
                                 rel_tol=1e-9)
        res_eq = decompose(SubsystemEnsemble(table=table), [q])
        lande &= res_eq["between"][0] >= 1.0 - 1e-9

    checks = [
        ("replication principle (1000x)", replication),
        ("principle of transfers (1000x)", transfers),
        ("q-monotonicity (1000x)", monotone),
        ("q->1 continuity (1000x)", continuity),
        ("pooled = within * between (1000x)", identity),
        ("equal-weight within <= pooled (1000x)", lande),
    ]
    _report(capsys, 6, "randomized property suites", checks, time.time() - t0, 120.0)


def test_criterion_7_threshold_identity(capsys):
    """Analytic posterior-equality threshold vs independent bisection:
    1e-10 agreement over a 100-point parameter grid excluding nearly equal
    shape parameters; < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(4242)
    worst = 0.0
    count = 0
    while count < 100:
        t1 = float(rng.uniform(0.05, 0.95))
        t2 = float(math.exp(rng.uniform(-1.0, 3.5)))
        t3 = float(math.exp(rng.uniform(-1.0, 3.5)))
        if abs(t2 - t3) < 1e-6:
            continue
        ours = optimal_threshold(BetaMixtureParams(t1, t2, t3))
        ref = bmm_threshold_bisect(t1, t2, t3)
        worst = max(worst, abs(ours - ref))
        count += 1
    _report(capsys, 7, "mixture threshold identity",
            [(f"worst abs err {worst:.3g} <= 1e-10", worst <= 1e-10)],
            time.time() - t0, 10.0)


def test_criterion_8_embedding_contrast(capsys):
    """Synthetic embedding study standing in for the image-model analysis:
    10 labels x 500 points in 2 latent dimensions with one label's cluster
    contracted 10x. The per-label decomposition must report the contracted
    label with the strictly smallest between-observation heterogeneity at
    q in {1,2}, and per-record 50-member neighborhoods must span between
    values from <= 1.5 up to >= 0.8 * 50; < 2 min."""
    t0 = time.time()
    k = 49
    contracted = 3
    ds = synth_embeddings(10, 500, 2, seed=0, separation=10.0, spread=1.0,
                          log_var_range=(-7.0, -6.4),
                          contract_label=contracted, contract_factor=10.0)
    cols = group_decomposition(ds, [1.0, 2.0]).columns
    smallest_ok = True
    for q in (1.0, 2.0):
        by_label = {label: between for label, q_row, between
                    in zip(cols["label"], cols["q"], cols["between"]) if q_row == q}
        target = by_label.pop(str(contracted))
        smallest_ok &= all(target < v for v in by_label.values())
    vals = neighborhood_between(ds, k, 1.0)
    checks = [
        ("contracted label has strictly smallest between at q in {1,2}",
         smallest_ok),
        (f"neighborhood min {vals.min():.3g} <= 1.5", vals.min() <= 1.5),
        (f"neighborhood max {vals.max():.3g} >= {0.8 * (k + 1):g}",
         vals.max() >= 0.8 * (k + 1)),
    ]
    _report(capsys, 8, "embedding contraction contrast", checks,
            time.time() - t0, 120.0)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    """Every CLI command run twice with identical inputs and seeds yields
    byte-identical output files, in both CSV and JSON."""
    t0 = time.time()
    runner = CliRunner()
    emb = tmp_path / "emb.csv"
    assign = tmp_path / "assign.csv"
    assign.write_text("id,p_1,p_2\na,0.5,0.5\nb,0.9,0.1\nc,0.2,0.8\n")
    synth_cmd = ["embeddings", "synth", "--labels", "3", "--per-label", "20",
                 "--seed", "5", "--out", str(emb)]
    assert runner.invoke(cli.main, synth_cmd).exit_code == 0

    commands = [
        synth_cmd[:-2],
        ["three-state-sweep", "--grid", "0.5:1.5:0.5", "--kappa", "1,10",
         "--q", "1,2"],
        ["bmm-sweep", "--grid", "0.5:0.9:0.1", "--q", "1,2"],
        ["bmm-sweep", "--tau-mode", "grid", "--grid", "0.2:0.8:0.2"],
        ["embeddings", "decompose", str(emb), "--q", "1,2"],
        ["embeddings", "neighborhoods", str(emb), "--k", "5"],
        ["assignments", "rrh", str(assign), "--q", "1,2"],
    ]
    all_identical = True
    for fmt in ("csv", "json"):
        for i, cmd in enumerate(commands):
            out_a = tmp_path / f"a_{fmt}_{i}"
            out_b = tmp_path / f"b_{fmt}_{i}"
            ra = runner.invoke(cli.main, cmd + ["--format", fmt, "--out", str(out_a)])
            rb = runner.invoke(cli.main, cmd + ["--format", fmt, "--out", str(out_b)])
            all_identical &= (ra.exit_code == 0 and rb.exit_code == 0
                              and out_a.read_bytes() == out_b.read_bytes())
    _report(capsys, 9, "CLI determinism",
            [("all commands byte-identical across reruns", all_identical)],
            time.time() - t0, 120.0)
