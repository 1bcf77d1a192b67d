"""Diversity axioms for the numbers-equivalent indices beside categorical
Rényi heterogeneity: monotonicity in q (Leinster & Cobbold 2012, Ecology
93:477; Chiu & Chao 2014, PLoS ONE 9:e100014), the naive case S = I,
replication on a block-diagonal S (Leinster & Cobbold 2012), and the
equal-weight bound 1 <= between <= N (Jost 2007, Ecology 88:2427).

Each property runs on 1,000 random instances, as stacks where the function
takes them. An ordering or a bound that holds with equality (a uniform
distribution at every order, identical subsystems) is met only up to
rounding, so orderings and bounds allow a relative margin of ``MARGIN``:
on these instances values grow along q by up to 4e-15 relative, and the
between leaves [1, N] by up to 1.4e-15.
"""

import math

import numpy as np
import pytest

from hetlab.classic import functional_hill, leinster_cobbold
from hetlab.core import renyi_heterogeneity
from hetlab.decomposition import SubsystemEnsemble, decompose
from hetlab.gaussian import GaussianEnsemble, gaussian_between, gaussian_renyi

MARGIN = 1e-12
INSTANCES = 1000
ORDERS = [0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 3.0, 5.0, 10.0, 50.0]
SIZES = range(2, 7)  # states per instance, INSTANCES / len(SIZES) each


def random_distributions(rng, count, n, min_support=1):
    """``count`` distributions on ``n`` states, each on a random support of
    ``min_support`` to n states, Dirichlet with a random concentration."""
    p = np.zeros((count, n))
    for row in p:
        support = rng.choice(n, size=rng.integers(min_support, n + 1), replace=False)
        row[support] = rng.dirichlet(np.full(support.size, rng.choice([0.1, 1.0, 5.0])))
    return p


def random_symmetric(rng, count, n, diagonal):
    """``count`` symmetric n x n matrices with entries in [0, 1], a fifth of
    them 0 or 1, and ``diagonal`` on the diagonal."""
    m = rng.uniform(size=(count, n, n))
    m = np.where(rng.uniform(size=m.shape) < 0.2, np.round(m), m)
    m = np.triu(m, 1)
    return m + m.swapaxes(-1, -2) + diagonal * np.eye(n)


def assert_non_increasing(values, what):
    """``values`` (orders on the last axis) never grow from one order to the
    next by more than the rounding margin."""
    values = np.asarray(values)
    grows = values[..., 1:] > values[..., :-1] * (1.0 + MARGIN)
    assert not grows.any(), (what, values[np.nonzero(grows.any(axis=-1))][:3])


def test_leinster_cobbold_is_non_increasing_in_q():
    rng = np.random.default_rng(9001)
    for n in SIZES:
        count = INSTANCES // len(SIZES)
        s = random_symmetric(rng, count, n, diagonal=1.0)
        p = random_distributions(rng, count, n)
        values = np.stack([leinster_cobbold(s, p, q) for q in [*ORDERS, math.inf]], -1)
        assert_non_increasing(values, n)


def test_functional_hill_is_non_increasing_in_q():
    # q = inf is NaN by definition; a point mass (Q_1 = 0) is NaN too
    rng = np.random.default_rng(9002)
    for n in SIZES:
        count = INSTANCES // len(SIZES)
        # distinct states at distance 0.05 or more, so Q_1 > 0 on two states
        d = random_symmetric(rng, count, n, diagonal=0.0) + 0.05 * (1.0 - np.eye(n))
        p = random_distributions(rng, count, n, min_support=2)
        values = np.stack([functional_hill(d, p, q) for q in ORDERS], -1)
        assert np.isfinite(values).all()
        assert_non_increasing(values, n)


def test_leinster_cobbold_with_identity_similarity_is_renyi():
    # the naive case: (Sp)_i = p_i, so both are the same power mean
    rng = np.random.default_rng(9003)
    for n in SIZES:
        count = INSTANCES // len(SIZES)
        p = random_distributions(rng, count, n)
        for q in [*ORDERS, math.inf]:
            np.testing.assert_allclose(leinster_cobbold(np.eye(n), p, q),
                                       renyi_heterogeneity(p, q), rtol=1e-14, atol=0)


def test_leinster_cobbold_replicates_on_a_block_diagonal_similarity():
    # N copies of one community, completely dissimilar to each other and
    # each of weight 1/N, hold N times its diversity at every order
    rng = np.random.default_rng(9007)
    for n in SIZES:
        for copies in (2, 3, 4):
            count = -(-INSTANCES // (3 * len(SIZES)))
            s = random_symmetric(rng, count, n, diagonal=1.0)
            p = random_distributions(rng, count, n)
            blocks, tiled = np.kron(np.eye(copies)[None], s), np.tile(p / copies, copies)
            for q in [0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 5.0, 50.0, math.inf]:
                np.testing.assert_allclose(leinster_cobbold(blocks, tiled, q),
                                           copies * leinster_cobbold(s, p, q),
                                           rtol=1e-12, atol=0)


def test_gaussian_renyi_is_non_increasing_in_q():
    rng = np.random.default_rng(9004)
    orders = [0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 50.0, math.inf]
    for i in range(INSTANCES):
        n = int(rng.integers(1, 7))
        if i % 2:
            cov = np.exp(rng.uniform(-20.0, 20.0, size=n))  # diagonal entries
        else:
            a = rng.normal(size=(n, n))
            cov = a @ a.T + 0.1 * np.eye(n)
        assert_non_increasing([gaussian_renyi(cov, q) for q in orders], cov)


def test_decompose_between_lies_in_one_to_n_for_equal_weights():
    # Identical rows reach the lower bound and disjoint supports the upper.
    rng = np.random.default_rng(9005)
    orders = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]
    for i in range(INSTANCES):
        members, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        if i % 10 == 0:
            table = np.repeat(random_distributions(rng, 1, n), members, axis=0)
        elif i % 10 == 1:
            table = np.kron(np.eye(members), random_distributions(rng, 1, n))
        else:
            table = random_distributions(rng, members, n)
        between = decompose(SubsystemEnsemble(table), orders)["between"]
        assert (between >= 1.0 - MARGIN).all(), (table, between)
        assert (between <= members * (1.0 + MARGIN)).all(), (table, between)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the moment-matched Gaussian between "
                          "leaves [1, N], even for members with equal means")
def test_gaussian_between_lies_in_one_to_n_for_equal_weights():
    # two members at mean 0, with variance 1e-4 and 1 per coordinate; at
    # n = 4 the between is 0.54 at q = 0.1 and 2,500 at q = 1
    concentric = GaussianEnsemble(np.zeros((2, 4)), np.array([[1e-4] * 4, [1.0] * 4]))
    ensembles = [concentric]
    rng = np.random.default_rng(9006)
    for members in SIZES:
        count, n = INSTANCES // len(SIZES), int(rng.integers(1, 5))
        ensembles.append(GaussianEnsemble(rng.normal(0.0, 3.0, size=(count, members, n)),
                                          np.exp(rng.uniform(-3.0, 1.0, size=(count, members, n)))))
    for ens in ensembles:
        for q in [0.1, 0.5, 1.0, 2.0, 5.0, math.inf]:
            between = np.asarray(gaussian_between(ens, q))
            assert (between >= 1.0 - MARGIN).all(), (q, between.min())
            assert (between <= len(ens) * (1.0 + MARGIN)).all(), (q, between.max())
