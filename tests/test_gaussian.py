"""Gaussian latent-space heterogeneity against quadrature and Monte Carlo."""

import math

import numpy as np
import pytest

from hetlab.errors import (
    DegeneratePoolError,
    UndefinedOrderError,
    ValidationError,
)
from hetlab.gaussian import (
    GaussianComponent,
    GaussianEnsemble,
    gaussian_between,
    gaussian_decomposition,
    gaussian_pool,
    gaussian_renyi,
    gaussian_within,
)

from oracles import (
    GridSpec,
    assert_near_one,
    gaussian_pool_loop,
    gaussian_pooled_logdet_mp,
    gaussian_renyi_quad,
    gaussian_within_inf_mp,
    gaussian_within_mp,
    model_average_pooled_numeric,
    random_pd_cov,
)


def comp(mean, cov):
    return GaussianComponent(mean=np.asarray(mean, float),
                             covariance=np.asarray(cov, float))


def ens(means, covs, weights=None):
    return GaussianEnsemble(means=np.asarray(means, float),
                            covariances=np.asarray(covs, float), weights=weights)


def full_cov(c):
    """The covariance of one component as a full matrix."""
    return np.diag(c.covariance) if c.is_diagonal else c.covariance


class TestComponentValidation:
    def test_diagonal_storage(self):
        c = comp([0.0, 0.0], [1.0, 4.0])
        assert c.is_diagonal
        assert c.logdet == pytest.approx(math.log(4.0), rel=1e-6, abs=0)
        assert np.array_equal(c.covariance, [1.0, 4.0])

    def test_full_storage(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = comp([0.0, 0.0], cov)
        assert not c.is_diagonal
        assert c.logdet == pytest.approx(math.log(np.linalg.det(cov)), rel=1e-12, abs=0)

    def test_not_pd_rejected(self):
        with pytest.raises(ValidationError):
            comp([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            comp([0.0, 0.0], [[1.0, 0.3], [0.1, 1.0]])

    def test_pivot_floor(self):
        with pytest.raises(ValidationError):
            comp([0.0], [1e-12])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            comp([0.0, 0.0], [1.0])


class TestEnsembleValidation:
    def test_arrays_and_logdets(self):
        covs = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]]])
        e = ens([[0.0, 0.0], [1.0, 1.0]], covs)
        assert len(e) == 2 and e.dim == 2 and not e.is_diagonal
        assert np.allclose(e.logdets, [math.log(1.75), math.log(3.0)], rtol=1e-12)
        assert np.array_equal(e.weights, [0.5, 0.5])
        d = ens([[0.0, 0.0]], [[1.0, 4.0]])
        assert d.is_diagonal and d.logdets[0] == pytest.approx(math.log(4.0), rel=1e-6, abs=0)

    @pytest.mark.parametrize("means,covs", [
        ([[0.0, 0.0]], [[1.0]]),                  # diagonal of the wrong dimension
        ([[0.0], [1.0]], [[1.0]]),                # fewer covariances than means
        ([[0.0, 0.0]], [np.eye(3)]),              # full matrix of the wrong dimension
    ])
    def test_shape_mismatch(self, means, covs):
        with pytest.raises(ValidationError, match="dimensions disagree"):
            ens(means, covs)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ens(np.zeros((0, 1)), np.zeros((0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean(self, bad):
        with pytest.raises(ValidationError, match="means"):
            ens([[0.0, 0.0], [1.0, bad]], [[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetric_member(self):
        covs = np.stack([np.eye(2), [[1.0, 0.3], [0.1, 1.0]], np.eye(2)])
        with pytest.raises(ValidationError, match="symmetric"):
            ens(np.zeros((3, 2)), covs)

    def test_not_pd_member(self):
        covs = np.stack([np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(ValidationError, match="positive-definite"):
            ens(np.zeros((3, 2)), covs)

    def test_diagonal_floor(self):
        with pytest.raises(ValidationError, match="1e-10"):
            ens([[0.0], [1.0]], [[1.0], [1e-12]])

    @pytest.mark.parametrize("weights,what", [
        ([1.0], "length"),
        ([0.5, 0.6], "sum to 1"),
        ([1.5, -0.5], "non-negative"),
        ([math.nan, 1.0], "finite"),
    ])
    def test_bad_weights(self, weights, what):
        with pytest.raises(ValidationError, match=what):
            ens([[0.0], [1.0]], [[1.0], [1.0]], weights)


class TestGaussianRenyi:
    def test_unit_1d_perplexity(self):
        assert gaussian_renyi(np.array([1.0]), 1.0) == pytest.approx(
            math.sqrt(2 * math.pi * math.e), rel=1e-12, abs=0)

    def test_identity_2d_inf(self):
        assert gaussian_renyi(np.eye(2), math.inf) == pytest.approx(
            2 * math.pi, rel=1e-12, abs=0)

    def test_q2_closed_form(self):
        rng = np.random.default_rng(0)
        for n in (1, 2):
            cov = random_pd_cov(rng, n)
            expected = (2 * math.pi) ** (n / 2) * 2 ** (n / 2) * math.sqrt(
                np.linalg.det(cov))
            assert gaussian_renyi(cov, 2.0) == pytest.approx(expected, rel=1e-10, abs=0)

    def test_vs_quadrature(self):
        rng = np.random.default_rng(42)
        for n in (1, 2):
            for _ in range(3):
                cov = random_pd_cov(rng, n)
                for q in (0.5, 1.0, 2.0, 5.0, math.inf):
                    assert gaussian_renyi(cov, q) == pytest.approx(
                        gaussian_renyi_quad(cov, q), rel=1e-6, abs=0)

    def test_scale_law(self):
        cov = np.array([[2.0, 0.4], [0.4, 1.0]])
        for q in (0.5, 1.0, 3.0, math.inf):
            base = gaussian_renyi(cov, q)
            assert gaussian_renyi(4.0 * cov, q) == pytest.approx(
                2.0 ** 2 * base, rel=1e-12, abs=0)

    def test_uniform_cube_interpretation(self):
        # a 1-D uniform of width u has heterogeneity u at any finite q:
        # numeric density-power integral of the box density
        for u in (0.5, 2.0, 7.0):
            for q in (0.5, 2.0):
                x = np.linspace(0, u, 20001)
                f = np.full_like(x, 1.0 / u)
                val = np.trapezoid(f ** q, x) ** (1.0 / (1.0 - q))
                assert val == pytest.approx(u, rel=1e-6, abs=0)

    def test_q0_undefined(self):
        with pytest.raises(UndefinedOrderError):
            gaussian_renyi(np.array([1.0]), 0.0)


class TestGaussianWithin:
    def test_single_component_collapses(self):
        cov = np.array([[1.5, 0.2], [0.2, 0.8]])
        e = ens([[0.0, 0.0]], [cov])
        for q in (0.5, 1.0, 2.0, 9.0):
            assert gaussian_within(e, q) == pytest.approx(
                gaussian_renyi(cov, q), rel=1e-12, abs=0)

    def test_identical_components_q1(self):
        cov = np.array([2.0, 0.5])
        e = ens([[i, -i] for i in range(4)], [cov] * 4)
        assert gaussian_within(e, 1.0) == pytest.approx(
            gaussian_renyi(cov, 1.0), rel=1e-12, abs=0)

    @staticmethod
    def unequal_ensemble():
        rng = np.random.default_rng(0)
        covs = [random_pd_cov(rng, 3) for _ in range(4)]
        return ens(np.zeros((4, 3)), covs, [0.4, 0.3, 0.2, 0.1]), covs

    def test_inf_is_the_limit(self):
        # max_i w_i / max_i (w_i p_i) with p_i the peak density of member i,
        # which the finite orders approach
        e, covs = self.unequal_ensemble()
        exact = gaussian_within(e, math.inf)
        assert exact == pytest.approx(gaussian_within_inf_mp(e.weights, covs),
                                      rel=1e-14, abs=0)
        assert gaussian_within_mp(e.weights, covs, 1e6) == pytest.approx(exact, rel=1e-4, abs=0)
        assert gaussian_within_mp(e.weights, covs, 1e8) == pytest.approx(exact, rel=1e-6, abs=0)
        gaps = [abs(gaussian_within(e, q) - exact) for q in (1e2, 1e4, 1e6)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_inf_ties_and_zero_weights(self):
        # member 1 has the largest weight, member 2 the largest w_i p_i, and
        # the zero-weight member 3 the largest peak density
        covs = [[1.0], [2.0], [0.5], [1e-6]]
        e = ens([[0.0], [1.0], [2.0], [3.0]], covs, [0.2, 0.5, 0.3, 0.0])
        assert gaussian_within(e, math.inf) == pytest.approx(
            gaussian_within_inf_mp(e.weights, np.reshape(covs, (4, 1, 1))), rel=1e-15, abs=0)
        assert gaussian_within(e, math.inf) == pytest.approx(
            0.5 / (0.3 / math.sqrt(2 * math.pi * 0.5)), rel=1e-15, abs=0)

    def test_q1_continuity(self):
        rng = np.random.default_rng(8)
        cases = []
        for _ in range(10):
            means, covs = zip(*[(rng.standard_normal(2), random_pd_cov(rng, 2))
                                for _ in range(3)])
            cases.append((means, covs, rng.dirichlet(np.ones(3))))
        cases.append(([[0.0], [3.0]], [[[1.0]], [[1.0]]], None))
        for means, covs, w in cases:
            e = ens(means, covs, w)
            at_one = gaussian_within(e, 1.0)
            for eps in (1e-6, -1e-6):
                assert gaussian_within(e, 1.0 + eps) == pytest.approx(
                    at_one, rel=1e-4, abs=0)
            assert_near_one(lambda q: gaussian_within(e, q),
                            lambda q: gaussian_within_mp(e.weights, covs, q))

    def test_zero_weight_member_drops_out(self):
        # Below q = 1 a zero weight must not meet log(w p) = -inf in the power mean.
        means, covs = [[0.0], [1.0], [3.0]], [[1.0], [2.0], [0.5]]
        with_zero = ens(means, covs, [0.5, 0.5, 0.0])
        without = ens(means[:2], covs[:2], [0.5, 0.5])
        for q in (0.3, 0.995, 1.0, 1.005, 2.0, 7.5):
            assert gaussian_within(with_zero, q) == pytest.approx(
                gaussian_within(without, q), rel=1e-15, abs=0)

    def test_q0_undefined(self):
        with pytest.raises(UndefinedOrderError):
            gaussian_within(ens([[0.0]], [[1.0]]), 0.0)


class TestGaussianPool:
    def test_identical_components(self):
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        pool = gaussian_pool(ens([[1.0, -2.0]] * 3, [cov] * 3))
        assert np.allclose(pool.mean, [1.0, -2.0])
        assert np.allclose(full_cov(pool), cov)

    def test_hand_example_1d(self):
        pool = gaussian_pool(ens([[0.0], [2.0]], [[1.0], [1.0]]))
        assert pool.mean[0] == pytest.approx(1.0, rel=1e-6, abs=0)
        assert float(pool.covariance[0]) == pytest.approx(2.0, rel=1e-6, abs=0)

    def test_zero_mean_mixture(self):
        rng = np.random.default_rng(9)
        covs = [random_pd_cov(rng, 2) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        pool = gaussian_pool(ens(np.zeros((3, 2)), covs, w))
        expected = sum(wi * c for wi, c in zip(w, covs))
        assert np.allclose(full_cov(pool), expected)

    def test_monte_carlo_moments(self):
        # oracle: mixture sampling cross-check of the moment-matched pool
        rng = np.random.default_rng(10)
        w = np.array([0.3, 0.7])
        e = ens([[0.0, 1.0], [3.0, -1.0]], [[1.0, 0.5], [0.5, 2.0]], w)
        pool = gaussian_pool(e)
        n_samp = 1_000_000
        which = rng.random(n_samp) < w[1]
        samples = np.where(
            which[:, None],
            e.means[1] + rng.standard_normal((n_samp, 2)) * np.sqrt(e.covariances[1]),
            e.means[0] + rng.standard_normal((n_samp, 2)) * np.sqrt(e.covariances[0]),
        )
        mc_mean = samples.mean(axis=0)
        mc_cov = np.cov(samples.T)
        se_mean = samples.std(axis=0) / math.sqrt(n_samp)
        assert np.all(np.abs(mc_mean - pool.mean) < 3 * se_mean + 1e-12)
        # covariance entries: generous 3-sigma-ish bound via 1/sqrt(N) scaling
        assert np.max(np.abs(mc_cov - full_cov(pool))) < 0.02

    def test_matches_per_member_loop(self):
        rng = np.random.default_rng(12)
        for n_members in (1, 2, 5, 20):
            for n in (1, 2, 3, 4):
                means = 3.0 * rng.standard_normal((n_members, n))
                covs = np.stack([random_pd_cov(rng, n) for _ in range(n_members)])
                w = rng.dirichlet(np.ones(n_members))
                pool = gaussian_pool(ens(means, covs, w))
                mu, cov = gaussian_pool_loop(means, covs, w)
                assert np.array_equal(pool.mean, mu)
                err = np.max(np.abs(full_cov(pool) - cov))
                assert err <= 1e-12 * np.max(np.abs(cov))

    @pytest.mark.parametrize("offset", [0.0, 10.0, 1e3, 1e5])
    def test_logdet_against_mpmath(self, offset):
        # Means far from the origin relative to their spread: the pool takes
        # that spread about mu*, so nothing of size offset^2 cancels.
        rng = np.random.default_rng(13)
        for n, n_members in ((1, 2), (3, 5), (6, 20)):
            means = offset + rng.standard_normal((n_members, n))
            w = rng.dirichlet(np.ones(n_members))
            for covs in (np.exp(rng.uniform(-3.0, 1.0, (n_members, n))),
                         np.stack([random_pd_cov(rng, n) for _ in range(n_members)])):
                want = float(gaussian_pooled_logdet_mp(means, covs, w))
                got = gaussian_pool(ens(means, covs, w)).logdet
                assert got == pytest.approx(want, rel=0, abs=1e-14)

    def test_identical_members_far_from_the_origin(self):
        # mean 0.25 against a spread of exp(-23 / 2): the uncentred form
        # Sigma* = sum w_i (Sigma_i + mu_i mu_i^T) - mu* mu*^T kept 2e-6 of
        # noise in each variance of 1e-10
        means, var = np.full((3, 80), 0.25), np.full((3, 80), math.exp(-23.0))
        e = ens(means, var)
        pool = gaussian_pool(e)
        assert pool.is_diagonal and np.array_equal(pool.mean, means[0])
        assert pool.logdet == e.logdets[0] == float(gaussian_pooled_logdet_mp(means, var))
        for q in (0.5, 1.0, 2.0):
            assert gaussian_between(e, q) == 1.0

    def test_diagonal_preserved_when_exact(self):
        pool = gaussian_pool(ens([[0.0, 0.0]] * 2, [[1.0, 2.0], [2.0, 1.0]]))
        assert pool.is_diagonal

    def test_pool_never_below_component_floor(self):
        # moment matching dominates the component covariances in PSD order,
        # so a pool of valid components stays valid
        pool = gaussian_pool(ens([[0.0]] * 2, [[1e-10]] * 2))
        assert float(pool.covariance[0]) >= 1e-10
        assert DegeneratePoolError is not None  # defensive path kept for roundoff


class TestStacks:
    """A stack of ensembles against a loop of single-ensemble calls."""

    ORDERS = (0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 7.5)

    @staticmethod
    def stack(full, shape=(5, 4, 3), seed=21):
        rng = np.random.default_rng(seed)
        b, m, n = shape
        means = 3.0 * rng.standard_normal(shape)
        if full:
            covs = np.array([[random_pd_cov(rng, n) for _ in range(m)] for _ in range(b)])
        else:
            covs = np.exp(rng.uniform(-2.0, 1.0, shape))
        return means, covs

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("weights", [None, [0.5, 0.0, 0.3, 0.2]])
    def test_matches_single_ensembles(self, full, weights):
        means, covs = self.stack(full)
        e = ens(means, covs, weights)
        pool = gaussian_pool(e)
        assert pool.mean.shape == (5, 3) and pool.logdet.shape == (5,)
        singles = [ens(m, c, weights) for m, c in zip(means, covs)]
        for b, one in enumerate(singles):
            single = gaussian_pool(one)
            assert np.array_equal(pool.mean[b], single.mean)
            assert np.array_equal(pool.covariance[b], single.covariance)
            assert pool.logdet[b] == single.logdet
        for q in self.ORDERS:
            within, between = gaussian_within(e, q), gaussian_between(e, q)
            assert within.shape == between.shape == (5,)
            for b, one in enumerate(singles):
                assert within[b] == pytest.approx(gaussian_within(one, q), rel=1e-15, abs=0)
                assert between[b] == pytest.approx(gaussian_between(one, q),
                                                   rel=1e-15, abs=0)
        for b, one in enumerate(singles):
            assert gaussian_within(e, math.inf)[b] == gaussian_within(one, math.inf)
            assert gaussian_between(e, math.inf)[b] == gaussian_between(one, math.inf)

    def test_leading_axes_of_any_rank(self):
        means, covs = self.stack(False, shape=(6, 4, 2))
        flat = gaussian_between(ens(means, covs), 2.0)
        nested = gaussian_between(ens(means.reshape(2, 3, 4, 2), covs.reshape(2, 3, 4, 2)), 2.0)
        assert np.array_equal(nested, flat.reshape(2, 3))

    def test_diagonal_storage_is_stack_wide(self):
        # equal means pool diagonal, spread means do not; the stack keeps
        # diagonal storage only when every entry pools diagonal
        same, spread = [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]
        mixed = gaussian_pool(ens([same, spread], np.ones((2, 2, 2))))
        assert not mixed.is_diagonal and mixed.covariance.shape == (2, 2, 2)
        assert np.array_equal(mixed.covariance[0], np.eye(2))
        both = gaussian_pool(ens([same, same], np.ones((2, 2, 2))))
        assert both.is_diagonal and np.array_equal(both.covariance, np.ones((2, 2)))

    @pytest.mark.parametrize("full,bad", [
        (True, [[1.0, 0.3], [0.1, 1.0]]),     # asymmetric
        (True, [[1.0, 2.0], [2.0, 1.0]]),     # not positive-definite
        (True, [[1e-12, 0.0], [0.0, 1.0]]),   # pivot below the floor
        (False, [1e-12, 1.0]),                # diagonal entry below the floor
    ])
    def test_bad_member_raises_its_single_message(self, full, bad):
        means, covs = self.stack(full, shape=(3, 4, 2))
        covs[1, 2] = bad
        with pytest.raises(ValidationError) as single:
            ens(means[1], covs[1])
        with pytest.raises(ValidationError) as stacked:
            ens(means, covs)
        assert str(stacked.value) == str(single.value)


class TestGaussianBetween:
    def test_identical_components_one(self):
        e = ens([[1.0, 2.0]] * 4, [[1.0, 1.0]] * 4)
        for q in (0.5, 1.0, 2.0):
            assert gaussian_between(e, q) == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_two_separated_components(self):
        # the parametric (moment-matched) ratio grows with separation,
        # exceeding 2: the Gaussian re-fit inflates the pooled volume
        prev = 1.0
        for sep in (0.0, 2.0, 5.0, 10.0, 30.0):
            val = gaussian_between(ens([[0.0], [sep]], [[1.0], [1.0]]), 1.0)
            assert val >= prev - 1e-12
            prev = val
        assert val == pytest.approx(math.sqrt(1.0 + 30.0 ** 2 / 4.0), rel=1e-9, abs=0)

    def test_model_average_ratio_approaches_two(self):
        # replacing the parametric pool by the mixture average restores the
        # replication limit: ratio in (1, 2], approaching 2 with separation
        prev = 1.0
        for sep in (1.0, 3.0, 6.0, 12.0):
            e = ens([[0.0], [sep]], [[1.0], [1.0]])
            val = model_average_pooled_numeric(e, 1.0) / gaussian_within(e, 1.0)
            assert val >= prev - 1e-9
            prev = val
        assert 1.0 < val <= 2.0 + 1e-6
        assert val == pytest.approx(2.0, rel=1e-4, abs=0)

    def test_q0_rejected(self):
        e = ens([[0.0]], [[1.0]])
        with pytest.raises(UndefinedOrderError):
            gaussian_between(e, 0.0)

    def test_pooled_is_within_times_between(self):
        e, _ = TestGaussianWithin.unequal_ensemble()
        pooled = gaussian_pool(e).covariance
        for q in (0.5, 1.0, 2.0, 1e6, math.inf):
            assert gaussian_renyi(pooled, q) == pytest.approx(
                gaussian_within(e, q) * gaussian_between(e, q), rel=1e-13, abs=0)
        cols = gaussian_decomposition(e, [0.5, 1.0, 2.0, math.inf])
        assert cols["pooled"] == pytest.approx(cols["within"] * cols["between"],
                                               rel=1e-15, abs=0)
        assert cols["within"][-1] == pytest.approx(gaussian_within(e, math.inf),
                                                   rel=1e-14, abs=0)

    def test_decomposition_needs_an_order(self):
        with pytest.raises(ValidationError, match="at least one order"):
            gaussian_decomposition(ens([[0.0]], [[1.0]]), [])

    def test_single_member_gives_one(self):
        e = ens([[1.0, 2.0]], [[[1.5, 0.2], [0.2, 0.8]]])
        for q in (0.5, 1.0, 1.0 - 2.0 ** -53, 2.0, 7.5, math.inf):
            assert gaussian_between(e, q) == 1.0


class TestModelAveragePool:
    def test_single_component_matches_closed_form(self):
        cov = np.array([[1.2, 0.3], [0.3, 0.7]])
        e = ens([[0.5, -1.0]], [cov])
        for q in (0.5, 1.0, 2.0, math.inf):
            assert model_average_pooled_numeric(e, q, GridSpec(501)) == \
                pytest.approx(gaussian_renyi(cov, q), rel=1e-4, abs=0)

    def test_two_identical_components(self):
        e = ens([[1.0]] * 2, [[2.0]] * 2)
        assert model_average_pooled_numeric(e, 1.0) == pytest.approx(
            gaussian_renyi(np.array([2.0]), 1.0), rel=1e-4, abs=0)

    def test_model_average_below_parametric(self):
        # moment-matched Gaussian is the max-entropy fit, so its q=1
        # heterogeneity dominates the mixture's
        e = ens([[0.0], [3.0]], [[1.0], [1.0]])
        parametric = gaussian_renyi(gaussian_pool(e).covariance, 1.0)
        averaged = model_average_pooled_numeric(e, 1.0)
        assert averaged <= parametric * (1 + 1e-9)

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            model_average_pooled_numeric(ens([[0.0] * 4], [[1.0] * 4]), 1.0)
