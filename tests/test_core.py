"""Single-distribution heterogeneity and the classical index transforms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from hetlab.betamix import BetaMixtureParams, bmm_between_rrh
from hetlab.classic import functional_hill, leinster_cobbold
from hetlab.core import (
    TABLE_INDICES,
    as_distributions,
    check_orders,
    logsumexp,
    renyi_heterogeneity,
    table1_index,
)
from hetlab.decomposition import SubsystemEnsemble, decompose
from hetlab.errors import HetlabError, NumericalError, UndefinedOrderError, ValidationError
from hetlab.gaussian import GaussianEnsemble, gaussian_between, gaussian_within

from oracles import assert_near_one, gei_mp, renyi_mp, tsallis_mp

distributions = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12).map(
    lambda v: np.array(v) / np.sum(v))
orders = st.one_of(st.just(0.0), st.just(1.0), st.just(math.inf),
                   st.floats(0.01, 50.0))


_ONE_DISTRIBUTION = (as_distributions, lambda p: table1_index(p, "richness"))


class TestValidation:
    def test_rejects_unnormalized(self):
        for check in _ONE_DISTRIBUTION:
            with pytest.raises(ValidationError, match="must sum to 1"):
                check([0.5, 0.4])

    def test_rejects_negative(self):
        for check in _ONE_DISTRIBUTION:
            with pytest.raises(ValidationError, match="non-negative"):
                check([1.2, -0.2])

    def test_rejects_matrix(self):
        # table1_index takes one p, valid rows or not; as_distributions a stack
        for p in ([[0.5, 0.5]], [[0.6, 0.6]], 1.0):
            with pytest.raises(ValidationError,
                               match="^distribution must be a non-empty 1-D vector$"):
                table1_index(p, "richness")
        assert as_distributions([[0.5, 0.5]]).shape == (1, 2)

    def test_bad_order(self):
        with pytest.raises(UndefinedOrderError):
            renyi_heterogeneity([1.0], -1.0)
        with pytest.raises(UndefinedOrderError):
            renyi_heterogeneity([1.0], math.nan)

    def test_order_list(self):
        assert check_orders((0, 2.5, math.inf)) == [0.0, 2.5, math.inf]
        with pytest.raises(ValidationError, match="at least one order"):
            check_orders([])
        with pytest.raises(UndefinedOrderError):
            check_orders([1.0, -0.5])


class TestLogSumExp:
    def test_bitwise_equal_to_scipy(self):
        # Rounded entries tie at the maximum; -inf entries, whole -inf rows
        # and inf or NaN entries take the path of a non-finite maximum.
        rng = np.random.default_rng(21)
        for _ in range(300):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
            a = rng.standard_normal(shape) * float(rng.choice([1.0, 30.0, 800.0]))
            if rng.random() < 0.5:
                a = np.round(a)
            a[rng.random(shape) < 0.2] = -np.inf
            if rng.random() < 0.3:
                a[int(rng.integers(shape[0]))] = -np.inf
            if rng.random() < 0.1:
                a[rng.random(shape) < 0.05] = rng.choice([np.inf, np.nan])
            for axis in (None, 0, 1):
                ours, ref = logsumexp(a, axis), special.logsumexp(a, axis=axis)
                assert type(ours) is type(ref)
                assert np.array_equal(ours, ref, equal_nan=True), (a, axis)


class TestRenyiHeterogeneity:
    def test_uniform_gives_n(self):
        for n in (1, 2, 5, 100):
            p = np.full(n, 1.0 / n)
            # orders within a few ulps of 1 divide a cancelled log-sum by 1 - q
            for q in (0.0, 0.5, 1.0 - 2.0 ** -53, 1.0 - 1e-9, 1.0, 1.0 + 2.0 ** -52,
                      1.005, 2.0, 5.0, math.inf):
                assert renyi_heterogeneity(p, q) == pytest.approx(n, rel=1e-12, abs=0)

    def test_degenerate_gives_one(self):
        p = [0.0, 1.0, 0.0]
        for q in (0.5, 1.0, 2.0, math.inf):
            assert renyi_heterogeneity(p, q) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert renyi_heterogeneity(p, 0.0) == 1.0

    def test_branches(self):
        p = [0.5, 0.3, 0.2, 0.0]
        assert renyi_heterogeneity(p, 0.0) == 3.0
        assert renyi_heterogeneity(p, math.inf) == pytest.approx(2.0, rel=1e-6, abs=0)
        # perplexity = exp(H)
        h = -(0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2))
        assert renyi_heterogeneity(p, 1.0) == pytest.approx(math.exp(h), rel=1e-12, abs=0)
        assert renyi_heterogeneity(p, 2.0) == pytest.approx(
            1.0 / (0.25 + 0.09 + 0.04), rel=1e-12, abs=0)

    def test_extreme_q_stable(self):
        p = [0.9, 0.1]
        val = renyi_heterogeneity(p, 800.0)
        assert math.isfinite(val)
        assert val == pytest.approx(1.0 / 0.9, rel=1e-3, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [[0.9, 0.1], [0.5, 0.3, 0.2, 0.0], [[0.9, 0.1], [0.25, 0.75]]])
    def test_order_near_float_max_gives_the_inf_limit(self, p):
        # (q - 1) log p_i overflows at q = 1e308 unless taken relative to the largest log p_i
        assert renyi_heterogeneity(p, 1e308) == pytest.approx(
            renyi_heterogeneity(p, math.inf), rel=1e-12, abs=0)

    @given(distributions, orders)
    @settings(max_examples=400, deadline=None)
    def test_range(self, p, q):
        val = renyi_heterogeneity(p, q)
        assert 1.0 - 1e-9 <= val <= len(p) + 1e-9

    @given(distributions, orders)
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, p, q):
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(p)
        assert renyi_heterogeneity(p, q) == pytest.approx(
            renyi_heterogeneity(shuffled, q), rel=1e-9, abs=0)

    @given(distributions)
    @settings(max_examples=200, deadline=None)
    def test_q_monotone_nonincreasing(self, p):
        qs = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, math.inf]
        vals = [renyi_heterogeneity(p, q) for q in qs]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1 + 1e-9)

    @given(distributions)
    @settings(max_examples=200, deadline=None)
    def test_q1_continuity(self, p):
        at_one = renyi_heterogeneity(p, 1.0)
        for eps in (1e-6, -1e-6):
            assert renyi_heterogeneity(p, 1.0 + eps) == pytest.approx(
                at_one, rel=1e-4, abs=0)
        assert_near_one(lambda q: renyi_heterogeneity(p, q), lambda q: renyi_mp(p, q))

    def test_replication(self):
        # N copies of a system on disjoint supports multiply heterogeneity by N
        rng = np.random.default_rng(3)
        base = rng.dirichlet(np.ones(4))
        for n_rep in (2, 3, 5):
            rep = np.concatenate([base / n_rep] * n_rep)
            for q in (0.0, 0.5, 1.0, 2.0, math.inf):
                assert renyi_heterogeneity(rep, q) == pytest.approx(
                    n_rep * renyi_heterogeneity(base, q), rel=1e-9, abs=0)

    def test_transfer_increases(self):
        # moving mass from the most to the least probable state raises heterogeneity
        p = np.array([0.6, 0.3, 0.1])
        p2 = np.array([0.55, 0.3, 0.15])
        for q in (0.5, 1.0, 2.0, 5.0, math.inf):
            assert renyi_heterogeneity(p2, q) > renyi_heterogeneity(p, q)


class TestRenyiRows:
    """renyi_heterogeneity on an (..., n) stack of distributions."""

    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(8)
        rows = rng.dirichlet(np.full(4, 0.5), size=(3, 5))
        rows[0, 1] = [0.0, 1.0, 0.0, 0.0]
        rows[2, 3] = [0.5, 0.0, 0.0, 0.5]
        for q in (0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.001, 2.0, 7.5, math.inf):
            out = renyi_heterogeneity(rows, q)
            assert out.shape == (3, 5)
            for idx in np.ndindex(3, 5):
                assert out[idx] == pytest.approx(renyi_heterogeneity(rows[idx], q),
                                                 rel=1e-15, abs=0), (q, idx)

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [1.5, -0.5], [np.nan, 1.0]])
    def test_bad_row_raises_its_message(self, bad):
        with pytest.raises(ValidationError) as single:
            renyi_heterogeneity(bad, 2.0)
        with pytest.raises(ValidationError) as stacked:
            renyi_heterogeneity([[0.5, 0.5], bad, [1.0, 0.0]], 2.0)
        assert str(stacked.value) == str(single.value)

    def test_empty_rejected(self):
        for empty in ([], np.zeros((0, 3)), np.zeros((2, 0)), 1.0):
            with pytest.raises(ValidationError):
                renyi_heterogeneity(empty, 2.0)


class TestTable1Indices:
    p = np.array([0.5, 0.25, 0.25])

    def test_all_names_work(self):
        for name in TABLE_INDICES:
            val = table1_index(self.p, name, q=2.0)
            assert math.isfinite(val.value)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            table1_index(self.p, "entropy")

    def test_names_keep_their_order(self):
        names = ("richness", "perplexity", "inverse_simpson", "berger_parker",
                 "renyi_entropy", "shannon_entropy", "tsallis_entropy",
                 "simpson_concentration", "gini_simpson", "generalized_entropy_index")
        assert TABLE_INDICES == names
        with pytest.raises(ValidationError) as err:
            table1_index(self.p, "entropy")
        assert str(err.value) == f"unknown index 'entropy'; choose from {names}"
        for name in names:
            needs_q = name in ("renyi_entropy", "tsallis_entropy", "generalized_entropy_index")
            if needs_q:
                with pytest.raises(ValidationError, match=f"^{name} requires an elasticity"):
                    table1_index(self.p, name)
            else:
                assert table1_index(self.p, name) == table1_index(self.p, name, q=7.0)

    def test_q_required(self):
        with pytest.raises(ValidationError):
            table1_index(self.p, "renyi_entropy")

    def test_hand_values(self):
        assert table1_index(self.p, "richness").value == 3.0
        h = -(0.5 * math.log(0.5) + 0.5 * math.log(0.25))
        s = 0.25 + 2 * 0.0625
        for name, want in [("shannon_entropy", h), ("perplexity", math.exp(h)),
                           ("inverse_simpson", 1 / s), ("simpson_concentration", s),
                           ("gini_simpson", 1 - s), ("berger_parker", 2.0)]:
            assert table1_index(self.p, name).value == pytest.approx(want, rel=1e-12, abs=0)
        assert table1_index(self.p, "renyi_entropy", q=2.0).value == pytest.approx(
            -math.log(s), rel=1e-12, abs=0)

    def test_tsallis(self):
        q = 2.0
        expected = (1.0 - float(np.sum(self.p ** q))) / (q - 1.0)
        res = table1_index(self.p, "tsallis_entropy", q=q)
        assert res.value == pytest.approx(expected, rel=1e-12, abs=0)
        assert not res.limit_branch

    def test_tsallis_q1_limit(self):
        res = table1_index(self.p, "tsallis_entropy", q=1.0)
        assert res.limit_branch
        h = table1_index(self.p, "shannon_entropy").value
        assert res.value == pytest.approx(h, rel=1e-12, abs=0)
        # continuity against nearby generic q
        near = table1_index(self.p, "tsallis_entropy", q=1.0 + 1e-7).value
        assert near == pytest.approx(res.value, abs=1e-6)
        for p in (self.p, np.array([0.2, 0.3, 0.5])):
            assert_near_one(lambda q: table1_index(p, "tsallis_entropy", q=q).value,
                            lambda q: tsallis_mp(p, q))

    def test_gei_generic_and_limits(self):
        n = self.p.size
        q = 2.0
        pi = (np.sum(self.p ** q)) ** (1 / (1 - q))
        expected = ((pi / n) ** (1 - q) - 1.0) / (q * (q - 1.0))
        res = table1_index(self.p, "generalized_entropy_index", q=q)
        assert res.value == pytest.approx(expected, rel=1e-12, abs=0)

        theil = table1_index(self.p, "generalized_entropy_index", q=1.0)
        assert theil.limit_branch
        h = table1_index(self.p, "shannon_entropy").value
        assert theil.value == pytest.approx(math.log(n) - h, rel=1e-12, abs=0)
        near = table1_index(self.p, "generalized_entropy_index", q=1.0 + 1e-7).value
        assert near == pytest.approx(theil.value, abs=1e-6)
        for p in (self.p, np.array([0.2, 0.3, 0.5])):
            assert_near_one(
                lambda q: table1_index(p, "generalized_entropy_index", q=q).value,
                lambda q: gei_mp(p, q))

        mld = table1_index(self.p, "generalized_entropy_index", q=0.0)
        assert mld.limit_branch
        expected_mld = -math.log(n) - float(np.mean(np.log(self.p)))
        assert mld.value == pytest.approx(expected_mld, rel=1e-12, abs=0)
        near0 = table1_index(self.p, "generalized_entropy_index", q=1e-7).value
        assert near0 == pytest.approx(mld.value, abs=1e-5)

    @pytest.mark.parametrize("q", [1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 0.3, 0.49])
    def test_gei_near_zero_order_matches_mpmath(self, q):
        # log(pi / n) cancels as q -> 0; 80 random distributions, the last 10
        # with a zero entry. Draws near the uniform distribution, with a mean
        # log deviation below 1e-2, are the next test's.
        rng = np.random.default_rng(2019)
        dists = [rng.dirichlet(np.full(rng.integers(2, 12), alpha))
                 for alpha in rng.uniform(0.2, 5.0, 80)]
        dists = [p for p in dists if -np.mean(np.log(p.size * p)) >= 1e-2][:70]
        dists += [np.append(p, 0.0) for p in dists[:10]]
        assert len(dists) == 80
        for p in dists:
            got = table1_index(p, "generalized_entropy_index", q=q).value
            assert got == pytest.approx(gei_mp(p, q), rel=1e-12, abs=0), p

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.7, 0.99, 1.0, 1.001, 2.0, 7.0])
    def test_gei_near_uniform_matches_mpmath(self, q):
        # the index is about half the squared spread of n p_i, which every
        # term of the mean carries without cancelling; a form through
        # log(pi / n), which cancels here, is up to 3.4e-7 off (q = 0.99)
        rng = np.random.default_rng(2020)
        draws = [rng.dirichlet(np.full(rng.integers(2, 12), alpha))
                 for alpha in rng.uniform(100.0, 2000.0, 20)]
        dists = [np.array([0.2501, 0.2499, 0.25, 0.25]), np.array([0.3334, 0.3333, 0.3333])]
        dists += [p for p in draws if -np.mean(np.log(p.size * p)) < 1e-2]
        assert len(dists) == 22
        for p in dists:
            got = table1_index(p, "generalized_entropy_index", q=q)
            assert got.value == pytest.approx(gei_mp(p, q), rel=5e-12, abs=0), p
            assert got.limit_branch == (q in (0.0, 1.0))

    @pytest.mark.parametrize("n,q_last,q_over", [(10 ** 6, 52.35, 52.4), (10, 309.25, 309.3)])
    def test_gei_past_the_float_range_is_a_numerical_error(self, n, q_last, q_over):
        # a point mass gives (n^(q-1) - 1) / (q (q - 1)), finite up to the
        # order where n^(q-1) leaves the float range
        p = np.zeros(n)
        p[0] = 1.0
        with mpmath.workdps(30):
            qm = mpmath.mpf(q_last)
            want = float((mpmath.mpf(n) ** (qm - 1) - 1) / (qm * (qm - 1)))
        got = table1_index(p, "generalized_entropy_index", q=q_last).value
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        with pytest.raises(NumericalError, match="generalized entropy index at q=.* overflows"):
            table1_index(p, "generalized_entropy_index", q=q_over)

    def test_gei_zero_prob(self):
        res = table1_index([0.5, 0.5, 0.0], "generalized_entropy_index", q=0.0)
        assert math.isinf(res.value)

    def test_inf_rejected_where_undefined(self):
        for name in ("tsallis_entropy", "generalized_entropy_index"):
            with pytest.raises(UndefinedOrderError):
                table1_index(self.p, name, q=math.inf)


# One input per public order-taking function, each value as a float list.
_P = np.array([0.5, 0.3, 0.2])
_D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
_SUBSYSTEMS = SubsystemEnsemble(np.array([[0.6, 0.4, 0.0], [0.1, 0.3, 0.6], [0.2, 0.2, 0.6]]),
                                np.array([0.5, 0.3, 0.2]))
_GAUSSIANS = GaussianEnsemble(np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]]),
                              np.array([[1.0, 0.5], [0.3, 2.0], [1.5, 1.5]]),
                              np.array([0.2, 0.5, 0.3]))
ORDER_FUNCTIONS = {
    "renyi_heterogeneity": lambda q: renyi_heterogeneity(_P, q),
    "renyi_entropy": lambda q: table1_index(_P, "renyi_entropy", q).value,
    "tsallis_entropy": lambda q: table1_index(_P, "tsallis_entropy", q).value,
    "generalized_entropy_index": lambda q: table1_index(_P, "generalized_entropy_index", q).value,
    "functional_hill": lambda q: functional_hill(_D, _P, q),
    "leinster_cobbold": lambda q: leinster_cobbold(np.exp(-_D), _P, q),
    "decompose": lambda q: [decompose(_SUBSYSTEMS, [q])[k][0]
                            for k in ("pooled", "within", "between")],
    "gaussian_within": lambda q: gaussian_within(_GAUSSIANS, q),
    "gaussian_between": lambda q: gaussian_between(_GAUSSIANS, q),
    "bmm_between_rrh": lambda q: bmm_between_rrh(BetaMixtureParams(0.3, 5.0, 20.0),
                                                 np.array([0.2, 0.5]), [q])[:, 0],
}
# ROADMAP item 7: the two functions whose value at q = inf is not their
# value at q = 1e300 yet
_NOT_THE_LIMIT_AT_INF = {
    "functional_hill": "item 7: NaN at q = inf, the limit 2.5819888975 at q = 1e300",
    "tsallis_entropy": "item 7: UndefinedOrderError at q = inf, 1e-300 at q = 1e300",
}


def _outcome(name, q):
    """The function's values at q as a float list, or HetlabError if it raises one."""
    try:
        return np.ravel(ORDER_FUNCTIONS[name](q)).astype(float).tolist()
    except HetlabError:
        return HetlabError


class TestContinuityInQ:
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=_NOT_THE_LIMIT_AT_INF[name]))
        if name in _NOT_THE_LIMIT_AT_INF else name for name in ORDER_FUNCTIONS])
    def test_inf_is_the_value_at_1e300(self, name):
        at_inf, at_1e300 = _outcome(name, math.inf), _outcome(name, 1e300)
        if at_1e300 is HetlabError:
            assert at_inf is HetlabError
        else:
            assert at_inf == pytest.approx(at_1e300, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ORDER_FUNCTIONS)
    def test_one_is_the_value_beside_it(self, name):
        at_one = _outcome(name, 1.0)
        for q in (1.0 - 1e-9, 1.0 + 1e-9):
            assert _outcome(name, q) == pytest.approx(at_one, rel=1e-8, abs=0)
