"""Single-distribution heterogeneity and the classical index transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from hetlab.core import (
    TABLE_INDICES,
    as_distribution,
    check_orders,
    logsumexp,
    normalize,
    renyi_heterogeneity,
    table1_index,
)
from hetlab.errors import UndefinedOrderError, ValidationError

from oracles import assert_near_one, gei_mp, renyi_mp, tsallis_mp

distributions = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12).map(
    lambda v: np.array(v) / np.sum(v))
orders = st.one_of(st.just(0.0), st.just(1.0), st.just(math.inf),
                   st.floats(0.01, 50.0))


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            as_distribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_distribution([1.2, -0.2])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            as_distribution([[0.5, 0.5]])

    def test_normalize(self):
        assert np.allclose(normalize([2, 2]), [0.5, 0.5])
        with pytest.raises(ValidationError):
            normalize([0.0, 0.0])

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
            assert table1_index(self.p, name).value == pytest.approx(want, rel=1e-6, abs=0)
        assert table1_index(self.p, "renyi_entropy", q=2.0).value == pytest.approx(
            -math.log(s), rel=1e-6, abs=0)

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

    def test_gei_zero_prob(self):
        res = table1_index([0.5, 0.5, 0.0], "generalized_entropy_index", q=0.0)
        assert math.isinf(res.value)

    def test_inf_rejected_where_undefined(self):
        for name in ("tsallis_entropy", "generalized_entropy_index"):
            with pytest.raises(UndefinedOrderError):
                table1_index(self.p, name, q=math.inf)
