"""Distance/similarity indices, metric predicates, and the 3-state testbed."""

import math

import numpy as np
import pytest

from hetlab.classic import (
    functional_hill,
    is_metric,
    is_ultrametric,
    leinster_cobbold,
    neqrqe,
    rescale_distance,
    rqe,
    similarity_from_distance,
    three_state_distance,
    three_state_probs,
)
from hetlab.core import renyi_heterogeneity
from hetlab.errors import (
    DegenerateDistanceError,
    SingularityError,
    UndefinedOrderError,
    ValidationError,
)

from oracles import assert_near_one, functional_hill_mp, leinster_cobbold_mp

CATEGORICAL_3 = 1.0 - np.eye(3)
ROOT3_2 = math.sqrt(3.0) / 2.0


def random_distance(rng, n):
    pts = rng.standard_normal((n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return d


def random_similarity(rng, n):
    s = rng.uniform(0, 1, size=(n, n))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    return s


class TestValidationMatrices:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            rqe([[0, 1], [2, 0]], [0.5, 0.5])

    def test_nonzero_diagonal_rejected_by_default(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            rqe(d, [0.5, 0.5])
        # the relaxed mode admits it
        assert rqe(d, [0.5, 0.5], require_zero_diagonal=False) > 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            rqe([[0, -1], [-1, 0]], [0.5, 0.5])

    def test_similarity_range(self):
        with pytest.raises(ValidationError):
            leinster_cobbold([[1.0, 1.2], [1.2, 1.0]], [0.5, 0.5], 2)


class TestRqe:
    def test_categorical_half(self):
        assert rqe(1.0 - np.eye(2), [0.5, 0.5], 1) == pytest.approx(0.5, rel=1e-6, abs=0)

    def test_degenerate_zero(self):
        assert rqe(CATEGORICAL_3, [1.0, 0.0, 0.0], 1) == 0.0

    def test_equilateral_uniform(self):
        d = three_state_distance(ROOT3_2, 1.0)
        assert rqe(d, np.full(3, 1 / 3), 1) == pytest.approx(2 / 3, rel=1e-12, abs=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            rqe(CATEGORICAL_3, [0.5, 0.5])

    _INDICES = pytest.mark.parametrize("index", [
        neqrqe, lambda d, p: functional_hill(d, p, 2.0),
        lambda d, p: functional_hill(d, p, math.inf)],
        ids=["neqrqe", "functional_hill", "functional_hill_inf"])

    @_INDICES
    def test_dimension_mismatch_in_each_index(self, index):
        with pytest.raises(ValidationError, match="sizes disagree"):
            index(CATEGORICAL_3, [0.5, 0.5])

    @_INDICES
    def test_validates_inputs_once(self, index, monkeypatch):
        import hetlab.classic as classic
        calls = []
        for name in ("as_distance_matrix", "as_distributions", "check_order"):
            def counted(*a, _f=getattr(classic, name), _name=name, **k):
                calls.append(_name)
                return _f(*a, **k)
            monkeypatch.setattr(classic, name, counted)
        index(three_state_distance(0.4, 1.0) / 2.0, three_state_probs(4.0))
        assert len(calls) == len(set(calls)), calls


class TestRescale:
    def test_identity_on_unit_matrix(self):
        assert np.allclose(rescale_distance(CATEGORICAL_3), CATEGORICAL_3)

    def test_scale_invariance(self):
        d = three_state_distance(0.7, 1.3)
        assert np.allclose(rescale_distance(d), rescale_distance(5.0 * d))

    def test_constant_matrix_rejected(self):
        with pytest.raises(DegenerateDistanceError):
            rescale_distance(np.full((2, 2), 3.0), require_zero_diagonal=False)

    def test_divides_by_max(self):
        d = three_state_distance(1.0, 1.0)
        assert np.allclose(rescale_distance(d), d / d.max())


class TestNeqrqe:
    def test_categorical_equals_inverse_simpson(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            d = 1.0 - np.eye(4)
            assert neqrqe(d, p) == pytest.approx(
                renyi_heterogeneity(p, 2.0), rel=1e-12, abs=0)

    def test_degenerate_p(self):
        assert neqrqe(CATEGORICAL_3, [1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-6, abs=0)

    def test_direct_pipeline(self):
        d = rescale_distance(three_state_distance(0.5, 1.0))
        p = np.full(3, 1 / 3)
        q1 = rqe(d, p, 1)
        assert neqrqe(d, p) == 1.0 / (1.0 - q1)  # the same Q_1, bit for bit

    def test_unscaled_rejected(self):
        with pytest.raises(ValidationError):
            neqrqe(2.0 * CATEGORICAL_3, np.full(3, 1 / 3))

    def test_singularity(self):
        # two states at distance 1 with all mass split evenly across many
        # states drives Q1 -> 1 only in contrived cases; construct directly
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        # Q1 = 2 p1 p2 <= 0.5 so use a relaxed matrix with unit diagonal
        d_rel = np.ones((2, 2))
        with pytest.raises(SingularityError):
            neqrqe(d_rel, [0.5, 0.5], require_zero_diagonal=False)
        assert neqrqe(d, [0.5, 0.5]) == pytest.approx(2.0, rel=1e-6, abs=0)

    def test_regime_change_over_height(self):
        # rises until the equilateral height, falls afterwards
        p = np.full(3, 1 / 3)
        hs = np.arange(0.1, 3.01, 0.1)
        vals = neqrqe(rescale_distance(three_state_distance(hs, 1.0)), p).tolist()
        peak = int(np.argmax(vals))
        assert hs[peak] == pytest.approx(0.9, abs=1e-9)  # first grid point past sqrt(3)/2
        assert all(a < b for a, b in zip(vals[:peak], vals[1:peak + 1]))
        assert all(a > b for a, b in zip(vals[peak:], vals[peak + 1:]))


class TestFunctionalHill:
    def test_uniform_insensitive(self):
        rng = np.random.default_rng(2)
        for n in (3, 5, 8):
            p = np.full(n, 1.0 / n)
            for _ in range(10):
                d = random_distance(rng, n)
                for q in (0.5, 1.0, 2.0, 5.0):
                    assert functional_hill(d, p, q) == pytest.approx(n, rel=1e-9, abs=0)

    def test_q1_limit_continuity(self):
        rng = np.random.default_rng(3)
        cases = [(1.0 - np.eye(2), np.array([0.5, 0.5]))]
        for _ in range(20):
            n = int(rng.integers(3, 7))
            cases.append((random_distance(rng, n), rng.dirichlet(np.ones(n))))
        for d, p in cases:
            at_one = functional_hill(d, p, 1.0)
            for eps in (1e-6, -1e-6):
                assert functional_hill(d, p, 1.0 + eps) == pytest.approx(
                    at_one, rel=1e-4, abs=0)
            assert_near_one(lambda q: functional_hill(d, p, q),
                            lambda q: functional_hill_mp(d, p, q))

    def test_exceeds_state_count(self):
        # skewed 3-state system with a squashed triangle
        d = three_state_distance(0.2, 1.0)
        p = three_state_probs(10.0)
        assert functional_hill(d, p, 1.0) > 3.0

    def test_scale_invariance(self):
        d = three_state_distance(0.4, 1.0)
        p = three_state_probs(4.0)
        for q in (0.5, 1.0, 3.0):
            assert functional_hill(3.0 * d, p, q) == pytest.approx(
                functional_hill(d, p, q), rel=1e-12, abs=0)

    def test_zero_q1_is_nan(self):
        value = functional_hill(CATEGORICAL_3, [1.0, 0.0, 0.0], 2.0)
        assert type(value) is float and math.isnan(value)

    def test_inf_is_nan(self):
        value = functional_hill(CATEGORICAL_3, np.full(3, 1 / 3), math.inf)
        assert type(value) is float and math.isnan(value)

    def test_nan_only_where_undefined(self):
        d = three_state_distance(0.4, 1.0)
        p = three_state_probs(4.0)
        for q in (0.0, 0.5, 1.0, 2.0):
            assert math.isfinite(functional_hill(d, p, q))
        assert math.isnan(functional_hill(d, p, math.inf))
        for point_mass in (three_state_probs(0.0), three_state_probs(math.inf)):
            for q in (0.0, 0.5, 1.0, 2.0, math.inf):
                assert math.isnan(functional_hill(d, point_mass, q))
        with pytest.raises(UndefinedOrderError):
            functional_hill(d, p, -1.0)


class TestSimilarity:
    def test_u_zero_all_ones(self):
        d = three_state_distance(0.5, 1.0)
        assert np.allclose(similarity_from_distance(d, 0.0), 1.0)

    def test_log2_halves(self):
        s = similarity_from_distance(CATEGORICAL_3, math.log(2.0))
        off = s[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)
        assert np.allclose(np.diag(s), 1.0)

    def test_negative_u_rejected(self):
        with pytest.raises(ValidationError):
            similarity_from_distance(CATEGORICAL_3, -0.5)

    @pytest.mark.parametrize("u", [math.nan, math.inf, np.array([[[1.0]], [[math.nan]]])],
                             ids=["nan", "inf", "nan-in-stack"])
    def test_non_finite_u_rejected(self, u):
        with pytest.raises(ValidationError, match="scaling factor u must be finite"):
            similarity_from_distance(CATEGORICAL_3, u)


class TestOrderNearFloatMax:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [[0.5, 0.3, 0.2], [0.7, 0.3, 0.0]])
    def test_gives_the_inf_limit(self, p):
        # no (q - 1) log term overflows at q = 1e308; functional_hill is NaN at
        # q = inf, so its limit is read at q = 1e300, where nothing overflows
        d = three_state_distance(0.4, 1.0)
        assert functional_hill(d, p, 1e308) == pytest.approx(
            functional_hill(d, p, 1e300), rel=1e-12, abs=0)
        s = similarity_from_distance(d, 1.0)
        assert leinster_cobbold(s, p, 1e308) == pytest.approx(
            leinster_cobbold(s, p, math.inf), rel=1e-12, abs=0)


class TestLeinsterCobbold:
    def test_identity_similarity_recovers_renyi(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            for q in (0.0, 0.5, 1.0, 2.0, math.inf):
                assert leinster_cobbold(np.eye(n), p, q) == pytest.approx(
                    renyi_heterogeneity(p, q), rel=1e-9, abs=0)

    def test_all_ones_gives_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            for q in (0.5, 1.0, 2.0, math.inf):
                assert leinster_cobbold(np.ones((n, n)), p, q) == pytest.approx(
                    1.0, rel=1e-12, abs=0)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            s = random_similarity(rng, n)
            p = rng.dirichlet(np.ones(n))
            for q in (0.5, 1.0, 2.0, 5.0, math.inf):
                val = leinster_cobbold(s, p, q)
                assert 1.0 - 1e-9 <= val <= renyi_heterogeneity(p, q) + 1e-9

    def test_monotone_in_u(self):
        d = three_state_distance(0.5, 1.0)
        p = three_state_probs(10.0)
        for q in (0.5, 1.0, 2.0):
            vals = [leinster_cobbold(similarity_from_distance(d, u), p, q)
                    for u in np.arange(0.0, 10.5, 0.5)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_approaches_renyi_at_large_u(self):
        p = np.full(3, 1 / 3)
        val = leinster_cobbold(similarity_from_distance(CATEGORICAL_3, 15.0), p, 1.0)
        assert val == pytest.approx(3.0, rel=1e-5, abs=0)
        assert val < 3.0

    def test_q1_limit_continuity(self):
        rng = np.random.default_rng(7)
        cases = [(np.eye(2), np.array([0.5, 0.5]))]
        for _ in range(20):
            n = int(rng.integers(2, 6))
            cases.append((random_similarity(rng, n), rng.dirichlet(np.ones(n))))
        for s, p in cases:
            at_one = leinster_cobbold(s, p, 1.0)
            for eps in (1e-6, -1e-6):
                assert leinster_cobbold(s, p, 1.0 + eps) == pytest.approx(
                    at_one, rel=1e-4, abs=0)
            assert_near_one(lambda q: leinster_cobbold(s, p, q),
                            lambda q: leinster_cobbold_mp(s, p, q))


class TestMetricPredicates:
    def test_discrete_metric(self):
        assert is_metric(CATEGORICAL_3)
        assert is_ultrametric(CATEGORICAL_3)

    def test_triangle_violation(self):
        d = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        assert not is_metric(d)
        assert not is_ultrametric(d)

    def test_squat_triangle_metric_not_ultrametric(self):
        d = three_state_distance(0.5, 1.0)
        assert is_metric(d)
        assert not is_ultrametric(d)

    def test_equilateral_boundary_ultrametric(self):
        assert is_ultrametric(three_state_distance(ROOT3_2, 1.0))

    def test_tall_triangle_ultrametric(self):
        assert is_ultrametric(three_state_distance(2.0, 1.0))

    def test_zero_offdiagonal_not_metric(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert not is_metric(d)


# testbed stacks: heights with sqrt(3)/2 and near both ends of the float range,
# and skews at each branch and near both ends
THREE_STATE_HEIGHTS = np.array([[1e-300, 0.5, ROOT3_2], [1.0, 2.0, 1e200]])
THREE_STATE_KAPPAS = (0.0, 0.25, 1.0, 4.0, math.inf, 1e-300, 1e300)


class TestThreeState:
    def test_branches(self):
        # the one form is exact at kappa = 0 and 1; only inf has its own value
        assert three_state_probs(0.0).tolist() == [1.0, 0.0, 0.0]
        assert three_state_probs(1.0).tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert three_state_probs(math.inf).tolist() == [0.0, 0.0, 1.0]
        assert np.allclose(three_state_probs(4.0), [1 / 7, 2 / 7, 4 / 7])

    def test_negative_kappa(self):
        # one message, for one skew or for any entry of a stack
        for bad in (-0.1, -math.inf, math.nan):
            stacks = [np.insert([0.0, 1.0, 4.0], at, bad).reshape(2, 2) for at in range(4)]
            for kappa in (bad, *stacks):
                with pytest.raises(ValidationError, match=f"^kappa must be >= 0, got {bad}$"):
                    three_state_probs(kappa)

    def test_probs_stack_matches_points(self):
        # bit for bit, against each point and against the per-point form
        kappas = np.array(THREE_STATE_KAPPAS)
        for shape in ((7,), (7, 1)):
            stack = three_state_probs(kappas.reshape(shape))
            assert stack.shape == shape + (3,)
            for idx, kap in zip(np.ndindex(shape), THREE_STATE_KAPPAS):
                root = math.sqrt(kap)
                want = ([0.0, 0.0, 1.0] if math.isinf(kap)
                        else (np.array([1.0, root, kap]) / (1.0 + root + kap)).tolist())
                assert stack[idx].tobytes() == three_state_probs(kap).tobytes()
                assert stack[idx].tolist() == want, kap
        assert three_state_probs(4.0).shape == (3,)

    @pytest.mark.parametrize("b", [1.0, 1.3])
    def test_distance_stack_matches_points(self, b):
        stack = three_state_distance(THREE_STATE_HEIGHTS, b)
        assert stack.shape == THREE_STATE_HEIGHTS.shape + (3, 3)
        for idx in np.ndindex(THREE_STATE_HEIGHTS.shape):
            h = float(THREE_STATE_HEIGHTS[idx])
            leg = math.sqrt(b * b / 4.0 + h * h)
            assert stack[idx].tobytes() == three_state_distance(h, b).tobytes()
            assert stack[idx].tolist() == [[0.0, b, leg], [b, 0.0, leg], [leg, leg, 0.0]]
        assert three_state_distance(0.5, b).shape == (3, 3)
        # a leg past the float range is inf, without a warning
        assert three_state_distance([1.0, 1e155], 1e155)[1, 0, 2] == math.inf

    def test_distance_values(self):
        d = three_state_distance(0.5, 1.0)
        assert d[0, 1] == 1.0
        assert d[0, 2] == pytest.approx(math.sqrt(0.5), rel=1e-6, abs=0)
        assert d[1, 2] == pytest.approx(math.sqrt(0.5), rel=1e-6, abs=0)
        assert np.allclose(d, d.T) and np.allclose(np.diag(d), 0.0)
        eq = three_state_distance(ROOT3_2, 1.0)
        assert np.allclose(eq[~np.eye(3, dtype=bool)], 1.0)

    def test_invalid_geometry(self):
        message = "^triangle height and base must be positive$"
        with pytest.raises(ValidationError, match=message):
            three_state_distance(1.0, -1.0)
        # one message, for one height or for any entry of a stack
        for bad in (0.0, -1.0, math.nan):
            stacks = [np.where(np.arange(6).reshape(2, 3) == at, bad, THREE_STATE_HEIGHTS)
                      for at in range(6)]
            for h in (bad, *stacks):
                with pytest.raises(ValidationError, match=message):
                    three_state_distance(h, 1.0)


STACK_QS = (0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.001, 2.0, 7.5, math.inf)
# kappa = 0 and inf are point masses: p has zeros and Q_1 = 0.
STACK_PS = three_state_probs(np.array([0.0, 0.25, 1.0, 4.0, math.inf]))


def distance_stack(rng, shape=(4, 2)):
    return three_state_distance(rng.uniform(0.05, 3.0, size=shape), 1.3)


def relaxed_stack(rng, shape=(3, 2)):
    """Symmetric 3 x 3 matrices with entries in (0, 1) and a diagonal that is
    neither zero nor one."""
    m = rng.uniform(0.05, 0.95, size=shape + (3, 3))
    return 0.5 * (m + m.swapaxes(-1, -2))


def assert_members(stacked, single, shape):
    """Every member of ``stacked`` equals ``single(index)`` to 1e-15 relative,
    and is NaN where that is NaN."""
    stacked = np.array(stacked, dtype=object)
    assert stacked.shape == shape
    for idx in np.ndindex(*shape):
        want, got = single(idx), stacked[idx]
        assert isinstance(got, float)
        if math.isnan(want):
            assert math.isnan(got), idx
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=0), idx


class TestStacks:
    """Each kernel on an (..., n, n) stack equals a loop of single-matrix calls."""

    def test_rescale_per_member(self):
        d = distance_stack(np.random.default_rng(30))
        d[1, 0] *= 7.0
        out = rescale_distance(d)
        for idx in np.ndindex(4, 2):
            assert np.array_equal(out[idx], rescale_distance(d[idx]))

    def test_similarity_broadcasts_factors(self):
        d = distance_stack(np.random.default_rng(31), (5,))
        us = np.array([0.0, 0.5, 3.0])
        sims = similarity_from_distance(d[:, None], us[:, None, None])
        assert sims.shape == (5, 3, 3, 3)
        for i, j in np.ndindex(5, 3):
            assert np.array_equal(sims[i, j], similarity_from_distance(d[i], us[j]))
        with pytest.raises(ValidationError, match="must be >= 0, got -0.5"):
            similarity_from_distance(d, np.array([[[1.0]], [[-0.5]]]))

    def test_quadratic_entropies(self):
        d = rescale_distance(distance_stack(np.random.default_rng(32)))
        for p in STACK_PS:
            assert_members(neqrqe(d, p), lambda i: neqrqe(d[i], p), (4, 2))
            for q in (0.0, 0.5, 1.0, 2.0):
                assert_members(rqe(d, p, q), lambda i: rqe(d[i], p, q), (4, 2))

    @pytest.mark.parametrize("q", STACK_QS)
    def test_functional_hill(self, q):
        d = distance_stack(np.random.default_rng(33))
        for p in STACK_PS:
            assert_members(functional_hill(d, p, q),
                           lambda i: functional_hill(d[i], p, q), (4, 2))

    @pytest.mark.parametrize("q", STACK_QS)
    def test_leinster_cobbold(self, q):
        d = distance_stack(np.random.default_rng(34), (4,))
        us = np.array([0.0, 0.5, 2.0, 800.0])  # 800: exp(-u D) underflows to 0
        sims = similarity_from_distance(d[:, None], us[:, None, None])
        for p in STACK_PS:
            assert_members(leinster_cobbold(sims, p, q),
                           lambda i: leinster_cobbold(sims[i], p, q), (4, 4))

    @pytest.mark.parametrize("q", STACK_QS)
    def test_relaxed_diagonals(self, q):
        rng = np.random.default_rng(35)
        d, s = relaxed_stack(rng), relaxed_stack(rng)
        p = np.array([0.2, 0.0, 0.8])
        assert_members(leinster_cobbold(s, p, q, require_unit_diagonal=False),
                       lambda i: leinster_cobbold(s[i], p, q, require_unit_diagonal=False),
                       (3, 2))
        assert_members(functional_hill(d, p, q, require_zero_diagonal=False),
                       lambda i: functional_hill(d[i], p, q, require_zero_diagonal=False),
                       (3, 2))
        scaled = rescale_distance(d, require_zero_diagonal=False)
        assert_members(neqrqe(scaled, p, require_zero_diagonal=False),
                       lambda i: neqrqe(scaled[i], p, require_zero_diagonal=False), (3, 2))

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.001, 2.0])
    def test_nan_per_member(self, q):
        # Q_1 = 0 for one member only: an all-zero matrix in a stack of
        # matrices, then a point mass in a stack of distributions. That member
        # is NaN and every other one is its single-matrix value, bit for bit.
        d = distance_stack(np.random.default_rng(36), (3,))
        d[1] = 0.0
        p = three_state_probs(4.0)
        out = functional_hill(d, p, q)
        assert math.isnan(out[1])
        for i in (0, 2):
            assert out[i] == functional_hill(d[i], p, q)
        rows = np.array([p, [1.0, 0.0, 0.0], three_state_probs(0.25)])
        out = functional_hill(d[0], rows, q)
        assert math.isnan(out[1])
        for i in (0, 2):
            assert out[i] == functional_hill(d[0], rows[i], q)
        assert np.isnan(functional_hill(d, p, math.inf)).all()
        assert np.isnan(functional_hill(d, three_state_probs(0.0), q)).all()

    def test_metric_predicates(self):
        d = distance_stack(np.random.default_rng(37))
        d[0, 1] = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        d[2, 0] = 0.0
        for predicate in (is_metric, is_ultrametric):
            out = predicate(d)
            assert out.shape == (4, 2)
            for idx in np.ndindex(4, 2):
                assert out[idx] == predicate(d[idx])
        assert is_ultrametric(d).any() and not is_ultrametric(d).all()

    _BAD_DISTANCE = {
        "asymmetric": lambda m: m + np.triu(np.full(m.shape, 0.1), 1),
        "negative": lambda m: np.where(np.eye(3, dtype=bool), m, -m),
        "nan": lambda m: np.where(np.eye(3, dtype=bool), m, np.nan),
        "diagonal": lambda m: m + 0.25 * np.eye(3),
        "size": lambda m: m[:, :2],
    }
    _BAD_SIMILARITY = {
        "above one": lambda m: m + 0.8 * (1.0 - np.eye(3)),
        "negative": lambda m: m - 0.8 * (1.0 - np.eye(3)),
        "nan": lambda m: np.where(np.eye(3, dtype=bool), m, np.nan),
        "diagonal": lambda m: m - 0.25 * np.eye(3),
        "size": lambda m: m[:, :2],
    }

    @staticmethod
    def assert_stack_raises_member_message(index, good, member):
        with pytest.raises(ValidationError) as single:
            index(member)
        stack = [good[0], member, good[2]]
        if member.shape == good[0].shape:
            stack = np.array(stack)
        with pytest.raises(ValidationError) as stacked:
            index(stack)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("bad", sorted(_BAD_DISTANCE))
    @pytest.mark.parametrize("index", [
        lambda d: neqrqe(d, three_state_probs(4.0)),
        lambda d: functional_hill(d, three_state_probs(4.0), 2.0),
        lambda d: functional_hill(d, three_state_probs(4.0), math.inf),
        rescale_distance,
        lambda d: similarity_from_distance(d, 1.0),
        is_metric,
    ], ids=["neqrqe", "functional_hill", "functional_hill_inf", "rescale_distance",
            "similarity_from_distance", "is_metric"])
    def test_one_bad_distance_member_raises_its_message(self, bad, index):
        good = rescale_distance(three_state_distance(np.array([0.2, 0.9, 2.0]), 1.0))
        self.assert_stack_raises_member_message(index, good, self._BAD_DISTANCE[bad](good[1]))

    @pytest.mark.parametrize("bad", sorted(_BAD_SIMILARITY))
    def test_one_bad_similarity_member_raises_its_message(self, bad):
        good = similarity_from_distance(three_state_distance(np.array([0.2, 0.9, 2.0]), 1.0), 1.0)
        self.assert_stack_raises_member_message(
            lambda s: leinster_cobbold(s, three_state_probs(4.0), 2.0), good,
            self._BAD_SIMILARITY[bad](good[1]))

    def test_distribution_size_must_match_the_members(self):
        d = distance_stack(np.random.default_rng(38))
        for index in (neqrqe, lambda d, p: functional_hill(d, p, 1.0),
                      lambda d, p: leinster_cobbold(np.exp(-d), p, 1.0)):
            with pytest.raises(ValidationError, match="sizes disagree"):
                index(d, [0.5, 0.5])


# Rows whose zeros sit in different places, so the union of supports holds
# zeros of single rows; the first and last are point masses (Q_1 = 0).
STACK_ROWS = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], three_state_probs(4.0),
                       [0.2, 0.0, 0.8], [0.0, 0.0, 1.0]])
# each kernel as f(distance matrix or stack, distribution or stack, q)
_DISTRIBUTION_KERNELS = {
    "rqe": lambda d, p, q: rqe(d, p, q) if math.isfinite(q) else None,
    "neqrqe": lambda d, p, q: neqrqe(rescale_distance(d), p),
    "functional_hill": functional_hill,
    "leinster_cobbold": lambda d, p, q: leinster_cobbold(similarity_from_distance(d, 1.0), p, q),
    # exp(-800 D) underflows to 0 off the diagonal, so (Sp)_i = 0 off a row's support
    "leinster_cobbold_u800": lambda d, p, q: leinster_cobbold(
        similarity_from_distance(d, 800.0), p, q),
    # a diagonal below the off-diagonal entries puts the largest (Sp)_i off a
    # point mass's support
    "leinster_cobbold_relaxed": lambda d, p, q: leinster_cobbold(
        np.where(np.eye(3, dtype=bool), 0.1, np.exp(-d)), p, q, require_unit_diagonal=False),
}


class TestDistributionStacks:
    """Each index on an (..., n) stack of distributions, broadcast against
    one matrix or a stack of them, equals a loop of single-vector calls."""

    @pytest.mark.parametrize("q", STACK_QS)
    @pytest.mark.parametrize("kernel", sorted(_DISTRIBUTION_KERNELS))
    def test_rows_match_single_vector_calls(self, kernel, q):
        f = _DISTRIBUTION_KERNELS[kernel]
        d = distance_stack(np.random.default_rng(40), (2,))
        if f(d[0], STACK_ROWS[1], q) is None:
            return
        assert_members(f(d[0], STACK_ROWS, q), lambda i: f(d[0], STACK_ROWS[i], q), (5,))
        # (5, 1) rows against (2,) matrices broadcast to (5, 2)
        assert_members(f(d, STACK_ROWS[:, None], q),
                       lambda i: f(d[i[1]], STACK_ROWS[i[0]], q), (5, 2))

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.001, 2.0])
    def test_functional_hill_rows(self, q):
        d = distance_stack(np.random.default_rng(41), (3,))
        rows = STACK_ROWS[1:4]  # Q_1 > 0 in every row
        assert_members(functional_hill(d[:, None], rows, q),
                       lambda i: functional_hill(d[i[0]], rows[i[1]], q), (3, 3))
        # the point masses in the first and last rows are NaN, the others unmoved
        out = functional_hill(d[0], STACK_ROWS, q)
        assert np.isnan(out[[0, 4]]).all()
        assert_members(out[1:4], lambda i: functional_hill(d[0], rows[i], q), (3,))

    def test_renyi_rows(self):
        for q in STACK_QS:
            assert_members(renyi_heterogeneity(STACK_ROWS, q),
                           lambda i: renyi_heterogeneity(STACK_ROWS[i], q), (5,))

    @pytest.mark.parametrize("bad", [[0.5, 0.4, 0.2], [1.2, -0.2, 0.0], [0.5, np.nan, 0.5]],
                             ids=["sum", "negative", "nan"])
    @pytest.mark.parametrize("kernel", sorted(_DISTRIBUTION_KERNELS))
    def test_one_bad_row_raises_its_message(self, kernel, bad):
        f = _DISTRIBUTION_KERNELS[kernel]
        d = three_state_distance(0.7, 1.0)
        with pytest.raises(ValidationError) as single:
            f(d, bad, 2.0)
        with pytest.raises(ValidationError) as stacked:
            f(d, [STACK_ROWS[1], bad, STACK_ROWS[2]], 2.0)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("kernel", sorted(_DISTRIBUTION_KERNELS))
    def test_stacks_must_broadcast(self, kernel):
        d = distance_stack(np.random.default_rng(42), (2,))
        with pytest.raises(ValidationError, match=r"do not broadcast, \(2,\) against \(5,\)"):
            _DISTRIBUTION_KERNELS[kernel](d, STACK_ROWS, 2.0)
