
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from oracles import central_difference, mc_worker_value
from quotamatch.logit import (
    EULER_GAMMA,
    g_gradient,
    g_value,
    h_gradient,
    h_value,
    matching_value,
)
from quotamatch.market import MarketSpec, Matching


def make_spec(n, m):
    n = np.atleast_1d(np.asarray(n, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    return MarketSpec(
        tuple(f"x{i}" for i in range(n.size)),
        tuple(f"y{j}" for j in range(m.size)),
        ("z",),
        n,
        m,
        {f"y{j}": "z" for j in range(m.size)},
        np.array([np.inf]),
        np.array([0.0]),
    )


class TestWorkerValue:
    def test_single_zero_utility(self):
        spec = make_spec([1.0], [1.0])
        assert g_value(np.zeros((1, 1)), spec) == pytest.approx(np.log(2), abs=1e-12)

    def test_two_slots_with_mass(self):
        spec = make_spec([2.0], [1.0, 1.0])
        assert g_value(np.zeros((1, 2)), spec) == pytest.approx(2 * np.log(3), abs=1e-12)

    def test_against_monte_carlo(self, example_market):
        spec, phi = example_market
        U = phi.phi / 2.0
        estimate, se = mc_worker_value(U, spec, draws=10**6, seed=123)
        got = g_value(U, spec) + EULER_GAMMA * spec.n.sum()
        assert abs(got - estimate) < 3.0 * se

    def test_rejects_nonfinite(self):
        spec = make_spec([1.0], [1.0])
        with pytest.raises(ValueError):
            g_value(np.array([[np.nan]]), spec)

    def test_overflow_safe(self):
        spec = make_spec([1.0], [1.0, 1.0])
        U = np.array([[800.0, -800.0]])
        assert g_value(U, spec) == pytest.approx(800.0, rel=1e-12)
        grad = g_gradient(U, spec)
        assert np.isfinite(grad).all()


class TestWorkerDemand:
    def test_symmetric_split(self):
        spec = make_spec([1.0], [1.0])
        grad = g_gradient(np.zeros((1, 1)), spec)
        assert grad == pytest.approx(np.array([[0.5, 0.5]]), abs=1e-14)

    def test_log_two_utility(self):
        spec = make_spec([1.0], [1.0, 1.0])
        grad = g_gradient(np.array([[np.log(2.0), 0.0]]), spec)
        assert grad == pytest.approx(np.array([[0.25, 0.5, 0.25]]), abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        spec = make_spec(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 3))
        U = rng.normal(size=(2, 3))
        fd = central_difference(lambda X: g_value(X, spec), U)
        assert np.abs(g_gradient(U, spec)[:, 1:] - fd).max() < 1e-6

    def test_rows_sum_to_mass_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = make_spec(rng.uniform(0.2, 2.0, 3), rng.uniform(0.2, 2.0, 4))
            grad = g_gradient(rng.normal(scale=3.0, size=(3, 4)), spec)
            assert np.all(grad > 0)
            assert np.abs(grad.sum(axis=1) - spec.n).max() < 1e-12


class TestSlotSide:
    def test_mirror_value(self):
        spec = make_spec([1.0], [1.0])
        assert h_value(np.zeros((1, 1)), spec) == pytest.approx(np.log(2), abs=1e-12)

    def test_mass_scaling(self):
        spec = make_spec([1.0], [0.3])
        assert h_value(np.zeros((1, 1)), spec) == pytest.approx(0.3 * np.log(2), abs=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = make_spec(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 2))
        V = rng.normal(size=(3, 2))
        fd = central_difference(lambda X: h_value(X, spec), V)
        assert np.abs(h_gradient(V, spec)[1:, :] - fd).max() < 1e-6

    def test_columns_sum_to_mass(self):
        rng = np.random.default_rng(5)
        spec = make_spec(rng.uniform(0.2, 2.0, 4), rng.uniform(0.2, 2.0, 3))
        grad = h_gradient(rng.normal(size=(4, 3)), spec)
        assert np.abs(grad.sum(axis=0) - spec.m).max() < 1e-12


class TestEntropy:
    # The heterogeneity term is the social value at zero surplus.
    def test_symmetric_half_masses(self):
        spec = make_spec([1.0], [1.0])
        mu = Matching(np.array([[0.5]]), np.array([0.5]), np.array([0.5]))
        assert matching_value(mu, 0.0, spec) == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_two_thirds_closed_form(self):
        spec = make_spec([1.0], [1.0])
        mu = Matching(np.array([[2 / 3]]), np.array([1 / 3]), np.array([1 / 3]))
        want = 2 * (np.log(3) - (2 / 3) * np.log(2))
        assert matching_value(mu, 0.0, spec) == pytest.approx(want, abs=1e-12)

    def test_positive_for_interior_matchings(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = make_spec(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 2))
            U = rng.normal(size=(2, 2))
            demand = g_gradient(U, spec)
            slot_unmatched = spec.m - demand[:, 1:].sum(axis=0)
            if np.any(slot_unmatched <= 0):
                continue
            mu = Matching(demand[:, 1:], demand[:, 0], slot_unmatched)
            assert matching_value(mu, 0.0, spec) > 0


#: zero, subnormal, and normal masses across nine orders of magnitude
_MASS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2e-308, allow_subnormal=True),
    st.floats(-6.0, 3.0).map(lambda e: 10.0**e),
)


@st.composite
def matchings(draw):
    n_types, m_types = (draw(st.integers(1, 3)) for _ in range(2))

    def block(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_MASS, min_size=size, max_size=size))).reshape(shape)

    type_mass = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    n = draw(st.lists(type_mass, min_size=n_types, max_size=n_types))
    m = draw(st.lists(type_mass, min_size=m_types, max_size=m_types))
    phi = np.array(
        draw(st.lists(st.floats(-10.0, 10.0), min_size=n_types * m_types, max_size=n_types * m_types))
    ).reshape(n_types, m_types)
    mu = Matching(block(n_types, m_types), block(n_types), block(m_types))
    return make_spec(n, m), phi, mu


class TestMatchingValue:
    @settings(max_examples=200, deadline=None)
    @given(matchings())
    def test_zero_subnormal_and_entropy_agreement(self, case):
        spec, phi, mu = case
        value = matching_value(mu, phi, spec)
        assert np.isfinite(value)
        surplus = float((mu.matched * phi).sum())
        entropy = matching_value(mu, 0.0, spec)
        assert value == pytest.approx(surplus + entropy, rel=1e-12, abs=1e-9)

    def test_zero_and_underflowed_masses_price_to_zero(self):
        spec = make_spec([1e3, 1.0], [1e3])
        zero = Matching(np.zeros((2, 1)), np.zeros(2), np.zeros(1))
        assert matching_value(zero, 1.0, spec) == 0.0
        # 5e-324 / 1e3 underflows to a zero share.
        tiny = Matching(np.array([[5e-324], [0.0]]), np.zeros(2), np.zeros(1))
        assert matching_value(tiny, 0.0, spec) == 0.0

    def test_negative_mass_gives_nan_without_warning(self):
        spec = make_spec([1.0], [1.0])
        mu = Matching(np.array([[-0.5]]), np.array([1.5]), np.array([1.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(matching_value(mu, 0.0, spec))

    def test_agrees_with_xlogy_reference_on_random_rows(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            mu = Matching(rng.uniform(0.0, 2.0, (4, 5)), rng.uniform(0.0, 2.0, 4), rng.uniform(0.0, 2.0, 5))
            n = mu.matched.sum(axis=1) + mu.unmatched_workers
            m = mu.matched.sum(axis=0) + mu.unmatched_slots
            worker_rows = np.column_stack([mu.unmatched_workers, mu.matched])
            slot_rows = np.column_stack([mu.unmatched_slots, mu.matched.T])
            reference = -(
                xlogy(worker_rows, worker_rows / n[:, None]).sum()
                + xlogy(slot_rows, slot_rows / m[:, None]).sum()
            )
            assert matching_value(mu, 0.0, make_spec(n, m)) == pytest.approx(reference, rel=1e-15)


class TestConvexAnalysis:
    def test_strict_convexity_probe(self):
        rng = np.random.default_rng(29)
        spec = make_spec(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 3))
        for _ in range(100):
            U1 = rng.normal(scale=2.0, size=(2, 3))
            U2 = rng.normal(scale=2.0, size=(2, 3))
            if np.array_equal(U1, U2):
                continue
            mid = g_value(0.5 * U1 + 0.5 * U2, spec)
            assert mid < 0.5 * g_value(U1, spec) + 0.5 * g_value(U2, spec)

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(31)
        spec = make_spec(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 2))
        U = rng.normal(size=(2, 2))
        base = g_value(U, spec)
        for idx in np.ndindex(2, 2):
            bumped = U.copy()
            bumped[idx] += 0.05
            assert g_value(bumped, spec) > base

    def test_fenchel_equality_at_matched_points(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec = make_spec(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 4))
            U = rng.normal(size=(3, 4))
            shares = g_gradient(U, spec) / spec.n[:, None]
            lhs = g_value(U, spec) + float(spec.n @ xlogy(shares, shares).sum(axis=1))
            rhs = float((spec.n[:, None] * shares[:, 1:] * U).sum())
            assert lhs == pytest.approx(rhs, abs=1e-9)
