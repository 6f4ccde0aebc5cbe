import re

import numpy as np
import pytest

from conftest import estimation_market
from quotamatch import estimation
from quotamatch.ae import FixedPoint, solve_ae
from quotamatch.estimation import (
    CovariateBasis,
    SurplusModel,
    _kl_gradient,
    _pair_vector,
    estimate,
    kl_divergence,
    load_covariates,
    log_likelihood,
    surplus_from_covariates,
)
from quotamatch.market import MarketSpec, Matching, SchemaViolationError, _write_json


@pytest.fixture(scope="module")
def synthetic():
    """2x2 market, S=2 covariates, data generated at known coefficients."""
    spec = MarketSpec(
        ("x1", "x2"), ("y1", "y2"), ("z1", "z2"),
        np.array([0.6, 0.4]), np.array([0.5, 0.5]),
        {"y1": "z1", "y2": "z2"},
        np.array([np.inf, np.inf]), np.zeros(2),
    )
    c = CovariateBasis(
        np.stack(
            [
                np.ones((2, 2)),
                np.array([[0.0, 1.0], [1.5, 0.5]]),
            ],
            axis=2,
        )
    )
    truth = SurplusModel(np.array([1.0, -0.5]))
    w = np.array([0.1, 0.0])
    observed = solve_ae(spec, surplus_from_covariates(truth, c), w).matching
    return spec, c, truth, w, observed


class TestSurplusFromCovariates:
    def test_zero_coefficients(self, synthetic):
        _, c, *_ = synthetic
        phi = surplus_from_covariates(SurplusModel(np.zeros(2)), c)
        assert np.all(phi.phi == 0.0)

    def test_constant_basis(self):
        c = CovariateBasis(np.ones((2, 3, 1)))
        phi = surplus_from_covariates(SurplusModel(np.array([2.0])), c)
        assert np.all(phi.phi == 2.0)

    def test_linear_form_elementwise(self, synthetic):
        _, c, truth, *_ = synthetic
        phi = surplus_from_covariates(truth, c)
        for i in range(2):
            for j in range(2):
                assert phi.phi[i, j] == pytest.approx(c.c[i, j] @ truth.coefficients)

    def test_dimension_mismatch(self, synthetic):
        _, c, *_ = synthetic
        with pytest.raises(ValueError):
            surplus_from_covariates(SurplusModel(np.zeros(3)), c)


class TestKlDivergence:
    def test_identity_is_zero(self, synthetic):
        *_, observed = synthetic
        assert kl_divergence(observed, observed) == 0.0

    def test_two_cell_arithmetic(self):
        uniform = Matching(np.array([[0.5]]), np.array([0.5]), np.array([1e-300]))
        skewed = Matching(np.array([[0.8]]), np.array([0.2]), np.array([1e-300]))
        got = kl_divergence(uniform, skewed)
        want = 0.5 * np.log(0.5 / 0.8) + 0.5 * np.log(0.5 / 0.2)
        assert got == pytest.approx(want, abs=1e-9)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.uniform(0.01, 1.0, size=(2, 2))
            b = rng.uniform(0.01, 1.0, size=(2, 2))
            mu_a = Matching(a, rng.uniform(0.01, 1.0, 2), rng.uniform(0.01, 1.0, 2))
            mu_b = Matching(b, rng.uniform(0.01, 1.0, 2), rng.uniform(0.01, 1.0, 2))
            assert kl_divergence(mu_a, mu_b) >= 0.0

    def test_zero_simulated_mass_is_error(self):
        obs = Matching(np.array([[0.5]]), np.array([0.5]), np.array([0.5]))
        sim = Matching(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="zero mass"):
            kl_divergence(obs, sim)

    def test_transposed_matching_is_error(self):
        # 2x3 and 3x2 matchings have pair vectors of one length, 11.
        wide = Matching(np.full((2, 3), 0.1), np.full(2, 0.2), np.full(3, 0.3))
        tall = Matching(np.full((3, 2), 0.1), np.full(3, 0.2), np.full(2, 0.3))
        with pytest.raises(ValueError, match="observed and simulated matchings have different shapes"):
            kl_divergence(wide, tall)


class TestLogLikelihood:
    def test_truth_attains_grid_maximum(self, synthetic):
        spec, c, truth, w, observed = synthetic
        best = log_likelihood(truth, c, observed, w, spec)
        for d0 in (-0.2, 0.2):
            for d1 in (-0.2, 0.2):
                other = SurplusModel(truth.coefficients + np.array([d0, d1]))
                assert log_likelihood(other, c, observed, w, spec) <= best + 1e-12

    def test_finite_even_off_support(self, synthetic):
        spec, c, _, w, _ = synthetic
        lopsided = Matching(
            np.array([[0.55, 1e-9], [1e-9, 0.35]]),
            np.array([0.05, 0.05]),
            np.array([0.1, 0.1]),
        )
        value = log_likelihood(SurplusModel(np.array([0.0, 0.0])), c, lopsided, w, spec)
        assert np.isfinite(value)

    def test_relates_to_kl_by_affine_identity(self, synthetic):
        spec, c, truth, w, observed = synthetic

        def pair(model):
            sim = solve_ae(spec, surplus_from_covariates(model, c), w).matching
            return log_likelihood(model, c, observed, w, spec), kl_divergence(observed, sim)

        m1 = SurplusModel(np.array([0.5, 0.1]))
        m2 = SurplusModel(np.array([1.2, -0.7]))
        ll1, kl1 = pair(m1)
        ll2, kl2 = pair(m2)
        total = observed.total()
        assert ll1 - ll2 == pytest.approx(-total * (kl1 - kl2), abs=1e-9)

    def test_grid_argmin_kl_equals_argmax_likelihood(self, synthetic):
        spec, c, _, w, observed = synthetic
        grid = [SurplusModel(np.array([a, b])) for a in (0.6, 1.0, 1.4) for b in (-0.9, -0.5, -0.1)]
        kls = []
        lls = []
        for model in grid:
            sim = solve_ae(spec, surplus_from_covariates(model, c), w).matching
            kls.append(kl_divergence(observed, sim))
            lls.append(log_likelihood(model, c, observed, w, spec))
        assert int(np.argmin(kls)) == int(np.argmax(lls))


class TestEstimate:
    def test_round_trip_recovery(self, synthetic):
        spec, c, truth, w, observed = synthetic
        model, report = estimate(observed, c, w, spec)
        assert report.converged
        assert report.final_kl <= 1e-10
        assert np.abs(model.coefficients - truth.coefficients).max() < 1e-3

    def test_null_model_recovery(self, synthetic):
        spec, c, _, w, _ = synthetic
        observed = solve_ae(spec, surplus_from_covariates(SurplusModel(np.zeros(2)), c), w).matching
        model, report = estimate(observed, c, w, spec)
        assert np.abs(model.coefficients).max() < 1e-3

    def test_perturbed_data_optimizer_no_worse_than_truth(self, synthetic):
        spec, c, truth, w, observed = synthetic
        rng = np.random.default_rng(21)
        noisy = Matching(
            observed.matched * (1 + 1e-3 * rng.uniform(-1, 1, observed.matched.shape)),
            observed.unmatched_workers,
            observed.unmatched_slots,
        )
        _, report = estimate(noisy, c, w, spec)
        sim_truth = solve_ae(spec, surplus_from_covariates(truth, c), w).matching
        kl_truth = kl_divergence(noisy, sim_truth)
        assert report.final_kl <= kl_truth + 1e-12

    def test_trace_is_monotone(self, synthetic):
        spec, c, _, w, observed = synthetic
        _, report = estimate(observed, c, w, spec)
        trace = np.array(report.kl_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_tight_kl_tolerance_recovers(self, synthetic, monkeypatch):
        spec, c, truth, w, observed = synthetic
        monkeypatch.setattr(estimation, "KL_TOLERANCE", 1e-12)
        model, report = estimate(observed, c, w, spec)
        assert np.abs(model.coefficients - truth.coefficients).max() < 1e-3
        assert report.final_kl <= 1e-12

    def test_kl_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            spec, c, w, observed, truth = estimation_market(rng, 10, 12, 3, 3)
            p = _pair_vector(observed) / observed.total()
            lam = truth + rng.normal(scale=0.3, size=truth.shape)

            def kl(x):
                sim = solve_ae(spec, surplus_from_covariates(SurplusModel(x), c), w).matching
                return kl_divergence(observed, sim)

            fp = FixedPoint(spec).solve(surplus_from_covariates(SurplusModel(lam), c), w)
            fd = [(kl(lam + 1e-6 * e) - kl(lam - 1e-6 * e)) / 2e-6 for e in np.eye(lam.size)]
            assert np.abs(_kl_gradient(p, fp, c.c)[0] - fd).max() <= 1e-8

    def test_information_is_the_kl_hessian_at_an_exact_fit(self):
        # Where the model reproduces the data, the Fisher information equals
        # the divergence's Hessian; central differences of the exact gradient
        # agree with it to about 2e-11.
        rng = np.random.default_rng(5)
        for _ in range(4):
            spec, c, w, observed, truth = estimation_market(rng, 10, 12, 3, 3)
            p = _pair_vector(observed) / observed.total()

            def kl_gradient(x):
                fp = FixedPoint(spec).solve(surplus_from_covariates(SurplusModel(x), c), w)
                return _kl_gradient(p, fp, c.c)

            fd = [
                (kl_gradient(truth + 1e-5 * e)[0] - kl_gradient(truth - 1e-5 * e)[0]) / 2e-5
                for e in np.eye(truth.size)
            ]
            assert np.abs(kl_gradient(truth)[1] - fd).max() <= 1e-9

    @pytest.mark.parametrize("seed", [3, *range(10, 30)])
    def test_noisy_data_stops_at_stationary_point(self, seed):
        # Seed 20 ends where a full step's predicted decrease (1.5e-14) is
        # below the divergence's noise while the gradient is 1.5e-8.
        rng = np.random.default_rng(seed)
        spec, c, w, noisy, truth = estimation_market(rng, 10, 12, 3, 3, noise=0.05)
        _, report = estimate(noisy, c, w, spec)
        assert report.converged
        assert report.message == "stationary point"
        assert report.n_evals <= 3
        sim_truth = solve_ae(spec, surplus_from_covariates(SurplusModel(truth), c), w).matching
        assert report.final_kl <= kl_divergence(noisy, sim_truth)

    def test_budget_exhausted_is_not_converged(self, monkeypatch):
        # Exact data ends at the first evaluation; this noisy fit needs 3.
        spec, c, w, noisy, _ = estimation_market(np.random.default_rng(3), 10, 12, 3, 3, noise=0.05)
        monkeypatch.setattr(estimation, "MAX_OUTER_EVALS", 2)
        _, report = estimate(noisy, c, w, spec)
        assert not report.converged
        assert report.message == "evaluation budget exhausted"
        assert report.n_evals == 2
        assert len(report.kl_trace) == 2

    @pytest.mark.parametrize("size", [(10, 12, 3, 3), (20, 40, 4, 4)], ids=["10x12", "20x40"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_data_is_fit_by_the_first_evaluation(self, size, seed):
        # The start is the closed-form surplus fit, so it reproduces the data.
        spec, c, w, observed, truth = estimation_market(np.random.default_rng(seed), *size)
        model, report = estimate(observed, c, w, spec)
        assert report.n_evals == 1
        assert report.message == "kl tolerance reached"
        assert np.abs(model.coefficients - truth).max() <= 1e-9

    def test_exact_fit_reports_a_nonnegative_divergence(self):
        # The divergence's terms cancel here to a sum of about -1.7e-16.
        spec, c, w, observed, _ = estimation_market(np.random.default_rng(1), 10, 12, 3, 3)
        _, report = estimate(observed, c, w, spec)
        assert report.message == "kl tolerance reached"
        assert report.final_kl >= 0.0
        assert min(report.kl_trace) >= 0.0

    @pytest.mark.parametrize("mass", [1e-30, 1e-150, 1e-300])
    def test_start_weights_each_cell_by_its_matched_mass(self, mass):
        # A near-empty cell has log-odds in the hundreds; unweighted, it drags
        # the start to a kernel out of range (1e-150, 1e-300) or twice as many
        # evaluations (1e-30). Weighted, the fit is that of zero-start scoring.
        spec, c, w, observed, _ = estimation_market(np.random.default_rng(3), 4, 6, 2, 2)
        matched = observed.matched.copy()
        matched[0, 0] = mass
        sparse = Matching(matched, observed.unmatched_workers, observed.unmatched_slots)
        model, report = estimate(sparse, c, w, spec)
        assert report.converged
        assert report.n_evals <= 6
        assert np.abs(model.coefficients - [0.92906153, -0.62652481]).max() <= 1e-7

    def test_rejects_an_observed_matching_of_another_shape(self):
        spec, c, w, observed, _ = estimation_market(np.random.default_rng(3), 4, 6, 2, 2)
        narrow = Matching(observed.matched[:, :5], observed.unmatched_workers, observed.unmatched_slots[:5])
        with pytest.raises(ValueError, match="observed and simulated matchings have different shapes"):
            estimate(narrow, c, w, spec)

    def test_rejects_covariates_of_another_shape(self):
        spec, c, w, observed, _ = estimation_market(np.random.default_rng(3), 4, 6, 2, 2)
        with pytest.raises(SchemaViolationError, match=re.escape("surplus matrix shape (4, 5)")):
            estimate(observed, CovariateBasis(c.c[:, :5]), w, spec)

    def test_rejects_zero_observed_cells(self, synthetic):
        spec, c, _, w, _ = synthetic
        broken = Matching(np.array([[0.2, 0.0], [0.1, 0.1]]), np.full(2, 0.1), np.full(2, 0.1))
        with pytest.raises(ValueError, match="strictly positive"):
            estimate(broken, c, w, spec)


class TestLoadCovariates:
    @pytest.mark.parametrize("count", [1.7, True, "1"], ids=["float", "bool", "string"])
    def test_count_must_be_a_json_integer(self, synthetic, tmp_path, count):
        # int() would read each of these as 1, the true count of this file.
        spec, _, _, _, _ = synthetic
        path = tmp_path / "covariates.json"
        _write_json({"S": count, "c": np.ones((2, 2, 1)).tolist()}, path)
        with pytest.raises(SchemaViolationError, match=re.escape(str(path))):
            load_covariates(path, spec)
