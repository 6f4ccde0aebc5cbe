import time

import numpy as np
import pytest

from conftest import random_constrained_market, random_market
from oracles import descent_taxes_under_quotas, sweep_grid_matchings
from quotamatch import ae, eae
from quotamatch.ae import FixedPoint, solve_ae
from quotamatch.eae import (
    InfeasibleQuotaError,
    dual_value,
    solve_eae,
    verify_kkt,
)
from quotamatch.logit import g_gradient, g_value, h_gradient, h_value, matching_value
from quotamatch.market import (
    EquilibriumResult,
    Diagnostics,
    Matching,
    SystematicUtilities,
    TaxScheme,
    region_masses,
)

TWO_LOG_THREE = 2.0 * np.log(3.0)


class TestClosedForms:
    def test_ceiling_quarter(self, single_pair):
        spec = single_pair.with_quotas(upper={"z": 0.25})
        result = solve_eae(spec, np.zeros((1, 1)))
        assert result.diagnostics.converged
        assert result.taxes.w[0] == pytest.approx(TWO_LOG_THREE, abs=1e-8)
        assert result.matching.matched[0, 0] == pytest.approx(0.25, abs=1e-8)

    def test_floor_three_quarters(self, single_pair):
        spec = single_pair.with_quotas(lower={"z": 0.75})
        result = solve_eae(spec, np.zeros((1, 1)))
        assert result.taxes.w[0] == pytest.approx(-TWO_LOG_THREE, abs=1e-8)
        assert result.matching.matched[0, 0] == pytest.approx(0.75, abs=1e-8)

    def test_equality_quota_pins_mass(self, single_pair):
        # Upper and lower bound coincide: the tax sign is determined by which
        # side of the pinned mass the zero-tax equilibrium falls on.
        spec = single_pair.with_quotas(upper={"z": 0.4}, lower={"z": 0.4})
        result = solve_eae(spec, np.zeros((1, 1)))
        assert result.diagnostics.converged
        assert result.matching.matched[0, 0] == pytest.approx(0.4, abs=1e-8)
        assert result.taxes.w[0] > 0.0  # zero-tax mass 0.5 sits above the pin
        assert verify_kkt(result, spec, np.zeros((1, 1)), tol=1e-6).passed

    def test_slack_quotas_reproduce_zero_tax_solution(self, example_market):
        spec, phi = example_market
        roomy = spec.with_quotas(upper={"z1": 5.0, "z2": 5.0}, lower={})
        constrained = solve_eae(roomy, phi)
        free = solve_ae(spec, phi)
        assert np.all(constrained.taxes.w == 0.0)
        assert np.abs(constrained.matching.matched - free.matching.matched).max() < 1e-8


class TestReferenceMarket:
    def test_reported_tax_pair(self, example_market):
        spec, phi = example_market
        result = solve_eae(spec, phi)
        assert result.diagnostics.converged
        assert result.taxes.w[0] == pytest.approx(0.5825, abs=0.005)
        assert result.taxes.w[1] == pytest.approx(0.0, abs=1e-12)

    def test_kkt_passes_with_tight_gap(self, example_market):
        spec, phi = example_market
        result = solve_eae(spec, phi)
        report = verify_kkt(result, spec, phi, tol=1e-6)
        assert report.passed
        assert report.duality_gap <= 1e-6 * (1.0 + abs(report.dual_value))

    def test_matches_projected_descent_oracle(self, example_market):
        markets = [example_market] + [
            random_constrained_market(np.random.default_rng(seed)) for seed in range(5)
        ]
        for spec, phi in markets:
            result = solve_eae(spec, phi)
            w_oracle = descent_taxes_under_quotas(spec, phi.phi)
            assert np.abs(result.taxes.w - w_oracle).max() < 1e-4, spec


class TestTaxSearch:
    def test_slack_region_gets_exact_zero_tax_from_nonzero_start(self, example_market):
        spec, phi = example_market
        roomy = spec.with_quotas(upper={"z1": 5.0}, lower={})
        result = solve_eae(roomy, phi, initial_taxes=np.array([0.4, -0.2]))
        assert np.all(result.taxes.w == 0.0)

    def test_single_region_ceiling_tax(self, single_pair):
        spec = single_pair.with_quotas(upper={"z": 0.25})
        result = solve_eae(spec, np.zeros((1, 1)))
        assert result.taxes.w[0] == pytest.approx(TWO_LOG_THREE, abs=1e-8)

    def test_spillover_region_taxed_too(self):
        # Two identical regions; capping the first pushes mass into the
        # second past its own ceiling, so both must be taxed.
        from quotamatch.market import MarketSpec

        spec = MarketSpec(
            ("x1", "x2"), ("y1", "y2"), ("z1", "z2"),
            np.array([0.6, 0.6]), np.array([0.5, 0.5]),
            {"y1": "z1", "y2": "z2"},
            np.array([np.inf, np.inf]), np.zeros(2),
        )
        phi = np.array([[2.0, 1.8], [1.9, 2.1]])
        base = region_masses(solve_ae(spec, phi).matching, spec)
        capped = spec.with_quotas(upper={"z1": 0.7 * base[0], "z2": 1.02 * base[1]})
        result = solve_eae(capped, phi)
        assert result.taxes.w[0] > 0.0
        assert result.taxes.w[1] > 0.0
        assert verify_kkt(result, capped, phi, tol=1e-6).passed

    def test_mass_jacobian_matches_central_differences(self, monkeypatch):
        monkeypatch.setattr(ae, "POPULATION_TOLERANCE", 1e-13)
        monkeypatch.setattr(ae, "MAX_ITERATIONS", 100_000)
        h = 1e-4
        for seed in range(4):
            rng = np.random.default_rng(seed)
            spec, phi = random_market(rng)
            w = rng.uniform(-1.0, 1.0, size=spec.num_regions)
            jacobian = FixedPoint(spec).solve(phi, w).mass_jacobian()
            numeric = np.empty_like(jacobian)
            for zi in range(spec.num_regions):
                step = h * np.eye(spec.num_regions)[zi]
                hi = region_masses(solve_ae(spec, phi, w + step).matching, spec)
                lo = region_masses(solve_ae(spec, phi, w - step).matching, spec)
                numeric[:, zi] = (hi - lo) / (2.0 * h)
            assert np.abs(jacobian - numeric).max() < 1e-6, seed


def shuffled_binding_market(seed: int):
    """Market of 6 worker types and 20 regions, one holding a single slot type
    and the others three each, assigned to the 58 slot types in shuffled
    order. Each quota is the interval of +-2% around its region's mass at a
    witness tax drawn from [-1, 1], so most quotas bind."""
    from quotamatch.market import MarketSpec

    rng = np.random.default_rng(seed)
    L = 20
    assignment = rng.permutation([0] + [z for z in range(1, L) for _ in range(3)])
    regions = tuple(f"z{k}" for k in range(L))
    slots = tuple(f"y{j}" for j in range(assignment.size))
    spec = MarketSpec(
        tuple(f"x{i}" for i in range(6)), slots, regions,
        rng.uniform(0.1, 0.3, size=6), rng.uniform(0.01, 0.04, size=len(slots)),
        {y: regions[z] for y, z in zip(slots, assignment)},
        np.full(L, np.inf), np.zeros(L),
    )
    phi = 1.0 + rng.normal(size=(spec.num_workers, spec.num_slots))
    masses = region_masses(solve_ae(spec, phi, rng.uniform(-1.0, 1.0, size=L)).matching, spec)
    return spec.with_quotas(
        upper=dict(zip(regions, 1.02 * masses)), lower=dict(zip(regions, 0.98 * masses))
    ), phi


class TestMassJacobian:
    @pytest.fixture(scope="class")
    def solved(self):
        spec, phi = shuffled_binding_market(0)
        result = solve_eae(spec, phi)
        assert result.diagnostics.converged
        assert np.count_nonzero(result.taxes.w) >= 15
        return spec, phi, result.taxes.w

    def test_matches_central_differences(self, solved, monkeypatch):
        spec, phi, w = solved
        monkeypatch.setattr(ae, "POPULATION_TOLERANCE", 1e-13)
        monkeypatch.setattr(ae, "MAX_ITERATIONS", 100_000)
        jacobian = FixedPoint(spec).solve(phi, w).mass_jacobian()
        h = 1e-4
        numeric = np.empty_like(jacobian)
        for zi in range(spec.num_regions):
            step = h * np.eye(spec.num_regions)[zi]
            hi = region_masses(solve_ae(spec, phi, w + step).matching, spec)
            lo = region_masses(solve_ae(spec, phi, w - step).matching, spec)
            numeric[:, zi] = (hi - lo) / (2.0 * h)
        assert np.abs(jacobian - numeric).max() <= 1e-8 * np.abs(jacobian).max()

    def test_is_symmetric_and_matches_the_tangent(self, solved):
        spec, phi, w = solved
        fp = FixedPoint(spec).solve(phi, w)
        jacobian = fp.mass_jacobian()
        scale = np.abs(jacobian).max()
        assert np.abs(jacobian - jacobian.T).max() <= 1e-12 * scale
        # The same derivative from the tangent along one direction per region.
        R = spec.region_indicator
        mu = fp.matching().matched
        _, db = fp.tangent(-0.5 * mu @ R, -0.5 * mu.sum(axis=0)[:, None] * R)
        assert np.abs(jacobian + 2.0 * R.T @ (fp.b[:, None] * db)).max() <= 1e-14 * scale


class TestVerifier:
    @pytest.mark.parametrize("tol", [1e-8, 1e-2])
    def test_report_equals_one_built_from_the_logit_functions(self, tol):
        spec, phi = shuffled_binding_market(0)
        result = solve_eae(spec, phi)
        mu, (U, V), w = result.matching, (result.utilities.U, result.utilities.V), result.taxes.w
        assert (np.abs(w) > tol).any() and (np.abs(w) <= tol).any()
        grad_w, grad_s = g_gradient(U, spec), h_gradient(V, spec)
        slack = U + V - (phi - w[spec.slot_region_index][None, :])
        masses = region_masses(mu, spec)
        region_cs = 0.0
        for zi in range(spec.num_regions):
            if w[zi] > tol:
                region_cs = max(region_cs, abs(masses[zi] - spec.upper[zi]))
            elif w[zi] < -tol:
                region_cs = max(region_cs, abs(masses[zi] - spec.lower[zi]))
        taxed = w > 0.0
        dual = (
            g_value(U, spec) + h_value(V, spec)
            + float((spec.upper[taxed] * w[taxed]).sum()) - float((spec.lower * np.maximum(-w, 0.0)).sum())
        )
        primal = matching_value(mu, phi, spec)
        clearing = float(max(
            np.abs(mu.matched - grad_w[:, 1:]).max(),
            np.abs(mu.unmatched_workers - grad_w[:, 0]).max(),
            np.abs(mu.matched - grad_s[1:, :]).max(),
            np.abs(mu.unmatched_slots - grad_s[0, :]).max(),
        ))
        quota = float(np.maximum(masses - spec.upper, spec.lower - masses).clip(0.0).max())
        cs = max(float(np.abs(slack[mu.matched > tol]).max(initial=0.0)), region_cs)
        population = mu.population_residual(spec)
        expected = eae.KKTReport(
            population_residual=population,
            noblocking_min_slack=float(slack.min(initial=0.0)),
            clearing_residual=clearing,
            quota_violation=quota,
            complementary_slackness_residual=cs,
            dual_value=dual,
            primal_value=primal,
            duality_gap=abs(dual - primal),
            passed=bool(
                population <= tol and slack.min() >= -tol and clearing <= tol and quota <= tol and cs <= tol
            ),
        )
        assert verify_kkt(result, spec, phi, tol=tol) == expected

    def test_flags_fabricated_tax_on_slack_region(self, example_market):
        spec, phi = example_market
        base = solve_ae(spec, phi, np.array([1.0, 0.0]))
        report = verify_kkt(base, spec, phi, tol=1e-6)
        # Region mass at that tax is strictly inside the quota interval, so a
        # positive tax violates complementary slackness.
        assert report.complementary_slackness_residual > 1e-3
        assert not report.passed

    def test_flags_floor_violation(self, single_pair):
        spec = single_pair.with_quotas(lower={"z": 0.75})
        free = solve_ae(spec, np.zeros((1, 1)))
        report = verify_kkt(free, spec, np.zeros((1, 1)), tol=1e-6)
        assert report.quota_violation > 0.2
        assert not report.passed

    def test_flags_population_violation(self, single_pair):
        mu = Matching(np.array([[0.6]]), np.array([0.6]), np.array([0.4]))
        fake = EquilibriumResult(
            mu,
            SystematicUtilities(np.zeros((1, 1)), np.zeros((1, 1))),
            TaxScheme(np.zeros(1)),
            Diagnostics(0, 0, 0, 0, 0, 0, False),
        )
        report = verify_kkt(fake, single_pair, np.zeros((1, 1)), tol=1e-6)
        assert report.population_residual == pytest.approx(0.2, abs=1e-12)
        assert not report.passed

    def test_reconstructs_surplus_when_omitted(self, example_market):
        spec, phi = example_market
        result = solve_eae(spec, phi)
        report = verify_kkt(result, spec, tol=1e-6)
        assert report.passed


class TestDualValue:
    def test_constant_case(self, single_pair):
        got = dual_value(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), single_pair)
        assert got == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_ceiling_case_equals_primal(self, single_pair):
        spec = single_pair.with_quotas(upper={"z": 0.25})
        result = solve_eae(spec, np.zeros((1, 1)))
        dual = dual_value(result.utilities.U, result.utilities.V, result.taxes, spec)
        want = 2 * np.log(4.0 / 3.0) + 0.25 * TWO_LOG_THREE
        assert dual == pytest.approx(want, abs=1e-7)
        primal = matching_value(result.matching, np.zeros((1, 1)), spec)
        assert dual == pytest.approx(primal, abs=1e-7)

    def test_reference_market_duality(self, example_market):
        spec, phi = example_market
        result = solve_eae(spec, phi)
        assert result.diagnostics.duality_gap <= 1e-6 * (1 + abs(result.diagnostics.dual_value))


class TestRandomInstances:
    def test_strong_duality_and_kkt(self):
        # Every draw converges, in a few Newton steps of the tax search.
        draws = [random_constrained_market(np.random.default_rng(seed)) for seed in range(40)]
        draws += [
            random_constrained_market(np.random.default_rng(seed), max_types=12, max_regions=6)
            for seed in range(20)
        ]
        for i, (spec, phi) in enumerate(draws):
            result = solve_eae(spec, phi)
            d = result.diagnostics
            assert d.converged, i
            assert d.outer_iterations <= 8, i
            assert d.duality_gap <= 1e-6 * (1.0 + abs(d.dual_value)), i
            assert verify_kkt(result, spec, phi, tol=1e-6).passed, i

    def test_uniqueness_from_random_initializations(self):
        # Starts anywhere in the tax bracket, on the larger draws, exercise the
        # search far from the optimum: its growing trust length, the step of a
        # region whose mass has underflowed at a large tax, and the release of
        # taxes to zero.
        rng = np.random.default_rng(99)
        cases = [(random_constrained_market(np.random.default_rng(seed)), 2.0) for seed in (3, 11)]
        cases += [
            (
                random_constrained_market(np.random.default_rng(seed), max_types=12, max_regions=6),
                eae.BRACKET_LIMIT,
            )
            for seed in (4, 9, 35)
        ]
        for (spec, phi), spread in cases:
            reference = solve_eae(spec, phi)
            for _ in range(5):
                w0 = rng.uniform(-spread, spread, size=spec.num_regions)
                other = solve_eae(spec, phi, initial_taxes=w0)
                assert other.diagnostics.converged
                assert other.diagnostics.outer_iterations <= 20
                assert np.abs(other.taxes.w - reference.taxes.w).max() < 1e-6
                assert np.abs(
                    other.matching.matched - reference.matching.matched
                ).max() < 1e-7

    def test_welfare_dominates_feasible_grid_taxes(self, single_pair):
        # Dense scalar tax grid on a one-region market: no feasible tax beats
        # the optimum.
        spec = single_pair.with_quotas(upper={"z": 0.4}, lower={"z": 0.2})
        phi = np.array([[1.0]])
        best = solve_eae(spec, phi)
        best_welfare = matching_value(best.matching, phi, spec)
        grid = np.arange(-2.0, 3.0, 1e-3)[:, None]
        for mu in sweep_grid_matchings(spec, phi, grid):
            if 0.2 - 1e-9 <= mu.matched.sum() <= 0.4 + 1e-9:
                assert best_welfare >= matching_value(mu, phi, spec) - 1e-7


class TestConicOracle:
    def test_taxes_match_interior_point_solution(self, example_market):
        # Third independent route: the same convex program handed to a conic
        # modeling layer. Skipped when cvxpy is not installed.
        cp = pytest.importorskip("cvxpy")
        spec, phi = example_market

        N, M, L = spec.num_workers, spec.num_slots, spec.num_regions
        U = cp.Variable((N, M))
        V = cp.Variable((N, M))
        ceil_split = cp.Variable(L, nonneg=True)
        floor_split = cp.Variable(L, nonneg=True)
        objective = 0
        for x in range(N):
            objective += spec.n[x] * cp.log_sum_exp(cp.hstack([np.zeros(1), U[x, :]]))
        for y in range(M):
            objective += spec.m[y] * cp.log_sum_exp(cp.hstack([np.zeros(1), V[:, y]]))
        objective += spec.upper @ ceil_split - spec.lower @ floor_split
        net_tax = (ceil_split - floor_split)[spec.slot_region_index]
        constraints = [U + V >= phi.phi - cp.reshape(net_tax, (1, M), order="C")]
        problem = cp.Problem(cp.Minimize(objective), constraints)
        problem.solve(solver=cp.CLARABEL)

        ours = solve_eae(spec, phi)
        w_conic = np.asarray(ceil_split.value) - np.asarray(floor_split.value)
        assert np.abs(ours.taxes.w - w_conic).max() < 5e-4
        assert abs(problem.value - ours.diagnostics.dual_value) <= 1e-6 * (1 + abs(problem.value))


class TestInfeasibility:
    def test_unreachable_floor_raises(self, single_pair, monkeypatch):
        # Slot mass is 1.0 but the floor demands 0.999 of the unit worker
        # mass; the required subsidy exceeds the admissible bracket.
        spec = single_pair.with_quotas(lower={"z": 0.9999})
        monkeypatch.setattr(eae, "BRACKET_LIMIT", 16.0)
        with pytest.raises(InfeasibleQuotaError):
            solve_eae(spec, np.zeros((1, 1)))

    def test_validation_failure_raises_value_error(self, single_pair):
        spec = single_pair.with_quotas(upper={"z": 0.2}, lower={"z": 0.5})
        with pytest.raises(ValueError, match="admissible"):
            solve_eae(spec, np.zeros((1, 1)))

    def test_near_saturation_floor_certifies(self, single_pair):
        # The fixed point slows down as unmatched masses vanish, but warm
        # starts along the tax search carry it to tolerance: the result is
        # certified and lands on the analytic tax up to what the population
        # tolerance allows.
        spec = single_pair.with_quotas(lower={"z": 0.9999})
        result = solve_eae(spec, np.zeros((1, 1)))
        assert result.diagnostics.converged
        assert verify_kkt(result, spec, np.zeros((1, 1)), tol=1e-8).passed
        assert result.taxes.w[0] == pytest.approx(-2 * np.log(9999.0), abs=1e-6)

    @pytest.mark.parametrize("k", range(4, 16))
    @pytest.mark.parametrize("slots", [1, 2], ids=["1x1", "1x2"])
    def test_floor_near_saturation_ends_fast_and_typed(self, slots, k, monkeypatch):
        # One worker type and one slot type per region; the last region's
        # floor asks for all but 10**-k of the workers. At the top of the
        # ladder the floor is met exactly only at a subsidy beyond the bracket
        # of 64, where the mass misses it by less than the constraint
        # tolerance. Either outcome is acceptable, a certified result or
        # InfeasibleQuotaError; an uncertified result or a stall is not. Once
        # the gap is within tolerance a failed full step ends the search, so
        # no rung backtracks on the fixed point's drift: every rung takes at
        # most 30 fixed-point solves.
        from quotamatch.market import MarketSpec

        solves = []
        solve = FixedPoint.solve
        monkeypatch.setattr(
            FixedPoint, "solve", lambda fp, phi, w: solves.append(1) or solve(fp, phi, w)
        )

        regions = tuple(f"z{i}" for i in range(slots))
        spec = MarketSpec(
            ("x",), tuple(f"y{i}" for i in range(slots)), regions,
            np.array([1.0]), np.ones(slots),
            {f"y{i}": z for i, z in enumerate(regions)},
            np.full(slots, np.inf), np.zeros(slots),
        ).with_quotas(lower={regions[-1]: 1.0 - 10.0**-k})
        phi = np.zeros((1, slots))
        start = time.perf_counter()
        try:
            result = solve_eae(spec, phi)
        except InfeasibleQuotaError:
            pass
        else:
            assert result.diagnostics.converged
            assert verify_kkt(result, spec, phi, tol=1e-8).passed
        assert time.perf_counter() - start < 0.5
        assert len(solves) <= 30
