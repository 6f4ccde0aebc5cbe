import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import descent_matching_at_taxes, quadratic_single_pair
from conftest import random_market, traced_peak
from quotamatch import ae
from quotamatch.ae import (
    FixedPoint,
    KernelRangeError,
    build_kernel,
    solve_ae,
    solve_ae_grid,
)
from quotamatch.eae import verify_kkt
from quotamatch.experiments import BB_SUBSIDY_AXIS, BB_TAX_AXIS, URBAN_REGION, gen_jrmp_market
from quotamatch.logit import matching_value
from quotamatch.market import MarketSpec, as_surplus_array, region_masses
from quotamatch.policies import tax_grid


class TestKernel:
    def test_zero_inputs_give_ones(self, single_pair):
        k = build_kernel(np.zeros((1, 1)), np.zeros(1), single_pair)
        assert k[0, 0] == 1.0
        assert not k.flags.writeable

    def test_tax_cancels_surplus(self, single_pair):
        k = build_kernel(np.array([[2.0]]), np.array([2.0]), single_pair)
        assert k[0, 0] == 1.0

    def test_reference_market_spot_value(self, example_market):
        spec, phi = example_market
        k = build_kernel(phi, np.zeros(2), spec)
        assert np.allclose(k, np.exp(phi.phi / 2.0))
        assert k[0, 0] == pytest.approx(np.e, rel=1e-12)

    def test_overflow_guard(self, single_pair):
        with pytest.raises(KernelRangeError):
            build_kernel(np.array([[1500.0]]), np.zeros(1), single_pair)


class TestSolveAe:
    def test_symmetric_single_pair(self, single_pair):
        result = solve_ae(single_pair, np.zeros((1, 1)))
        mu = result.matching
        assert mu.matched[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert mu.unmatched_workers[0] == pytest.approx(0.5, abs=1e-10)
        assert mu.unmatched_slots[0] == pytest.approx(0.5, abs=1e-10)
        assert np.abs(result.utilities.U).max() < 1e-10

    def test_closed_form_two_log_two(self, single_pair):
        phi = np.array([[2.0 * np.log(2.0)]])
        result = solve_ae(single_pair, phi)
        oracle = quadratic_single_pair(phi[0, 0], 0.0)
        assert result.matching.matched[0, 0] == pytest.approx(oracle["matched"], abs=1e-10)
        assert result.utilities.U[0, 0] == pytest.approx(np.log(2.0), abs=1e-9)
        assert result.utilities.V[0, 0] == pytest.approx(np.log(2.0), abs=1e-9)

    def test_reference_market_matches_descent_oracle(self, example_market):
        spec, phi = example_market
        result = solve_ae(spec, phi)
        oracle = descent_matching_at_taxes(spec, phi.phi, np.zeros(2))
        assert np.abs(result.matching.matched - oracle.matched).max() < 1e-7

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            spec, phi = random_market(np.random.default_rng(seed), max_types=3)
            w = rng.uniform(-0.5, 0.5, size=spec.num_regions)
            result = solve_ae(spec, phi, w)
            oracle = descent_matching_at_taxes(spec, phi.phi, w)
            assert np.abs(result.matching.matched - oracle.matched).max() < 1e-7, seed

    def test_population_constraints_hold(self, example_market, monkeypatch):
        spec, phi = example_market
        monkeypatch.setattr(ae, "POPULATION_TOLERANCE", 1e-12)
        result = solve_ae(spec, phi)
        assert result.matching.population_residual(spec) <= 1e-12

    def test_binding_holds_with_taxes(self, example_market):
        spec, phi = example_market
        w = np.array([0.7, -0.3])
        result = solve_ae(spec, phi, w)
        net = phi.phi - w[spec.slot_region_index][None, :]
        gap = result.utilities.U + result.utilities.V - net
        assert np.abs(gap).max() < 1e-12

    def test_deterministic_bitwise(self, example_market):
        spec, phi = example_market
        r1 = solve_ae(spec, phi, np.array([0.1, 0.2]))
        r2 = solve_ae(spec, phi, np.array([0.1, 0.2]))
        assert r1.matching.matched.tobytes() == r2.matching.matched.tobytes()
        assert r1.utilities.U.tobytes() == r2.utilities.U.tobytes()

    def test_comparative_statics_tax_decreases_region_mass(self):
        for seed in range(8):
            spec, phi = random_market(np.random.default_rng(100 + seed), max_types=4)
            base = region_masses(solve_ae(spec, phi).matching, spec)
            for zi in range(spec.num_regions):
                w = np.zeros(spec.num_regions)
                w[zi] = 0.8
                taxed = region_masses(solve_ae(spec, phi, w).matching, spec)
                assert taxed[zi] <= base[zi] + 1e-9

    def test_nonconvergence_is_flagged_not_raised(self, example_market, monkeypatch):
        spec, phi = example_market
        monkeypatch.setattr(ae, "POPULATION_TOLERANCE", 1e-10)
        monkeypatch.setattr(ae, "MAX_ITERATIONS", 2)
        result = solve_ae(spec, phi)
        assert not result.diagnostics.converged

    def test_warm_start_agrees_with_cold(self, example_market):
        spec, phi = example_market
        cold = solve_ae(spec, phi, np.array([0.2, 0.0]))
        fp = FixedPoint(spec).solve(phi, np.array([0.21, 0.0]))
        warm = fp.solve(phi, np.array([0.2, 0.0])).matching()
        assert np.abs(warm.matched - cold.matching.matched).max() < 1e-9

    def test_converges_near_exponent_limit_without_overflow(self, single_pair):
        # A kernel exponent of 360: squaring K b would overflow a double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_ae(single_pair, np.array([[720.0]]))
        assert result.diagnostics.converged
        assert result.matching.matched[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_dprime_duality_gap_small(self, example_market):
        spec, phi = example_market
        result = solve_ae(spec, phi, np.array([0.4, -0.1]))
        d = result.diagnostics
        assert d.duality_gap <= 1e-8 * (1.0 + abs(d.dual_value))

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_start_one_sweep_from_convergence_takes_no_newton_trial(self, example_market, batched, monkeypatch):
        # With the surplus lowered by 8 the sweeps contract about
        # five-hundredfold. Started from the roots at taxes 1e-5 higher, the
        # first sweep leaves a residual near 1e-8 and the second converges,
        # so the rate the first two sweeps show calls for no Newton trial.
        spec, phi = example_market
        phi = phi.phi - 8.0
        taxes = np.array([[0.2, 0.0], [0.5, -0.1], [-0.3, 0.4]])
        start = np.array([FixedPoint(spec).solve(phi, w + 1e-5).b for w in taxes])
        if batched:
            kernel, scale = build_kernel(phi, np.zeros(2), spec), np.exp(-0.5 * taxes[:, spec.slot_region_index])
        else:
            kernel, scale, start = build_kernel(phi, taxes[0], spec), 1.0, start[0]
        solve_log_jacobian, trials = ae._solve_log_jacobian, []

        def counting_solve(*args):
            trials.append(1)
            return solve_log_jacobian(*args)

        monkeypatch.setattr(ae, "_solve_log_jacobian", counting_solve)
        _, _, sweeps, residual = ae._ipfp(spec.n, spec.m, kernel, start, scale)
        assert (sweeps, trials) == (2, []) and residual <= ae.POPULATION_TOLERANCE
        # One sweep alone does not converge.
        monkeypatch.setattr(ae, "MAX_ITERATIONS", 1)
        _, _, sweeps, residual = ae._ipfp(spec.n, spec.m, kernel, start, scale)
        assert (sweeps, trials) == (1, []) and residual > 10.0 * ae.POPULATION_TOLERANCE


def assert_priced_like_solve_ae(batch, spec, phi, tol, welfare_tol=None):
    """Every grid point's region masses, revenue and social welfare agree with
    its separate solve priced by matching_value, to ``tol``; the welfare to
    ``welfare_tol`` (``tol`` by default) relative to its size once that
    exceeds one."""
    phi = as_surplus_array(phi, spec)
    welfare_tol = tol if welfare_tol is None else welfare_tol
    for g, w in enumerate(batch.taxes):
        single = solve_ae(spec, phi, w).matching
        assert np.abs(batch.region_mass[g] - region_masses(single, spec)).max() < tol
        revenue = float((single.matched * w[spec.slot_region_index][None, :]).sum())
        assert abs(batch.revenue[g] - revenue) < tol
        welfare = matching_value(single, phi, spec)
        assert abs(batch.social_welfare[g] - welfare) < welfare_tol * max(1.0, abs(welfare))


@st.composite
def gridded_markets(draw):
    """Up to 3 x 3 markets over up to three regions, with masses from 1e-6 to
    1e3 and surplus within +-40, and a (T, P, L) tax grid: either 2-3
    batches of arbitrary taxes, or 7-10 batches each 0, 1 or 2 steps on from
    the last, a step being at most 2 per region."""
    num_workers, num_slots = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    num_regions = draw(st.integers(1, num_slots))
    region = draw(st.permutations(range(num_slots)))
    region_of = {f"y{j}": f"z{min(region[j], num_regions - 1)}" for j in range(num_slots)}
    exponents = st.floats(-6.0, 3.0)
    n = 10.0 ** np.array(draw(st.lists(exponents, min_size=num_workers, max_size=num_workers)))
    m = 10.0 ** np.array(draw(st.lists(exponents, min_size=num_slots, max_size=num_slots)))
    spec = MarketSpec(
        tuple(f"x{i}" for i in range(num_workers)),
        tuple(f"y{j}" for j in range(num_slots)),
        tuple(f"z{k}" for k in range(num_regions)),
        n,
        m,
        region_of,
        np.full(num_regions, np.inf),
        np.zeros(num_regions),
    )
    size = num_workers * num_slots
    phi = np.array(draw(st.lists(st.floats(-40.0, 40.0), min_size=size, max_size=size)))
    stepped = draw(st.booleans())
    shape = (1 if stepped else draw(st.integers(2, 3)), draw(st.integers(1, 3)), num_regions)
    size = int(np.prod(shape))
    taxes = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size)))
    taxes = taxes.reshape(shape)
    if stepped:
        steps = st.lists(st.floats(-2.0, 2.0), min_size=num_regions, max_size=num_regions)
        step = np.array(draw(steps))
        multiples = np.cumsum([0] + draw(st.lists(st.integers(0, 2), min_size=6, max_size=9)))
        taxes = taxes + multiples[:, None, None] * step
    return spec, phi.reshape(num_workers, num_slots), taxes


class TestGridSolve:
    def test_matches_individual_solves(self, example_market):
        spec, phi = example_market
        grid = np.array([[0.0, 0.0], [0.5, -0.1], [2.0, 0.3]])
        batch = solve_ae_grid(spec, phi, grid)
        assert batch.converged
        assert_priced_like_solve_ae(batch, spec, phi, 1e-9)

    def test_rejects_bad_shape(self, example_market):
        spec, phi = example_market
        for shape in ((4, 3), (2, 2, 3), (1, 1, 1, 2), (2,), (0, 2), (3, 0, 2), (0, 4, 2)):
            with pytest.raises(ValueError, match="tax grid must have shape"):
                solve_ae_grid(spec, phi, np.zeros(shape))

    def test_rejects_non_finite_grid(self, example_market):
        spec, phi = example_market
        with pytest.raises(ValueError, match="finite"):
            solve_ae_grid(spec, phi, np.array([[0.0, 0.0], [np.nan, 0.0]]))

    @pytest.mark.parametrize("excess, rejected", [(2e-6, True), (-2e-6, False)])
    def test_range_limit_matches_build_kernel(self, single_pair, excess, rejected, monkeypatch):
        # The grid's largest exponent 0.5 * (phi - w) sits just above or below
        # 700 at its second point only.
        phi = np.zeros((1, 1))
        grid = np.array([[0.0], [-2.0 * (700.0 + excess)]])
        assert bool(0.5 * (phi[0, 0] - grid[1, 0]) > 700.0) == rejected
        monkeypatch.setattr(ae, "MAX_ITERATIONS", 1)
        for solve in (
            lambda: build_kernel(phi, grid[1], single_pair),
            lambda: solve_ae_grid(single_pair, phi, grid),
        ):
            if rejected:
                with pytest.raises(KernelRangeError):
                    solve()
            else:
                # A kernel this large overflows the sweep itself; only the
                # range check is under test.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    solve()

    def test_matches_individual_solves_across_a_wide_column(self):
        # Surplus spans 600 within each column, so the shared factor
        # exp((phi - top) / 2) reaches e**-300 next to entries of order one.
        spec = MarketSpec(
            ("x1", "x2", "x3"),
            ("y1", "y2", "y3"),
            ("z1", "z2"),
            np.array([0.3, 0.5, 0.2]),
            np.array([0.4, 0.3, 0.4]),
            {"y1": "z1", "y2": "z1", "y3": "z2"},
            np.array([np.inf, np.inf]),
            np.zeros(2),
        )
        phi = np.array([[600.0, 1.0, -2.0], [0.0, 599.0, 3.0], [-0.5, 0.0, 600.0]])
        grid = np.array([[0.0, 0.0], [1.5, -0.5], [-3.0, 4.0], [590.0, 0.0]])
        assert np.exp(0.5 * (phi - phi.max(axis=0))).min() < np.exp(-299.0)
        batch = solve_ae_grid(spec, phi, grid)
        assert batch.converged
        assert_priced_like_solve_ae(batch, spec, phi, 1e-9)

    def test_one_point_grid_matches_solve_ae(self, example_market):
        spec, phi = example_market
        w = np.array([0.5, -0.1])
        batch = solve_ae_grid(spec, phi, w[None, :])
        single = solve_ae(spec, phi, w)
        assert batch.iterations == single.diagnostics.inner_iterations
        assert_priced_like_solve_ae(batch, spec, phi, 1e-12)

    @pytest.mark.parametrize("capped", [False, True])
    def test_blocks_join_at_their_seams(self, example_market, capped, monkeypatch):
        # Three batches of four points; the near-saturated middle batch needs
        # the most sweeps. Capped at 20 sweeps it does not converge.
        spec, phi = example_market
        grid = np.column_stack([np.linspace(-1.0, 2.0, 12), np.linspace(0.5, -0.5, 12)])
        grid[4:8] = [[-20.0, -20.0], [-30.0, 5.0], [-40.0, -40.0], [-25.0, -35.0]]
        ipfp, batches = ae._ipfp, []

        def recording_ipfp(n, m, kernel, b0, scale):
            batches.append(ipfp(n, m, kernel, b0, scale))
            return batches[-1]

        monkeypatch.setattr(ae, "_ipfp", recording_ipfp)
        if capped:
            monkeypatch.setattr(ae, "MAX_ITERATIONS", 20)
        batch = solve_ae_grid(spec, phi, grid.reshape(3, 4, 2))
        sweeps = [iterations for _, _, iterations, _ in batches]
        assert sweeps == ([12, 20, 9] if capped else [12, 33, 9])
        assert batch.iterations == sum(sweeps)
        assert batch.residual == max(residual for _, _, _, residual in batches)
        assert batch.converged != capped
        assert np.array_equal(batch.taxes, grid)
        monkeypatch.undo()
        if not capped:
            # The closed-form value is first-order in the unmatched masses'
            # residual, which near saturation meets log factors of about 40.
            assert_priced_like_solve_ae(batch, spec, phi, 1e-9, welfare_tol=1e-8)

    @pytest.mark.parametrize(
        "offsets",
        [range(8), (0, 1, 2, 3, 4, 6, 7, 8), (0, 1, 2, 2, 3, 4, 5)],
        ids=["even", "uneven", "repeated"],
    )
    def test_batches_start_from_the_extrapolation_in_position(self, example_market, offsets, monkeypatch):
        # Batches of three points at the given multiples of a step of
        # (0.3, -0.15): each starts from exp of the polynomial through log b
        # at the last (up to) four distinct positions, evaluated at its own,
        # where a batch repeated at one position stands for it. A zero step
        # starts from the last roots exactly.
        spec, phi = example_market
        points = np.array([[0.0, 0.0], [0.5, -0.1], [2.0, 0.3]])
        grid = points + 0.3 * np.array(offsets)[:, None, None] * np.array([1.0, -0.5])
        ipfp, starts, roots = ae._ipfp, [], []

        def recording_ipfp(n, m, kernel, b0, scale):
            result = ipfp(n, m, kernel, b0, scale)
            starts.append(b0)
            roots.append(result[1])
            return result

        monkeypatch.setattr(ae, "_ipfp", recording_ipfp)
        batch = solve_ae_grid(spec, phi, grid)
        assert len(starts) == len(offsets) and starts[0] is None
        for t in range(1, len(offsets)):
            if offsets[t] == offsets[t - 1]:
                assert np.array_equal(starts[t], roots[t - 1])
                continue
            latest = {0.3 * offsets[s]: np.log(roots[s]) for s in range(t)}
            x = np.array(list(latest))[-4:]
            log_b = np.array(list(latest.values()))[-4:]
            coefficients = np.linalg.solve(np.vander(x), log_b.reshape(len(x), -1))
            want = np.exp(np.vander([0.3 * offsets[t]], len(x)) @ coefficients).reshape(log_b.shape[1:])
            np.testing.assert_allclose(starts[t], want, rtol=1e-12, err_msg=str(t))
        monkeypatch.undo()
        assert batch.converged
        assert_priced_like_solve_ae(batch, spec, phi, 1e-9)

    def test_guess_out_of_range_falls_back_to_the_last_roots(self, example_market, monkeypatch):
        # Prescribed roots for three evenly spaced batches of two points:
        # batch 2 starts from the linear extrapolation b_1**2 / b_0 where it
        # is finite and positive. It underflows at (0, 1), overflows at
        # (0, 2), and comes from a zero root at (1, 0) and (1, 1), so those
        # start from batch 1's roots. The prescription runs out at batch 2,
        # before its roots are priced.
        spec, phi = example_market
        prescribed = iter(
            [[[0.5, 1.0, 1e-200], [0.0, 1.0, 1.0]], [[0.25, 1e-200, 1e150], [0.5, 0.0, 1.0]]]
        )
        starts = []

        def prescribed_ipfp(n, m, kernel, b0, scale):
            starts.append(b0)
            return np.ones((2, n.size)), np.array(next(prescribed)), 1, 0.0

        monkeypatch.setattr(ae, "_ipfp", prescribed_ipfp)
        grid = 0.1 * np.arange(3)[:, None, None] * np.array([[[1.0, 2.0], [1.0, 2.0]]])
        with warnings.catch_warnings(), pytest.raises(StopIteration):
            warnings.simplefilter("error")
            solve_ae_grid(spec, phi, grid)
        assert len(starts) == 3
        assert starts[2][0, 0] == pytest.approx(0.125, rel=1e-14)
        assert starts[2][0, 1:].tolist() == [1e-200, 1e150]
        assert starts[2][1].tolist() == [0.5, 0.0, 1.0]

    def test_runs_under_the_callers_error_state(self, example_market, monkeypatch):
        spec, phi = example_market
        ipfp = ae._ipfp

        def overflowing_ipfp(*args, **kwargs):
            np.float64(1e308) * 10.0
            return ipfp(*args, **kwargs)

        monkeypatch.setattr(ae, "_ipfp", overflowing_ipfp)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            solve_ae_grid(spec, phi, np.zeros((3, 2)))
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_ae_grid(spec, phi, np.zeros((3, 2))).converged

    def test_holds_no_array_the_size_of_the_grid_but_roots_and_outputs(self):
        # The published budget-balance grid, 21 batches of 441 points on a
        # 10 x 6 market in 3 regions. The roots a, b of every point and the
        # outputs (taxes and region masses by region, revenue and welfare)
        # take 1.8 MB; the peak may reach twice that, room for one batch's
        # work arrays but not for several (G, M) arrays of 0.44 MB each.
        spec, phi = gen_jrmp_market(0)
        grid = tax_grid(spec, URBAN_REGION, BB_TAX_AXIS, BB_SUBSIDY_AXIS)
        T, P, L = grid.shape
        roots = 8 * T * P * (spec.num_workers + spec.num_slots)
        outputs = 8 * T * P * (2 * L + 2)
        solved, peak = traced_peak(lambda: solve_ae_grid(spec, phi, grid))
        assert solved.converged
        assert peak < 2 * (roots + outputs)

    @settings(max_examples=60, deadline=None)
    @given(gridded_markets())
    def test_closed_form_pricing_matches_separate_solves(self, case):
        spec, phi, grid = case
        batch = solve_ae_grid(spec, phi, grid)
        assert batch.converged
        for g, w in enumerate(batch.taxes):
            single = solve_ae(spec, phi, w)
            assert single.diagnostics.converged
            welfare = matching_value(single.matching, phi, spec)
            assert abs(batch.social_welfare[g] - welfare) <= 1e-8 * max(1.0, abs(welfare))


def one_region_market(n, m, phi):
    n, m = np.asarray(n, dtype=np.float64), np.asarray(m, dtype=np.float64)
    spec = MarketSpec(
        tuple(f"x{i}" for i in range(n.size)),
        tuple(f"y{j}" for j in range(m.size)),
        ("z",),
        n,
        m,
        {f"y{j}": "z" for j in range(m.size)},
        np.array([np.inf]),
        np.zeros(1),
    )
    return spec, np.asarray(phi, dtype=np.float64)


@st.composite
def extreme_markets(draw, surplus_limit):
    """Up to 3 x 3 markets with masses from 1e-6 to 1e3 and surplus within
    +-surplus_limit."""
    num_workers = draw(st.integers(1, 3))
    num_slots = draw(st.integers(1, 3))
    exponents = st.floats(-6.0, 3.0)
    n = 10.0 ** np.array(draw(st.lists(exponents, min_size=num_workers, max_size=num_workers)))
    m = 10.0 ** np.array(draw(st.lists(exponents, min_size=num_slots, max_size=num_slots)))
    surplus = st.floats(-surplus_limit, surplus_limit)
    size = num_workers * num_slots
    phi = np.array(draw(st.lists(surplus, min_size=size, max_size=size)))
    return one_region_market(n, m, phi.reshape(num_workers, num_slots))


#: Markets where the worker side is the long side of a pair with a large
#: surplus: the population residual sits at n - m while a grows by a factor
#: n / m per sweep, so plain sweeps crawl for thousands of sweeps or stall.
SATURATED_SIDE = [
    ([1.01], [1.0], [[100.0]]),
    ([1.1], [1.0], [[1360.0]]),
    ([0.3244], [0.314], [[1360.0]]),
    ([0.0816, 0.3244], [0.3142], [[184.17], [1360.15]]),
]


class TestExtremeMarkets:
    @pytest.mark.parametrize("n, m, phi", SATURATED_SIDE)
    def test_saturated_side_converges_in_few_sweeps(self, n, m, phi, monkeypatch):
        # The sweeps' rate is near one, so no sweep is predicted to converge:
        # Newton trials follow most sweeps and do the work of thousands.
        spec, phi = one_region_market(n, m, phi)
        solve_log_jacobian, trials = ae._solve_log_jacobian, []

        def counting_solve(*args):
            trials.append(1)
            return solve_log_jacobian(*args)

        monkeypatch.setattr(ae, "_solve_log_jacobian", counting_solve)
        result = solve_ae(spec, phi)
        assert result.diagnostics.converged
        assert result.diagnostics.inner_iterations <= 100
        assert len(trials) >= result.diagnostics.inner_iterations // 2

    # Zero taxes, so a surplus of 1400 is a kernel exponent of 700, the
    # range limit of build_kernel.
    @settings(max_examples=150, deadline=None)
    @given(extreme_markets(surplus_limit=1400.0))
    @example(one_region_market([1.0], [1.0], [[1400.0]]))
    @example(one_region_market([1e-6, 1e3], [1e3, 1e-6], [[1400.0, -1400.0], [-1400.0, 1400.0]]))
    # Workers that hang on one saturated slot: their Jacobian block is
    # singular up to less than its rounding error.
    @example(one_region_market([1.0] * 3, [1.0] * 3, [[0.0, 0.0, 302.0], [0.0, 0.0, 274.0], [0.0] * 3]))
    @example(one_region_market([1.0, 1e-3, 1.0], [1.0, 1.0], [[0.0, 0.0], [0.0, 233.0], [0.0, 247.0]]))
    @example(one_region_market([1.0, 1e-3, 1.0], [1.0, 1.0], [[0.0, 759.0], [0.0, 761.0], [0.0, 0.0]]))
    # A log-space Newton step overshoots a saturated worker by about twice
    # its distance; only a shorter trial is kept.
    @example(one_region_market([1.0000002744895709, 1.0, 10.0], [1.0, 1.0], [[0.0, 305.25], [87.0, 0.0], [280.0, 0.0]]))
    # Saturated square markets with equal total masses on both sides: all
    # workers moving together against all slots changes the residual by
    # less than its rounding.
    @example(one_region_market([1.0] * 3, [1.0] * 3, [[0.0, 1400.0, 1088.0], [571.0, 0.0, 0.0], [616.0, 620.0, 0.0]]))
    @example(one_region_market([1.0, 100.0], [100.0, 1.0], [[1351.0, 234.0], [1344.0, 0.0]]))
    # Two saturated pairs of equal masses share a slot: the step along the
    # direction they move together is lost in rounding and must not block
    # the steps of the other workers.
    @example(
        one_region_market(
            [3.65174127e-4, 1.0, 1.0],
            [3.65174127e-4, 1.0, 1.0],
            [[895.0, 0.0, 1264.0], [0.0, 0.0, 866.0], [0.0, 33.0, 0.0]],
        )
    )
    def test_converges_and_certifies(self, case):
        spec, phi = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_ae(spec, phi)
            report = verify_kkt(result, spec, phi, tol=1e-8)
        assert result.diagnostics.converged
        assert report.passed, report

    # The descent oracle finishes with exact Newton steps, so it reaches the
    # equilibrium where its quasi-Newton search alone stops short, as it does
    # on the second example (a residual of 1.3e-2). The solve itself is exact
    # only to its absolute population tolerance.
    @settings(max_examples=60, deadline=None)
    @given(extreme_markets(surplus_limit=40.0))
    @example(one_region_market([1e-5], [1e-5], [[0.1875]]))
    @example(
        one_region_market(
            [1e3, 1e-6, 1e2],
            [13.33521432163324, 10.0, 1000.0],
            [[0.0, 1.0, -34.0], [-1.25, 6.0, 24.875], [-1.0, 0.0, 9.0]],
        )
    )
    def test_matches_descent_oracle(self, case):
        spec, phi = case
        result = solve_ae(spec, phi)
        oracle = descent_matching_at_taxes(spec, phi, np.zeros(1))
        assert result.diagnostics.converged
        bound = 1e-6 * max(spec.n.max(), spec.m.max()) + 10.0 * ae.POPULATION_TOLERANCE
        assert np.abs(result.matching.matched - oracle.matched).max() <= bound
