from dataclasses import replace

import numpy as np
import pytest

from oracles import sweep_grid_matchings
from quotamatch import ae
from quotamatch.ae import solve_ae, solve_ae_grid
from quotamatch.eae import InfeasibleQuotaError, solve_eae
from quotamatch.experiments import (
    BB_SUBSIDY_AXIS,
    BB_TAX_AXIS,
    CAP_GRID,
    UPPER_BOUND_GRID,
    JrmpConfig,
    gen_jrmp_market,
    policy_record,
    sweep_policies,
)
from quotamatch.logit import matching_value
from quotamatch.market import region_masses
from quotamatch.policies import (
    PolicyResult,
    bbae,
    cap_reduced_ae,
    eae_upper_bound,
    extend_capped_matching,
    policy_result,
    tax_grid,
    welfare_ordering_check,
)


@pytest.fixture(scope="module")
def jrmp():
    spec, phi = gen_jrmp_market(0)
    return spec, phi


FLOORS = {"z2": 0.2, "z3": 0.2}
#: floor levels of the exhaustive-scan tests
SCAN_LEVELS = (0.2, 0.3)


def eae_policy(spec, phi, floors):
    eq = solve_eae(spec.with_quotas(lower=floors), phi)
    return policy_result("eae", eq, phi, spec, eq.diagnostics.converged)


def default_grid(spec):
    return tax_grid(spec, "z1", BB_TAX_AXIS, BB_SUBSIDY_AXIS)


def assert_same_result(result, want):
    """Two policy results agree bit for bit."""
    assert result.policy == want.policy
    assert np.array_equal(result.search_parameter, want.search_parameter)
    assert result.feasible == want.feasible
    assert result.welfare == want.welfare
    for got, expected in (
        (result.evaluated_matching, want.evaluated_matching),
        (result.equilibrium.matching, want.equilibrium.matching),
    ):
        assert got.matched.tobytes() == expected.matched.tobytes()
        assert got.unmatched_workers.tobytes() == expected.unmatched_workers.tobytes()
        assert got.unmatched_slots.tobytes() == expected.unmatched_slots.tobytes()
    assert result.equilibrium.taxes.w.tobytes() == want.equilibrium.taxes.w.tobytes()
    assert result.equilibrium.utilities.U.tobytes() == want.equilibrium.utilities.U.tobytes()
    assert result.equilibrium.utilities.V.tobytes() == want.equilibrium.utilities.V.tobytes()


def assert_feasible_prefix(feasibility):
    """Feasibility along an ascending grid is a run of True followed by a run
    of False: once lost as the cap grows, it does not come back."""
    k = feasibility.index(False) if False in feasibility else len(feasibility)
    assert feasibility == [True] * k + [False] * (len(feasibility) - k), feasibility


class TestUpperBoundPolicy:
    def test_vacuous_floors_accept_first_grid_value(self, jrmp):
        spec, phi = jrmp
        result = eae_upper_bound(spec, phi, {"z2": 0.0, "z3": 0.0}, UPPER_BOUND_GRID, "z1")
        assert result.feasible
        assert result.search_parameter == UPPER_BOUND_GRID[0]

    def test_accepted_value_matches_exhaustive_scan(self, jrmp):
        spec, phi = jrmp
        capped = [spec.with_quotas(upper={"z1": cap}, lower={}) for cap in UPPER_BOUND_GRID]
        outcomes = [region_masses(solve_eae(c, phi).matching, spec) for c in capped]
        for level in SCAN_LEVELS:
            result = eae_upper_bound(spec, phi, {"z2": level, "z3": level}, UPPER_BOUND_GRID, "z1")
            feasibility = [bool(m[1] >= level - 1e-8 and m[2] >= level - 1e-8) for m in outcomes]
            assert_feasible_prefix(feasibility)
            assert result.feasible
            assert result.search_parameter == UPPER_BOUND_GRID[feasibility.index(True)]

    def test_policy_collects_only_taxes(self, jrmp):
        spec, phi = jrmp
        result = eae_upper_bound(spec, phi, FLOORS, UPPER_BOUND_GRID, "z1")
        assert result.welfare.pm_surplus >= 0.0
        assert np.all(result.equilibrium.taxes.w >= 0.0)

    def test_infeasible_floor_flagged(self, jrmp):
        spec, phi = jrmp
        result = eae_upper_bound(spec, phi, {"z2": 0.49, "z3": 0.49}, UPPER_BOUND_GRID, "z1")
        assert not result.feasible
        assert result.search_parameter == UPPER_BOUND_GRID[-1]


class TestCapReducedPolicy:
    def test_grid_anchored_at_original_capacity_reproduces_free_market(self, jrmp):
        spec, phi = jrmp
        result = cap_reduced_ae(spec, phi, {"z2": 0.0, "z3": 0.0}, [0.25], "z1")
        free = solve_ae(spec, phi)
        assert result.feasible
        assert result.search_parameter == 0.25
        assert np.abs(result.equilibrium.matching.matched - free.matching.matched).max() < 1e-12
        assert np.all(result.equilibrium.taxes.w == 0.0)

    def test_accepted_value_matches_exhaustive_scan(self, jrmp):
        spec, phi = jrmp
        reduced = [spec.with_slot_masses({"y1": cap, "y2": cap}) for cap in CAP_GRID]
        outcomes = [region_masses(solve_ae(r, phi).matching, spec) for r in reduced]
        for level in SCAN_LEVELS:
            result = cap_reduced_ae(spec, phi, {"z2": level, "z3": level}, CAP_GRID, "z1")
            feasibility = [bool(m[1] >= level - 1e-8 and m[2] >= level - 1e-8) for m in outcomes]
            assert_feasible_prefix(feasibility)
            assert result.feasible
            assert result.search_parameter == CAP_GRID[feasibility.index(True)]

    def test_extended_matching_restores_true_slot_masses(self, jrmp):
        spec, phi = jrmp
        result = cap_reduced_ae(spec, phi, FLOORS, CAP_GRID, "z1")
        extended = result.evaluated_matching
        slot_totals = extended.matched.sum(axis=0) + extended.unmatched_slots
        assert np.abs(slot_totals - spec.m).max() < 1e-9
        assert np.all(extended.unmatched_slots > 0)

    def test_extend_capped_matching_helper(self, jrmp):
        spec, phi = jrmp
        reduced = solve_ae(spec.with_slot_masses({"y1": 0.1, "y2": 0.1}), phi)
        extended = extend_capped_matching(reduced.matching, spec)
        assert np.array_equal(extended.matched, reduced.matching.matched)
        assert np.abs(
            extended.matched.sum(axis=0) + extended.unmatched_slots - spec.m
        ).max() < 1e-12

    def test_unconverged_equilibrium_is_infeasible(self, jrmp, monkeypatch):
        def unconverged(*args):
            result = solve_ae(*args)
            return replace(result, diagnostics=replace(result.diagnostics, converged=False))

        spec, phi = jrmp
        assert cap_reduced_ae(spec, phi, FLOORS, CAP_GRID, "z1").feasible
        monkeypatch.setattr("quotamatch.policies.solve_ae", unconverged)
        assert not cap_reduced_ae(spec, phi, FLOORS, CAP_GRID, "z1").feasible


class TestBudgetBalancedPolicy:
    def test_singleton_zero_grid_reproduces_free_market(self, jrmp):
        spec, phi = jrmp
        [result] = bbae(spec, phi, [{"z2": 0.0, "z3": 0.0}], np.zeros((1, 3)))
        free = solve_ae(spec, phi)
        assert result.feasible
        assert np.all(result.search_parameter == 0.0)
        assert np.abs(result.equilibrium.matching.matched - free.matching.matched).max() < 1e-10

    def test_budget_constraint_holds(self, jrmp):
        spec, phi = jrmp
        [result] = bbae(spec, phi, [FLOORS], default_grid(spec))
        assert result.welfare.pm_surplus >= -1e-12
        assert result.feasible

    def test_unconverged_grid_is_infeasible(self, jrmp, monkeypatch):
        monkeypatch.setattr(
            "quotamatch.policies.solve_ae_grid",
            lambda *args: replace(solve_ae_grid(*args), converged=False),
        )
        spec, phi = jrmp
        [result] = bbae(spec, phi, [FLOORS], default_grid(spec))
        assert result.equilibrium.diagnostics.converged
        assert not result.feasible

    def test_selection_maximizes_welfare_over_kept_set(self, jrmp):
        # At every published floor the chosen tax vector is the brute-force
        # argmax row over the kept set, priced on the independent sweep's
        # matchings, which are computed once.
        spec, phi = jrmp
        grid = default_grid(spec)
        gs = solve_ae_grid(spec, phi, grid)
        levels = JrmpConfig().floor_grid
        chosen = bbae(spec, phi, [{"z2": f, "z3": f} for f in levels], grid)
        mus = sweep_grid_matchings(spec, phi.phi, gs.taxes)
        w_slot = gs.taxes[:, spec.slot_region_index]
        pm = np.array([(mu.matched * w[None, :]).sum() for mu, w in zip(mus, w_slot)])
        social = np.array([matching_value(mu, phi.phi, spec) for mu in mus])
        masses = np.array([region_masses(mu, spec) for mu in mus])
        # The grid's closed-form prices agree with the sweep's.
        assert np.abs(gs.revenue - pm).max() <= 1e-9
        assert np.abs(gs.social_welfare - social).max() <= 1e-9
        for level, result in zip(levels, chosen):
            kept = (pm >= -1e-12) & (masses[:, 1:] >= level - 1e-8).all(axis=1)
            best = np.flatnonzero(kept)[np.argmax(social[kept])]
            assert result.feasible
            assert np.array_equal(result.search_parameter, gs.taxes[best]), level
            assert result.welfare.social == pytest.approx(social[best], abs=1e-8)

    def test_default_grid_batches_take_few_sweeps_and_trials(self, jrmp, monkeypatch):
        # Batches step along the fine subsidy axis, solved batch by batch by
        # continuation (ae.solve_ae_grid), so after the first two each takes
        # a few sweeps. A batch takes one more sweep in place of a Newton
        # trial where that sweep is predicted to converge: 9 trials in all.
        ipfp, sweeps = ae._ipfp, []
        solve_log_jacobian, trials = ae._solve_log_jacobian, []

        def counting_ipfp(*args):
            result = ipfp(*args)
            sweeps.append(result[2])
            return result

        def counting_solve(*args):
            trials.append(1)
            return solve_log_jacobian(*args)

        monkeypatch.setattr(ae, "_ipfp", counting_ipfp)
        monkeypatch.setattr(ae, "_solve_log_jacobian", counting_solve)
        spec, phi = jrmp
        assert solve_ae_grid(spec, phi, default_grid(spec)).converged
        assert len(sweeps) == 21 and max(sweeps[2:]) <= 3
        assert len(trials) <= 10

    def test_sweep_selection_equals_fresh_bbae_bit_for_bit(self, jrmp):
        # The sweep shares solves across levels: the budget-balance grid, a
        # bbae winner's re-solve, and a scan outcome that meets a higher
        # level's floors. Unsorted and repeated levels, a vacuous one and one
        # that no cap meets must still give every policy the result of a
        # fresh call at that floor alone.
        spec, phi = jrmp
        levels = (0.3, 0.1, 0.2, 0.2, 0.0, 0.49)
        sweep = sweep_policies(spec, phi, levels, "z1", ("z2", "z3"))
        free = policy_result("unconstrained", solve_ae(spec, phi), phi, spec)
        for level, results in zip(levels, sweep):
            floors = {"z2": level, "z3": level}
            if level == 0.0:
                fresh = [
                    replace(free, policy=p)
                    for p in ("eae", "eae_upper_bound", "cap_reduced", "bbae")
                ]
            else:
                fresh = [
                    eae_upper_bound(spec, phi, floors, UPPER_BOUND_GRID, "z1"),
                    cap_reduced_ae(spec, phi, floors, CAP_GRID, "z1"),
                    *bbae(spec, phi, [floors], default_grid(spec)),
                ]
                try:
                    eq = solve_eae(spec.with_quotas(lower=floors), phi)
                    fresh.insert(0, policy_result("eae", eq, phi, spec))
                except InfeasibleQuotaError:
                    pass
            assert [r.policy for r in results] == [r.policy for r in fresh]
            for swept, want in zip(results, fresh):
                assert_same_result(swept, want)
        upper_bound = [next(r for r in rs if r.policy == "eae_upper_bound") for rs in sweep]
        assert not upper_bound[-1].feasible

    def test_vacuous_floors_solve_no_grid(self, jrmp, monkeypatch):
        def unused_grid(*args, **kwargs):
            raise AssertionError("the budget-balance grid was solved")

        monkeypatch.setattr("quotamatch.policies.solve_ae_grid", unused_grid)
        spec, phi = jrmp
        assert bbae(spec, phi, [], default_grid(spec)) == []
        [results] = sweep_policies(spec, phi, [0.0], "z1", ("z2", "z3"))
        assert [r.policy for r in results] == ["eae", "eae_upper_bound", "cap_reduced", "bbae"]

    def test_net_agent_surplus_reported(self, jrmp):
        spec, phi = jrmp
        [result] = bbae(spec, phi, [FLOORS], default_grid(spec))
        mu = result.equilibrium.matching
        w_slot = result.equilibrium.taxes.w[spec.slot_region_index]
        want = float((mu.matched * (np.asarray(phi.phi) - w_slot[None, :])).sum())
        net = result.welfare.match_surplus - result.welfare.pm_surplus
        assert net == pytest.approx(want, abs=1e-8)


class TestSweepSolves:
    def test_each_candidate_solved_once_per_market(self, jrmp, monkeypatch):
        # On this draw both scans accept their first grid value at every
        # published level, so one candidate solve each serves all seven
        # levels, and each distinct bbae winner is re-solved once.
        calls = {"solve_eae": 0, "solve_ae": 0}

        def counted(name, solve):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)

            return wrapper

        monkeypatch.setattr("quotamatch.policies.solve_eae", counted("solve_eae", solve_eae))
        monkeypatch.setattr("quotamatch.policies.solve_ae", counted("solve_ae", solve_ae))
        spec, phi = jrmp
        levels = JrmpConfig().floor_grid
        sweep = sweep_policies(spec, phi, levels, "z1", ("z2", "z3"))
        by_policy = {
            p: [r for rs in sweep for r in rs if r.policy == p]
            for p in ("eae_upper_bound", "cap_reduced", "bbae")
        }
        assert all(r.feasible for rs in by_policy.values() for r in rs)
        assert {r.search_parameter for r in by_policy["eae_upper_bound"]} == {UPPER_BOUND_GRID[0]}
        assert {r.search_parameter for r in by_policy["cap_reduced"]} == {CAP_GRID[0]}
        winners = {r.search_parameter.tobytes() for r in by_policy["bbae"]}
        assert calls == {"solve_eae": 1, "solve_ae": 1 + len(winners)}

    def test_infeasible_scan_outcome_reused_at_higher_level(self, jrmp, monkeypatch):
        # No cap and no capacity meets the floors at 0.45, so none meets them
        # at 0.49, and the scans' fallback does not depend on the floors: the
        # second level runs no candidate solve.
        solves = []  # the floor of every candidate solve inside a scan
        scanning = []

        def at_level(scan):
            def wrapper(spec, phi, floors, grid, region):
                scanning.append(floors["z2"])
                try:
                    return scan(spec, phi, floors, grid, region)
                finally:
                    scanning.pop()

            return wrapper

        def counted(solve):
            def wrapper(*args, **kwargs):
                solves.extend(scanning)
                return solve(*args, **kwargs)

            return wrapper

        monkeypatch.setattr("quotamatch.experiments.eae_upper_bound", at_level(eae_upper_bound))
        monkeypatch.setattr("quotamatch.experiments.cap_reduced_ae", at_level(cap_reduced_ae))
        monkeypatch.setattr("quotamatch.policies.solve_eae", counted(solve_eae))
        monkeypatch.setattr("quotamatch.policies.solve_ae", counted(solve_ae))
        spec, phi = jrmp
        levels = (0.45, 0.49)
        sweep = sweep_policies(spec, phi, levels, "z1", ("z2", "z3"))
        assert solves == [0.45] * (len(UPPER_BOUND_GRID) + len(CAP_GRID))
        monkeypatch.undo()
        floors = {"z2": 0.49, "z3": 0.49}
        fresh = [
            eae_upper_bound(spec, phi, floors, UPPER_BOUND_GRID, "z1"),
            cap_reduced_ae(spec, phi, floors, CAP_GRID, "z1"),
        ]
        scanned = [r for r in sweep[1] if r.policy in ("eae_upper_bound", "cap_reduced")]
        assert [r.feasible for r in scanned] == [False, False]
        for swept, want in zip(scanned, fresh):
            assert_same_result(swept, want)
            assert policy_record(0.49, None, swept, spec, "z1", ("z2", "z3")) == policy_record(
                0.49, None, want, spec, "z1", ("z2", "z3")
            )


class TestOrderingCheck:
    def test_fact_one_chain_on_reference_seed(self, jrmp):
        spec, phi = jrmp
        results = [
            eae_policy(spec, phi, FLOORS),
            *bbae(spec, phi, [FLOORS], default_grid(spec)),
            eae_upper_bound(spec, phi, FLOORS, UPPER_BOUND_GRID, "z1"),
            cap_reduced_ae(spec, phi, FLOORS, CAP_GRID, "z1"),
        ]
        report = welfare_ordering_check(results)
        assert report.ok, str(report)

    def test_duplicate_results_have_zero_gaps(self, jrmp):
        spec, phi = jrmp
        base = eae_policy(spec, phi, FLOORS)
        clones = [
            PolicyResult(name, base.equilibrium, None, base.welfare, True, base.evaluated_matching)
            for name in ("eae", "bbae", "eae_upper_bound", "cap_reduced")
        ]
        report = welfare_ordering_check(clones)
        assert report.ok
        assert all(g == 0.0 for g in report.gaps)

    def test_missing_policy_is_an_error(self, jrmp):
        spec, phi = jrmp
        with pytest.raises(ValueError, match="missing"):
            welfare_ordering_check([eae_policy(spec, phi, FLOORS)])
