import dataclasses

import numpy as np
import pytest

from conftest import random_constrained_market
from quotamatch.ae import solve_ae
from quotamatch.eae import InfeasibleQuotaError, dual_value, solve_eae
from quotamatch.logit import EULER_GAMMA, g_value, h_value, matching_value
from quotamatch.market import Matching
from quotamatch.welfare import breakdown, location_offset

TWO_LOG_THREE = 2.0 * np.log(3.0)


def test_social_welfare_zero_surplus(single_pair):
    mu = Matching(np.array([[0.5]]), np.array([0.5]), np.array([0.5]))
    assert matching_value(mu, np.zeros((1, 1)), single_pair) == pytest.approx(
        2 * np.log(2), abs=1e-12
    )


def test_social_welfare_matches_dual_at_optimum(single_pair):
    phi = np.array([[2 * np.log(2)]])
    result = solve_ae(single_pair, phi)
    value = breakdown(result, phi, single_pair).social
    assert value == pytest.approx(2 * np.log(3), abs=1e-9)
    assert value == pytest.approx(result.diagnostics.dual_value, abs=1e-9)


def test_pm_surplus_zero_taxes(single_pair):
    mu = Matching(np.array([[0.5]]), np.array([0.5]), np.array([0.5]))
    result = solve_ae(single_pair, np.zeros((1, 1)))
    assert breakdown(result, np.zeros((1, 1)), single_pair, mu).pm_surplus == 0.0


def test_pm_surplus_ceiling_case(single_pair):
    spec = single_pair.with_quotas(upper={"z": 0.25})
    result = solve_eae(spec, np.zeros((1, 1)))
    got = breakdown(result, np.zeros((1, 1)), spec).pm_surplus
    assert got == pytest.approx(0.25 * TWO_LOG_THREE, abs=1e-7)


def test_agent_welfare_symmetric_case(single_pair):
    assert g_value(np.zeros((1, 1)), single_pair) == pytest.approx(np.log(2), abs=1e-12)
    assert h_value(np.zeros((1, 1)), single_pair) == pytest.approx(np.log(2), abs=1e-12)


def test_agent_welfare_monotone(single_pair):
    base = g_value(np.zeros((1, 1)), single_pair)
    bumped = g_value(np.array([[0.2]]), single_pair)
    assert bumped > base


def test_reference_market_bookkeeping(example_market):
    # At the optimum: agent welfare plus policymaker revenue equals the dual
    # objective, because the revenue equals the quota-weighted tax splits.
    spec, phi = example_market
    result = solve_eae(spec, phi)
    wb = breakdown(result, phi, spec)
    dual = dual_value(result.utilities.U, result.utilities.V, result.taxes, spec)
    ceiling_part = np.maximum(result.taxes.w, 0.0)
    floor_part = np.maximum(-result.taxes.w, 0.0)
    split_revenue = float(
        (spec.upper * ceiling_part)[ceiling_part > 0].sum() - (spec.lower * floor_part).sum()
    )
    assert wb.pm_surplus == pytest.approx(split_revenue, abs=1e-8)
    assert wb.worker_side + wb.slot_side + wb.pm_surplus == pytest.approx(dual, abs=1e-8)
    assert wb.social == pytest.approx(wb.match_surplus + wb.entropy_term, abs=1e-12)


def test_agent_plus_pm_equals_social_at_any_tax(example_market):
    spec, phi = example_market
    result = solve_ae(spec, phi, np.array([0.6, -0.4]))
    wb = breakdown(result, phi, spec)
    assert wb.worker_side + wb.slot_side + wb.pm_surplus == pytest.approx(
        wb.social, abs=1e-8
    )


def test_primal_dual_reconciliation_random(example_market):
    for seed in range(10):
        spec, phi = random_constrained_market(np.random.default_rng(1000 + seed))
        try:
            result = solve_eae(spec, phi)
        except InfeasibleQuotaError:
            continue
        if not result.diagnostics.converged:
            continue
        wb = breakdown(result, phi, spec)
        assert abs(wb.social - result.diagnostics.dual_value) <= 1e-6 * (
            1 + abs(result.diagnostics.dual_value)
        )


def test_location_offset(example_market):
    spec, _ = example_market
    assert location_offset(spec) == pytest.approx(EULER_GAMMA * 2.0, abs=1e-12)


def test_masses_near_underflow_price_and_exit_zero(single_pair, tmp_path):
    # Kernel exp(-695) ~ 1e-302 is inside the exp range, so the matched mass
    # is a valid positive number below 1e-300; pricing it must not fail.
    from quotamatch.cli import main
    from quotamatch.market import _write_json, save_market

    phi = np.array([[-1390.0]])
    result = solve_ae(single_pair, phi)
    assert result.diagnostics.converged
    assert 0.0 < result.matching.matched[0, 0] < 1e-300
    wb = breakdown(solve_eae(single_pair, phi), phi, single_pair)
    assert np.isfinite(list(dataclasses.asdict(wb).values())).all()

    market = tmp_path / "market.json"
    surplus = tmp_path / "phi.json"
    save_market(single_pair, market)
    _write_json({"phi": [[-1390.0]]}, surplus)
    for command in ("solve-ae", "solve-eae"):
        out = tmp_path / f"{command}.json"
        args = [command, "--market", str(market), "--phi", str(surplus), "--out", str(out)]
        assert main(args) == 0, command
