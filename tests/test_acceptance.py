"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Tolerances are pinned here and nowhere else; they are the release gate.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_constrained_market
from oracles import central_difference, sweep_grid_matchings
from quotamatch.ae import solve_ae
from quotamatch.eae import InfeasibleQuotaError, solve_eae, verify_kkt
from quotamatch.estimation import CovariateBasis, SurplusModel, estimate, surplus_from_covariates
from quotamatch.experiments import (
    FLOOR_REGIONS,
    URBAN_REGION,
    JrmpConfig,
    gen_scaling_market,
    run_lower_bound_sweep,
)
from quotamatch.logit import g_gradient, g_value, h_gradient, h_value, matching_value
from quotamatch.market import MarketSpec, region_masses


@contextmanager
def criterion(num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {text}")
        raise
    print(f"[criterion {num:02d}] PASS  {text}  ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def random_corpus():
    """Fifty random instances (types <= 5, up to 3 regions, mixed bounds)
    solved to equilibrium; shared by the duality, KKT, and uniqueness gates."""
    corpus = []
    for seed in range(50):
        spec, phi = random_constrained_market(np.random.default_rng(seed))
        try:
            result = solve_eae(spec, phi)
        except InfeasibleQuotaError:
            continue
        corpus.append((spec, phi, result))
    return corpus


@pytest.fixture(scope="module")
def full_sweep():
    """The residency sweep at the published scale: 30 seeds x 7 floors."""
    cfg = JrmpConfig(seeds=tuple(range(30)), floor_grid=tuple(np.round(np.linspace(0.10, 0.40, 7), 10)))
    return cfg, run_lower_bound_sweep(cfg)


def test_criterion_01_reference_market_tax(example_market):
    with criterion(1, "reference two-region market reproduces taxes (0.5825, 0) within 0.005 in < 1 s"):
        spec, phi = example_market
        start = time.perf_counter()
        result = solve_eae(spec, phi)
        elapsed = time.perf_counter() - start
        assert result.diagnostics.converged
        assert abs(result.taxes.w[0] - 0.5825) <= 0.005
        assert abs(result.taxes.w[1]) <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_closed_form_single_pair(single_pair):
    with criterion(2, "single-pair ceiling/floor taxes hit 2*log(3) closed forms within 1e-8 in < 0.1 s"):
        start = time.perf_counter()
        up = solve_eae(single_pair.with_quotas(upper={"z": 0.25}), np.zeros((1, 1)))
        lo = solve_eae(single_pair.with_quotas(lower={"z": 0.75}), np.zeros((1, 1)))
        elapsed = time.perf_counter() - start
        assert abs(up.taxes.w[0] - 2 * np.log(3)) <= 1e-8
        assert abs(lo.taxes.w[0] + 2 * np.log(3)) <= 1e-8
        assert elapsed < 0.1


def test_criterion_03_strong_duality(random_corpus):
    with criterion(3, "strong duality within 1e-6 relative on 50 random constrained instances"):
        assert len(random_corpus) == 50
        converged = [r for _, _, r in random_corpus if r.diagnostics.converged]
        assert len(converged) == 50
        for result in converged:
            d = result.diagnostics
            assert d.duality_gap <= 1e-6 * (1.0 + abs(d.dual_value))


def test_criterion_04_kkt_suite(random_corpus, example_market, single_pair):
    with criterion(4, "all five equilibrium conditions pass at 1e-6 on every converged solve"):
        reports = []
        for spec, phi, result in random_corpus:
            if result.diagnostics.converged:
                reports.append(verify_kkt(result, spec, phi, tol=1e-6))
        spec, phi = example_market
        reports.append(verify_kkt(solve_eae(spec, phi), spec, phi, tol=1e-6))
        capped = single_pair.with_quotas(upper={"z": 0.25})
        reports.append(verify_kkt(solve_eae(capped, np.zeros((1, 1))), capped, np.zeros((1, 1)), tol=1e-6))
        floored = single_pair.with_quotas(lower={"z": 0.75})
        reports.append(verify_kkt(solve_eae(floored, np.zeros((1, 1))), floored, np.zeros((1, 1)), tol=1e-6))
        assert reports and all(r.passed for r in reports)


def test_criterion_05_uniqueness(random_corpus):
    with criterion(5, "10 random tax initializations agree within 1e-6 (taxes) / 1e-7 (matching)"):
        rng = np.random.default_rng(12345)
        for spec, phi, reference in random_corpus[:4]:
            if not reference.diagnostics.converged:
                continue
            for _ in range(10):
                w0 = rng.uniform(-2.0, 2.0, size=spec.num_regions)
                other = solve_eae(spec, phi, initial_taxes=w0)
                assert np.abs(other.taxes.w - reference.taxes.w).max() <= 1e-6
                assert np.abs(other.matching.matched - reference.matching.matched).max() <= 1e-7
                assert np.abs(
                    other.matching.unmatched_workers - reference.matching.unmatched_workers
                ).max() <= 1e-7


def test_criterion_06_welfare_optimality_grid():
    with criterion(6, "one-region 2x2 optimum dominates every quota-feasible grid tax (step 1e-3)"):
        rng = np.random.default_rng(777)
        for trial in range(4):
            n = rng.uniform(0.4, 1.2, size=2)
            m = rng.uniform(0.4, 1.2, size=2)
            spec = MarketSpec(
                ("x1", "x2"), ("y1", "y2"), ("z",),
                n, m, {"y1": "z", "y2": "z"},
                np.array([np.inf]), np.zeros(1),
            )
            phi = rng.uniform(-1.0, 1.5, size=(2, 2))
            free_mass = float(region_masses(solve_ae(spec, phi).matching, spec)[0])
            if trial % 2 == 0:
                spec = spec.with_quotas(upper={"z": 0.8 * free_mass})
            else:
                spec = spec.with_quotas(lower={"z": min(1.2 * free_mass, 0.9 * m.sum())})
            best = solve_eae(spec, phi)
            assert best.diagnostics.converged
            best_welfare = matching_value(best.matching, phi, spec)
            grid = np.arange(-3.0, 3.0, 1e-3)[:, None]
            for mu in sweep_grid_matchings(spec, phi, grid):
                mass = mu.matched.sum()
                if spec.lower[0] - 1e-9 <= mass <= spec.upper[0] + 1e-9:
                    assert best_welfare >= matching_value(mu, phi, spec) - 1e-7


def test_criterion_07_policy_ordering_sweep(full_sweep):
    with criterion(7, "policy welfare ordering, tax signs, and floor tightness over 30 seeds x 7 floors"):
        _, panel = full_sweep
        cells = {}
        for r in panel.records:
            cells.setdefault((r.floor, r.seed), {})[r.policy] = r
        assert len(cells) == 7 * 30
        order = ("eae", "bbae", "eae_upper_bound", "cap_reduced")
        compared = 0
        for (floor, seed), cell in cells.items():
            assert cell["eae"].feasible, (floor, seed)
            assert cell["bbae"].feasible, (floor, seed)
            chain = [cell[p] for p in order if p in cell and cell[p].feasible]
            for a, b in zip(chain, chain[1:]):
                assert a.social_welfare >= b.social_welfare - 1e-7, (
                    floor, seed, a.policy, b.policy, a.social_welfare, b.social_welfare,
                )
                compared += 1
            eae = cell["eae"]
            assert eae.taxes[URBAN_REGION] == 0.0
            assert all(eae.taxes[z] <= 0.0 for z in FLOOR_REGIONS)
            assert eae.pm_surplus <= 1e-9  # subsidies only
            assert sum(eae.rural_mass.values()) >= 2 * floor - 1e-7
            for z in FLOOR_REGIONS:
                if eae.taxes[z] < -1e-7:
                    assert abs(eae.rural_mass[z] - floor) <= 1e-6
            if "eae_upper_bound" in cell and cell["eae_upper_bound"].feasible:
                assert cell["eae_upper_bound"].pm_surplus >= -1e-9  # taxes only
            if "bbae" in cell:
                assert cell["bbae"].pm_surplus >= -1e-9  # budget balance
        assert compared >= 3 * 7 * 30 * 0.9  # nearly every cell has the full chain


def test_criterion_08_gradient_checks():
    with criterion(8, "demand gradients match central finite differences within 1e-6 at 100 points"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            N = int(rng.integers(1, 4))
            M = int(rng.integers(1, 4))
            spec = MarketSpec(
                tuple(f"x{i}" for i in range(N)),
                tuple(f"y{j}" for j in range(M)),
                ("z",),
                rng.uniform(0.3, 1.5, N),
                rng.uniform(0.3, 1.5, M),
                {f"y{j}": "z" for j in range(M)},
                np.array([np.inf]),
                np.zeros(1),
            )
            U = rng.normal(scale=1.5, size=(N, M))
            V = rng.normal(scale=1.5, size=(N, M))
            fd_u = central_difference(lambda X: g_value(X, spec), U)
            fd_v = central_difference(lambda X: h_value(X, spec), V)
            assert np.abs(g_gradient(U, spec)[:, 1:] - fd_u).max() <= 1e-6
            assert np.abs(h_gradient(V, spec)[1:, :] - fd_v).max() <= 1e-6


def test_criterion_09_estimation_round_trip():
    with criterion(9, "surplus coefficients (1.0, -0.5) recovered within 1e-3 with KL <= 1e-10 in < 30 s"):
        spec = MarketSpec(
            ("x1", "x2"), ("y1", "y2"), ("z1", "z2"),
            np.array([0.6, 0.4]), np.array([0.5, 0.5]),
            {"y1": "z1", "y2": "z2"},
            np.array([np.inf, np.inf]), np.zeros(2),
        )
        c = CovariateBasis(
            np.stack([np.ones((2, 2)), np.array([[0.0, 1.0], [1.5, 0.5]])], axis=2)
        )
        truth = SurplusModel(np.array([1.0, -0.5]))
        taxes = np.array([0.1, 0.0])
        observed = solve_ae(spec, surplus_from_covariates(truth, c), taxes).matching
        start = time.perf_counter()
        model, report = estimate(observed, c, taxes, spec)
        elapsed = time.perf_counter() - start
        assert report.final_kl <= 1e-10
        assert np.abs(model.coefficients - truth.coefficients).max() <= 1e-3
        assert elapsed < 30.0


def test_criterion_10_scaling_cell():
    with criterion(10, "10 worker types x 50 regions (5000 surplus cells) converges with KKT at 1e-6 in < 60 s"):
        spec, phi = gen_scaling_market(10, 50, seed=0)
        assert phi.phi.size == 5000
        start = time.perf_counter()
        result = solve_eae(spec, phi)
        elapsed = time.perf_counter() - start
        print(f"   scaling cell wall-clock: {elapsed:.2f}s")
        assert result.diagnostics.converged
        assert verify_kkt(result, spec, phi, tol=1e-6).passed
        assert elapsed < 60.0


def test_criterion_11_deterministic_outputs(tmp_path, example_market):
    with criterion(11, "same seed gives byte-identical CSV/JSON outputs, including with --jobs 2"):
        from quotamatch.cli import main
        from quotamatch.market import save_market, _write_json

        spec, phi = example_market
        market = tmp_path / "market.json"
        surplus = tmp_path / "phi.json"
        save_market(spec, market)
        _write_json({"phi": [list(row) for row in phi.phi]}, surplus)
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

        csvs = []
        for sub, jobs in (("a", "1"), ("b", "2"), ("c", "1")):
            d = tmp_path / sub
            d.mkdir()
            code = main([
                "experiment", "--seeds", "2", "--floors", "0.1:0.3:0.2",
                "--seed", "9", "--jobs", jobs, "--out", str(d / "panels.csv"),
            ])
            assert code == 0
            csvs.append((d / "panels.csv").read_bytes() + (d / "locus.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
