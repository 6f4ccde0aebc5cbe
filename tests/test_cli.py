import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quotamatch
from conftest import estimation_market
from quotamatch.cli import main
from quotamatch.market import _write_json, load_result, save_market


@pytest.fixture()
def example_files(tmp_path, example_market):
    spec, phi = example_market
    market = tmp_path / "market.json"
    surplus = tmp_path / "phi.json"
    save_market(spec, market)
    _write_json({"phi": [list(row) for row in phi.phi]}, surplus)
    return spec, market, surplus


def test_solve_eae_reproduces_reported_taxes(example_files, tmp_path, capsys):
    spec, market, surplus = example_files
    out = tmp_path / "result.json"
    code = main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)])
    assert code == 0
    result = load_result(out, spec)
    assert result.taxes.w[0] == pytest.approx(0.5825, abs=0.005)
    assert result.taxes.w[1] == 0.0
    doc = json.loads(out.read_text())
    assert set(doc) == {"mu", "U", "V", "w", "diagnostics", "welfare"}
    assert doc["diagnostics"]["converged"] is True
    assert "location constant" in capsys.readouterr().out


def test_verify_passes_on_own_output(example_files, tmp_path, capsys):
    _, market, surplus = example_files
    out = tmp_path / "result.json"
    assert main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)]) == 0
    code = main(["verify", "--market", str(market), "--result", str(out), "--phi", str(surplus)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "population_residual" in printed and "passed" in printed


def test_verify_fails_on_tampered_result(example_files, tmp_path):
    _, market, surplus = example_files
    out = tmp_path / "result.json"
    main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["w"]["z2"] = 1.0
    out.write_text(json.dumps(doc))
    assert main(["verify", "--market", str(market), "--result", str(out), "--phi", str(surplus)]) == 2


def test_solve_ae_with_taxes_file(example_files, tmp_path):
    spec, market, surplus = example_files
    taxes = tmp_path / "taxes.json"
    _write_json({"w": {"z1": 0.25, "z2": -0.1}}, taxes)
    out = tmp_path / "ae.json"
    code = main([
        "solve-ae", "--market", str(market), "--phi", str(surplus),
        "--taxes", str(taxes), "--out", str(out),
    ])
    assert code == 0
    result = load_result(out, spec)
    assert list(result.taxes.w) == [0.25, -0.1]


def test_estimate_round_trip(tmp_path):
    from quotamatch.ae import solve_ae
    from quotamatch.estimation import CovariateBasis, SurplusModel, surplus_from_covariates
    from quotamatch.market import MarketSpec

    spec = MarketSpec(
        ("x1", "x2"), ("y1", "y2"), ("z1", "z2"),
        np.array([0.6, 0.4]), np.array([0.5, 0.5]),
        {"y1": "z1", "y2": "z2"},
        np.array([np.inf, np.inf]), np.zeros(2),
    )
    c = CovariateBasis(np.stack([np.ones((2, 2)), np.array([[0.0, 1.0], [1.5, 0.5]])], axis=2))
    truth = SurplusModel(np.array([1.0, -0.5]))
    observed = solve_ae(spec, surplus_from_covariates(truth, c)).matching

    market = tmp_path / "market.json"
    save_market(spec, market)
    obs_path = tmp_path / "observed.json"
    _write_json(
        {
            "mu": {
                "matched": [list(r) for r in observed.matched],
                "unmatched_workers": list(observed.unmatched_workers),
                "unmatched_slots": list(observed.unmatched_slots),
            }
        },
        obs_path,
    )
    cov_path = tmp_path / "cov.json"
    _write_json({"S": 2, "c": [[list(cell) for cell in row] for row in c.c]}, cov_path)
    out = tmp_path / "fit.json"
    code = main([
        "estimate", "--market", str(market), "--observed", str(obs_path),
        "--covariates", str(cov_path), "--out", str(out),
    ])
    assert code == 0
    fit = json.loads(out.read_text())
    assert abs(fit["coefficients"][0] - 1.0) < 1e-3
    assert abs(fit["coefficients"][1] + 0.5) < 1e-3


def _estimate_args(tmp_path, spec, c, observed, taxes=None):
    """Write the files of an `estimate` run and return its arguments."""
    market = tmp_path / "market.json"
    save_market(spec, market)
    obs_path = tmp_path / "observed.json"
    _write_json(
        {
            "mu": {
                "matched": [list(r) for r in observed.matched],
                "unmatched_workers": list(observed.unmatched_workers),
                "unmatched_slots": list(observed.unmatched_slots),
            }
        },
        obs_path,
    )
    cov_path = tmp_path / "cov.json"
    _write_json({"S": c.num_features, "c": [[list(cell) for cell in row] for row in c.c]}, cov_path)
    args = [
        "estimate", "--market", str(market), "--observed", str(obs_path),
        "--covariates", str(cov_path), "--out", str(tmp_path / "fit.json"),
    ]
    if taxes is not None:
        taxes_path = tmp_path / "taxes.json"
        _write_json({"w": list(taxes)}, taxes_path)
        args += ["--taxes", str(taxes_path)]
    return args


def test_estimate_optimal_fit_of_noisy_data_exits_zero(tmp_path):
    # 5% noise: no coefficients reproduce the data, so the fit ends at a
    # stationary point with a positive KL; that is a converged fit.
    rng = np.random.default_rng(3)
    spec, c, taxes, noisy, _ = estimation_market(rng, 10, 12, 3, 3, noise=0.05)
    code = main(_estimate_args(tmp_path, spec, c, noisy, taxes))
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())["fit"]
    assert fit["converged"] and fit["message"] == "stationary point"
    assert fit["final_kl"] > 1e-6


def test_estimate_budget_exhausted_exits_two(tmp_path, monkeypatch):
    import quotamatch.estimation as estimation

    # Exact data ends at the first evaluation; this noisy fit needs 3.
    monkeypatch.setattr(estimation, "MAX_OUTER_EVALS", 2)
    spec, c, taxes, observed, _ = estimation_market(np.random.default_rng(4), 4, 6, 2, 2, noise=0.05)
    code = main(_estimate_args(tmp_path, spec, c, observed, taxes))
    assert code == 2
    fit = json.loads((tmp_path / "fit.json").read_text())["fit"]
    assert not fit["converged"]
    assert fit["n_evals"] == 2 and fit["message"] == "evaluation budget exhausted"


def test_experiment_csv_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a" / "panels.csv"
    out2 = tmp_path / "b" / "panels.csv"
    out1.parent.mkdir()
    out2.parent.mkdir()
    args = ["experiment", "--seeds", "2", "--floors", "0.1:0.4:0.15", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (out1.parent / "locus.csv").read_bytes() == (out2.parent / "locus.csv").read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "floor,policy,metric,mean,stderr"
    # 3 floors x 5 policies x 5 metrics
    assert len(lines) == 1 + 3 * 5 * 5


def test_counterfactual_emits_rows(example_files, tmp_path, capsys):
    spec, market, surplus = example_files
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.05", "--urban-region", "z1",
        "--grid", "0.1:0.5:0.05", "--cap-grid", "0.1:0.3:0.05",
        "--tax-grid", "0:2:0.5", "--subsidy-grid=-0.2:0:0.1",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("policy,floor,feasible,search_parameter,social_welfare")
    assert len(lines) == 1 + 4


def test_counterfactual_default_urban_region_is_the_floorless_one(example_files, tmp_path):
    spec, _, surplus = example_files
    market = tmp_path / "z1_floor.json"
    save_market(spec.with_quotas(lower={"z1": 0.1}), market)
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.05", "--grid", "0.1:0.5:0.05", "--cap-grid", "0.1:0.3:0.05",
        "--tax-grid", "0:2:0.5", "--subsidy-grid=-0.2:0:0.1", "--out", str(out),
    ])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "rural_mass_z1" in header and "rural_mass_z2" not in header


def test_counterfactual_without_unique_floorless_region_exits_one(example_files, tmp_path, capsys):
    _, market, surplus = example_files  # both regions carry a floor
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.05", "--out", str(tmp_path / "policies.csv"),
    ])
    assert code == 1
    assert "--urban-region" in capsys.readouterr().err


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_counterfactual_rows_equal_sweep_records(tmp_path):
    from quotamatch.experiments import JrmpConfig, gen_jrmp_market, sweep_one_seed

    spec, phi = gen_jrmp_market(7)
    market = tmp_path / "market.json"
    surplus = tmp_path / "phi.json"
    save_market(spec, market)
    _write_json({"phi": [list(row) for row in phi.phi]}, surplus)
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.2,0.3", "--urban-region", "z1", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_rows(out)
    assert header == [
        "policy", "floor", "feasible", "search_parameter", "social_welfare",
        "agent_welfare", "pm_surplus", "urban_mass", "rural_mass_z2", "rural_mass_z3",
        "tax_z1", "tax_z2", "tax_z3",
    ]
    records = [
        r for r in sweep_one_seed(7, JrmpConfig(floor_grid=(0.2, 0.3)))
        if r.policy != "unconstrained"
    ]
    assert [(r["policy"], float(r["floor"])) for r in rows] == [(r.policy, r.floor) for r in records]
    for row, rec in zip(rows, records):
        assert row["feasible"] == ("true" if rec.feasible else "false")
        assert row["search_parameter"] == ("" if rec.search_parameter is None else repr(rec.search_parameter))
        for key in ("social_welfare", "agent_welfare", "pm_surplus", "urban_mass"):
            assert float(row[key]) == getattr(rec, key), (rec.policy, key)
        for z in ("z2", "z3"):
            assert float(row[f"rural_mass_{z}"]) == rec.rural_mass[z]
        for z in ("z1", "z2", "z3"):
            assert float(row[f"tax_{z}"]) == rec.taxes[z]


def test_counterfactual_skips_ordering_with_infeasible_rows(tmp_path, capsys):
    # At floor 0.45 only the optimal tax meets the floors; the other policies
    # fall back to infeasible points worth more than it, so comparing their
    # welfare with it would report a violation that is not one.
    from quotamatch.experiments import gen_jrmp_market

    spec, phi = gen_jrmp_market(3)
    market = tmp_path / "market.json"
    surplus = tmp_path / "phi.json"
    save_market(spec, market)
    _write_json({"phi": [list(row) for row in phi.phi]}, surplus)
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.45", "--urban-region", "z1", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_rows(out)
    infeasible = [r["policy"] for r in rows if r["feasible"] == "false"]
    assert infeasible == ["eae_upper_bound", "cap_reduced", "bbae"]
    line = capsys.readouterr().out.strip()
    assert line == "floor 0.45: ordering not checked: infeasible eae_upper_bound, cap_reduced, bbae"


def test_counterfactual_infeasible_floor_exits_three_with_other_rows(tmp_path, capsys):
    # Matching into the floor region loses 200 of surplus, so holding half of
    # the workers there needs a subsidy of about 200, far beyond the
    # admissible bracket (as in the single-pair case).
    from quotamatch.market import MarketSpec

    spec = MarketSpec(
        ("x",), ("y1", "y2"), ("z1", "z2"),
        np.array([1.0]), np.array([1.0, 1.0]),
        {"y1": "z1", "y2": "z2"},
        np.array([np.inf, np.inf]), np.zeros(2),
    )
    market = tmp_path / "market.json"
    save_market(spec, market)
    surplus = tmp_path / "phi.json"
    _write_json({"phi": [[0.0, -200.0]]}, surplus)
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.5", "--urban-region", "z1",
        "--grid", "0.1:0.5:0.2", "--cap-grid", "0.1:0.5:0.2",
        "--tax-grid", "0:2:1", "--subsidy-grid=-0.2:0:0.1", "--out", str(out),
    ])
    assert code == 3
    _, rows = _read_rows(out)
    assert [r["policy"] for r in rows] == ["eae_upper_bound", "cap_reduced", "bbae"]
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert "VIOLATED" not in captured.out and " -> ok" not in captured.out


def _four_region_files(tmp_path):
    from quotamatch.market import MarketSpec

    spec = MarketSpec(
        ("x1", "x2"), ("y1", "y2", "y3", "y4"), ("z1", "z2", "z3", "z4"),
        np.array([0.5, 0.5]), np.array([0.3, 0.25, 0.25, 0.25]),
        {"y1": "z1", "y2": "z2", "y3": "z3", "y4": "z4"},
        np.full(4, np.inf), np.zeros(4),
    )
    market = tmp_path / "market.json"
    save_market(spec, market)
    surplus = tmp_path / "phi.json"
    _write_json({"phi": [[2.0, 0.5, 0.7, 0.4], [1.8, 0.6, 0.3, 0.5]]}, surplus)
    return market, surplus


def test_counterfactual_four_regions_gives_each_floor_region_a_subsidy(tmp_path):
    market, surplus = _four_region_files(tmp_path)
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.1", "--urban-region", "z1",
        "--grid", "0.1:0.5:0.05", "--cap-grid", "0.1:0.3:0.05",
        "--tax-grid", "0:2:0.5", "--subsidy-grid=-0.3:0:0.1", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_rows(out)
    assert [f"rural_mass_{z}" in header for z in ("z2", "z3", "z4")] == [True] * 3
    assert [r["policy"] for r in rows] == ["eae", "eae_upper_bound", "cap_reduced", "bbae"]
    bbae = rows[-1]
    assert bbae["feasible"] == "true"
    assert all(float(bbae[f"rural_mass_{z}"]) >= 0.1 - 1e-8 for z in ("z2", "z3", "z4"))


def test_counterfactual_default_grid_on_four_regions_exits_one(tmp_path, capsys):
    market, surplus = _four_region_files(tmp_path)
    out = tmp_path / "policies.csv"
    code = main([
        "counterfactual", "--market", str(market), "--phi", str(surplus),
        "--floors", "0.1", "--urban-region", "z1", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "194481" in err and "--subsidy-grid" in err
    assert not out.exists()


def test_bench_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--worker-types", "4", "--regions", "2", "--trials", "1",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "num_worker_types,num_regions,mean_seconds,newton_steps,binding_frac,converged"
    assert len(lines) == 2


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["solve-eae", "--market", "missing.json", "--phi", "x", "--out", "y"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["solve-eae", "--bogus-flag", "1"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--seeds", "1", "--floors", "0.1:0.4:0"],
        ["bench", "--worker-types", "4", "--regions", "5:5:0", "--trials", "1"],
        ["experiment", "--seeds", "1", "--floors", "0.4:0.1:0.1"],
        ["experiment", "--seeds", "1", "--floors", "0:inf:0.1"],
        ["experiment", "--seeds", "1", "--floors", "0.1,nan"],
        ["experiment", "--seeds", "1", "--floors", "0:1:1e-9"],
        ["experiment", "--seeds", "1", "--floors=-1e308:1e308:1"],
        ["bench", "--worker-types", "4", "--regions", "1:inf:1", "--trials", "1"],
        ["bench", "--worker-types", "4", "--regions", "2:3:0.5", "--trials", "1"],
    ],
    ids=[
        "experiment-zero-step", "bench-zero-step", "experiment-descending",
        "experiment-infinite-hi", "experiment-nan-item", "experiment-too-many-points",
        "experiment-span-overflows", "bench-infinite-hi", "bench-fractional-count",
    ],
)
def test_bad_range_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: range") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message, reason",
    [
        (["--floors", "0:inf:1"], "error: range", "non-finite"),
        (["--floors", "0.2", "--tax-grid", "0,nan"], "--tax-grid", "non-finite"),
        (["--floors", "0.2", "--grid", "0.1:0.5:1e-9"], "--grid", "more than 1000000 points"),
    ],
    ids=["floors-infinite-hi", "tax-grid-nan", "grid-too-many-points"],
)
def test_counterfactual_bad_range_exits_one(example_files, tmp_path, capsys, flags, message, reason):
    _, market, surplus = example_files
    out = tmp_path / "out.csv"
    argv = ["counterfactual", "--market", str(market), "--phi", str(surplus), "--out", str(out)]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert err.startswith("error: range") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("role", ["verify-market", "solve-ae-out"])
def test_directory_path_exits_one(example_files, tmp_path, capsys, role):
    _, market, surplus = example_files
    directory = tmp_path / "dir"
    directory.mkdir()
    argv = {
        "verify-market": ["verify", "--market", str(directory), "--result", str(tmp_path / "r.json")],
        "solve-ae-out": [
            "solve-ae", "--market", str(market), "--phi", str(surplus), "--out", str(directory)
        ],
    }[role]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(directory) in err and "Traceback" not in err


def test_result_files_echo_the_tolerances_that_certified_them(example_files, tmp_path):
    # The solver tolerances are fixed; loosening one must edit this test.
    import quotamatch.ae as ae
    import quotamatch.eae as eae

    assert (ae.POPULATION_TOLERANCE, eae.TAX_TOLERANCE, eae.CONSTRAINT_TOLERANCE) == (1e-10, 1e-8, 1e-8)
    _, market, surplus = example_files
    echoed = {}
    for command in ("solve-ae", "solve-eae"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--market", str(market), "--phi", str(surplus), "--out", str(out)]) == 0
        echoed[command] = json.loads(out.read_text())["diagnostics"]["tolerances"]
    assert echoed["solve-ae"] == {"population_tolerance": ae.POPULATION_TOLERANCE}
    assert echoed["solve-eae"] == {
        "population_tolerance": ae.POPULATION_TOLERANCE,
        "tax_tolerance": eae.TAX_TOLERANCE,
        "constraint_tolerance": eae.CONSTRAINT_TOLERANCE,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-ae", "--taxes", "taxes.json"],
        ["counterfactual", "--floors", "0.05", "--urban-region", "zz"],
    ],
    ids=["solve-ae-taxes", "counterfactual-urban-region"],
)
def test_unknown_region_exits_one(example_files, tmp_path, monkeypatch, capsys, argv):
    _, market, surplus = example_files
    monkeypatch.chdir(tmp_path)
    _write_json({"w": {"zz": 1.0}}, "taxes.json")
    code = main(argv + ["--market", str(market), "--phi", str(surplus), "--out", "out"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown region 'zz'" in err
    assert "Traceback" not in err


_ONE_PAIR = '"worker_types": ["x"], "slot_types": ["y"], "regions": ["z"], "m": {"y": 1.0}, "region_of": {"y": "z"}'


@pytest.mark.parametrize(
    "command, document",
    [
        ("solve-ae", '{%s, "n": {"x": NaN}}' % _ONE_PAIR),
        ("solve-eae", '{%s, "n": {"x": 1.0}, "upper": {"z": Infinity}}' % _ONE_PAIR),
    ],
    ids=["solve-ae-nan-mass", "solve-eae-infinite-ceiling"],
)
def test_non_finite_number_in_market_file_exits_one(tmp_path, capsys, command, document):
    market = tmp_path / "market.json"
    market.write_text(document)
    surplus = tmp_path / "phi.json"
    _write_json({"phi": [[0.0]]}, surplus)
    out = tmp_path / "r.json"
    code = main([command, "--market", str(market), "--phi", str(surplus), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {market}: non-finite number")
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_rejects_nan_in_result_file(example_files, tmp_path, capsys):
    _, market, surplus = example_files
    out = tmp_path / "result.json"
    assert main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["w"]["z2"] = float("nan")
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--market", str(market), "--result", str(out), "--phi", str(surplus)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: non-finite number NaN")


@pytest.mark.parametrize(
    "tolerances, message",
    [
        ("loose", "diagnostics.tolerances must be a JSON object"),
        (None, "diagnostics.tolerances must be a JSON object"),
        ({"population_tolerance": True}, "diagnostics.tolerances.population_tolerance must be a JSON number"),
        ({"population_tolerance": "1e-10"}, "diagnostics.tolerances.population_tolerance must be a JSON number"),
    ],
    ids=["string", "null", "boolean", "numeric-string"],
)
def test_verify_rejects_malformed_tolerances(example_files, tmp_path, capsys, tolerances, message):
    _, market, surplus = example_files
    out = tmp_path / "result.json"
    assert main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["diagnostics"]["tolerances"] = tolerances
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--market", str(market), "--result", str(out), "--phi", str(surplus)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: {message}")


def test_out_of_range_surplus_exits_one(tmp_path, single_pair, capsys):
    market = tmp_path / "market.json"
    save_market(single_pair, market)
    surplus = tmp_path / "phi.json"
    _write_json({"phi": [[1500.0]]}, surplus)
    out = tmp_path / "r.json"
    code = main(["solve-ae", "--market", str(market), "--phi", str(surplus), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel exponent")
    assert "Traceback" not in err


def test_infeasible_market_exits_three(tmp_path, single_pair):
    # At a surplus of -200 half of the workers match only under a subsidy of
    # 200, beyond the admissible bracket, so the search reports infeasibility.
    market = tmp_path / "market.json"
    save_market(single_pair.with_quotas(lower={"z": 0.5}), market)
    surplus = tmp_path / "phi.json"
    _write_json({"phi": [[-200.0]]}, surplus)
    out = tmp_path / "r.json"
    code = main(["solve-eae", "--market", str(market), "--phi", str(surplus), "--out", str(out)])
    assert code == 3


def test_help_mentions_every_documented_flag():
    import quotamatch.cli as cli

    parser = cli.build_parser()
    txt = []
    for action in parser._subparsers._group_actions[0].choices.values():
        txt.append(action.format_help())
    blob = "\n".join(txt)
    for flag in (
        "--market", "--phi", "--taxes", "--observed", "--covariates", "--out",
        "--seed", "--jobs", "--tol-kkt", "--floors", "--grid",
    ):
        assert flag in blob, flag


def test_module_invocation(example_files, tmp_path):
    _, market, surplus = example_files
    out = tmp_path / "result.json"
    # The child inherits the environment, not pytest's pythonpath setting:
    # it imports the package this test imported.
    package_root = str(Path(quotamatch.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quotamatch", "solve-eae", "--market", str(market),
         "--phi", str(surplus), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
