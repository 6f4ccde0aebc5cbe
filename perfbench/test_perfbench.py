"""Tests of the benchmark itself, on the smoke inputs (a few seconds each).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _smoke(workload, seed, trace):
    return _result(
        _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke")
    )


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_reports_the_end_to_end_metrics(workload):
    result = _smoke(workload, seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_smoke(workload, seed=5, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _ in tracer.PER_LAYER]
    for name in tracer.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "eae-binding", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [
        ["eae.solve_eae", "experiments", 0.0, 10.0, -1],
        ["ae.build_kernel", "eae", 1.0, 3.0, 0],
        ["ae.build_kernel", "eae", 4.0, 5.0, 0],
        ["eae.verify_kkt", "eae", 6.0, 9.0, 0],
        ["eae.dual_value", "eae", 7.0, 8.0, 3],
    ]
    m = t.metrics()
    assert m["eae.solve_eae.self_s"] == 4.0
    assert m["ae.build_kernel.self_s"] == 3.0
    assert m["eae.verify_kkt.self_s"] == 2.0
    assert m["eae.ipfp_solves"] == 2 and m["eae.ipfp_solves_per_solve"] == 2.0


def test_uninstall_restores_every_binding():
    from quotamatch import eae, experiments, policies
    from quotamatch.rng import SplitMix64

    originals = (eae.solve_eae, experiments.solve_eae, policies.solve_eae, SplitMix64.normals)
    t = tracer.Tracer()
    t.install()
    try:
        assert experiments.solve_eae is not originals[1]
        assert policies.solve_eae is not originals[2]
    finally:
        t.uninstall()
    assert (eae.solve_eae, experiments.solve_eae, policies.solve_eae, SplitMix64.normals) == originals
