"""Benchmark of the quotamatch solvers, run from the repository root.

    python3 perfbench/run.py --workload eae-binding --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --smoke              # tiny sizes, same code path

One process runs one workload (see ``workloads.py`` for the four workloads and
why each was chosen) as a closed loop with one client: it builds the inputs
from the seed, then repeats passes over the workload's units until about
``--seconds`` have been spent, and checks every unit's output.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics:

* ``wall_s``: median time of one pass over the workload's units;
* ``unit_s.p50``: median time of one unit, over every unit run;
* ``ok_frac``: share of the units attempted whose output passed its check
  (``failed_frac`` is one minus this; ``attempted`` and ``failed`` are in the
  same line);
* ``setup_s``: time to import numpy, scipy and quotamatch plus the median of
  several builds of the inputs (market generation and file writes);
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` the run builds the inputs once under the span tracer of
``tracer.py``, then runs every unit once untraced and once traced (one pass
each, whatever ``--seconds`` says). The last line then holds the per-layer
metrics of the traced set-up and units, and the untraced and traced pass
times; their ratio minus one is the tracing overhead. The spans are written
as JSONL under ``.perfbench/spans``.

Every run also writes a result file under ``.perfbench/results`` with the run
environment (seed, git revision, Python, numpy and scipy versions, CPU
count), per-unit times and failures. The exit code is 0 only when every unit
passed its check; a checkout without ``src/quotamatch`` exits 2 without a
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("eae-binding", "residency-sweep", "cli-roundtrip-large", "estimate-nfxp")
END_TO_END = (
    ("wall_s", "s"),
    ("unit_s.p50", "s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    return parser.parse_args(argv)


def run_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_pass(units):
    """Run every unit once, back to back; outputs are checked afterwards."""
    gc.collect()
    outputs, seconds = [], []
    start = time.perf_counter()
    for unit in units:
        t = time.perf_counter()
        try:
            outputs.append((unit.run(), None))
        except Exception:
            outputs.append((None, traceback.format_exc()))
        seconds.append(time.perf_counter() - t)
    return time.perf_counter() - start, seconds, outputs


def check_pass(units, seconds, outputs) -> list[dict]:
    records = []
    for unit, took, (output, error) in zip(units, seconds, outputs):
        if error is None:
            try:
                error = unit.check(output)
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        records.append({"unit": unit.label, "seconds": took, "failure": error})
    return records


def untraced_run(setup, args, workdir, import_s):
    """Set up several times, then repeat passes for about ``args.seconds``."""
    builds = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t = time.perf_counter()
        units = setup(args.seed, args.smoke, workdir)
        builds.append(time.perf_counter() - t)
    walls, records = [], []
    timed_start = time.perf_counter()
    while True:
        wall, seconds, outputs = run_pass(units)
        walls.append(wall)
        records += check_pass(units, seconds, outputs)
        del outputs
        spent = time.perf_counter() - timed_start
        # Stop when one more pass would end more than half a pass late.
        if args.smoke or spent + 0.5 * spent / len(walls) >= args.seconds:
            break
    attempted = len(records)
    passed = sum(r["failure"] is None for r in records)
    values = {
        "wall_s": statistics.median(walls),
        "unit_s.p50": statistics.median(r["seconds"] for r in records),
        "ok_frac": passed / attempted,
        "setup_s": import_s + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, records, {"import_s": import_s, "setup_builds_s": builds, "pass_walls_s": walls}


def traced_run(setup, args, workdir, tracing):
    """Trace one set-up, then run every unit once untraced and once traced.

    Which of the two runs first alternates from unit to unit, so drift in
    the machine's speed, which is larger than the tracing overhead, cancels
    out of the overhead instead of landing on one side.
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        units = setup(args.seed, args.smoke, workdir)
    finally:
        tracer.uninstall()
    walls = {False: 0.0, True: 0.0}
    records = []
    for i, unit in enumerate(units):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                wall, seconds, outputs = run_pass([unit])
            finally:
                tracer.uninstall()
            walls[traced] += wall
            records += check_pass([unit], seconds, outputs)
    layer = tracer.metrics()
    layer["trace.untraced_wall_s"] = walls[False]
    layer["trace.traced_wall_s"] = walls[True]
    layer["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / "spans" / f"{run_name(args)}.jsonl"
    tracer.write_jsonl(spans_path)
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    return metrics, records, {"spans_file": str(spans_path)}


def run_one(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed as part of set-up)
    import quotamatch

    if not Path(quotamatch.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported quotamatch from {quotamatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - start

    setup = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, unit_records, details = traced_run(setup, args, workdir, tracing)
        else:
            metrics, unit_records, details = untraced_run(setup, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(unit_records)
    failures = [r for r in unit_records if r["failure"] is not None]

    env = environment(args.seed)
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / "results" / f"{run_name(args)}.json"
    result_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "environment": env,
                "units": unit_records,
                **details,
                "metrics": metrics,
            },
            indent=1,
        ),
        encoding="utf-8",
    )

    print(f"workload {args.workload}: {attempted} units, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:g})")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for r in failures:
        print(f"FAILED {r['unit']}: {r['failure']}")
    print(f"environment: {json.dumps(env)}")
    print(f"result file: {result_path}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0 if not failures else 1


def run_all(args) -> int:
    """Run each workload in its own process and print every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"workload {name} exited with {child.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS threads would compete with the interpreter for the few cores a run
    # gets. numpy is imported only after this, and workload processes started
    # by run_all inherit it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not (SRC / "quotamatch" / "__init__.py").is_file():
        print(f"error: no quotamatch sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
