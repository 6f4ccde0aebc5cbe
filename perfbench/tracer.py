"""Span tracer that times the quotamatch layers from outside the package.

Installing a :class:`Tracer` replaces every public function of the layer
modules, in the namespace of every quotamatch module that binds it, with a
wrapper that records a span (name, call site, start, end, parent). So
``quotamatch.experiments.solve_eae`` and ``quotamatch.policies.solve_eae`` are
both timed as ``eae.solve_eae``, with sites ``experiments`` and ``policies``.
Nothing inside ``src/quotamatch`` changes; uninstalling restores the original
bindings.

Counts are read from the objects the wrapped functions return (solver
diagnostics, grid iterations, fit reports, accepted grid positions, file
sizes), never from timers, so they repeat exactly when the inputs repeat.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: package modules whose public functions are wrapped; they are the layers
LAYERS = ("ae", "eae", "policies", "welfare", "estimation", "experiments", "market", "rng", "cli")

# Argument converters called inside every kernel build. Wrapping them would
# multiply the span count (and the tracing overhead) without timing any
# market file I/O, which is what the market layer's metrics are about.
_UNWRAPPED = frozenset({"market.as_surplus_array", "market.as_tax_array"})

_MARKET_LOADS = ("market.load_market", "market.load_surplus", "market.load_taxes", "market.load_result")
_MARKET_SAVES = ("market.save_market", "market.save_result")

#: (metric, unit) of every per-layer metric, in reporting order
PER_LAYER = (
    ("eae.solve_eae.calls", "count"),
    ("eae.solve_eae.self_s", "s"),
    ("eae.ipfp_solves", "count"),
    ("eae.ipfp_solves_per_solve", "ratio"),
    ("eae.inner_iters", "count"),
    ("eae.outer_sweeps", "count"),
    ("eae.verify_kkt.calls", "count"),
    ("eae.verify_kkt.self_s", "s"),
    ("eae.kkt_residual.max", "1"),
    ("eae.binding_frac", "ratio"),
    ("ae.build_kernel.calls", "count"),
    ("ae.build_kernel.self_s", "s"),
    ("ae.solve_ae.calls", "count"),
    ("ae.solve_ae.self_s", "s"),
    ("ae.ipfp_iters", "count"),
    ("ae.solve_ae_grid.self_s", "s"),
    ("policies.prepare_bbae_grid.self_s", "s"),
    ("policies.select_bbae.self_s", "s"),
    ("policies.eae_upper_bound.self_s", "s"),
    ("policies.cap_reduced_ae.self_s", "s"),
    ("policies.eae_upper_bound.grid_evals", "count"),
    ("policies.cap_reduced_ae.grid_evals", "count"),
    ("policies.scan_useful_ratio", "ratio"),
    ("welfare.breakdown.calls", "count"),
    ("welfare.breakdown.self_s", "s"),
    ("estimation.estimate.self_s", "s"),
    ("estimation.kl_evals", "count"),
    ("estimation.solves_per_eval", "ratio"),
    ("experiments.sweep_one_seed.self_s", "s"),
    ("market.load_s", "s"),
    ("market.save_s", "s"),
    ("market.bytes_written", "B"),
    ("rng.normals.self_s", "s"),
    ("rng.draws", "count"),
    ("cli.main.self_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: per-layer metrics that are counts read from returned objects
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def _argument(func, args, kwargs, name):
    return inspect.signature(func).bind(*args, **kwargs).arguments[name]


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _on_solve_eae(counts, func, args, kwargs, result):
    d = result.diagnostics
    _add(counts, "eae.inner_iters", d.inner_iterations)
    _add(counts, "eae.outer_sweeps", d.outer_iterations)
    counts["eae.kkt_residual.max"] = max(counts.get("eae.kkt_residual.max", 0.0), d.max_kkt_residual)
    w = result.taxes.w
    binding = np.count_nonzero(w) / w.size
    counts["eae.binding_frac"] = min(counts.get("eae.binding_frac", 1.0), binding)


def _on_grid_scan(prefix):
    def hook(counts, func, args, kwargs, result):
        grid = [float(g) for g in _argument(func, args, kwargs, "grid")]
        _add(counts, f"{prefix}.grid_evals", grid.index(float(result.search_parameter)) + 1)
        _add(counts, "policies.scans_accepted", int(result.feasible))

    return hook


def _on_file_write(counts, func, args, kwargs, result):
    _add(counts, "market.bytes_written", Path(_argument(func, args, kwargs, "path")).stat().st_size)


_HOOKS = {
    "eae.solve_eae": _on_solve_eae,
    "ae.solve_ae": lambda c, f, a, k, r: _add(c, "ae.ipfp_iters", r.diagnostics.inner_iterations),
    "ae.solve_ae_grid": lambda c, f, a, k, r: _add(c, "ae.ipfp_iters", r.iterations),
    "estimation.estimate": lambda c, f, a, k, r: _add(c, "estimation.kl_evals", r[1].n_evals),
    "policies.eae_upper_bound": _on_grid_scan("policies.eae_upper_bound"),
    "policies.cap_reduced_ae": _on_grid_scan("policies.cap_reduced_ae"),
    "market.save_market": _on_file_write,
    "market.save_result": _on_file_write,
    "rng.normals": lambda c, f, a, k, r: _add(c, "rng.draws", r.size),
}


class Tracer:
    """In-memory span recorder for the quotamatch layers.

    Spans and counts accumulate across repeated install/uninstall cycles, so
    a caller can trace some calls and leave others (its own checks) out.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, site, start, end, parent index]
        self.counts: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"quotamatch.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in _UNWRAPPED
                ):
                    targets[obj] = name
        for module_name, module in list(sys.modules.items()):
            if module_name != "quotamatch" and not module_name.startswith("quotamatch."):
                continue
            site = module_name.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(module, attr, self._wrap(obj, targets[obj], site))
        rng_class = importlib.import_module("quotamatch.rng").SplitMix64
        self._patch(rng_class, "normals", self._wrap(rng_class.normals, "rng.normals", "rng"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, func, name, site):
        hook = _HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
            if hook is not None:
                hook(counts, func, args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as f:
            for index, (name, site, start, end, parent) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": index, "name": name, "site": site, "start": start, "end": end, "parent": parent}
                    )
                )
                f.write("\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (without the ``trace.*`` wall times).

        A span's self time is its duration minus the time covered by its
        direct children; children of one span never overlap because the
        package runs single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, site, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        site_calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for index, (name, site, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            site_calls[name, site] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_time[index]

        counts = self.counts
        solves = calls["eae.solve_eae"]
        ipfp_solves = site_calls["ae.build_kernel", "eae"]
        kl_evals = counts.get("estimation.kl_evals", 0)
        scan_evals = counts.get("policies.eae_upper_bound.grid_evals", 0) + counts.get(
            "policies.cap_reduced_ae.grid_evals", 0
        )
        out = {
            "eae.solve_eae.calls": solves,
            "eae.solve_eae.self_s": self_s["eae.solve_eae"],
            "eae.ipfp_solves": ipfp_solves,
            "eae.ipfp_solves_per_solve": ipfp_solves / solves if solves else 0.0,
            "eae.inner_iters": counts.get("eae.inner_iters", 0),
            "eae.outer_sweeps": counts.get("eae.outer_sweeps", 0),
            "eae.verify_kkt.calls": calls["eae.verify_kkt"],
            "eae.verify_kkt.self_s": self_s["eae.verify_kkt"],
            "eae.kkt_residual.max": counts.get("eae.kkt_residual.max", 0.0),
            "eae.binding_frac": counts.get("eae.binding_frac", 0.0),
            "ae.build_kernel.calls": calls["ae.build_kernel"],
            "ae.build_kernel.self_s": self_s["ae.build_kernel"],
            "ae.solve_ae.calls": calls["ae.solve_ae"],
            "ae.solve_ae.self_s": self_s["ae.solve_ae"],
            "ae.ipfp_iters": counts.get("ae.ipfp_iters", 0),
            "ae.solve_ae_grid.self_s": self_s["ae.solve_ae_grid"],
            "policies.prepare_bbae_grid.self_s": self_s["policies.prepare_bbae_grid"],
            "policies.select_bbae.self_s": self_s["policies.select_bbae"],
            "policies.eae_upper_bound.self_s": self_s["policies.eae_upper_bound"],
            "policies.cap_reduced_ae.self_s": self_s["policies.cap_reduced_ae"],
            "policies.eae_upper_bound.grid_evals": counts.get("policies.eae_upper_bound.grid_evals", 0),
            "policies.cap_reduced_ae.grid_evals": counts.get("policies.cap_reduced_ae.grid_evals", 0),
            "policies.scan_useful_ratio": (
                counts.get("policies.scans_accepted", 0) / scan_evals if scan_evals else 0.0
            ),
            "welfare.breakdown.calls": calls["welfare.breakdown"],
            "welfare.breakdown.self_s": self_s["welfare.breakdown"],
            "estimation.estimate.self_s": self_s["estimation.estimate"],
            "estimation.kl_evals": kl_evals,
            "estimation.solves_per_eval": (
                site_calls["ae.solve_ae", "estimation"] / kl_evals if kl_evals else 0.0
            ),
            "experiments.sweep_one_seed.self_s": self_s["experiments.sweep_one_seed"],
            "market.load_s": sum(total_s[name] for name in _MARKET_LOADS),
            "market.save_s": sum(total_s[name] for name in _MARKET_SAVES),
            "market.bytes_written": counts.get("market.bytes_written", 0),
            "rng.normals.self_s": self_s["rng.normals"],
            "rng.draws": counts.get("rng.draws", 0),
            "cli.main.self_s": self_s["cli.main"],
        }
        return out
