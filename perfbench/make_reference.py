"""Write the reference outputs of the fixed-corpus workloads.

    python3 perfbench/make_reference.py

Picks the ``eae-binding`` corpus (per size, the first candidate markets
whose optimum taxes at least half of the regions), solves it and every
``residency-sweep`` replication with the current sources, and writes the
taxes and sweep records to ``perfbench/reference``. The benchmark compares
each run's outputs against these files, so regenerate them only when a
change is meant to alter the numbers, and say so in the change.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from quotamatch import eae, experiments  # noqa: E402


def main() -> int:
    taxes = {}
    for nx, nz, count in workloads.BINDING_SIZES:
        kept = 0
        for i in itertools.count():
            if kept == count:
                break
            label = f"{nx}x{nz}/{i}"
            spec, phi = workloads.binding_instance(label)
            result = eae.solve_eae(spec, phi)
            if not result.diagnostics.converged:
                raise SystemExit(f"binding instance {label} did not converge")
            binding = workloads.binding_fraction(result)
            print(f"eae-binding {label}: {binding:.2f} of the regions bind")
            if binding >= workloads.MIN_BINDING_FRAC:
                taxes[label] = result.taxes.w.tolist()
                kept += 1

    records = {}
    for label, cfg in workloads.residency_corpus(smoke=False):
        panel = experiments.run_lower_bound_sweep(cfg)
        records[label] = [dataclasses.asdict(r) for r in panel.records]
        print(f"residency-sweep {label}: {len(panel.records)} records")

    for name, doc in (("eae_binding.json", taxes), ("residency_sweep.json", records)):
        (workloads.REFERENCE_DIR / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
