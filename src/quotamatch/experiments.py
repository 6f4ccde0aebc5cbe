"""Reproducible experiment harness: market generators, policy sweep, benchmark.

The residency-style simulation builds a small market with one popular region
and several unpopular ones, sweeps a grid of floor levels for the unpopular
regions, and computes five allocations per (floor, replication) cell: the
unconstrained baseline, the optimal-tax solution, and the three alternative
policies. Aggregates are emitted as plot-ready CSV panels.

Replications and floor levels are independent; the harness output is a pure
function of the configuration, so parallel execution (see the CLI's jobs
flag, the only parallelism) produces byte-identical files. A replication runs
on one thread: its budget-balance grid is solved in batches along one floor
region's subsidy, batch by batch by continuation, and priced in closed form
(:func:`~quotamatch.ae.solve_ae_grid`).
Within a replication a floor level's scan outcome is reused at any later,
higher level whose floors it meets, or whose floors it did not meet at its
own level, and each distinct budget-balanced winner is re-solved once
(:func:`sweep_policies`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ae import solve_ae
from .eae import InfeasibleQuotaError, solve_eae
from .market import MarketSpec, SurplusMatrix, region_masses
from .policies import (
    PolicyResult,
    bbae,
    cap_reduced_ae,
    eae_upper_bound,
    floors_met,
    policy_result,
    tax_grid,
)
from .rng import SplitMix64, derive_seed

__all__ = [
    "JrmpConfig",
    "ScalingConfig",
    "SweepRecord",
    "PanelData",
    "BenchRow",
    "gen_jrmp_market",
    "gen_scaling_market",
    "binding_market",
    "run_lower_bound_sweep",
    "bench_eae",
    "write_panels_csv",
    "write_locus_csv",
    "write_records_csv",
    "write_bench_csv",
    "sweep_policies",
    "policy_record",
]

#: candidate ceilings for the upper-bound policy
UPPER_BOUND_GRID = tuple(np.round(np.linspace(0.10, 0.50, 41), 10))
#: candidate artificial capacities for the capacity-reduction policy
CAP_GRID = tuple(np.round(np.linspace(0.050, 0.25, 41), 10))
#: tax grid axes for the budget-balanced policy
BB_TAX_AXIS = tuple(np.round(np.linspace(0.0, 10.0, 21), 10))
BB_SUBSIDY_AXIS = tuple(np.round(np.linspace(-0.2, 0.0, 21), 10))
#: the residency market's capped region and its floor regions
URBAN_REGION = "z1"
FLOOR_REGIONS = ("z2", "z3")
#: slot types per region in the scaling benchmark's markets
HOSPITALS_PER_REGION = 10
#: each binding market's quota is this relative interval around its region's
#: mass at the witness tax
QUOTA_HALF_WIDTH = 0.02

_PANEL_METRICS = ("social_welfare", "agent_welfare", "pm_surplus", "urban_mass", "rural_mass")
_POLICIES = ("unconstrained", "eae", "bbae", "eae_upper_bound", "cap_reduced")
#: per-floor result order of :func:`sweep_policies`
_SWEPT = ("eae", "eae_upper_bound", "cap_reduced", "bbae")


@dataclass(frozen=True)
class JrmpConfig:
    """Configuration of the residency-style floor sweep."""

    seeds: tuple[int, ...] | None = None
    floor_grid: tuple[float, ...] = tuple(np.round(np.linspace(0.10, 0.40, 7), 10))
    replications: int = 30

    def __post_init__(self):
        if any(not 0.0 <= f <= 0.5 for f in self.floor_grid):
            raise ValueError("floor levels must lie within [0, 0.5]")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")

    def effective_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(int(s) for s in self.seeds)
        return tuple(range(self.replications))


@dataclass(frozen=True)
class ScalingConfig:
    """Grid of market sizes for the solver timing benchmark, which times
    :func:`binding_market` draws; each has ``HOSPITALS_PER_REGION`` slot types
    per region."""

    worker_type_counts: tuple[int, ...] = (10, 20)
    region_counts: tuple[int, ...] = tuple(range(5, 101, 5))
    trials: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if min(self.worker_type_counts) < 1 or min(self.region_counts) < 1:
            raise ValueError("size counts must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def gen_jrmp_market(seed: int) -> tuple[MarketSpec, SurplusMatrix]:
    """Residency-style market: 10 worker types, 6 slot types in 3 regions.

    ``URBAN_REGION`` holds the two popular slot types (base surplus 2.0), the
    two ``FLOOR_REGIONS`` hold the unpopular ones (base 0.5); unit-variance noise
    is added cell by cell from the seeded stream. Quotas are left open so the
    sweep can impose floors per level on a fixed draw.
    """
    rng = SplitMix64(seed)
    worker_types = tuple(f"x{i + 1}" for i in range(10))
    slot_types = tuple(f"y{j + 1}" for j in range(6))
    regions = (URBAN_REGION, *FLOOR_REGIONS)
    region_of = {y: regions[j // 2] for j, y in enumerate(slot_types)}
    base = np.where(np.arange(6) < 2, 2.0, 0.5)
    noise = rng.normals((10, 6))
    phi = SurplusMatrix(base[None, :] + noise)
    spec = MarketSpec(
        worker_types,
        slot_types,
        regions,
        np.full(10, 0.1),
        np.full(6, 0.25),
        region_of,
        np.full(3, np.inf),
        np.zeros(3),
    )
    return spec, phi


def gen_scaling_market(
    num_worker_types: int, num_regions: int, seed: int
) -> tuple[MarketSpec, SurplusMatrix]:
    """Benchmark market: floors only, sizes spread so totals stay fixed.

    Each region holds ``HOSPITALS_PER_REGION`` slot types. Total worker mass
    is 1.0, total slot mass 1.5, and total floor mass 0.3 regardless of the
    dimensions.
    """
    num_slots = num_regions * HOSPITALS_PER_REGION
    worker_types = tuple(f"x{i + 1}" for i in range(num_worker_types))
    slot_types = tuple(f"y{j + 1}" for j in range(num_slots))
    regions = tuple(f"z{k + 1}" for k in range(num_regions))
    region_of = {y: regions[j // HOSPITALS_PER_REGION] for j, y in enumerate(slot_types)}
    rng = SplitMix64(seed)
    phi = SurplusMatrix(2.0 + rng.normals((num_worker_types, num_slots)))
    spec = MarketSpec(
        worker_types,
        slot_types,
        regions,
        np.full(num_worker_types, 1.0 / num_worker_types),
        np.full(num_slots, 1.5 / num_slots),
        region_of,
        np.full(num_regions, np.inf),
        np.full(num_regions, 0.3 / num_regions),
    )
    return spec, phi


def binding_market(
    num_worker_types: int, num_regions: int, seed: int
) -> tuple[MarketSpec, SurplusMatrix]:
    """Scaling market whose quotas bind at a random witness tax.

    Each region gets the interval of +-``QUOTA_HALF_WIDTH`` (relative) around
    its matched mass at a tax drawn uniformly from [-1, 1]. The witness
    matching meets every quota, so the market is feasible; the zero-tax
    masses mostly fall outside the intervals, so most quotas bind.
    """
    spec, phi = gen_scaling_market(num_worker_types, num_regions, seed)
    rng = SplitMix64(derive_seed(seed, "witness-tax"))
    witness = np.array([2.0 * rng.next_uniform() - 1.0 for _ in range(num_regions)])
    masses = region_masses(solve_ae(spec, phi, witness).matching, spec)
    upper = {z: (1.0 + QUOTA_HALF_WIDTH) * v for z, v in zip(spec.regions, masses)}
    lower = {z: (1.0 - QUOTA_HALF_WIDTH) * v for z, v in zip(spec.regions, masses)}
    return spec.with_quotas(upper=upper, lower=lower), phi


@dataclass(frozen=True)
class SweepRecord:
    """One policy outcome in one (floor, replication) cell."""

    floor: float
    seed: int | None  # None for a single market outside the replication sweep
    policy: str
    feasible: bool
    search_parameter: float | None
    social_welfare: float
    agent_welfare: float
    pm_surplus: float
    urban_mass: float
    rural_mass: dict
    taxes: dict


@dataclass(frozen=True)
class PanelData:
    """Raw sweep records plus the configuration that produced them."""

    cfg: JrmpConfig
    records: tuple[SweepRecord, ...]

    def _feasible_cells(self):
        """(floor, policy, feasible records of that cell) in panel order."""
        for floor in self.cfg.floor_grid:
            for policy in _POLICIES:
                cell = [
                    r
                    for r in self.records
                    if r.policy == policy and r.floor == floor and r.feasible
                ]
                yield floor, policy, cell

    def panel_rows(self) -> list[tuple]:
        """(floor, policy, metric, mean, stderr) over feasible replications."""
        rows = []
        for floor, policy, cell in self._feasible_cells():
            for metric in _PANEL_METRICS:
                values = np.array([_metric(r, metric) for r in cell])
                if values.size == 0:
                    rows.append((floor, policy, metric, np.nan, np.nan))
                    continue
                stderr = (
                    float(values.std(ddof=1) / np.sqrt(values.size))
                    if values.size > 1
                    else 0.0
                )
                rows.append((floor, policy, metric, float(values.mean()), stderr))
        return rows

    def locus_rows(self) -> list[tuple]:
        """(floor, policy, tax, avg_subsidy): urban tax against the mean tax
        on the floor regions, averaged over feasible replications."""
        rows = []
        for floor, policy, cell in self._feasible_cells():
            if not cell:
                rows.append((floor, policy, np.nan, np.nan))
                continue
            taxes = np.array([r.taxes[URBAN_REGION] for r in cell])
            subsidies = np.array([np.mean([r.taxes[z] for z in FLOOR_REGIONS]) for r in cell])
            rows.append((floor, policy, float(taxes.mean()), float(subsidies.mean())))
        return rows


def _metric(r: SweepRecord, name: str) -> float:
    if name == "rural_mass":
        return float(sum(r.rural_mass.values()))
    return float(getattr(r, name))


def sweep_policies(
    spec: MarketSpec,
    phi,
    floor_grid: Sequence[float],
    urban_region: str,
    floor_regions: Sequence[str],
    upper_bound_grid: Sequence[float] = UPPER_BOUND_GRID,
    cap_grid: Sequence[float] = CAP_GRID,
    tax_axis: Sequence[float] = BB_TAX_AXIS,
    subsidy_axis: Sequence[float] = BB_SUBSIDY_AXIS,
) -> list[list[PolicyResult]]:
    """The four quota policies at every floor level of one market.

    Returns, per floor level, the ``eae``, ``eae_upper_bound``,
    ``cap_reduced`` and ``bbae`` results with that floor on every floor
    region; caps go to ``urban_region``. A floor of zero or less is vacuous
    and every policy copies the unconstrained equilibrium. When the optimal
    tax cannot meet the floors (:class:`InfeasibleQuotaError`) that level has
    no ``eae`` result. The budget-balance grid (:func:`~quotamatch.policies.tax_grid`)
    is built and checked against its size limit before any solve, and
    solved once for all levels.

    Each scan's outcome at a level is reused at any later, higher level
    whose floors it meets. A scan's candidates do not depend on the floors,
    a higher level only removes feasible ones, and the scan picks the
    extreme feasible grid value, so the reused outcome is the one a fresh
    scan would pick, whatever the order of the levels. An outcome that did
    not meet its own level's floors means no grid value did; none meets a
    higher level's either, and the scan's fallback value does not depend on
    the floors, so that outcome is reused at every higher level too.
    """
    grid = tax_grid(spec, urban_region, tax_axis, subsidy_axis)
    # A NaN floor is not vacuous: it takes the constrained path, whose
    # validation rejects it.
    constrained = [{z: floor for z in floor_regions} for floor in floor_grid if not floor <= 0.0]
    budget_balanced = iter(bbae(spec, phi, constrained, grid))
    scans = ((eae_upper_bound, upper_bound_grid), (cap_reduced_ae, cap_grid))
    last_scanned = {}  # scan -> (level, result, met its floors) at the last constrained level
    unconstrained = None
    sweep = []
    for floor in floor_grid:
        if floor <= 0.0:
            if unconstrained is None:
                unconstrained = policy_result("unconstrained", solve_ae(spec, phi), phi, spec)
            sweep.append([replace(unconstrained, policy=p) for p in _SWEPT])
            continue
        floors = {z: floor for z in floor_regions}
        results = []
        try:
            eae_result = solve_eae(spec.with_quotas(lower=floors), phi)
            results.append(policy_result("eae", eae_result, phi, spec))
        except InfeasibleQuotaError:
            pass
        for scan, scan_grid in scans:
            level, result, met = last_scanned.get(scan, (np.inf, None, True))
            if not (
                floor >= level
                and (
                    not met
                    or result.feasible and floors_met(result.equilibrium.matching, floors, spec)
                )
            ):
                result = scan(spec, phi, floors, scan_grid, urban_region)
                met = floors_met(result.equilibrium.matching, floors, spec)
            last_scanned[scan] = (floor, result, met)
            results.append(result)
        results.append(next(budget_balanced))
        sweep.append(results)
    return sweep


def policy_record(
    floor: float,
    seed: int | None,
    result: PolicyResult,
    spec: MarketSpec,
    urban_region: str,
    floor_regions: Sequence[str],
) -> SweepRecord:
    """One policy result as a sweep record; ``bbae``'s tax-vector search
    parameter is recorded as its urban-region entry."""
    masses = region_masses(result.evaluated_matching, spec)
    w = result.equilibrium.taxes.w
    search = result.search_parameter
    if isinstance(search, np.ndarray):
        search = float(search[spec.region_index(urban_region)])
    return SweepRecord(
        floor=floor,
        seed=seed,
        policy=result.policy,
        feasible=result.feasible,
        search_parameter=search,
        social_welfare=result.welfare.social,
        agent_welfare=result.welfare.worker_side + result.welfare.slot_side,
        pm_surplus=result.welfare.pm_surplus,
        urban_mass=float(masses[spec.region_index(urban_region)]),
        rural_mass={z: float(masses[spec.region_index(z)]) for z in floor_regions},
        taxes={z: float(w[i]) for i, z in enumerate(spec.regions)},
    )


def sweep_one_seed(seed: int, cfg: JrmpConfig) -> list[SweepRecord]:
    """All policies at all floor levels for one replication: the
    unconstrained equilibrium plus :func:`sweep_policies` on one surplus draw."""
    spec, phi = gen_jrmp_market(seed)
    unconstrained = policy_result("unconstrained", solve_ae(spec, phi), phi, spec)
    sweep = sweep_policies(spec, phi, cfg.floor_grid, URBAN_REGION, FLOOR_REGIONS)
    return [
        policy_record(floor, seed, r, spec, URBAN_REGION, FLOOR_REGIONS)
        for floor, results in zip(cfg.floor_grid, sweep)
        for r in [unconstrained, *results]
    ]


def run_lower_bound_sweep(
    cfg: JrmpConfig,
    mapper: Callable | None = None,
) -> PanelData:
    """Run the floor sweep over all replications.

    ``mapper`` is an optional map(func, iterable) substitute (e.g. a process
    pool's map); the output ordering is fixed by sorting, so any mapper that
    preserves the work items yields identical panels.
    """
    seeds = cfg.effective_seeds()
    run = mapper or map
    batches = list(run(_sweep_worker, [(s, cfg) for s in seeds]))
    records = [r for batch in batches for r in batch]
    records.sort(key=lambda r: (r.floor, r.policy, r.seed))
    return PanelData(cfg=cfg, records=tuple(records))


def _sweep_worker(args) -> list[SweepRecord]:
    seed, cfg = args
    return sweep_one_seed(seed, cfg)


@dataclass(frozen=True)
class BenchRow:
    """Means over a size's trials: seconds per solve, Newton steps of the tax
    search, and the share of regions taxed or subsidized."""

    num_worker_types: int
    num_regions: int
    mean_seconds: float
    newton_steps: float
    binding_frac: float
    converged: bool


def bench_eae(cfg: ScalingConfig) -> list[BenchRow]:
    """Time the constrained solve on binding markets over the size grid."""
    rows = []
    for nx in cfg.worker_type_counts:
        for nz in cfg.region_counts:
            times, steps, binding = [], [], []
            converged = True
            for trial in range(cfg.trials):
                seed = SplitMix64(cfg.master_seed ^ (nx * 1_000_003 + nz * 101 + trial)).next_uint64()
                spec, phi = binding_market(nx, nz, seed)
                start = time.perf_counter()
                result = solve_eae(spec, phi)
                times.append(time.perf_counter() - start)
                steps.append(result.diagnostics.outer_iterations)
                binding.append(np.count_nonzero(result.taxes.w) / nz)
                converged = converged and result.diagnostics.converged
            rows.append(
                BenchRow(nx, nz, *(float(np.mean(v)) for v in (times, steps, binding)), converged)
            )
    return rows


# ---------------------------------------------------------------------------
# CSV emission. Floats are printed in their shortest round-trip form, which is
# exact, so repeated runs compare byte for byte.
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_panels_csv(panel: PanelData, path) -> None:
    _write_csv(path, ("floor", "policy", "metric", "mean", "stderr"), panel.panel_rows())


def write_locus_csv(panel: PanelData, path) -> None:
    _write_csv(path, ("floor", "policy", "tax", "avg_subsidy"), panel.locus_rows())


def write_records_csv(records: Sequence[SweepRecord], path) -> None:
    """One row per policy record. The rural-mass and tax columns follow the
    first record's keys; the seed column is written iff the records carry
    seeds (a replication sweep, not one market)."""
    rural = list(records[0].rural_mass) if records else []
    regions = list(records[0].taxes) if records else []
    seed = ["seed"] if records and records[0].seed is not None else []
    header = (
        ["policy", "floor"] + seed + ["feasible", "search_parameter"]
        + ["social_welfare", "agent_welfare", "pm_surplus", "urban_mass"]
        + [f"rural_mass_{z}" for z in rural]
        + [f"tax_{z}" for z in regions]
    )
    rows = [
        [r.policy, r.floor] + ([r.seed] if seed else []) + [r.feasible, r.search_parameter]
        + [r.social_welfare, r.agent_welfare, r.pm_surplus, r.urban_mass]
        + [r.rural_mass[z] for z in rural]
        + [r.taxes[z] for z in regions]
        for r in records
    ]
    _write_csv(path, header, rows)


def write_bench_csv(rows: Sequence[BenchRow], path) -> None:
    _write_csv(
        path,
        ("num_worker_types", "num_regions", "mean_seconds", "newton_steps", "binding_frac", "converged"),
        [
            (r.num_worker_types, r.num_regions, r.mean_seconds, r.newton_steps, r.binding_frac, r.converged)
            for r in rows
        ],
    )
