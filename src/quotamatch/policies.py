"""Alternative quota-implementation policies and their welfare comparison.

Three policies substitute for directly enforcing rural floors:

* an upper-bound policy that caps one designated region and relies on the
  optimal tax for that cap alone, scanning an ascending grid of caps and
  accepting the smallest whose outcome meets every target floor;
* a capacity-reduction policy that shrinks designated slot types' masses at
  zero taxes, scanning an ascending grid of artificial capacities the same
  way (this mirrors the rationing rule used in practice);
* a budget-balanced policy that grid-searches tax vectors, keeps those whose
  outcome both meets the floors and yields nonnegative policymaker revenue,
  and picks the welfare-maximizing one.

All four policies (including the directly constrained optimum) are compared
on the same social-welfare scale: realized match surplus plus the
heterogeneity term. The budget-balanced selection uses that same scale; the
alternative net-of-tax match-surplus criterion (which drops the
heterogeneity term, treats taxes as pure agent losses, and therefore favors
prohibitively high taxes once floors force taxation at all) is evaluated and
reported for every selected point but deliberately not used for selection,
since it would invert the policy ordering whenever floors bind.

Which regions receive caps versus floors is caller configuration, not an
assumption of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ae import GridSolution, IpfpConfig, solve_ae, solve_ae_grid
from .eae import EaeConfig, solve_eae
from .market import EquilibriumResult, MarketSpec, Matching, region_masses
from .welfare import WelfareBreakdown, breakdown, matching_breakdown

__all__ = [
    "PolicyResult",
    "OrderingReport",
    "eae_upper_bound",
    "cap_reduced_ae",
    "bbae",
    "prepare_bbae_grid",
    "select_bbae",
    "welfare_ordering_check",
    "extend_capped_matching",
]

POLICY_ORDER = ("eae", "bbae", "eae_upper_bound", "cap_reduced")


@dataclass(frozen=True)
class PolicyResult:
    policy: str
    equilibrium: EquilibriumResult
    search_parameter: object
    welfare: WelfareBreakdown
    feasible: bool
    evaluated_matching: Matching
    selection_value: float | None = None


def _floors_met(mu: Matching, floors: Mapping[str, float], spec: MarketSpec, tol: float) -> bool:
    masses = region_masses(mu, spec)
    return all(masses[spec.region_index(z)] >= f - tol for z, f in floors.items())


def _infer_bound_region(spec: MarketSpec, floors: Mapping[str, float]) -> str:
    candidates = [z for z in spec.regions if z not in floors]
    if len(candidates) != 1:
        raise ValueError(
            "cannot infer the capped region: pass it explicitly when the market "
            "does not have exactly one region without a target floor"
        )
    return candidates[0]


def _check_ascending(grid: Sequence[float]) -> list[float]:
    values = [float(g) for g in grid]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("grid must be a nonempty ascending sequence")
    return values


def eae_upper_bound(
    spec: MarketSpec,
    phi,
    target_floors: Mapping[str, float],
    grid: Sequence[float],
    bound_region: str | None = None,
    cfg: EaeConfig | None = None,
) -> PolicyResult:
    """Smallest grid cap on the bound region whose optimal-tax outcome meets
    every target floor.

    All other constraints are dropped while scanning: the candidate market has
    only the one ceiling. When no grid value works the last attempt is
    returned with ``feasible=False``.
    """
    cfg = cfg or EaeConfig()
    bound_region = bound_region or _infer_bound_region(spec, target_floors)
    result = None
    accepted = None
    feasible = False
    for cap in _check_ascending(grid):
        candidate = spec.with_quotas(upper={bound_region: cap}, lower={})
        result = solve_eae(candidate, phi, cfg)
        accepted = cap
        if _floors_met(result.matching, target_floors, spec, cfg.constraint_tolerance):
            feasible = True
            break
    return PolicyResult(
        policy="eae_upper_bound",
        equilibrium=result,
        search_parameter=accepted,
        welfare=breakdown(result, phi, spec),
        feasible=feasible,
        evaluated_matching=result.matching,
    )


def extend_capped_matching(mu: Matching, spec: MarketSpec) -> Matching:
    """Re-express a reduced-capacity matching in the full market.

    Slots removed by the artificial capacities exist in reality and sit
    unmatched, so the slot-side unmatched mass absorbs the difference between
    the true slot masses and the matched totals.
    """
    unmatched_slots = spec.m - mu.matched.sum(axis=0)
    return Matching(mu.matched, mu.unmatched_workers, unmatched_slots)


def cap_reduced_ae(
    spec: MarketSpec,
    phi,
    target_floors: Mapping[str, float],
    grid: Sequence[float],
    cap_slots: Sequence[str] | None = None,
    cfg: IpfpConfig | None = None,
    tol: float = 1e-8,
) -> PolicyResult:
    """Smallest artificial capacity for the capped slot types whose zero-tax
    outcome meets every target floor.

    The returned equilibrium lives on the reduced market; its welfare is
    evaluated on the matching extended back to the true slot masses, with the
    artificially removed slots unmatched.
    """
    cfg = cfg or IpfpConfig()
    if cap_slots is None:
        region = _infer_bound_region(spec, target_floors)
        cap_slots = [y for y in spec.slot_types if spec.region_of[y] == region]
    result = None
    accepted = None
    feasible = False
    for cap in _check_ascending(grid):
        reduced = spec.with_slot_masses({y: cap for y in cap_slots})
        result = solve_ae(reduced, phi, None, cfg)
        accepted = cap
        if _floors_met(result.matching, target_floors, spec, tol):
            feasible = True
            break
    extended = extend_capped_matching(result.matching, spec)
    welfare = matching_breakdown(
        extended, phi, result.taxes, result.utilities.U, result.utilities.V, spec
    )
    return PolicyResult(
        policy="cap_reduced",
        equilibrium=result,
        search_parameter=accepted,
        welfare=welfare,
        feasible=feasible,
        evaluated_matching=extended,
    )


def prepare_bbae_grid(
    spec: MarketSpec, phi, tax_grid, cfg: IpfpConfig | None = None
) -> GridSolution:
    """Solve and price the zero-constraint equilibrium at every candidate tax
    vector.

    The grid solution and its prices are floor-independent, so one batch
    serves every floor level of a sweep.
    """
    return solve_ae_grid(spec, phi, np.asarray(list(tax_grid), dtype=np.float64), cfg)


def select_bbae(
    grid_solution: GridSolution,
    spec: MarketSpec,
    phi,
    target_floors: Mapping[str, float],
    cfg: IpfpConfig | None = None,
    tol: float = 1e-8,
) -> PolicyResult:
    """Pick the budget-balanced grid equilibrium for one floor level.

    Keeps grid points with nonnegative policymaker revenue whose region masses
    meet every target floor, then maximizes social welfare over the kept set
    (first maximizer wins, so the reduction is independent of evaluation
    order). Revenue and welfare are the grid solution's, priced once per
    grid. With an empty kept set the selection falls back to all
    budget-balanced points and the result is flagged infeasible.
    """
    balanced = grid_solution.revenue >= -1e-12
    floors_ok = np.ones(grid_solution.taxes.shape[0], dtype=bool)
    for z, f in target_floors.items():
        floors_ok &= grid_solution.region_mass[:, spec.region_index(z)] >= float(f) - tol
    keep = balanced & floors_ok
    feasible = bool(keep.any())
    pool = keep if feasible else balanced
    if not pool.any():
        pool = np.ones_like(balanced)
    candidates = np.flatnonzero(pool)
    winner = int(candidates[np.argmax(grid_solution.social_welfare[candidates])])
    # Re-solve the winner alone to obtain utilities and diagnostics.
    result = solve_ae(spec, phi, grid_solution.taxes[winner], cfg)
    return PolicyResult(
        policy="bbae",
        equilibrium=result,
        search_parameter=np.array(grid_solution.taxes[winner]),
        welfare=breakdown(result, phi, spec),
        feasible=feasible,
        evaluated_matching=result.matching,
        selection_value=float(grid_solution.net_agent_surplus[winner]),
    )


def bbae(
    spec: MarketSpec,
    phi,
    target_floors: Mapping[str, float],
    tax_grid,
    cfg: IpfpConfig | None = None,
    tol: float = 1e-8,
) -> PolicyResult:
    """Budget-balanced equilibrium over a finite tax grid for given floors."""
    grid_solution = prepare_bbae_grid(spec, phi, tax_grid, cfg)
    return select_bbae(grid_solution, spec, phi, target_floors, cfg, tol)


@dataclass(frozen=True)
class OrderingReport:
    """Pairwise welfare gaps along the expected policy ordering."""

    policies: tuple[str, ...]
    welfare: tuple[float, ...]
    gaps: tuple[float, ...]
    ok: bool

    def __str__(self) -> str:
        chain = " >= ".join(
            f"{p}({v:.6f})" for p, v in zip(self.policies, self.welfare)
        )
        return f"{chain} -> {'ok' if self.ok else 'VIOLATED'}"


def welfare_ordering_check(results: Sequence[PolicyResult], tol: float = 1e-7) -> OrderingReport:
    """Check the canonical welfare ordering across policy results.

    Results are matched to the canonical order by their policy name; each gap
    is the preceding policy's social welfare minus the following one's, and
    the report is ok when every gap is above ``-tol``.
    """
    by_name = {r.policy: r for r in results}
    missing = [p for p in POLICY_ORDER if p not in by_name]
    if missing:
        raise ValueError(f"missing policy results: {missing}")
    ordered = [by_name[p] for p in POLICY_ORDER]
    values = [r.welfare.social for r in ordered]
    gaps = [a - b for a, b in zip(values, values[1:])]
    return OrderingReport(
        policies=POLICY_ORDER,
        welfare=tuple(values),
        gaps=tuple(gaps),
        ok=all(g >= -tol for g in gaps),
    )
