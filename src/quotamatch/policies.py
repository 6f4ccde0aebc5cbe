"""Alternative quota-implementation policies and their welfare comparison.

Three policies substitute for directly enforcing rural floors, each acting on
one capped region that the caller names:

* an upper-bound policy that caps the region and relies on the optimal tax
  for that cap alone, scanning an ascending grid of caps and accepting the
  smallest whose outcome meets every target floor;
* a capacity-reduction policy that shrinks the region's slot masses at zero
  taxes, scanning an ascending grid of artificial capacities the same way
  (this mirrors the rationing rule used in practice);
* a budget-balanced policy that solves the zero-constraint equilibrium at
  every tax vector of a grid (:func:`tax_grid`), keeps those whose outcome
  both meets the floors and yields nonnegative policymaker revenue, and picks
  the welfare-maximizing one.

All four policies (including the directly constrained optimum) are priced by
:func:`policy_result` on the same social-welfare scale: realized match
surplus plus the heterogeneity term. The budget-balanced selection uses that
same scale. The net-of-tax value of an outcome, ``match_surplus -
pm_surplus`` of its welfare breakdown, drops the heterogeneity term and
treats taxes as pure agent losses; it therefore favors prohibitively high
taxes once floors force taxation at all, and selecting on it would invert
the policy ordering whenever floors bind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ae import solve_ae, solve_ae_grid
from .eae import solve_eae
from .market import EquilibriumResult, MarketSpec, Matching, region_masses
from .welfare import WelfareBreakdown, breakdown

__all__ = [
    "PolicyResult",
    "OrderingReport",
    "policy_result",
    "floors_met",
    "eae_upper_bound",
    "cap_reduced_ae",
    "tax_grid",
    "bbae",
    "welfare_ordering_check",
    "extend_capped_matching",
]

POLICY_ORDER = ("eae", "bbae", "eae_upper_bound", "cap_reduced")
#: slack below a target floor within which an outcome still meets it
FLOOR_TOLERANCE = 1e-8
#: welfare shortfall along the policy ordering that still counts as ordered
ORDERING_TOLERANCE = 1e-7
#: largest budget-balance grid, in grid points times worker types times slot
#: types: it bounds the grid's solve time and the (P, N, M) arrays of the
#: Newton trials of a batch of P points
MAX_GRID_ENTRIES = 1_000_000


@dataclass(frozen=True)
class PolicyResult:
    policy: str
    equilibrium: EquilibriumResult
    search_parameter: object
    welfare: WelfareBreakdown
    feasible: bool
    evaluated_matching: Matching


def policy_result(
    policy: str,
    result: EquilibriumResult,
    phi,
    spec: MarketSpec,
    feasible: bool = True,
    search_parameter=None,
    evaluated: Matching | None = None,
) -> PolicyResult:
    """Price an equilibrium as a policy outcome.

    ``evaluated`` is the matching whose welfare is reported, the
    equilibrium's own by default; :func:`~quotamatch.welfare.breakdown`
    prices it at the equilibrium's taxes and utilities. A row is feasible
    only if the caller's ``feasible`` holds and the equilibrium converged.
    """
    evaluated = result.matching if evaluated is None else evaluated
    welfare = breakdown(result, phi, spec, evaluated)
    feasible = bool(feasible and result.diagnostics.converged)
    return PolicyResult(policy, result, search_parameter, welfare, feasible, evaluated)


def floors_met(mu: Matching, floors: Mapping[str, float], spec: MarketSpec) -> bool:
    """Whether the matching's mass in every floor region is within
    ``FLOOR_TOLERANCE`` of its target floor or above it."""
    masses = region_masses(mu, spec)
    return all(masses[spec.region_index(z)] >= f - FLOOR_TOLERANCE for z, f in floors.items())


def _first_feasible(grid: Sequence[float], solve, floors: Mapping[str, float], spec: MarketSpec):
    """Solve an ascending grid in order up to the first value whose outcome
    meets every floor.

    Returns (value, result, feasible); when no value works the last attempt
    is returned with ``feasible`` False.
    """
    values = [float(g) for g in grid]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("grid must be a nonempty ascending sequence")
    for value in values:
        result = solve(value)
        if floors_met(result.matching, floors, spec):
            return value, result, True
    return value, result, False


def eae_upper_bound(
    spec: MarketSpec,
    phi,
    target_floors: Mapping[str, float],
    grid: Sequence[float],
    bound_region: str,
) -> PolicyResult:
    """Smallest grid cap on the bound region whose optimal-tax outcome meets
    every target floor.

    All other constraints are dropped while scanning: the candidate market has
    only the one ceiling.
    """
    cap, result, feasible = _first_feasible(
        grid,
        lambda cap: solve_eae(spec.with_quotas(upper={bound_region: cap}, lower={}), phi),
        target_floors,
        spec,
    )
    return policy_result("eae_upper_bound", result, phi, spec, feasible, cap)


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
    bound_region: str,
) -> PolicyResult:
    """Smallest artificial capacity for every slot type of the bound region
    whose zero-tax outcome meets every target floor.

    The returned equilibrium lives on the reduced market; its welfare is
    evaluated on the matching extended back to the true slot masses, with the
    artificially removed slots unmatched.
    """
    cols = spec.region_slot_indices[spec.region_index(bound_region)]
    slots = [spec.slot_types[j] for j in cols]
    cap, result, feasible = _first_feasible(
        grid,
        lambda cap: solve_ae(spec.with_slot_masses({y: cap for y in slots}), phi),
        target_floors,
        spec,
    )
    extended = extend_capped_matching(result.matching, spec)
    return policy_result("cap_reduced", result, phi, spec, feasible, cap, extended)


def tax_grid(
    spec: MarketSpec,
    capped_region: str,
    tax_axis: Sequence[float],
    subsidy_axis: Sequence[float],
) -> np.ndarray:
    """Cartesian budget-balance grid: the tax axis on the capped region, its
    own copy of the subsidy axis on every other region.

    Returns shape (S, P, L), one batch per value of the last floor region's
    subsidy axis (the last region other than the capped one), S = |subsidy
    axis| batches of P = |tax axis| * |subsidy axis|**(L-2) rows. Flattened,
    the rows run in product order over the last floor region first, then
    the capped region, then the other floor regions in region order. With
    L = 1 it is one row per tax, shape (|tax axis|, 1, 1). A grid whose rows
    times worker and slot types exceed ``MAX_GRID_ENTRIES`` is rejected
    before it is built, as is an empty axis that the grid uses.
    """
    num_regions = spec.num_regions
    if not len(tax_axis):
        raise ValueError("budget-balance grid: the tax axis is empty")
    if num_regions > 1 and not len(subsidy_axis):
        raise ValueError("budget-balance grid: the subsidy axis is empty")
    points = len(tax_axis) * len(subsidy_axis) ** (num_regions - 1)
    if points * spec.num_workers * spec.num_slots > MAX_GRID_ENTRIES:
        raise ValueError(
            f"budget-balance grid of {points} tax vectors on a "
            f"{spec.num_workers}x{spec.num_slots} market exceeds {MAX_GRID_ENTRIES} "
            "points times worker and slot types; coarsen the subsidy axis (--subsidy-grid)"
        )
    capped = spec.region_index(capped_region)
    floor_regions = [z for z in range(num_regions) if z != capped]
    axes = [
        np.asarray(tax_axis if z == capped else subsidy_axis, dtype=np.float64)
        for z in range(num_regions)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    leading = [floor_regions[-1], capped] if floor_regions else [capped]
    grid = np.moveaxis(grid, leading, range(len(leading)))
    return grid.reshape(grid.shape[0], -1, num_regions)


def bbae(
    spec: MarketSpec,
    phi,
    floor_levels: Sequence[Mapping[str, float]],
    grid,
) -> list[PolicyResult]:
    """Budget-balanced equilibrium over a finite tax grid, one per floor level.

    ``grid`` is a (G, L) array of tax vectors or a (T, P, L) stack of
    batches (:func:`tax_grid`), taken in row order: flattened, batch after
    batch. The zero-constraint equilibrium is solved and priced once at
    every grid row, solved batch by batch by continuation
    (:func:`~quotamatch.ae.solve_ae_grid`). For each mapping of target
    floors the selection keeps rows with nonnegative
    policymaker revenue whose region masses meet every floor, then maximizes social
    welfare over the kept set (first maximizer wins, so the reduction is independent of
    evaluation order). With an empty kept set it falls back to all
    budget-balanced rows and the result is flagged infeasible, as it is when
    the grid solve did not converge. Each distinct winner is re-solved alone,
    once, for its utilities and diagnostics, and priced at every level it
    wins. With no floor levels nothing is solved.
    """
    if not floor_levels:
        return []
    solved = solve_ae_grid(spec, phi, grid)
    balanced = solved.revenue >= -1e-12
    equilibria = {}
    results = []
    for floors in floor_levels:
        keep = balanced.copy()
        for z, f in floors.items():
            keep &= solved.region_mass[:, spec.region_index(z)] >= float(f) - FLOOR_TOLERANCE
        feasible = bool(keep.any())
        pool = keep if feasible else balanced
        if not pool.any():
            pool = np.ones_like(balanced)
        candidates = np.flatnonzero(pool)
        winner = int(candidates[np.argmax(solved.social_welfare[candidates])])
        taxes = np.array(solved.taxes[winner])
        if winner not in equilibria:
            equilibria[winner] = solve_ae(spec, phi, taxes)
        feasible = feasible and solved.converged
        results.append(policy_result("bbae", equilibria[winner], phi, spec, feasible, taxes))
    return results


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


def welfare_ordering_check(results: Sequence[PolicyResult]) -> OrderingReport:
    """Check the canonical welfare ordering across policy results.

    Results are matched to the canonical order by their policy name; each gap
    is the preceding policy's social welfare minus the following one's, and
    the report is ok when every gap is at least ``-ORDERING_TOLERANCE``.
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
        ok=all(g >= -ORDERING_TOLERANCE for g in gaps),
    )
