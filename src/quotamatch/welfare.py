"""Welfare accounting: :func:`breakdown`, the one pricer of an equilibrium,
splits it into social surplus, the two sides' welfare and policymaker revenue.

All numbers here omit the additive Gumbel location constant gamma times total
population (see :func:`location_offset`); differences across policies and all
equilibrium objects are unaffected by that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logit import EULER_GAMMA, g_value, h_value, matching_value
from .market import EquilibriumResult, MarketSpec, Matching, as_surplus_array

__all__ = ["WelfareBreakdown", "breakdown", "location_offset"]


@dataclass(frozen=True)
class WelfareBreakdown:
    """Decomposition of realized surplus for one equilibrium.

    ``social`` always equals ``match_surplus + entropy_term``; at a converged
    equilibrium ``worker_side + slot_side + pm_surplus`` reconciles with it up
    to the solver tolerance (the transfers to the policymaker are exactly the
    wedge between agent welfare and total surplus).
    """

    social: float
    worker_side: float
    slot_side: float
    pm_surplus: float
    entropy_term: float
    match_surplus: float


def breakdown(
    result: EquilibriumResult, phi, spec: MarketSpec, matching: Matching | None = None
) -> WelfareBreakdown:
    """Welfare decomposition of an equilibrium result.

    ``matching`` is the matching priced, the result's own by default; it is
    evaluated against the result's taxes and utilities, e.g. when a
    capacity-reduced allocation is extended back to the full market.
    """
    mu = result.matching if matching is None else matching
    phi_arr = as_surplus_array(phi, spec)
    match_surplus = float((mu.matched * phi_arr).sum())
    entropy_term = float(matching_value(mu, 0.0, spec))
    w_slot = result.taxes.w[spec.slot_region_index]
    return WelfareBreakdown(
        social=match_surplus + entropy_term,
        worker_side=g_value(result.utilities.U, spec),
        slot_side=h_value(result.utilities.V, spec),
        pm_surplus=float((mu.matched * w_slot[None, :]).sum()),
        entropy_term=entropy_term,
        match_surplus=match_surplus,
    )


def location_offset(spec: MarketSpec) -> float:
    """Additive constant separating these welfare numbers from the raw
    expected-utility convention: gamma times total agent and slot mass."""
    return EULER_GAMMA * float(spec.n.sum() + spec.m.sum())
