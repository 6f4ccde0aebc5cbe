"""Welfare accounting: social surplus, side welfare, and policymaker revenue.

All numbers here omit the additive Gumbel location constant gamma times total
population (see :func:`location_offset`); differences across policies and all
equilibrium objects are unaffected by that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logit import EULER_GAMMA, g_value, h_value, matching_value
from .market import EquilibriumResult, MarketSpec, Matching, as_surplus_array, as_tax_array

__all__ = [
    "WelfareBreakdown",
    "social_welfare",
    "pm_surplus",
    "agent_welfare",
    "breakdown",
    "location_offset",
]


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

    def as_dict(self) -> dict:
        return {
            "social": self.social,
            "worker_side": self.worker_side,
            "slot_side": self.slot_side,
            "pm_surplus": self.pm_surplus,
            "entropy_term": self.entropy_term,
            "match_surplus": self.match_surplus,
        }


def social_welfare(mu: Matching, phi, spec: MarketSpec) -> float:
    """Total surplus of a feasible matching: realized match surplus plus the
    unobserved-heterogeneity term."""
    return float(matching_value(mu, as_surplus_array(phi, spec), spec))


def pm_surplus(mu: Matching, taxes, spec: MarketSpec) -> float:
    """Net revenue collected by the policymaker (negative when subsidizing)."""
    w_slot = as_tax_array(taxes, spec)[spec.slot_region_index]
    return float((mu.matched * w_slot[None, :]).sum())


def agent_welfare(U, V, spec: MarketSpec) -> tuple[float, float]:
    """Worker-side and slot-side welfare (location constant omitted)."""
    return g_value(U, spec), h_value(V, spec)


def breakdown(result: EquilibriumResult, phi, spec: MarketSpec) -> WelfareBreakdown:
    """Full welfare decomposition of an equilibrium result."""
    return matching_breakdown(
        result.matching, phi, result.taxes, result.utilities.U, result.utilities.V, spec
    )


def matching_breakdown(mu: Matching, phi, taxes, U, V, spec: MarketSpec) -> WelfareBreakdown:
    """Welfare decomposition for a matching evaluated against given utilities.

    Used when the matching whose welfare we price differs from the solver's
    output, e.g. a capacity-reduced allocation extended back to the full
    market.
    """
    phi_arr = as_surplus_array(phi, spec)
    worker_side, slot_side = agent_welfare(U, V, spec)
    match_surplus = float((mu.matched * phi_arr).sum())
    entropy_term = float(matching_value(mu, 0.0, spec))
    return WelfareBreakdown(
        social=match_surplus + entropy_term,
        worker_side=worker_side,
        slot_side=slot_side,
        pm_surplus=pm_surplus(mu, taxes, spec),
        entropy_term=entropy_term,
        match_surplus=match_surplus,
    )


def location_offset(spec: MarketSpec) -> float:
    """Additive constant separating these welfare numbers from the raw
    expected-utility convention: gamma times total agent and slot mass."""
    return EULER_GAMMA * float(spec.n.sum() + spec.m.sum())
