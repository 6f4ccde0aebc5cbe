"""Welfare-maximizing tax design under regional quotas, with KKT verification.

With the taxes ``w`` fixed, the equilibrium value ``W(w) = G(U) + H(V)`` of
:mod:`quotamatch.ae` is convex in ``w`` with ``dW/dw_z = -mass_z`` (Galichon &
Salanie, *Cupid's Invisible Hand*, ReStud 2022). Tax design is the bounded
convex program

    min  W(w) + sum_z max(upper_z w_z, lower_z w_z)   over  |w_z| <= BRACKET_LIMIT,

with ``w_z <= 0`` where the ceiling is infinite and ``w_z >= 0`` where the
floor is zero. At its optimum a region whose mass lies inside its quota
interval is untaxed, a taxed region has its mass exactly on its ceiling, and a
subsidized region has its mass exactly on its floor.

One projected Newton search on ``w`` (Bertsekas, *SIAM J. Control Optim.*
1982) solves it, with the exact Jacobian of region mass in the taxes
(:meth:`~quotamatch.ae.FixedPoint.mass_jacobian`) and one warm-started solve
of a :class:`~quotamatch.ae.FixedPoint` per trial step;
``Diagnostics.outer_iterations`` counts its steps.

The search stops at a tax step of ``TAX_TOLERANCE`` (1e-8) with every binding
region within half of ``CONSTRAINT_TOLERANCE`` (1e-8) of its bound, the
tolerance at which the result is certified, or where a full step from within
that tolerance neither lowers the objective nor shrinks the gap, as it stops
doing near saturation; every tax and subsidy is within
``BRACKET_LIMIT`` (64), and a quota still violated there is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ae
from .logit import g_value, g_value_and_gradient, h_value, h_value_and_gradient, matching_value
from .market import (
    Diagnostics,
    EquilibriumResult,
    MarketSpec,
    SystematicUtilities,
    TaxScheme,
    as_surplus_array,
    as_tax_array,
    region_masses,
    validate_market,
)

__all__ = [
    "KKTReport",
    "InfeasibleQuotaError",
    "solve_eae",
    "verify_kkt",
    "dual_value",
]

#: Newton step in the taxes at which the search stops
TAX_TOLERANCE = 1e-8
#: quota gap of the search and certification tolerance of the result
CONSTRAINT_TOLERANCE = 1e-8
#: largest tax or subsidy the search may set
BRACKET_LIMIT = 64.0
#: cap on the steps of the search; far starts take about 15
_NEWTON_STEPS = 100


class InfeasibleQuotaError(RuntimeError):
    """A quota cannot be met by any tax in the admissible bracket."""


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the five equilibrium conditions plus the duality gap.

    Each residual is zero at an exact equilibrium. ``passed`` is True iff
    every residual is within the verifier's tolerance; the duality gap is
    reported but does not gate ``passed``.
    """

    population_residual: float
    noblocking_min_slack: float
    clearing_residual: float
    quota_violation: float
    complementary_slackness_residual: float
    dual_value: float
    primal_value: float
    duality_gap: float
    passed: bool


def solve_eae(spec: MarketSpec, phi, initial_taxes=None) -> EquilibriumResult:
    """Compute the unique welfare-maximizing equilibrium under the quotas.

    Raises InfeasibleQuotaError when a tax reaches ``BRACKET_LIMIT`` while
    its quota is still violated by more than the constraint tolerance.
    Otherwise returns a result whose ``converged`` flag is True iff the final
    fixed-point solve converged and :func:`verify_kkt` passes against the true
    surplus at the constraint tolerance.
    """
    report = validate_market(spec)
    if not report.ok:
        raise ValueError(f"market is not admissible: {report}")
    phi_arr = as_surplus_array(phi, spec)
    fp = ae.FixedPoint(spec)
    upper = np.where(np.isfinite(spec.upper), spec.upper, 0.0)
    ceiling_limit = np.isfinite(spec.upper) * BRACKET_LIMIT
    floor_limit = (spec.lower > 0.0) * BRACKET_LIMIT

    def evaluate(w):
        masses = fp.solve(phi_arr, w).region_masses()
        return masses, fp.value() + upper @ np.maximum(w, 0.0) + spec.lower @ np.minimum(w, 0.0)

    # A region is on its ceiling side when taxed, or untaxed with its mass
    # over the ceiling, and on its floor side likewise; there the objective
    # is smooth, with gradient bound - mass, over the box between zero and the
    # bracket. Any other region is released to zero. A region within eps of
    # an end of its box that its gradient points at moves to that end; the
    # rest take a Newton step, or a gradient step where that fails, of at
    # most the trust length: twice the last step and at least 1.
    w = np.clip(as_tax_array(initial_taxes, spec), -floor_limit, ceiling_limit)
    masses, value = evaluate(w)
    half_tol = 0.5 * CONSTRAINT_TOLERANCE
    over, under = spec.upper + half_tol, spec.lower - half_tol
    log_masses = np.log(np.concatenate([spec.n, spec.m]))
    steps, step, trust = 0, np.inf, 1.0
    while steps < _NEWTON_STEPS:
        ceiling = (w > 0.0) | ((w == 0.0) & (masses > over))
        floor = (w < 0.0) | ((w == 0.0) & (masses < under))
        bound = np.where(ceiling, spec.upper, spec.lower)
        gap = np.where(ceiling | floor, masses - bound, 0.0)
        lo = np.where(floor, -floor_limit, 0.0)
        hi = np.where(ceiling, ceiling_limit, 0.0)
        eps = min(trust, np.abs(w - np.minimum(np.maximum(w + gap, lo), hi)).max())
        held = ((w <= lo + eps) & (gap <= 0.0)) | ((w >= hi - eps) & (gap >= 0.0))
        free = ~held
        direction = np.where(held, np.where(gap <= 0.0, lo, hi) - w, 0.0)
        res = np.abs(gap[free]).max(initial=0.0)
        settled = res <= half_tol and not direction.any()
        if settled and (step <= TAX_TOLERANCE or not free.any()):
            break
        # W is exact only up to the population residual, each unit of which
        # moves it by log(n / unmatched mass) of its type (envelope theorem).
        logs = log_masses - 2.0 * np.log(np.concatenate([fp.a, fp.b]))
        noise = ae.POPULATION_TOLERANCE * logs.sum()
        with np.errstate(all="ignore"):
            hessian = -fp.mass_jacobian()[free][:, free]
            # A curvature the fixed point does not resolve, such as that of a
            # region whose mass has underflowed, gets a finite step.
            hessian.flat[:: len(hessian) + 1] += ae.POPULATION_TOLERANCE
            try:
                d = np.linalg.solve(hessian, gap[free])
            except np.linalg.LinAlgError:
                d = np.full(free.sum(), np.nan)
        if not (np.isfinite(d).all() and d @ gap[free] >= 0.0):
            d = gap[free] * (trust / res)
        direction[free] = d * min(1.0, trust / np.abs(d).max(initial=trust))
        # Halve the step until the objective falls by more than its noise, or
        # the gap falls while the objective stays within it.
        alpha = 1.0
        while True:
            trial = np.minimum(np.maximum(w + alpha * direction, lo), hi)
            step = np.abs(trial - w).max()
            trial_masses, trial_value = evaluate(trial)
            trial_res = np.abs(trial_masses - bound)[free].max(initial=0.0)
            kept = trial_value < value - noise or (
                trial_res <= (1.0 - 0.5 * alpha) * res and trial_value <= value + noise
            )
            if kept or step <= TAX_TOLERANCE or settled:
                break
            alpha *= 0.5
        if not (kept or step <= TAX_TOLERANCE):
            # A full step from within tolerance failed: the gap no longer
            # falls with the step, and halving it would only chase the fixed
            # point's drift. The search ends at w, solved again so that the
            # fixed point matches it.
            masses, value = evaluate(w)
            break
        w, masses, value = trial, trial_masses, trial_value
        steps += 1
        trust = max(1.0, 2.0 * step)
        if not kept:
            break

    violation = np.maximum(masses - spec.upper, spec.lower - masses)
    stuck = np.flatnonzero((np.abs(w) >= BRACKET_LIMIT) & (violation > CONSTRAINT_TOLERANCE))
    if stuck.size:
        zi = stuck[0]
        raise InfeasibleQuotaError(
            f"{'ceiling' if w[zi] > 0 else 'floor'} of region {spec.regions[zi]} "
            f"unreachable within tax bracket [-{BRACKET_LIMIT:g}, {BRACKET_LIMIT:g}]"
        )

    # The last solve was at the final tax vector, so the fixed point is
    # consistent with w here.
    U, V = fp.utilities(phi_arr, w)
    result = EquilibriumResult(
        fp.matching(),
        SystematicUtilities(U, V),
        TaxScheme(w),
        Diagnostics(0.0, 0.0, 0.0, np.inf, 0, 0, False),
    )
    kkt = verify_kkt(result, spec, phi_arr, tol=CONSTRAINT_TOLERANCE)
    diag = Diagnostics(
        dual_value=kkt.dual_value,
        primal_value=kkt.primal_value,
        duality_gap=kkt.duality_gap,
        max_kkt_residual=_max_residual(kkt),
        inner_iterations=fp.iterations,
        outer_iterations=steps,
        converged=bool(fp.converged and kkt.passed),
        tolerances={
            "population_tolerance": ae.POPULATION_TOLERANCE,
            "tax_tolerance": TAX_TOLERANCE,
            "constraint_tolerance": CONSTRAINT_TOLERANCE,
        },
    )
    return replace(result, diagnostics=diag)


def _max_residual(kkt: KKTReport) -> float:
    return max(
        kkt.population_residual,
        max(0.0, -kkt.noblocking_min_slack),
        kkt.clearing_residual,
        kkt.quota_violation,
        kkt.complementary_slackness_residual,
    )


def dual_value(U, V, taxes, spec: MarketSpec) -> float:
    """Objective of the tax-design program at a feasible point.

    Uses the split tax representation; ceilings enter only where their split
    component is strictly positive, so infinite ceilings never contribute.
    """
    w = as_tax_array(taxes, spec)
    return _dual_value(g_value(U, spec), h_value(V, spec), w, spec)


def _dual_value(g: float, h: float, w: np.ndarray, spec: MarketSpec) -> float:
    # dual_value from the two sides' values G(U) and H(V)
    ceil_part = np.maximum(w, 0.0)
    floor_part = np.maximum(-w, 0.0)
    taxed = ceil_part > 0.0
    ceil_term = float((spec.upper[taxed] * ceil_part[taxed]).sum())
    floor_term = float((spec.lower * floor_part).sum())
    return g + h + ceil_term - floor_term


def verify_kkt(result: EquilibriumResult, spec: MarketSpec, phi=None, tol: float = 1e-6) -> KKTReport:
    """Check all five equilibrium conditions of a profile and report residuals.

    When ``phi`` is omitted it is reconstructed from U + V + tax, which is
    exact at any converged solve but makes the no-blocking check vacuous;
    pass the true surplus matrix for an independent audit.
    """
    mu = result.matching
    U = result.utilities.U
    V = result.utilities.V
    w = as_tax_array(result.taxes, spec)
    w_slot = w[spec.slot_region_index]
    if phi is None:
        phi_arr = U + V + w_slot[None, :]
    else:
        phi_arr = as_surplus_array(phi, spec)

    population_residual = mu.population_residual(spec)

    slack = U + V - (phi_arr - w_slot[None, :])
    noblocking_min_slack = float(slack.min(initial=0.0))

    g, grad_w = g_value_and_gradient(U, spec)
    h, grad_s = h_value_and_gradient(V, spec)
    clearing_residual = float(
        max(
            np.abs(mu.matched - grad_w[:, 1:]).max(initial=0.0),
            np.abs(mu.unmatched_workers - grad_w[:, 0]).max(initial=0.0),
            np.abs(mu.matched - grad_s[1:, :]).max(initial=0.0),
            np.abs(mu.unmatched_slots - grad_s[0, :]).max(initial=0.0),
        )
    )

    masses = region_masses(mu, spec)
    over = np.maximum(masses - spec.upper, 0.0)
    under = np.maximum(spec.lower - masses, 0.0)
    quota_violation = float(np.maximum(over, under).max(initial=0.0))

    # Pair-level complementarity: positive matched mass forces a binding
    # constraint. Region-level: a nonzero tax forces its bound to hold.
    pair_cs = float(np.abs(slack[mu.matched > tol]).max(initial=0.0))
    taxed = w > tol
    held = taxed | (w < -tol)
    region_cs = float(np.abs(masses - np.where(taxed, spec.upper, spec.lower))[held].max(initial=0.0))
    cs_residual = max(pair_cs, region_cs)

    dual = _dual_value(g, h, w, spec)
    primal = float(matching_value(mu, phi_arr, spec))
    gap = abs(dual - primal)

    passed = bool(
        population_residual <= tol
        and noblocking_min_slack >= -tol
        and clearing_residual <= tol
        and quota_violation <= tol
        and cs_residual <= tol
    )
    return KKTReport(
        population_residual=population_residual,
        noblocking_min_slack=noblocking_min_slack,
        clearing_residual=clearing_residual,
        quota_violation=quota_violation,
        complementary_slackness_residual=cs_residual,
        dual_value=dual,
        primal_value=primal,
        duality_gap=gap,
        passed=passed,
    )
