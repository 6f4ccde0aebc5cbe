"""Welfare-maximizing tax design under regional quotas, with KKT verification.

With the taxes ``w`` fixed, the equilibrium value ``W(w) = G(U) + H(V)`` of
:mod:`quotamatch.ae` is convex in ``w`` with ``dW/dw_z = -mass_z`` (Galichon &
Salanie, *Cupid's Invisible Hand*, ReStud 2022). Writing ``w = p - q`` with
ceiling and floor parts ``p, q >= 0``, tax design is the bounded convex program

    min  W(p - q) + upper . p - lower . q   over  p, q in [0, BRACKET_LIMIT],

with ``p_z`` held at zero where the ceiling is infinite and ``q_z`` where the
floor is zero. At its optimum a region whose mass lies inside its quota
interval is untaxed, a taxed region has its mass exactly on its ceiling, and a
subsidized region has its mass exactly on its floor.

L-BFGS-B over (p, q) finds the binding regions, one warm-started solve of a
:class:`~quotamatch.ae.FixedPoint` per evaluation. The fixed point's tolerance
leaves noise in ``W`` that stalls L-BFGS-B short of the constraint tolerance,
so a Newton polish with the exact Jacobian of region mass in the taxes
(:meth:`~quotamatch.ae.FixedPoint.mass_jacobian`) then puts every binding
region on its bound.

The polish stops at a tax step of ``TAX_TOLERANCE`` (1e-8); the search's
gradient and the certified KKT residuals are within ``CONSTRAINT_TOLERANCE``
(1e-8); every tax and subsidy is within ``BRACKET_LIMIT`` (64), and a quota
still violated there is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from . import ae
from .logit import g_gradient, g_value, h_gradient, h_value, matching_value
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

#: Newton step in the taxes at which the polish stops
TAX_TOLERANCE = 1e-8
#: gradient tolerance of the search and certification tolerance of the result
CONSTRAINT_TOLERANCE = 1e-8
#: largest tax or subsidy the search may set
BRACKET_LIMIT = 64.0
#: iteration cap of the L-BFGS-B search; it stops far earlier, on stalling
_LBFGS_ITERATIONS = 1000
#: cap on the Newton polish; it needs a few steps once the binding set is known
_POLISH_STEPS = 20


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
    L = spec.num_regions
    upper = np.where(np.isfinite(spec.upper), spec.upper, 0.0)

    def objective(x):
        masses = fp.solve(phi_arr, x[:L] - x[L:]).region_masses()
        value = fp.value() + upper @ x[:L] - spec.lower @ x[L:]
        return value, np.concatenate([upper - masses, masses - spec.lower])

    hi = np.concatenate([np.isfinite(spec.upper), spec.lower > 0.0]) * BRACKET_LIMIT
    w0 = as_tax_array(initial_taxes, spec)
    x0 = np.clip(np.concatenate([np.maximum(w0, 0.0), np.maximum(-w0, 0.0)]), 0.0, hi)
    search = optimize.minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(np.zeros(2 * L), hi)),
        options={"maxiter": _LBFGS_ITERATIONS, "ftol": 0.0, "gtol": CONSTRAINT_TOLERANCE},
    )

    # Newton polish on the binding set. A region binds at its ceiling when
    # taxed or over the ceiling, at its floor when subsidized or under the
    # floor; every other region is untaxed. Near saturation region mass
    # barely moves with the tax and the inner solve resolves it only to the
    # population tolerance, so the Jacobian there can point anywhere: a step
    # that takes a settled gap (within half the tolerance) out again is
    # undone, and the polish stops at the settled taxes.
    w = search.x[:L] - search.x[L:]
    half_tol = 0.5 * CONSTRAINT_TOLERANCE
    polish_steps = 0
    step = np.inf
    settled = None
    while True:
        masses = fp.solve(phi_arr, w).region_masses()
        ceiling = (w > 0.0) | (masses > spec.upper + half_tol)
        floor = ~ceiling & ((w < 0.0) | (masses < spec.lower - half_tol))
        active = ceiling | floor
        gap = masses[active] - np.where(ceiling, spec.upper, spec.lower)[active]
        within = np.abs(gap).max(initial=0.0) <= half_tol
        if settled is not None and not within:
            w = settled
            masses = fp.solve(phi_arr, w).region_masses()
            break
        if within:
            settled = w
        if (
            not active.any()
            or (within and step <= TAX_TOLERANCE)
            or polish_steps == _POLISH_STEPS
        ):
            break
        try:
            delta = np.linalg.solve(fp.mass_jacobian()[np.ix_(active, active)], -gap)
        except np.linalg.LinAlgError:
            break
        target = np.zeros(L)
        target[active] = w[active] + delta
        target = np.where(ceiling, np.maximum(target, 0.0), np.minimum(target, 0.0))
        target = np.clip(target, -BRACKET_LIMIT, BRACKET_LIMIT)
        step = float(np.abs(target - w).max())
        polish_steps += 1
        if step == 0.0:
            break
        w = target

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
        outer_iterations=getattr(search, "nit", 0) + polish_steps,
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
    ceil_part = np.maximum(w, 0.0)
    floor_part = np.maximum(-w, 0.0)
    taxed = ceil_part > 0.0
    ceil_term = float((spec.upper[taxed] * ceil_part[taxed]).sum())
    floor_term = float((spec.lower * floor_part).sum())
    return g_value(U, spec) + h_value(V, spec) + ceil_term - floor_term


def verify_kkt(result: EquilibriumResult, spec: MarketSpec, phi=None, tol: float = 1e-6) -> KKTReport:
    """Check all five equilibrium conditions of a profile and report residuals.

    When ``phi`` is omitted it is reconstructed from U + V + tax, which is
    exact at any converged solve but makes the no-blocking check vacuous;
    pass the true surplus matrix for an independent audit.
    """
    mu = result.matching
    U = result.utilities.U
    V = result.utilities.V
    w = result.taxes.w
    w_slot = w[spec.slot_region_index]
    if phi is None:
        phi_arr = U + V + w_slot[None, :]
    else:
        phi_arr = as_surplus_array(phi, spec)

    population_residual = mu.population_residual(spec)

    slack = U + V - (phi_arr - w_slot[None, :])
    noblocking_min_slack = float(slack.min(initial=0.0))

    grad_w = g_gradient(U, spec)
    grad_s = h_gradient(V, spec)
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
    region_cs = 0.0
    for zi in range(spec.num_regions):
        if w[zi] > tol:
            region_cs = max(region_cs, abs(masses[zi] - spec.upper[zi]))
        elif w[zi] < -tol:
            region_cs = max(region_cs, abs(masses[zi] - spec.lower[zi]))
    cs_residual = max(pair_cs, region_cs)

    dual = dual_value(U, V, result.taxes, spec)
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
