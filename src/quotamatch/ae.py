"""Aggregate equilibrium at fixed taxes via an alternating fixed point.

With logit errors and full support, every no-blocking constraint binds, which
pins the matched mass of a pair to the geometric mean of the two unmatched
masses times a kernel exp((surplus - tax) / 2). Substituting into the two
population constraints gives, for each type, a scalar quadratic in the square
root of its unmatched mass that is solvable in closed form. Alternating the
worker-side and slot-side solves is a proportional-fitting iteration that
keeps the kernel relation exact at every step; convergence is measured by the
worst absolute population residual, which directly certifies the equilibrium
population condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .logit import g_value, h_value, matching_value
from .market import (
    Diagnostics,
    EquilibriumResult,
    MarketSpec,
    Matching,
    SystematicUtilities,
    TaxScheme,
    as_surplus_array,
    as_tax_array,
)

__all__ = [
    "IpfpConfig",
    "KernelRangeError",
    "build_kernel",
    "fixed_point_tangent",
    "solve_ae",
    "solve_ae_grid",
    "GridSolution",
]

#: exponent bound beyond which exp() would overflow a double
_EXP_LIMIT = 700.0


class KernelRangeError(ValueError):
    """Kernel exponent large enough to overflow; inputs are out of range."""


@dataclass(frozen=True)
class IpfpConfig:
    """Fixed-point iteration controls."""

    population_tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        if not self.population_tolerance > 0:
            raise ValueError("population_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def build_kernel(phi, taxes, spec: MarketSpec) -> np.ndarray:
    """Read-only, strictly positive (N, M) matching-function kernel
    exp((surplus - tax) / 2) for a surplus matrix and tax vector."""
    phi_arr = as_surplus_array(phi, spec)
    w = as_tax_array(taxes, spec)
    exponent = 0.5 * (phi_arr - w[spec.slot_region_index][None, :])
    if exponent.max() > _EXP_LIMIT:
        raise KernelRangeError(
            f"kernel exponent {exponent.max():g} exceeds {_EXP_LIMIT:g}; "
            "surplus minus tax is out of representable range"
        )
    kernel = np.exp(exponent)
    kernel.flags.writeable = False
    return kernel


def _ipfp(n, m, kernel, tol, max_iterations, a0=None, b0=None, scale=1.0):
    """Run the alternating fixed point on the kernel ``kernel * scale``.

    ``kernel`` is (N, M). With the default scalar ``scale`` this solves one
    market; a (G, M) ``scale`` solves G markets whose kernels differ by a
    per-column factor, each half-sweep being one (G, M) x (M, N) product.
    Returns (a, b, iterations, residual) where a*a and b*b are the unmatched
    masses; residual is the worst population residual over every market.
    The slot side is exact after every sweep by construction, so the
    residual is dominated by the worker side.
    """
    a = np.sqrt(n / 2.0) if a0 is None else np.array(a0, dtype=np.float64)
    b = np.sqrt(m / 2.0) if b0 is None else np.array(b0, dtype=np.float64)
    # Each half-sweep takes the positive root of x**2 + s*x - c = 0 as
    # 2c / (s + sqrt(s*s + 4c)), which avoids cancellation when s is large.
    two_n, four_n, two_m, four_m = 2.0 * n, 4.0 * n, 2.0 * m, 4.0 * m
    s = (b * scale) @ kernel.T
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        a = two_n / (s + np.sqrt(s * s + four_n))
        t = (a @ kernel) * scale
        b = two_m / (t + np.sqrt(t * t + four_m))
        s = (b * scale) @ kernel.T
        worker_res = np.abs(a * a + a * s - n).max()
        slot_res = np.abs(b * b + b * t - m).max()
        residual = float(max(worker_res, slot_res))
        if residual <= tol:
            break
    return a, b, iterations, residual


def fixed_point_tangent(a, b, kernel, r, s):
    """Tangent of the fixed point along D directions of surplus minus tax.

    Implicit differentiation of F_x = a_x**2 + a_x (K b)_x - n_x = 0 and
    G_y = b_y**2 + b_y (K'a)_y - m_y = 0 with dK = K * dpsi / 2. A direction
    dpsi enters only through ``r`` (N, D), r_x = sum_y mu_xy dpsi_xy / 2, and
    ``s`` (M, D), s_y = sum_x mu_xy dpsi_xy / 2. The diagonal slot block is
    eliminated, so one N x N solve serves all D directions. Returns (da, db)
    of shapes (N, D) and (M, D).
    """
    aK = a[:, None] * kernel
    bKt = (kernel * b[None, :]).T
    d_a = 2.0 * a + kernel @ b
    d_b = 2.0 * b + kernel.T @ a
    schur = np.diag(d_a) - aK @ (bKt / d_b[:, None])
    da = np.linalg.solve(schur, aK @ (s / d_b[:, None]) - r)
    db = -(s + bKt @ da) / d_b[:, None]
    return da, db


def _utilities(a, b, phi_arr, w_slot):
    half = 0.5 * (phi_arr - w_slot[None, :])
    log_a = np.log(a)
    log_b = np.log(b)
    U = half + log_b[None, :] - log_a[:, None]
    V = half + log_a[:, None] - log_b[None, :]
    return U, V


def _matching(a, b, kernel):
    return Matching(a[:, None] * b[None, :] * kernel, a * a, b * b)


def solve_ae(
    spec: MarketSpec,
    phi,
    taxes=None,
    cfg: IpfpConfig | None = None,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> EquilibriumResult:
    """Solve the tax-fixed aggregate equilibrium (quotas ignored).

    Population constraints are enforced to ``cfg.population_tolerance``; the
    demand and binding-surplus conditions hold by construction. On iteration
    exhaustion a partial result is returned with ``converged`` set to False.

    ``initial`` optionally warm-starts the iteration with square roots of the
    unmatched masses from a previous solve.
    """
    cfg = cfg or IpfpConfig()
    phi_arr = as_surplus_array(phi, spec)
    w = as_tax_array(taxes, spec)
    kernel = build_kernel(phi_arr, w, spec)
    a0, b0 = initial if initial is not None else (None, None)
    a, b, iterations, residual = _ipfp(
        spec.n, spec.m, kernel, cfg.population_tolerance, cfg.max_iterations, a0, b0
    )
    w_slot = w[spec.slot_region_index]
    U, V = _utilities(a, b, phi_arr, w_slot)
    mu = _matching(a, b, kernel)
    converged = residual <= cfg.population_tolerance

    dual = g_value(U, spec) + h_value(V, spec)
    primal = float(matching_value(mu, phi_arr - w_slot[None, :], spec))
    binding_res = float(np.abs(U + V - (phi_arr - w_slot[None, :])).max(initial=0.0))
    diag = Diagnostics(
        dual_value=dual,
        primal_value=primal,
        duality_gap=abs(dual - primal),
        max_kkt_residual=max(residual, binding_res),
        inner_iterations=iterations,
        outer_iterations=0,
        converged=converged,
        tolerances={"population_tolerance": cfg.population_tolerance},
    )
    return EquilibriumResult(mu, SystematicUtilities(U, V), TaxScheme(w), diag)


@dataclass(frozen=True)
class GridSolution:
    """Batched tax-fixed equilibria over a grid of tax vectors, priced.

    Arrays are stacked along the grid dimension. ``iterations`` is the shared
    sweep count at which the slowest grid point met the tolerance. Each
    point's floor-independent prices come with the solve: ``revenue`` is
    sum mu*w and ``social_welfare`` :func:`~quotamatch.logit.matching_value`
    at phi.
    """

    taxes: np.ndarray            # (G, L)
    matched: np.ndarray          # (G, N, M)
    unmatched_workers: np.ndarray  # (G, N)
    unmatched_slots: np.ndarray    # (G, M)
    region_mass: np.ndarray      # (G, L)
    revenue: np.ndarray          # (G,)
    social_welfare: np.ndarray   # (G,)
    iterations: int
    residual: float
    converged: bool

    def matching(self, g: int) -> Matching:
        return Matching(self.matched[g], self.unmatched_workers[g], self.unmatched_slots[g])


def solve_ae_grid(
    spec: MarketSpec, phi, tax_grid, cfg: IpfpConfig | None = None
) -> GridSolution:
    """Solve and price the tax-fixed equilibrium at every tax vector of a grid.

    Grid points are independent, so they are advanced in lockstep with the
    iteration stopping when the worst residual across the grid meets the
    tolerance; each point agrees with its separate solve to the population
    tolerance. Every kernel factors as ``base * scale_g`` with
    ``base = exp((phi - top) / 2) <= 1`` (``top`` the column maxima of phi)
    and ``scale_g = exp((top - w_g) / 2)``, so one ``base`` serves the whole
    grid; the exponent of ``scale_g`` is the largest of the point's kernel,
    so the range check applies to it.
    """
    cfg = cfg or IpfpConfig()
    phi_arr = as_surplus_array(phi, spec)
    grid = np.asarray(tax_grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[1] != spec.num_regions:
        raise ValueError(f"tax grid must have shape (G, {spec.num_regions})")
    w_slot = grid[:, spec.slot_region_index]
    top = phi_arr.max(axis=0)
    exponent = 0.5 * (top[None, :] - w_slot)
    if exponent.max() > _EXP_LIMIT:
        raise KernelRangeError("kernel exponent out of range somewhere on the tax grid")
    base = np.exp(0.5 * (phi_arr - top[None, :]))
    scale = np.exp(exponent)
    a, b, iterations, residual = _ipfp(
        spec.n, spec.m, base, cfg.population_tolerance, cfg.max_iterations, scale=scale
    )
    matched = a[:, :, None] * base[None, :, :] * (b * scale)[:, None, :]
    mu = SimpleNamespace(matched=matched, unmatched_workers=a * a, unmatched_slots=b * b)
    per_slot = matched.sum(axis=1)
    masses = np.zeros((grid.shape[0], spec.num_regions))
    for zi, cols in enumerate(spec.region_slot_indices):
        masses[:, zi] = per_slot[:, cols].sum(axis=1)
    return GridSolution(
        taxes=grid,
        matched=matched,
        unmatched_workers=mu.unmatched_workers,
        unmatched_slots=mu.unmatched_slots,
        region_mass=masses,
        revenue=(matched * w_slot[:, None, :]).sum(axis=(1, 2)),
        social_welfare=matching_value(mu, phi_arr, spec),
        iterations=iterations,
        residual=residual,
        converged=residual <= cfg.population_tolerance,
    )


def consistency_residual(result: EquilibriumResult, phi, spec: MarketSpec) -> float:
    """Max deviation of U + V from surplus minus tax over the matched block."""
    phi_arr = as_surplus_array(phi, spec)
    w_slot = result.taxes.per_slot(spec)
    gap = result.utilities.U + result.utilities.V - (phi_arr - w_slot[None, :])
    return float(np.abs(gap).max(initial=0.0))


def fixed_point_residual(result: EquilibriumResult, phi, spec: MarketSpec) -> float:
    """Worst population residual implied by the matching-function relation."""
    kernel = build_kernel(phi, result.taxes, spec)
    mu = result.matching
    a = np.sqrt(mu.unmatched_workers)
    b = np.sqrt(mu.unmatched_slots)
    worker = mu.unmatched_workers + a * (kernel @ b) - spec.n
    slot = mu.unmatched_slots + b * (kernel.T @ a) - spec.m
    return float(max(np.abs(worker).max(), np.abs(slot).max()))
