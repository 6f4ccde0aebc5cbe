"""Aggregate equilibrium at fixed taxes via an alternating fixed point.

With logit errors and full support, every no-blocking constraint binds, which
pins the matched mass of a pair to the geometric mean of the two unmatched
masses times a kernel exp((surplus - tax) / 2). Substituting into the two
population constraints gives, for each type, a scalar quadratic in the square
root of its unmatched mass that is solvable in closed form. Alternating the
worker-side and slot-side solves is a proportional-fitting iteration that
keeps the kernel relation exact at every step; convergence is measured by the
worst absolute population residual, which directly certifies the equilibrium
population condition. The roots are taken with ``hypot``, so no step squares a
kernel-sized number and the whole range of :func:`build_kernel` is usable.

The sweeps converge linearly, and their rate tends to one as unmatched masses
vanish. Once they have brought the residual below a switch, or stall, a sweep
is followed by a Newton trial on the worker equations with the slot side
eliminated exactly, unless one more sweep at the rate of the last is predicted
to converge; so the first trial comes after the second sweep at the earliest.
The step is taken in log a under a trust radius and is kept where it lowers
the residual or the convex potential whose block minimization the sweeps are
(:func:`_ipfp`); the Jacobian is the Schur complement that
:meth:`FixedPoint.tangent` also solves with.

One :class:`FixedPoint` holds a market's solution and warm-starts each solve
from the last: :func:`solve_ae` is one cold solve, and the outer searches of
:mod:`quotamatch.eae` and :mod:`quotamatch.estimation` keep one throughout.

:func:`solve_ae_grid` solves a grid of tax vectors on one thread, in batches
of points swept in lockstep, solved batch by batch by continuation. Once
every batch is solved it prices them batch by batch, each point in
closed form from its unmatched masses: no grid point's matching is ever
formed, and no array the size of the grid is held but the roots and the
priced outputs.

A solve is converged once its worst absolute population residual is at most
``POPULATION_TOLERANCE`` (1e-10); ``MAX_ITERATIONS`` (10,000) caps its sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "KernelRangeError",
    "FixedPoint",
    "build_kernel",
    "solve_ae",
    "solve_ae_grid",
    "GridSolution",
]

#: worst absolute population residual at which a fixed-point solve is converged
POPULATION_TOLERANCE = 1e-10
#: cap on the sweeps of one fixed-point solve
MAX_ITERATIONS = 10_000
#: exponent bound beyond which exp() would overflow a double
_EXP_LIMIT = 700.0
#: a sweep is followed by a Newton trial once the worst population residual
#: is below _NEWTON_SWITCH, or when it stays above _STALL times its value
#: after the previous sweep, unless the next sweep is predicted to converge
_NEWTON_SWITCH = 1e-3
_STALL = 0.9
#: relative rounding error allowed in the fixed point's potential: near the
#: solution a Newton step lowers it by less than it can resolve
_ROUNDING = 1e-12
#: smallest share of its degree a Jacobian excess is given, so that LU keeps
#: about half the digits of the Newton step (the square root of the double
#: precision epsilon)
_RESOLVED = 1.5e-8


class KernelRangeError(ValueError):
    """Kernel exponent large enough to overflow; inputs are out of range."""


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


def _ipfp(n, m, kernel, b0=None, scale=1.0):
    """Run the alternating fixed point on the kernel ``kernel * scale``.

    ``kernel`` is (N, M). With the default scalar ``scale`` this solves one
    market; a (G, M) ``scale`` solves G markets whose kernels differ by a
    per-column factor, each half-sweep being one (G, M) x (M, N) product.
    Returns (a, b, iterations, residual) where a*a and b*b are the unmatched
    masses; residual is the worst population residual over every market.
    ``b0`` is the warm start: the first half-sweep computes ``a`` from it.
    The slot side is exact after every sweep by construction, so the
    residual is dominated by the worker side.

    A sweep that leaves the worst residual below ``_NEWTON_SWITCH``, or above
    ``_STALL`` times its previous value, is followed by one Newton trial
    per market, unless one more sweep at the rate of this one is predicted to
    converge: ``worst * min(1, worst / last) <= POPULATION_TOLERANCE``, with
    ``last`` the worst residual before this sweep (infinite before the
    first). The trial works on the worker equations
    F(a) = a**2 + a (K b(a)) - n, with the slot side b(a) eliminated exactly
    (:func:`_log_jacobian`). The step is taken in log a, so a stays positive,
    and each component is clipped to a per-market trust radius. The radius
    doubles after a kept clipped step; after a rejected one it is half the
    length tried, but no less than a tenth of an e-fold, so that rejections
    where rounding hides progress cannot shrink it to nothing. A market
    keeps its trial where it lowers the convex potential whose block
    minimization the sweeps are, or lowers the population residual without
    raising the potential beyond its rounding error; otherwise the plain
    sweep stands. Near saturation the residual is flat over many orders of
    magnitude of a, and only the potential registers progress.
    ``iterations`` counts sweeps.
    """
    b = np.sqrt(m / 2.0) if b0 is None else np.array(b0, dtype=np.float64)
    # Each half-sweep takes the positive root of x**2 + s*x - c = 0 as
    # 2c / (s + hypot(s, 2 sqrt c)), which avoids cancellation when s is large
    # and, unlike s*s, does not overflow for any representable s.
    two_n, root_n, two_m, root_m = 2.0 * n, 2.0 * np.sqrt(n), 2.0 * m, 2.0 * np.sqrt(m)

    def slot_half_sweep(a):
        t = (a @ kernel) * scale
        b = two_m / (t + np.hypot(t, root_m))
        return t, b, (b * scale) @ kernel.T

    def residuals(worker, slot):
        return np.maximum(np.abs(worker).max(axis=-1), np.abs(slot).max(axis=-1))

    def potential(a, b, s):
        # sum(a**2 + b**2) / 2 + sum(mu) - n.log a - m.log b; its gradients
        # in log a and log b are the worker and slot residuals.
        return (
            0.5 * ((a * a).sum(axis=-1) + (b * b).sum(axis=-1))
            + (a * s).sum(axis=-1)
            - np.log(a) @ n
            - np.log(b) @ m
        )

    s = (b * scale) @ kernel.T
    radius = np.ones(s.shape[:-1])
    worst = np.inf
    for iterations in range(1, MAX_ITERATIONS + 1):
        a = two_n / (s + np.hypot(s, root_n))
        t, b, s = slot_half_sweep(a)
        worker, slot = a * a + a * s - n, b * b + b * t - m
        worst, last = max(np.abs(worker).max(), np.abs(slot).max()), worst
        if worst <= POPULATION_TOLERANCE:
            break
        if worst >= _NEWTON_SWITCH and worst < _STALL * last:
            continue
        # One more sweep at this one's rate is predicted to converge.
        if worst * min(1.0, worst / last) <= POPULATION_TOLERANCE:
            continue
        res = residuals(worker, slot)
        # A trial far from the solution may overflow; it is then rejected,
        # and its floating-point flags are discarded with it.
        with np.errstate(all="ignore"):
            cross, excess = _log_jacobian(a, b, kernel, 2.0 * b + t, scale)
            try:
                step = _solve_log_jacobian(cross, excess, -worker[..., None])[..., 0]
            except np.linalg.LinAlgError:
                continue
            longest = np.abs(step).max(axis=-1)
            reach = radius[..., None]
            a_new = a * np.exp(np.minimum(np.maximum(step, -reach), reach))
            t_new, b_new, s_new = slot_half_sweep(a_new)
            res_new = residuals(a_new * a_new + a_new * s_new - n, b_new * b_new + b_new * t_new - m)
            before, after = potential(a, b, s), potential(a_new, b_new, s_new)
            keep = (after < before) | ((res_new < res) & (after <= before + _ROUNDING * np.abs(before)))
        grown = np.where(longest > radius, 2.0 * radius, radius)
        shrunk = np.maximum(0.5 * np.minimum(radius, longest), 0.1)
        radius = np.where(keep, grown, shrunk)
        a = np.where(keep[..., None], a_new, a)
        b = np.where(keep[..., None], b_new, b)
        s = np.where(keep[..., None], s_new, s)
        worst = np.where(keep, res_new, res).max()
        if worst <= POPULATION_TOLERANCE:
            break
    return a, b, iterations, float(worst)


def _log_jacobian(a, b, kernel, d_b, scale=1.0):
    """Jacobian of the worker residual in log a, the slot side eliminated.

    For F_x = a_x**2 + a_x (K b)_x - n_x and G_y = b_y**2 + b_y (K'a)_y - m_y
    on the kernel K = ``kernel * scale`` this is H = dF/dlog a along G = 0,
    H = diag(excess + cross 1) - cross with
    cross_xz = sum_y (a_x K_xy)(a_z K_zy) b_y / d_b_y for x != z and
    excess_x = 2 a_x**2 + 2 sum_y a_x K_xy b_y**2 / d_b_y, where
    ``d_b`` = 2b + K'a. It is the Hessian of the reduced potential: symmetric,
    positive definite, a graph Laplacian plus a positive diagonal. Its parts
    are sums of positive terms bounded by the matched masses, so none
    cancels and none overflows where the masses do not. With a (G, M)
    ``scale`` and stacked (G, N) ``a``, (G, M) ``b`` and ``d_b`` it returns
    G of each. Returns (cross, excess).
    """
    # b / d_b can underflow where a saturated slot faces a large kernel, so
    # it is never formed: share = a_x K_xy / d_b_y is at most one, and the
    # off-diagonal factor a_x K_xy sqrt(b_y / d_b_y) is share sqrt(b_y d_b_y).
    share = a[..., :, None] * kernel
    share *= (scale / d_b)[..., None, :]
    excess = 2.0 * a * a + 2.0 * np.einsum("...xy,...y->...x", share, b * b)
    root = share
    root *= (np.sqrt(b) * np.sqrt(d_b))[..., None, :]
    cross = root @ root.swapaxes(-1, -2)
    diagonal = np.arange(a.shape[-1])
    cross[..., diagonal, diagonal] = 0.0
    return cross, excess


def _solve_log_jacobian(cross, excess, rhs):
    """Solve H x = rhs for H = diag(excess + cross 1) - cross, rhs (..., N, D).

    ``cross`` is overwritten with H.

    Where several workers hang on one saturated slot, their excess falls far
    below the rounding error of their diagonal: LU cannot resolve the
    direction in which they move together, and the right-hand side along it
    is rounding noise. Each excess is therefore raised to at least
    ``_RESOLVED`` of its degree before the solve. That leaves resolved
    systems alone and damps the unresolved direction, Levenberg-Marquardt
    style, to a step that a real residual still makes long.
    """
    degree = cross.sum(axis=-1)
    hessian = np.negative(cross, out=cross)
    diagonal = np.arange(cross.shape[-1])
    hessian[..., diagonal, diagonal] = np.maximum(excess, _RESOLVED * degree) + degree
    return np.linalg.solve(hessian, rhs)


def _value(n, m, a, b):
    """:meth:`FixedPoint.value` from the roots ``a``, ``b`` of the unmatched
    masses, one per leading index."""
    return (n * (np.log(n) - 2.0 * np.log(a))).sum(axis=-1) + (
        m * (np.log(m) - 2.0 * np.log(b))
    ).sum(axis=-1)


class FixedPoint:
    """The fixed point of one market, each solve warm-started from the last.

    ``a``, ``b`` (square roots of the unmatched masses) and ``kernel`` are
    those of the last :meth:`solve`, which the other methods read;
    ``iterations`` sums the sweeps of every solve, ``residual`` is the last's.
    """

    def __init__(self, spec: MarketSpec):
        self.spec = spec
        self.a = self.b = self.kernel = None
        self.iterations = 0
        self.residual = np.inf

    def solve(self, phi, w) -> FixedPoint:
        """Solve at surplus ``phi`` and per-region taxes ``w``; returns self."""
        spec = self.spec
        self.kernel = build_kernel(phi, w, spec)
        self.a, self.b, iterations, self.residual = _ipfp(spec.n, spec.m, self.kernel, self.b)
        self.iterations += iterations
        return self

    @property
    def converged(self) -> bool:
        return self.residual <= POPULATION_TOLERANCE

    def matching(self) -> Matching:
        a, b = self.a, self.b
        return Matching(a[:, None] * b[None, :] * self.kernel, a * a, b * b)

    def region_masses(self) -> np.ndarray:
        """Matched mass of every region."""
        spec = self.spec
        per_slot = (self.a[:, None] * self.b[None, :] * self.kernel).sum(axis=0)
        return np.bincount(spec.slot_region_index, weights=per_slot, minlength=spec.num_regions)

    def mass_jacobian(self) -> np.ndarray:
        """Exact d(region mass)/d(tax), shape (L, L), symmetric.

        Raising w_z moves surplus minus tax by -[y in z]; region mass is the
        sum of m_y - b_y**2 over its slots. Along that direction the
        :meth:`tangent` has r = -mu R / 2 and s_y = -c_y R_yz / 2, with
        c = mu'1 = b * K'a and R the region indicator; its right-hand side
        reduces to P = (a K * b**2 / d_b) R, the slot terms of ``excess``
        summed region by region, and
        J = 2 P' H^-1 P - diag(P'1).
        The cost is O(N**2 M) for H, O(N M) for P, whose region sums are one
        segment sum, plus one N x N solve with L right-hand sides; no (M, L)
        array is formed.
        """
        spec = self.spec
        a, b, kernel = self.a, self.b, self.kernel
        d_b = 2.0 * b + a @ kernel
        terms = a[:, None] * kernel / d_b * (b * b)
        cells = np.bincount(spec.pair_region_cells, terms.ravel(), a.size * spec.num_regions)
        P = cells.reshape(a.size, -1)
        solved = _solve_log_jacobian(*_log_jacobian(a, b, kernel, d_b), P)
        return 2.0 * P.T @ solved - np.diag(P.sum(axis=0))

    def value(self) -> float:
        """Equilibrium value W = G(U) + H(V).

        In the logit closed form 1 + sum_y exp(U_xy) = n_x / a_x**2, and
        likewise on the slot side.
        """
        return float(_value(self.spec.n, self.spec.m, self.a, self.b))

    def tangent(self, r, s):
        """Tangent of the fixed point along D directions of surplus minus tax.

        Implicit differentiation of F_x = a_x**2 + a_x (K b)_x - n_x = 0 and
        G_y = b_y**2 + b_y (K'a)_y - m_y = 0 with dK = K * dpsi / 2. A
        direction dpsi enters only through ``r`` (N, D),
        r_x = sum_y mu_xy dpsi_xy / 2, and ``s`` (M, D),
        s_y = sum_x mu_xy dpsi_xy / 2. The diagonal slot block is eliminated
        (:func:`_log_jacobian`), so one N x N solve serves all D directions.
        Returns (da, db) of shapes (N, D) and (M, D).
        """
        a, b, kernel = self.a, self.b, self.kernel
        d_b = 2.0 * b + a @ kernel
        cross, excess = _log_jacobian(a, b, kernel, d_b)
        aK = a[:, None] * kernel
        da = a[:, None] * _solve_log_jacobian(cross, excess, aK @ (s / d_b[:, None]) - r)
        db = -(s + (kernel * b[None, :]).T @ da) / d_b[:, None]
        return da, db

    def utilities(self, phi_arr: np.ndarray, w: np.ndarray):
        """Systematic utilities (U, V) at surplus array ``phi_arr`` and taxes ``w``."""
        half = 0.5 * (phi_arr - w[self.spec.slot_region_index][None, :])
        log_a = np.log(self.a)
        log_b = np.log(self.b)
        return half + log_b[None, :] - log_a[:, None], half + log_a[:, None] - log_b[None, :]


def solve_ae(spec: MarketSpec, phi, taxes=None) -> EquilibriumResult:
    """Solve the tax-fixed aggregate equilibrium (quotas ignored).

    Population constraints are enforced to ``POPULATION_TOLERANCE``; the
    demand and binding-surplus conditions hold by construction. On iteration
    exhaustion a partial result is returned with ``converged`` set to False.
    """
    phi_arr = as_surplus_array(phi, spec)
    w = as_tax_array(taxes, spec)
    fp = FixedPoint(spec).solve(phi_arr, w)
    U, V = fp.utilities(phi_arr, w)
    mu = fp.matching()
    net = phi_arr - w[spec.slot_region_index][None, :]

    dual = g_value(U, spec) + h_value(V, spec)
    primal = float(matching_value(mu, net, spec))
    binding_res = float(np.abs(U + V - net).max(initial=0.0))
    diag = Diagnostics(
        dual_value=dual,
        primal_value=primal,
        duality_gap=abs(dual - primal),
        max_kkt_residual=max(fp.residual, binding_res),
        inner_iterations=fp.iterations,
        outer_iterations=0,
        converged=fp.converged,
        tolerances={"population_tolerance": POPULATION_TOLERANCE},
    )
    return EquilibriumResult(mu, SystematicUtilities(U, V), TaxScheme(w), diag)


@dataclass(frozen=True)
class GridSolution:
    """Tax-fixed equilibria over a grid of tax vectors, priced.

    Arrays run over the grid's points in row order, batch after batch, and
    are priced batch by batch (:func:`solve_ae_grid`): ``region_mass`` is a
    point's matched mass by region, ``revenue`` sum mu*w and
    ``social_welfare`` :func:`~quotamatch.logit.matching_value` at phi.
    ``iterations`` is the total of every batch's sweeps, ``residual`` the
    largest over the batches.
    """

    taxes: np.ndarray            # (G, L)
    region_mass: np.ndarray      # (G, L)
    revenue: np.ndarray          # (G,)
    social_welfare: np.ndarray   # (G,)
    iterations: int
    residual: float
    converged: bool


def solve_ae_grid(spec: MarketSpec, phi, tax_grid) -> GridSolution:
    """Solve and price the tax-fixed equilibrium at every tax vector of a grid.

    A (G, L) grid is one batch of points, a (T, P, L) grid T batches of P.
    The points of a batch are advanced in lockstep, its iteration stopping
    when the worst residual across the batch meets the tolerance, and each
    point agrees with its separate solve to the population tolerance.

    The batches are solved by continuation, in order, each point from a
    prediction of its slot roots b (square roots of the unmatched slot
    masses). A batch's position is the running sum of the largest tax
    change between consecutive batches. Batch t starts from exp of the
    Lagrange extrapolation, in position, of log b over the last (up to)
    four batches: the first batch from the cold start, the second from the
    first's roots, the third linearly, every later one cubically. It is
    taken as b_(t-1) * exp(sum_j l_j log(b_j / b_(t-1))) over the earlier
    nodes j with Lagrange weights l_j, so a zero step starts from
    the last batch's roots exactly, and a batch at the last one's position
    replaces it as a node. Wherever the guess is not finite and positive,
    the point starts from the last batch's roots. Along
    :func:`~quotamatch.policies.tax_grid`'s batches one floor region's
    subsidy moves by one step of its axis; on the harness's evenly spaced
    axis one sweep suffices from the third batch on.

    Every kernel factors as ``base * scale_g`` with
    ``base = exp((phi - top) / 2) <= 1`` (``top`` the
    column maxima of phi) and ``scale_g = exp((top - w_g) / 2)``, so one
    ``base`` serves the whole grid, and a batch's scales are formed when it
    is solved. The exponent of ``scale_g`` is the largest of the point's
    kernel, so the range check applies to it, over the whole grid before
    any batch is solved.

    Once the last batch is solved the grid is priced batch by batch, each
    point from its unmatched masses alone. Slot y's matched mass is
    m_y - b_y**2, and the social welfare is the equilibrium value at the
    net surplus (:meth:`FixedPoint.value`) plus the revenue. Besides its
    outputs the solve keeps only the roots a, b of every point.
    """
    phi_arr = as_surplus_array(phi, spec)
    grid = np.asarray(tax_grid, dtype=np.float64)
    L = spec.num_regions
    if grid.ndim not in (2, 3) or grid.shape[-1] != L or 0 in grid.shape:
        raise ValueError(f"tax grid must have shape (G, {L}) or (T, P, {L}) with G, T, P >= 1")
    if not np.isfinite(grid).all():
        raise ValueError("tax grid entries must be finite")
    batches = grid.reshape(-1, *grid.shape[-2:])
    top = phi_arr.max(axis=0)
    # top - w is largest at each region's least tax: subtraction rounds
    # monotonically, so this is the grid's largest exponent exactly.
    if (0.5 * (top - batches.min(axis=(0, 1))[spec.slot_region_index])).max() > _EXP_LIMIT:
        raise KernelRangeError("kernel exponent out of range somewhere on the tax grid")
    base = np.exp(0.5 * (phi_arr - top[None, :]))
    position = np.cumsum([0.0, *np.abs(np.diff(batches, axis=0)).max(axis=(1, 2))])
    results, nodes = [], []
    for t, taxes in enumerate(batches):
        start = None
        if results:
            # the last four batches, positions distinct
            nodes = [s for s in nodes if position[s] != position[t - 1]][-3:] + [t - 1]
            b = results[-1][1]
            with np.errstate(all="ignore"):
                guess = b * np.exp(
                    sum(
                        math.prod((position[t] - position[r]) / (position[s] - position[r]) for r in nodes if r != s)
                        * np.log(results[s][1] / b)
                        for s in nodes[:-1]
                    )
                )
            start = np.where(np.isfinite(guess) & (guess > 0.0), guess, b)
        scale = np.exp(0.5 * (top - taxes[:, spec.slot_region_index]))
        results.append(_ipfp(spec.n, spec.m, base, start, scale))
    T, P = batches.shape[:2]
    region_mass = np.empty((T, P, L))
    revenue = np.empty((T, P))
    social_welfare = np.empty((T, P))
    regions = np.eye(L)[spec.slot_region_index]
    for t, (a, b, _, _) in enumerate(results):
        per_slot = spec.m - b * b
        revenue[t] = (per_slot * batches[t][:, spec.slot_region_index]).sum(axis=1)
        region_mass[t] = per_slot @ regions
        social_welfare[t] = _value(spec.n, spec.m, a, b) + revenue[t]
    _, _, sweeps, worst = zip(*results)
    residual = max(worst)
    return GridSolution(
        taxes=grid.reshape(-1, L),
        region_mass=region_mass.reshape(-1, L),
        revenue=revenue.ravel(),
        social_welfare=social_welfare.ravel(),
        iterations=sum(sweeps),
        residual=residual,
        converged=residual <= POPULATION_TOLERANCE,
    )
