"""Independent oracles used to cross-check the production solvers.

Everything here deliberately avoids the fixed-point and tax-search code paths:
values come from Monte-Carlo simulation, finite differences, generic convex
minimization (projected quasi-Newton over the reduced objectives), or
exhaustive grid evaluation by plain alternating sweeps.
"""

import numpy as np
from scipy import optimize

from quotamatch.logit import g_gradient, g_value, h_gradient, h_value
from quotamatch.market import Matching, MarketSpec


def mc_worker_value(U: np.ndarray, spec: MarketSpec, draws: int, seed: int):
    """Monte-Carlo estimate of the worker-side value, with its standard error.

    Samples standard Gumbel errors for every alternative (outside option
    included) and averages the realized maxima; the location constant is NOT
    removed, so compare against g_value plus gamma times total worker mass.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    var = 0.0
    for x in range(spec.num_workers):
        utilities = np.concatenate([[0.0], U[x]])
        eps = rng.gumbel(0.0, 1.0, size=(draws, utilities.size))
        maxima = (utilities[None, :] + eps).max(axis=1)
        total += spec.n[x] * maxima.mean()
        var += (spec.n[x] ** 2) * maxima.var(ddof=1) / draws
    return total, np.sqrt(var)


def central_difference(f, X: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Elementwise central finite differences of a scalar function of a matrix."""
    grad = np.zeros_like(X, dtype=np.float64)
    for idx in np.ndindex(*X.shape):
        hi = X.copy()
        lo = X.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def descent_matching_at_taxes(spec: MarketSpec, phi: np.ndarray, w: np.ndarray) -> Matching:
    """Tax-fixed equilibrium by generic convex minimization.

    Substitutes the binding constraint V = phi - w - U and minimizes
    G(U) + H(phi - w - U) over U with a quasi-Newton method, then finishes
    with exact Newton steps in U; the matching is read off the worker-side
    gradient at the optimum. Where masses span many orders of magnitude the
    quasi-Newton search stops far from the equilibrium (a population
    residual of 1e-2 with masses from 1e-6 to 1e3), and the Newton steps
    bring the residual to rounding.
    """
    w_slot = w[spec.slot_region_index]
    net = phi - w_slot[None, :]
    shape = (spec.num_workers, spec.num_slots)

    def objective(flat):
        U = flat.reshape(shape)
        return g_value(U, spec) + h_value(net - U, spec)

    def gradient(flat):
        U = flat.reshape(shape)
        return (g_gradient(U, spec)[:, 1:] - h_gradient(net - U, spec)[1:, :]).ravel()

    x0 = (0.5 * net).ravel()
    res = optimize.minimize(
        objective, x0, jac=gradient, method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-12},
    )
    U = _newton_in_u(res.x.reshape(shape), net, spec)
    demand = g_gradient(U, spec)
    slot_demand = h_gradient(net - U, spec)
    return Matching(demand[:, 1:], demand[:, 0], slot_demand[0, :])


def _newton_in_u(U: np.ndarray, net: np.ndarray, spec: MarketSpec, max_steps: int = 100) -> np.ndarray:
    """Minimize G(U) + H(net - U) from U by exact Newton steps.

    The gradient is the excess demand p - q, with p the worker demands and
    q the slot demands; the Hessian is the sum of one logit block per worker
    row, diag(p_x) - p_x p_x' / n_x, and one per slot column,
    diag(q_y) - q_y q_y' / m_y. Each step is halved until the excess demand
    falls in norm, along which the Newton direction is a descent direction;
    the search stops where no halving makes it fall.
    """
    N, M = U.shape

    def excess(U):
        return g_gradient(U, spec)[:, 1:] - h_gradient(net - U, spec)[1:, :]

    def hessian(U):
        p = g_gradient(U, spec)[:, 1:]
        q = h_gradient(net - U, spec)[1:, :]
        H = np.zeros((N, M, N, M))
        for x in range(N):
            H[x, :, x, :] += np.diag(p[x]) - np.outer(p[x], p[x]) / spec.n[x]
        for y in range(M):
            H[:, y, :, y] += np.diag(q[:, y]) - np.outer(q[:, y], q[:, y]) / spec.m[y]
        return H.reshape(N * M, N * M)

    g = excess(U)
    for _ in range(max_steps):
        step = np.linalg.lstsq(hessian(U), -g.ravel(), rcond=None)[0].reshape(N, M)
        for _ in range(60):
            trial = excess(U + step)
            if np.linalg.norm(trial) < np.linalg.norm(g):
                break
            step *= 0.5
        else:
            return U
        U, g = U + step, trial
    return U


def descent_taxes_under_quotas(spec: MarketSpec, phi: np.ndarray) -> np.ndarray:
    """Optimal quota taxes by projected quasi-Newton on the full reduced
    objective over (U, ceiling split, floor split), both splits nonnegative.

    Only usable when every ceiling entering the objective is finite; infinite
    ceilings are handled by freezing their split component at zero.
    """
    shape = (spec.num_workers, spec.num_slots)
    nu = spec.num_workers * spec.num_slots
    L = spec.num_regions
    finite_up = np.isfinite(spec.upper)

    def unpack(flat):
        U = flat[:nu].reshape(shape)
        ceil = flat[nu:nu + L]
        floor = flat[nu + L:]
        return U, ceil, floor

    def objective(flat):
        U, ceil, floor = unpack(flat)
        w_slot = (ceil - floor)[spec.slot_region_index]
        V = phi - w_slot[None, :] - U
        up_term = float((spec.upper[finite_up] * ceil[finite_up]).sum())
        return g_value(U, spec) + h_value(V, spec) + up_term - float((spec.lower * floor).sum())

    def gradient(flat):
        from quotamatch.logit import g_gradient, h_gradient

        U, ceil, floor = unpack(flat)
        w_slot = (ceil - floor)[spec.slot_region_index]
        V = phi - w_slot[None, :] - U
        slot_demand = h_gradient(V, spec)[1:, :]
        gU = (g_gradient(U, spec)[:, 1:] - slot_demand).ravel()
        mass = np.bincount(spec.slot_region_index, weights=slot_demand.sum(axis=0), minlength=L)
        g_ceil = np.where(finite_up, spec.upper, 0.0) - mass
        g_floor = -spec.lower + mass
        return np.concatenate([gU, g_ceil, g_floor])

    x0 = np.concatenate([(0.5 * phi).ravel(), np.zeros(2 * L)])
    bounds = [(None, None)] * nu + [(0.0, 0.0) if not finite_up[z] else (0.0, None) for z in range(L)]
    bounds += [(0.0, None)] * L
    res = optimize.minimize(
        objective, x0, jac=gradient, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-11},
    )
    _, ceil, floor = unpack(res.x)
    return ceil - floor


def quadratic_single_pair(phi: float, w: float) -> dict:
    """Closed-form single-pair equilibrium with unit masses.

    By symmetry both unmatched masses equal a**2 with a**2 (1 + K) = 1 for
    K = exp((phi - w) / 2), so the matched mass is K / (1 + K).
    """
    K = np.exp((phi - w) / 2.0)
    matched = K / (1.0 + K)
    return {
        "matched": matched,
        "unmatched": 1.0 - matched,
        "U": (phi - w) / 2.0,
        "V": (phi - w) / 2.0,
    }


def sweep_grid_matchings(spec: MarketSpec, phi, grid, tol: float = 1e-12) -> list[Matching]:
    """Tax-fixed equilibria at every tax vector of a (G, L) grid.

    Plain alternating sweeps on the (G, N, M) kernel exp((phi - w) / 2), with
    no Newton step: each half-sweep takes the positive root of a**2 + a s = n
    (slot side: b**2 + b t = m) for the square root of every unmatched mass,
    until the worst worker residual over the grid is at most ``tol``.
    """
    w_slot = np.asarray(grid, dtype=np.float64)[:, spec.slot_region_index]
    kernel = np.exp(0.5 * (np.asarray(phi, dtype=np.float64)[None, :, :] - w_slot[:, None, :]))
    n, m = spec.n, spec.m
    b = np.broadcast_to(np.sqrt(m / 2.0), w_slot.shape)
    for _ in range(100_000):
        s = np.einsum("gxy,gy->gx", kernel, b)
        a = 2.0 * n / (s + np.sqrt(s * s + 4.0 * n))
        t = np.einsum("gxy,gx->gy", kernel, a)
        b = 2.0 * m / (t + np.sqrt(t * t + 4.0 * m))
        if np.abs(a * a + a * np.einsum("gxy,gy->gx", kernel, b) - n).max() <= tol:
            break
    else:
        raise RuntimeError("grid sweeps did not converge")
    matched = a[:, :, None] * kernel * b[:, None, :]
    return [Matching(matched[g], a[g] * a[g], b[g] * b[g]) for g in range(w_slot.shape[0])]
