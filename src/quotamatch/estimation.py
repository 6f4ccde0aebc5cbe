"""Estimate joint-surplus coefficients from observed matching patterns.

The estimator nests the tax-fixed equilibrium solver inside an outer search
over coefficients: each candidate coefficient vector induces a surplus matrix
through the covariate basis, the equilibrium solver produces the implied
matching, and the outer loop minimizes the Kullback-Leibler divergence between
the observed and implied matching distributions over type pairs. Minimizing
that divergence is equivalent to maximizing the multinomial log likelihood of
the observed matches.

The search starts from the closed form of the logit model: wherever it
fits, mu_xy**2 = mu_x0 mu_0y exp(phi_xy - w_z(y)) (Choo and Siow, *JPE*
2006), so the observed log-odds give the surplus cell by cell, and their
least-squares fit in the covariates, each cell weighted by its observed
matched mass, is the first candidate. On data the model fits exactly, that
first evaluation ends the fit.

The outer search is Fisher scoring, a Newton step on the coefficients with
the multinomial information matrix, halved until the divergence falls. The
surplus is linear in the coefficients, so each coefficient is one direction
of :meth:`quotamatch.ae.FixedPoint.tangent`, and one linear solve per step
differentiates the implied matching in all of them. The search keeps one
:class:`~quotamatch.ae.FixedPoint`, so each evaluation warm-starts from the
solution of the previous one (Rust, *Econometrica* 1987), and near the
optimum an inner solve needs a sweep or two.

Taxes are held fixed at their observed values throughout. Observed matchings
must be strictly positive on every type pair; zero cells are rejected rather
than smoothed, since a missing match mass is informative of an unbounded
surplus penalty and breaks identification.

A fit is converged at a divergence of ``KL_TOLERANCE`` (1e-10);
``MAX_OUTER_EVALS`` (5,000) caps its objective evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ae import POPULATION_TOLERANCE, FixedPoint, solve_ae
from .market import (
    Matching,
    MarketSpec,
    SurplusMatrix,
    _document,
    as_surplus_array,
    as_tax_array,
)

__all__ = [
    "CovariateBasis",
    "SurplusModel",
    "FitReport",
    "EstimationError",
    "surplus_from_covariates",
    "kl_divergence",
    "log_likelihood",
    "estimate",
    "load_covariates",
]

#: divergence at which a fit is converged
KL_TOLERANCE = 1e-10
#: cap on the objective evaluations of one fit
MAX_OUTER_EVALS = 5000
#: sup-norm of the KL gradient at which the search stops; on noisy data it
#: can bottom out above this, where the noise rule of ``estimate`` stops it
_GRADIENT_TOLERANCE = 1e-8


class EstimationError(RuntimeError):
    """The inner equilibrium solve failed during estimation."""


@dataclass(frozen=True)
class CovariateBasis:
    """Type-pair covariates, one length-S vector per (worker, slot) pair."""

    c: np.ndarray

    def __post_init__(self):
        arr = np.array(self.c, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)
        if arr.ndim != 3 or arr.shape[2] < 1:
            raise ValueError("covariates must have shape (N, M, S) with S >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("covariates must be finite")

    @property
    def num_features(self) -> int:
        return self.c.shape[2]


@dataclass(frozen=True)
class SurplusModel:
    """Linear surplus model: the surplus of a pair is the inner product of
    the coefficient vector with the pair's covariates."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)
        if arr.ndim != 1 or not np.isfinite(arr).all():
            raise ValueError("coefficients must be a finite vector")


@dataclass
class FitReport:
    """Trace of the outer search: best KL after each objective evaluation."""

    kl_trace: list[float] = field(default_factory=list)
    n_evals: int = 0
    final_kl: float = np.inf
    converged: bool = False
    message: str = ""


def surplus_from_covariates(model: SurplusModel, c: CovariateBasis) -> SurplusMatrix:
    """Evaluate the linear surplus model on every type pair."""
    lam = model.coefficients
    if lam.shape != (c.num_features,):
        raise ValueError(
            f"coefficient length {lam.shape[0]} does not match {c.num_features} covariates"
        )
    return SurplusMatrix(c.c @ lam)


def _pair_vector(mu: Matching) -> np.ndarray:
    return np.concatenate(
        [mu.matched.ravel(), mu.unmatched_workers, mu.unmatched_slots]
    )


def kl_divergence(observed: Matching, simulated: Matching) -> float:
    """Divergence between the normalized match distributions over type pairs.

    The normalization includes the unmatched cells; both inputs should be
    strictly positive, and a zero simulated mass against positive observed
    mass is an error (the divergence would be infinite).
    """
    if observed.matched.shape != simulated.matched.shape:
        raise ValueError("observed and simulated matchings have different shapes")
    obs = _pair_vector(observed)
    sim = _pair_vector(simulated)
    if np.any(obs < 0.0) or np.any(sim < 0.0):
        raise ValueError("match masses must be nonnegative")
    if np.any((sim <= 0.0) & (obs > 0.0)):
        raise ValueError("simulated matching has zero mass where observed mass is positive")
    p = obs / obs.sum()
    q = sim / sim.sum()
    positive = p > 0.0
    kl = float((p[positive] * np.log(p[positive] / q[positive])).sum())
    # Nonnegative by Gibbs' inequality; at a fit exact to rounding the sum's
    # cancellation can leave it a few ulps below zero.
    return 0.0 if kl < 0.0 else kl


def log_likelihood(
    model: SurplusModel,
    c: CovariateBasis,
    observed: Matching,
    taxes,
    spec: MarketSpec,
) -> float:
    """Multinomial log likelihood of the observed matches under the model.

    Up to a coefficient-independent constant this is the negative observed
    mass times the KL divergence, so both criteria share their best coefficients.
    """
    result = solve_ae(spec, surplus_from_covariates(model, c), taxes)
    if not result.diagnostics.converged:
        raise EstimationError(
            f"inner solve did not converge at coefficients {model.coefficients.tolist()}"
        )
    sim = _pair_vector(result.matching)
    obs = _pair_vector(observed)
    return float((obs * np.log(sim / sim.sum())).sum())


def _kl_gradient(p: np.ndarray, fp: FixedPoint, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Fisher information of the divergence in the
    coefficients at a solved fixed point.

    With ``p`` the normalized observed pair vector, q the simulated one and
    G = dlog sim/dlambda, they are G'(q - p) and G'diag(q)G - (G'q)(G'q)'.
    Coefficient s moves surplus by c[..., s], so dlog mu_xy = da_x/a_x +
    db_y/b_y + c_xys/2, dlog mu_x0 = 2 da_x/a_x and dlog mu_0y = 2 db_y/b_y,
    where a, b are the square roots of the unmatched masses.
    """
    mu = fp.matching()
    half_c = 0.5 * c
    da, db = fp.tangent(
        np.einsum("xy,xys->xs", mu.matched, half_c), np.einsum("xy,xys->ys", mu.matched, half_c)
    )
    da, db = da / fp.a[:, None], db / fp.b[:, None]
    G = np.concatenate([(da[:, None] + db[None] + half_c).reshape(-1, c.shape[2]), 2.0 * da, 2.0 * db])
    q = _pair_vector(mu) / mu.total()
    u = q @ G
    return (q - p) @ G, G.T @ (q[:, None] * G) - np.outer(u, u)


def estimate(
    observed: Matching,
    c: CovariateBasis,
    taxes,
    spec: MarketSpec,
) -> tuple[SurplusModel, FitReport]:
    """Fit surplus coefficients to an observed matching by Fisher scoring.

    Starts from the mass-weighted least-squares fit of the observed
    log-odds 2 log mu_xy - log mu_x0 - log mu_0y + w_z(y) in the covariates,
    which ends the fit at its first evaluation on data the model reproduces
    exactly. Halves each step until the divergence falls, and returns the
    last (best) coefficients with the search trace.
    The fit is converged at a divergence of ``KL_TOLERANCE`` ("kl tolerance
    reached") or at a stationary point ("stationary point"): a gradient
    sup-norm of at most 1e-8, or a full step that fails while the decrease
    it predicts is within the divergence's noise. Otherwise the message says
    why not: "evaluation budget exhausted" after ``MAX_OUTER_EVALS``
    evaluations, trial steps included, or "stalled" when no halving of a
    step lowers the divergence.
    """
    obs = _pair_vector(observed)
    if np.any(obs <= 0.0):
        raise ValueError("observed matching must be strictly positive on every type pair")
    # Shapes are checked before the log-odds broadcast over them, with the
    # errors the first evaluation would raise.
    as_surplus_array(c.c[..., 0], spec)
    if observed.matched.shape != c.c.shape[:2]:
        raise ValueError("observed and simulated matchings have different shapes")
    p = obs / obs.sum()
    w = as_tax_array(taxes, spec)
    report = FitReport()
    fp = FixedPoint(spec)

    def evaluate(lam: np.ndarray) -> float:
        if not fp.solve(surplus_from_covariates(SurplusModel(lam), c), w).converged:
            raise EstimationError(f"inner solve did not converge at coefficients {lam.tolist()}")
        report.n_evals += 1
        return kl_divergence(observed, fp.matching())

    # Each type's mass is met to within the population tolerance, moving the
    # log of its cells by up to twice that over its mass; against q - p, of
    # 1-norm at most sqrt(2 KL) (Pinsker), that bounds the divergence's noise.
    log_noise = 2.0 * POPULATION_TOLERANCE / min(spec.n.min(), spec.m.min())
    # The start: each cell is weighted by its matched mass, the inverse
    # variance of its log-odds and its weight in the divergence.
    log_odds = (
        2.0 * np.log(observed.matched)
        - np.log(observed.unmatched_workers)[:, None]
        - np.log(observed.unmatched_slots)[None, :]
        + w[spec.slot_region_index][None, :]
    )
    root = np.sqrt(observed.matched)
    lam = np.linalg.lstsq(
        (root[..., None] * c.c).reshape(-1, c.num_features), (root * log_odds).ravel(), rcond=None
    )[0]
    kl = evaluate(lam)
    report.kl_trace.append(kl)
    step = None
    while not report.message:
        if step is None and kl > KL_TOLERANCE:
            gradient, information = _kl_gradient(p, fp, c.c)
            step, alpha = np.linalg.lstsq(information, gradient, rcond=None)[0], 1.0
        if kl <= KL_TOLERANCE:
            report.message = "kl tolerance reached"
        elif np.abs(gradient).max() <= _GRADIENT_TOLERANCE:
            report.message = "stationary point"
        elif report.n_evals >= MAX_OUTER_EVALS:
            report.message = "evaluation budget exhausted"
        elif np.array_equal(lam - alpha * step, lam):
            report.message = "stalled"
        else:
            trial = lam - alpha * step
            trial_kl = evaluate(trial)
            report.kl_trace.append(min(kl, trial_kl))
            if trial_kl < kl:
                lam, kl, step = trial, trial_kl, None
            elif alpha == 1.0 and 0.5 * gradient @ step <= log_noise * np.sqrt(2.0 * kl):
                # The decrease the full step predicts is lost in the noise.
                report.message = "stationary point"
            else:
                alpha *= 0.5

    report.final_kl = kl
    report.converged = report.message in ("kl tolerance reached", "stationary point")
    return SurplusModel(lam), report


def load_covariates(path, spec: MarketSpec) -> CovariateBasis:
    """Load a covariate file: JSON with integer `S` and array `c` (N x M x S)."""
    with _document(path) as data:
        s, raw = data["S"], np.asarray(data["c"])
        # bool subclasses int: a count written as true is refused too.
        if type(s) is not int:
            raise ValueError("S must be a JSON integer")
        if raw.dtype.kind not in "iuf":
            raise ValueError("c entries must be numbers")
        c = CovariateBasis(raw)
        if c.c.shape != (spec.num_workers, spec.num_slots, s):
            raise ValueError(
                f"covariate array shape {c.c.shape} does not match "
                f"({spec.num_workers}, {spec.num_slots}, {s})"
            )
        return c
