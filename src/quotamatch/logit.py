"""Gumbel-error (logit) welfare functions, demands, and conjugates.

Both sides of the market aggregate individual choice behavior into a smooth
value function per observable type: the expected maximum of systematic
utilities plus an additive error, including the zero-utility outside option.
Its gradient is the vector of choice fractions, so scaled by the type mass it
is the demand for each counterpart type.

With standard Gumbel errors these objects have closed forms: the value is a
log-sum-exp, the gradient a softmax, and the convex conjugate the negative
Shannon entropy on the choice simplex. The Euler-Mascheroni constant that
would appear in the expected maximum is deliberately dropped: demands, taxes,
equilibria, and welfare differences are unaffected, and the closed forms and
conjugate identities then hold exactly. Absolute welfare levels are shifted by
gamma * (total worker mass + total slot mass); see
:func:`quotamatch.welfare.location_offset`.
"""

from __future__ import annotations

import numpy as np

from .market import MarketSpec, as_surplus_array

__all__ = [
    "g_value",
    "g_gradient",
    "h_value",
    "h_gradient",
    "matching_value",
]

EULER_GAMMA = float(np.euler_gamma)


def _logsumexp_rows(u: np.ndarray) -> np.ndarray:
    # Per-row log(1 + sum exp(u)), the outside option being the implicit 0.
    # Shift by the row max (including that zero) so the exponentials never
    # overflow; underflow is harmless.
    hi = np.maximum(u.max(axis=1), 0.0)
    with np.errstate(under="ignore"):
        total = np.exp(-hi) + np.exp(u - hi[:, None]).sum(axis=1)
    return hi + np.log(total)


def _softmax_rows(u: np.ndarray) -> np.ndarray:
    # Per-row choice fractions, shape (rows, cols + 1), outside option first.
    hi = np.maximum(u.max(axis=1), 0.0)
    with np.errstate(under="ignore"):
        outside = np.exp(-hi)
        inside = np.exp(u - hi[:, None])
    total = outside + inside.sum(axis=1)
    return np.column_stack([outside, inside]) / total[:, None]


def g_value(U, spec: MarketSpec) -> float:
    """Worker-side aggregate value: sum over types of mass times the expected
    maximum over slot types and the outside option."""
    arr = as_surplus_array(U, spec, "U")
    return float(spec.n @ _logsumexp_rows(arr))


def g_gradient(U, spec: MarketSpec) -> np.ndarray:
    """Worker-side demand, shape (N, M + 1) with the outside option first.

    Row x sums to the worker mass n_x and every entry is strictly positive.
    """
    arr = as_surplus_array(U, spec, "U")
    return spec.n[:, None] * _softmax_rows(arr)


def h_value(V, spec: MarketSpec) -> float:
    """Slot-side aggregate value, the mirror image of :func:`g_value`."""
    arr = as_surplus_array(V, spec, "V")
    return float(spec.m @ _logsumexp_rows(arr.T))


def h_gradient(V, spec: MarketSpec) -> np.ndarray:
    """Slot-side demand, shape (N + 1, M) with the outside option as row 0.

    Column y sums to the slot mass m_y.
    """
    arr = as_surplus_array(V, spec, "V")
    return (spec.m[:, None] * _softmax_rows(arr.T)).T


def matching_value(mu, phi, spec: MarketSpec) -> float:
    """Social value of a matching: realized surplus plus the heterogeneity term.

    Computes ``sum mu*phi - sum mu*log(mu/n) - sum mu*log(mu/m)``, where the
    logarithmic sums run over each type's row of matched and unmatched masses
    (the Choo-Siow entropy). ``mu`` is a :class:`Matching` or any object with
    ``matched`` (N, M), ``unmatched_workers`` (N,) and ``unmatched_slots``
    (M,) arrays; ``phi`` broadcasts against ``matched``. Zero masses
    contribute 0 (the 0*log 0 = 0 convention), and so does a positive mass
    too small for its share of the type mass to be representable; negative
    masses give nan.
    """
    matched = np.asarray(mu.matched, dtype=np.float64)
    worker_rows = np.column_stack([np.asarray(mu.unmatched_workers, dtype=np.float64), matched])
    slot_rows = np.column_stack([np.asarray(mu.unmatched_slots, dtype=np.float64), matched.T])
    worker_term = _xlog_share(worker_rows, spec.n).sum()
    slot_term = _xlog_share(slot_rows, spec.m).sum()
    return float((matched * phi).sum() - worker_term - slot_term)


def _xlog_share(rows: np.ndarray, mass: np.ndarray) -> np.ndarray:
    # rows * log(rows / mass) per type row: 0 for a zero mass or one whose
    # share underflows (a term below 1e-320), nan for a negative mass.
    share = rows / mass[:, None]
    share[share == 0.0] = 1.0
    with np.errstate(invalid="ignore"):
        return rows * np.log(share)
