import tracemalloc

import numpy as np
import pytest

from quotamatch.market import MarketSpec, SurplusMatrix


@pytest.fixture(scope="session")
def example_market():
    """Two worker types, three slot types in two regions, with both quota
    bounds finite. The ceiling on the first region binds at the optimum."""
    spec = MarketSpec(
        ("x1", "x2"),
        ("y1", "y2", "y3"),
        ("z1", "z2"),
        np.array([0.5, 0.5]),
        np.array([0.3, 0.3, 0.4]),
        {"y1": "z1", "y2": "z1", "y3": "z2"},
        np.array([0.5, 0.4]),
        np.array([0.1, 0.05]),
    )
    phi = SurplusMatrix(np.array([[2.0, 1.5, 1.0], [1.5, 2.0, 1.0]]))
    return spec, phi


@pytest.fixture()
def single_pair():
    """One worker type, one slot type, one region, unit masses, no quotas."""
    spec = MarketSpec(
        ("x",), ("y",), ("z",),
        np.array([1.0]), np.array([1.0]),
        {"y": "z"},
        np.array([np.inf]), np.array([0.0]),
    )
    return spec


def random_constrained_market(rng: np.random.Generator, max_types: int = 5, max_regions: int = 3):
    """Random market with feasible, usually binding, mixed floor/ceiling quotas.

    Feasibility is guaranteed by construction: quotas are intervals drawn
    around the region masses of the equilibrium at a random witness tax
    vector, so that matching satisfies them. They typically exclude the
    zero-tax masses, which makes the constraints bind.
    """
    from quotamatch.ae import solve_ae
    from quotamatch.market import region_masses

    spec, phi = random_market(rng, max_types=max_types, max_regions=max_regions)
    witness_taxes = rng.uniform(-1.0, 1.0, size=spec.num_regions)
    witness = solve_ae(spec, phi, witness_taxes)
    masses = region_masses(witness.matching, spec)
    upper = {}
    lower = {}
    for zi, z in enumerate(spec.regions):
        if rng.random() < 0.75:
            upper[z] = masses[zi] + rng.uniform(0.001, 0.2)
        if rng.random() < 0.75:
            lower[z] = max(0.0, masses[zi] - rng.uniform(0.001, 0.2))
    return spec.with_quotas(upper=upper, lower=lower), phi


def random_market(rng: np.random.Generator, max_types: int = 5, max_regions: int = 3):
    """Random admissible market with surplus in [-2, 2] and open quotas."""
    N = int(rng.integers(1, max_types + 1))
    M = int(rng.integers(1, max_types + 1))
    L = int(rng.integers(1, min(max_regions, M) + 1))
    worker_types = tuple(f"x{i}" for i in range(N))
    slot_types = tuple(f"y{j}" for j in range(M))
    regions = tuple(f"z{k}" for k in range(L))
    assignment = list(rng.integers(0, L, size=M))
    for k in range(L):  # every region gets at least one slot type
        if k not in assignment:
            assignment[int(rng.integers(0, M))] = k
    region_of = {slot_types[j]: regions[assignment[j]] for j in range(M)}
    n = rng.uniform(0.2, 1.5, size=N)
    m = rng.uniform(0.2, 1.5, size=M)
    phi = rng.uniform(-2.0, 2.0, size=(N, M))
    spec = MarketSpec(
        worker_types, slot_types, regions, n, m, region_of,
        np.full(L, np.inf), np.zeros(L),
    )
    return spec, SurplusMatrix(phi)


def estimation_market(
    rng: np.random.Generator,
    num_workers: int,
    num_slots: int,
    num_regions: int,
    num_features: int,
    noise: float = 0.0,
):
    """Estimation problem with known coefficients (1.0, -0.5, 0.25, 0.75)[:S].

    Covariates are a constant plus standard normals, taxes are drawn from
    [-0.5, 0.5], and the observed matching is the tax-fixed equilibrium at the
    truth with each matched mass scaled by an independent 1 + U(-noise, noise).
    Returns (spec, covariates, taxes, observed, truth).
    """
    from quotamatch.ae import solve_ae
    from quotamatch.estimation import CovariateBasis, SurplusModel, surplus_from_covariates
    from quotamatch.market import Matching

    regions = tuple(f"z{k + 1}" for k in range(num_regions))
    slot_types = tuple(f"y{j + 1}" for j in range(num_slots))
    spec = MarketSpec(
        tuple(f"x{i + 1}" for i in range(num_workers)),
        slot_types,
        regions,
        np.full(num_workers, 1.0 / num_workers),
        np.full(num_slots, 1.2 / num_slots),
        {y: regions[j * num_regions // num_slots] for j, y in enumerate(slot_types)},
        np.full(num_regions, np.inf),
        np.zeros(num_regions),
    )
    shape = (num_workers, num_slots)
    c = CovariateBasis(
        np.concatenate([np.ones(shape + (1,)), rng.normal(size=shape + (num_features - 1,))], axis=2)
    )
    truth = np.array([1.0, -0.5, 0.25, 0.75][:num_features])
    taxes = rng.uniform(-0.5, 0.5, size=num_regions)
    mu = solve_ae(spec, surplus_from_covariates(SurplusModel(truth), c), taxes).matching
    scale = 1.0 + noise * rng.uniform(-1.0, 1.0, size=mu.matched.shape)
    observed = Matching(mu.matched * scale, mu.unmatched_workers, mu.unmatched_slots)
    return spec, c, taxes, observed, truth


def traced_peak(call):
    """``call()``'s result and the peak of the memory tracemalloc traced
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
