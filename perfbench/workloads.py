"""The benchmark workloads: inputs made from the seed, units, correctness gates.

Every workload is a closed loop with one client: ``setup`` returns the list
of units of one pass, and the runner calls them one after another. Each unit
calls the public API (or the CLI in process) through module attributes, so a
tracer installed afterwards still sees every call. A unit's ``check`` runs
after the timed pass and returns a failure reason, or None when the output is
correct.

Why these four workloads:

* ``eae-binding``: welfare-maximizing taxes on markets whose quotas bind, so
  the outer tax search (``eae``) and the many small warm-started kernel builds
  and fixed-point solves (``ae``) do almost all the work. A faster tax search
  must show here.
* ``residency-sweep``: the paper's experiment, one replication per unit. The
  only workload that runs ``policies``, ``welfare`` and the 9261-point
  budget-balance grid; it stresses per-call overhead on tiny arrays.
* ``cli-roundtrip-large``: ``solve-eae`` then ``verify`` through the CLI on a
  20 x 100 market where no quota binds. A tax-search change should not move
  it; the time goes to JSON I/O, welfare, KKT verification and one cold
  fixed-point solve on large arrays.
* ``estimate-nfxp``: nested fixed-point estimation, the only workload that
  runs ``estimation``. It uses ``ae`` the opposite way from ``eae-binding``:
  cold solves at a changing surplus instead of warm solves at changing taxes.

The binding and residency inputs are fixed corpora whose expected outputs are
committed under ``reference/`` (see ``make_reference.py``); the seed only
shuffles the order of their units. The CLI and estimation inputs are drawn
from the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from quotamatch import ae, cli, eae, estimation, experiments, market, policies
from quotamatch.rng import SplitMix64, derive_seed

REFERENCE_DIR = Path(__file__).resolve().with_name("reference")

#: (worker types, regions, instances) of the binding corpus. Per size the
#: corpus keeps the first candidate markets ("10x5/0", "10x5/1", ...) whose
#: optimum taxes at least MIN_BINDING_FRAC of the regions: with fewer binding
#: quotas an instance is not evidence about the tax search. The kept labels
#: and their taxes are in reference/eae_binding.json (see make_reference.py).
BINDING_SIZES = ((10, 5, 3), (10, 10, 2), (20, 20, 1))
#: each quota is this relative interval around the region's mass at a witness tax
QUOTA_HALF_WIDTH = 0.02
MIN_BINDING_FRAC = 0.5
KKT_TOLERANCE = 1e-8
REFERENCE_TOLERANCE = 1e-6

RESIDENCY_REPLICATIONS = 4
RESIDENCY_SMOKE_FLOORS = 2

CLI_SIZE = (20, 100)
CLI_SMOKE_SIZE = (5, 10)
CLI_MARKETS = 4

#: (worker types, slot types, regions, covariates, fits per pass)
ESTIMATION_SIZES = ((10, 12, 3, 3, 16), (20, 40, 4, 4, 8))
ESTIMATION_SMOKE_SIZES = ((4, 6, 2, 2, 1),)
ESTIMATION_TRUTH = (1.0, -0.5, 0.25, 0.75)
KL_TOLERANCE = 1e-10
COEFFICIENT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Unit:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def shuffled(units: list, seed: int) -> list:
    """Fisher-Yates shuffle driven by the seed."""
    rng = SplitMix64(derive_seed(seed, "unit-order"))
    units = list(units)
    for i in range(len(units) - 1, 0, -1):
        j = rng.next_uint64() % (i + 1)
        units[i], units[j] = units[j], units[i]
    return units


def _close(a, b, tol: float) -> bool:
    """Recursive comparison of JSON-like values, numbers within ``tol``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, (bool, np.bool_, str)) or isinstance(b, (bool, np.bool_)) or a is None or b is None:
        return a == b
    return abs(float(a) - float(b)) <= tol


def _load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# eae-binding
# ---------------------------------------------------------------------------


def binding_market(num_worker_types: int, num_regions: int, seed: int):
    """Scaling market whose quotas bind at a random witness tax.

    Each region gets the interval of +-QUOTA_HALF_WIDTH (relative) around its
    matched mass at a tax drawn uniformly from [-1, 1]. The witness matching
    meets every quota, so the market is feasible; the zero-tax masses mostly
    fall outside the intervals, so most quotas bind.
    """
    spec, phi = experiments.gen_scaling_market(num_worker_types, num_regions, seed)
    rng = SplitMix64(derive_seed(seed, "witness-tax"))
    witness = np.array([2.0 * rng.next_uniform() - 1.0 for _ in range(num_regions)])
    masses = market.region_masses(ae.solve_ae(spec, phi, witness).matching, spec)
    upper = {z: (1.0 + QUOTA_HALF_WIDTH) * v for z, v in zip(spec.regions, masses)}
    lower = {z: (1.0 - QUOTA_HALF_WIDTH) * v for z, v in zip(spec.regions, masses)}
    return spec.with_quotas(upper=upper, lower=lower), phi


def binding_instance(label: str):
    """Binding market of a corpus label such as ``"10x5/3"``."""
    size = label.split("/")[0]
    nx, nz = (int(v) for v in size.split("x"))
    return binding_market(nx, nz, derive_seed(0, f"eae-binding/{label}"))


def binding_fraction(result) -> float:
    """Share of the regions with a non-zero tax."""
    return np.count_nonzero(result.taxes.w) / result.taxes.w.size


def _check_binding(spec, phi, reference_taxes, result):
    if not result.diagnostics.converged:
        return "solve_eae did not converge"
    if not eae.verify_kkt(result, spec, phi, tol=KKT_TOLERANCE).passed:
        return f"verify_kkt with the true surplus failed at {KKT_TOLERANCE:g}"
    binding = binding_fraction(result)
    if binding < MIN_BINDING_FRAC:
        return f"only {binding:.2f} of the regions bind"
    gap = float(np.abs(result.taxes.w - reference_taxes).max())
    if gap > REFERENCE_TOLERANCE:
        return f"taxes differ from the reference by {gap:.3g}"
    return None


def setup_eae_binding(seed: int, smoke: bool, workdir: Path) -> list[Unit]:
    reference = _load_reference("eae_binding.json")
    units = []
    for label in list(reference)[:1] if smoke else reference:
        spec, phi = binding_instance(label)
        units.append(
            Unit(
                label,
                lambda spec=spec, phi=phi: eae.solve_eae(spec, phi),
                lambda result, spec=spec, phi=phi, ref=np.array(reference[label]): _check_binding(
                    spec, phi, ref, result
                ),
            )
        )
    return shuffled(units, seed)


# ---------------------------------------------------------------------------
# residency-sweep
# ---------------------------------------------------------------------------


def residency_corpus(smoke: bool):
    """(label, sweep config) per replication: the first replications of
    ``quotamatch experiment --seed 0`` on the published floor grid."""
    floors = experiments.JrmpConfig().floor_grid
    if smoke:
        floors = floors[:RESIDENCY_SMOKE_FLOORS]
    for i in range(1 if smoke else RESIDENCY_REPLICATIONS):
        replication = derive_seed(0, f"replication/{i}")
        yield str(replication), experiments.JrmpConfig(
            seeds=(replication,), floor_grid=floors, replications=1
        )


def _check_residency(reference_records, panel):
    by_floor: dict = {}
    for r in panel.records:
        by_floor.setdefault(r.floor, []).append(r)
    for floor, cell in by_floor.items():
        # The ordering check reads only each result's policy and social welfare.
        priced = [
            SimpleNamespace(policy=r.policy, welfare=SimpleNamespace(social=r.social_welfare))
            for r in cell
            if r.policy in policies.POLICY_ORDER
        ]
        try:
            report = policies.welfare_ordering_check(priced)
        except ValueError as e:
            return f"floor {floor:g}: {e}"
        if not report.ok:
            return f"floor {floor:g}: welfare ordering violated: {report}"
    expected = [r for r in reference_records if r["floor"] in by_floor]
    got = [dataclasses.asdict(r) for r in panel.records]
    if len(got) != len(expected):
        return f"{len(got)} records, reference has {len(expected)}"
    for g, e in zip(got, expected):
        if not _close(g, e, REFERENCE_TOLERANCE):
            return f"record ({g['floor']:g}, {g['policy']}) differs from the reference"
    return None


def setup_residency_sweep(seed: int, smoke: bool, workdir: Path) -> list[Unit]:
    reference = _load_reference("residency_sweep.json")
    units = [
        Unit(
            label,
            lambda cfg=cfg: experiments.run_lower_bound_sweep(cfg),
            lambda panel, ref=reference[label]: _check_residency(ref, panel),
        )
        for label, cfg in residency_corpus(smoke)
    ]
    return shuffled(units, seed)


# ---------------------------------------------------------------------------
# cli-roundtrip-large
# ---------------------------------------------------------------------------


def _cli_roundtrip(market_path, phi_path, result_path):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        solved = cli.main(
            ["solve-eae", "--market", market_path, "--phi", phi_path, "--out", result_path]
        )
        verified = cli.main(
            ["verify", "--market", market_path, "--result", result_path, "--phi", phi_path]
        )
    return solved, verified


def _check_cli(codes):
    solved, verified = codes
    if (solved, verified) != (0, 0):
        return f"exit codes: solve-eae {solved}, verify {verified}"
    return None


def setup_cli_roundtrip_large(seed: int, smoke: bool, workdir: Path) -> list[Unit]:
    nx, nz = CLI_SMOKE_SIZE if smoke else CLI_SIZE
    units = []
    for k in range(1 if smoke else CLI_MARKETS):
        spec, phi = experiments.gen_scaling_market(nx, nz, derive_seed(seed, f"cli/{k}"))
        market_path = str(workdir / f"market{k}.json")
        phi_path = str(workdir / f"phi{k}.json")
        market.save_market(spec, market_path)
        Path(phi_path).write_text(json.dumps({"phi": phi.phi.tolist()}), encoding="utf-8")
        units.append(
            Unit(
                f"{nx}x{nz}/{k}",
                lambda m=market_path, p=phi_path, r=str(workdir / f"result{k}.json"): _cli_roundtrip(m, p, r),
                _check_cli,
            )
        )
    return units


# ---------------------------------------------------------------------------
# estimate-nfxp
# ---------------------------------------------------------------------------


def estimation_market(num_workers: int, num_slots: int, num_regions: int, num_features: int, seed: int):
    """Synthetic estimation problem with a known answer.

    Covariates are a constant plus standard normals; the observed matching is
    the tax-fixed equilibrium at ESTIMATION_TRUTH and taxes drawn from
    [-0.5, 0.5]. Returns (spec, covariates, taxes, observed, truth).
    """
    rng = SplitMix64(seed)
    regions = tuple(f"z{k + 1}" for k in range(num_regions))
    slot_types = tuple(f"y{j + 1}" for j in range(num_slots))
    spec = market.MarketSpec(
        tuple(f"x{i + 1}" for i in range(num_workers)),
        slot_types,
        regions,
        np.full(num_workers, 1.0 / num_workers),
        np.full(num_slots, 1.2 / num_slots),
        {y: regions[j * num_regions // num_slots] for j, y in enumerate(slot_types)},
        np.full(num_regions, np.inf),
        np.zeros(num_regions),
    )
    c = estimation.CovariateBasis(
        np.concatenate(
            [np.ones((num_workers, num_slots, 1)), rng.normals((num_workers, num_slots, num_features - 1))],
            axis=2,
        )
    )
    truth = np.array(ESTIMATION_TRUTH[:num_features])
    taxes = np.array([rng.next_uniform() - 0.5 for _ in range(num_regions)])
    phi = estimation.surplus_from_covariates(estimation.SurplusModel(truth), c)
    observed = ae.solve_ae(spec, phi, taxes).matching
    return spec, c, taxes, observed, truth


def _check_fit(truth, fit):
    model, report = fit
    if not report.final_kl <= KL_TOLERANCE:
        return f"final KL {report.final_kl:.3g} above {KL_TOLERANCE:g}"
    error = float(np.abs(model.coefficients - truth).max())
    if error > COEFFICIENT_TOLERANCE:
        return f"coefficients off the truth by {error:.3g}"
    return None


def setup_estimate_nfxp(seed: int, smoke: bool, workdir: Path) -> list[Unit]:
    units = []
    for nx, ny, nz, s, count in ESTIMATION_SMOKE_SIZES if smoke else ESTIMATION_SIZES:
        for i in range(count):
            label = f"{nx}x{ny}/S{s}/{i}"
            spec, c, taxes, observed, truth = estimation_market(
                nx, ny, nz, s, derive_seed(seed, f"estimate-nfxp/{label}")
            )
            units.append(
                Unit(
                    label,
                    lambda o=observed, c=c, w=taxes, spec=spec: estimation.estimate(o, c, w, spec),
                    lambda fit, truth=truth: _check_fit(truth, fit),
                )
            )
    return shuffled(units, seed)


WORKLOADS = {
    "eae-binding": setup_eae_binding,
    "residency-sweep": setup_residency_sweep,
    "cli-roundtrip-large": setup_cli_roundtrip_large,
    "estimate-nfxp": setup_estimate_nfxp,
}
