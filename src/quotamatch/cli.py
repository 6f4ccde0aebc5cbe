"""Command-line interface for batch solving, estimation, and experiments.

Exit codes: 0 on converged success, 1 on usage errors, on file-system
errors (a missing file, a directory), on malformed files and on out-of-range
input (KernelRangeError: surplus minus tax too large for exp), 2 when a
solver fails to converge or a verification fails, 3 when quotas are
infeasible.

``estimate`` fits by Fisher scoring on the KL criterion, starting from the
mass-weighted least-squares fit of the observed log-odds (the Choo-Siow
closed form), so one evaluation ends the fit of data the model fits
exactly. It exits 0 when the fit reaches the KL tolerance or a stationary
point (the best fit of data the model cannot reproduce exactly), and 2 when
the evaluation budget runs out, the search stalls (no halving of a step
lowers the KL), or an inner solve fails.

``counterfactual`` runs the experiment harness's per-floor policy sweep
(:func:`quotamatch.experiments.sweep_policies`) on one market. Its
budget-balance grid (:func:`quotamatch.policies.tax_grid`) has
|tax grid| * |subsidy grid|**(L-1) points for L regions and is rejected
(exit 1) before any solve when too large; :func:`quotamatch.policies.bbae`
solves it once for all floor levels, on one thread, in batches along the
last floor region's subsidy axis: solved batch by batch by continuation
(:func:`quotamatch.ae.solve_ae_grid`) and priced in closed form. A floor level the optimal tax cannot meet gives exit 3; its other
three policy rows are still written.

``experiment --jobs K`` runs the replications on K worker processes; it is
the only parallelism, and every process is single-threaded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .ae import solve_ae
from .eae import InfeasibleQuotaError, solve_eae, verify_kkt
from .estimation import EstimationError, estimate, load_covariates
from .market import (
    UnknownRegionError,
    load_market,
    load_matching,
    load_result,
    load_surplus,
    load_taxes,
    save_result,
    _write_json,
)
from .policies import POLICY_ORDER, welfare_ordering_check
from .rng import derive_seed
from .welfare import breakdown, location_offset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3
#: most points a lo:hi:step range flag may expand to
MAX_RANGE_POINTS = 1_000_000


def _parse_range(text: str, flag: str) -> list[float]:
    """Parse the value of ``flag``: '0.1:0.4:0.05' is an inclusive grid and
    '0.1,0.3' a list, of finite numbers. A range over ``MAX_RANGE_POINTS``
    points is rejected before it is built. Each failure is a ValueError
    (exit 1) that quotes the range and names the flag."""
    quoted = f"range {text!r} of {flag}"
    ranged = ":" in text
    try:
        values = [float(v) for v in text.split(":" if ranged else ",")]
        if ranged:
            lo, hi, step = values
    except ValueError:
        raise ValueError(f"{quoted} is neither lo:hi:step nor a comma list of numbers") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{quoted} has a non-finite number")
    if not ranged:
        return values
    if not (step > 0.0 and hi >= lo):
        raise ValueError(f"{quoted} needs a positive step and hi >= lo")
    span = (hi - lo) / step
    # round(span) + 1 points; an infinite span (hi - lo overflowed) fails too
    if not span < MAX_RANGE_POINTS - 0.5:
        raise ValueError(f"{quoted} has more than {MAX_RANGE_POINTS} points")
    return [round(lo + i * step, 12) for i in range(int(round(span)) + 1)]


def _parse_counts(text: str, flag: str) -> tuple[int, ...]:
    """:func:`_parse_range` for a flag whose every value must be a whole number."""
    values = _parse_range(text, flag)
    if any(v != int(v) for v in values):
        raise ValueError(f"range {text!r} of {flag} has a count that is not a whole number")
    return tuple(int(v) for v in values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotamatch",
        description=(
            "Solvers for matching markets with regional quotas: tax-fixed "
            "equilibria, welfare-maximizing tax design, surplus estimation, "
            "counterfactual policies, and reproducible experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, phi=True, taxes=False):
        p.add_argument("--market", required=True, help="market spec JSON file")
        if phi:
            p.add_argument("--phi", required=True, help="surplus JSON file (key 'phi')")
        if taxes:
            p.add_argument("--taxes", help="tax JSON file (key 'w'); defaults to zero taxes")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("solve-ae", help="solve the tax-fixed equilibrium (quotas ignored)")
    add_common(p, taxes=True)

    p = sub.add_parser("solve-eae", help="solve the welfare-maximizing taxes under quotas")
    add_common(p)

    p = sub.add_parser("estimate", help="fit surplus coefficients to an observed matching")
    p.add_argument("--market", required=True)
    p.add_argument("--observed", required=True, help="observed matching JSON (key 'mu')")
    p.add_argument("--covariates", required=True, help="covariates JSON (keys 'S', 'c')")
    p.add_argument("--taxes", help="observed taxes JSON; defaults to zero")
    p.add_argument("--out", required=True)

    p = sub.add_parser("counterfactual", help="compare quota policies on one market")
    p.add_argument("--market", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--out", required=True, help="CSV of per-policy rows")
    p.add_argument("--floors", required=True, help="floor level(s): lo:hi:step or comma list")
    p.add_argument("--urban-region", help="region receiving caps (default: the region without a floor)")
    p.add_argument("--grid", help="upper-bound candidate grid (default 0.10:0.50:0.01)")
    p.add_argument("--cap-grid", help="artificial capacity grid (default 0.050:0.25:0.005)")
    p.add_argument("--tax-grid", help="capped region's budget-balance tax axis (default 0:10:0.5)")
    p.add_argument("--subsidy-grid", help="each floor region's subsidy axis (default -0.2:0:0.01)")

    p = sub.add_parser("experiment", help="run the residency floor sweep and emit panel CSVs")
    p.add_argument("--seeds", type=int, default=30, help="number of replications")
    p.add_argument("--floors", default="0.1:0.4:0.05", help="floor grid: lo:hi:step or comma list")
    p.add_argument("--out", required=True, help="panels CSV path")
    p.add_argument("--locus-out", help="locus CSV path (default: locus.csv next to --out)")
    p.add_argument("--records-out", help="per-replication CSV path (optional)")
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("bench", help="time the constrained solver across market sizes")
    p.add_argument("--worker-types", default="10,20", help="worker type counts: lo:hi:step or comma list")
    p.add_argument("--regions", default="5:100:5", help="region counts: lo:hi:step or comma list")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="bench CSV path")

    p = sub.add_parser("verify", help="re-check a result file against its market")
    p.add_argument("--market", required=True)
    p.add_argument("--result", required=True, help="result JSON to verify")
    p.add_argument("--phi", help="surplus file for an independent no-blocking audit")
    p.add_argument("--tol-kkt", type=float, default=1e-6)

    return parser


def _cmd_solve_ae(args) -> int:
    spec = load_market(args.market)
    phi = load_surplus(args.phi, spec)
    taxes = load_taxes(args.taxes, spec) if args.taxes else None
    result = solve_ae(spec, phi, taxes)
    save_result(result, args.out, spec, welfare=breakdown(result, phi, spec))
    _report(result, spec)
    return EXIT_OK if result.diagnostics.converged else EXIT_NOT_CONVERGED


def _cmd_solve_eae(args) -> int:
    spec = load_market(args.market)
    phi = load_surplus(args.phi, spec)
    result = solve_eae(spec, phi)
    save_result(result, args.out, spec, welfare=breakdown(result, phi, spec))
    _report(result, spec)
    return EXIT_OK if result.diagnostics.converged else EXIT_NOT_CONVERGED


def _report(result, spec) -> None:
    w = ", ".join(f"{z}={result.taxes.w[i]:.6g}" for i, z in enumerate(spec.regions))
    d = result.diagnostics
    print(f"taxes: {w}")
    print(
        f"converged={d.converged} duality_gap={d.duality_gap:.3g} "
        f"max_kkt_residual={d.max_kkt_residual:.3g} "
        f"iterations={d.inner_iterations}/{d.outer_iterations}"
    )
    print(
        "welfare numbers omit the additive location constant "
        f"{location_offset(spec):.9g} (error-mean times total mass)"
    )


def _cmd_estimate(args) -> int:
    spec = load_market(args.market)
    observed = load_matching(args.observed, spec)
    covariates = load_covariates(args.covariates, spec)
    taxes = load_taxes(args.taxes, spec) if args.taxes else None
    model, report = estimate(observed, covariates, taxes, spec)
    _write_json(
        {
            "coefficients": list(model.coefficients),
            "fit": {
                "final_kl": report.final_kl,
                "n_evals": report.n_evals,
                "converged": report.converged,
                "message": report.message,
            },
        },
        args.out,
    )
    print(
        f"coefficients: {np.array2string(model.coefficients, precision=8)} "
        f"final_kl={report.final_kl:.3g} evals={report.n_evals}"
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_counterfactual(args) -> int:
    floors = _parse_range(args.floors, "--floors")
    # An absent grid flag leaves the harness's grid.
    grids = [
        default if value is None else _parse_range(value, flag)
        for flag, value, default in (
            ("--grid", args.grid, experiments.UPPER_BOUND_GRID),
            ("--cap-grid", args.cap_grid, experiments.CAP_GRID),
            ("--tax-grid", args.tax_grid, experiments.BB_TAX_AXIS),
            ("--subsidy-grid", args.subsidy_grid, experiments.BB_SUBSIDY_AXIS),
        )
    ]
    spec = load_market(args.market)
    phi = load_surplus(args.phi, spec)
    if args.urban_region:
        urban = args.urban_region
    else:
        candidates = [z for zi, z in enumerate(spec.regions) if spec.lower[zi] == 0.0]
        if len(candidates) != 1:
            raise ValueError(
                f"{len(candidates)} regions have no floor in the market file; "
                "name the capped region with --urban-region"
            )
        urban = candidates[0]
    floor_regions = [z for z in spec.regions if z != urban]
    sweep = experiments.sweep_policies(spec, phi, floors, urban, floor_regions, *grids)
    records = []
    status = EXIT_OK
    for floor, results in zip(floors, sweep):
        infeasible = [r.policy for r in results if not r.feasible]
        if len(results) < len(POLICY_ORDER):
            print(f"floor {floor:g}: infeasible: no optimal-tax (eae) row", file=sys.stderr)
            status = EXIT_INFEASIBLE
        elif infeasible:
            print(f"floor {floor:g}: ordering not checked: infeasible {', '.join(infeasible)}")
        else:
            print(f"floor {floor:g}: {welfare_ordering_check(results)}")
        records.extend(
            experiments.policy_record(floor, None, r, spec, urban, floor_regions) for r in results
        )
    experiments.write_records_csv(records, args.out)
    return status


def _cmd_experiment(args) -> int:
    floor_grid = tuple(_parse_range(args.floors, "--floors"))
    seeds = tuple(derive_seed(args.seed, f"replication/{i}") for i in range(args.seeds))
    cfg = experiments.JrmpConfig(seeds=seeds, floor_grid=floor_grid, replications=args.seeds)
    if args.jobs > 1:
        # Imported here: no other command needs the process pool's import cost.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            panel = experiments.run_lower_bound_sweep(cfg, mapper=pool.map)
    else:
        panel = experiments.run_lower_bound_sweep(cfg)
    out = Path(args.out)
    experiments.write_panels_csv(panel, out)
    locus = Path(args.locus_out) if args.locus_out else out.with_name("locus.csv")
    experiments.write_locus_csv(panel, locus)
    if args.records_out:
        experiments.write_records_csv(panel.records, args.records_out)
    print(f"wrote {out} and {locus} ({len(panel.records)} records)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = experiments.ScalingConfig(
        worker_type_counts=_parse_counts(args.worker_types, "--worker-types"),
        region_counts=_parse_counts(args.regions, "--regions"),
        trials=args.trials,
        master_seed=args.seed,
    )
    rows = experiments.bench_eae(cfg)
    experiments.write_bench_csv(rows, args.out)
    ok = all(r.converged for r in rows)
    for r in rows:
        print(
            f"|X|={r.num_worker_types} |Z|={r.num_regions}: "
            f"{r.mean_seconds:.3f}s converged={r.converged}"
        )
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_verify(args) -> int:
    spec = load_market(args.market)
    result = load_result(args.result, spec)
    phi = load_surplus(args.phi, spec) if args.phi else None
    report = verify_kkt(result, spec, phi, tol=args.tol_kkt)
    print(f"population_residual          {report.population_residual:.3e}")
    print(f"noblocking_min_slack         {report.noblocking_min_slack:.3e}")
    print(f"clearing_residual            {report.clearing_residual:.3e}")
    print(f"quota_violation              {report.quota_violation:.3e}")
    print(f"complementary_slackness      {report.complementary_slackness_residual:.3e}")
    print(f"duality_gap                  {report.duality_gap:.3e}")
    print(f"passed                       {report.passed}")
    return EXIT_OK if report.passed else EXIT_NOT_CONVERGED


_COMMANDS = {
    "solve-ae": _cmd_solve_ae,
    "solve-eae": _cmd_solve_eae,
    "estimate": _cmd_estimate,
    "counterfactual": _cmd_counterfactual,
    "experiment": _cmd_experiment,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; the contract here is 1.
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, UnknownRegionError, OSError) as e:
        # MarketFileError and SchemaViolationError are ValueErrors; a missing
        # file, a directory or a denied permission is an OSError.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleQuotaError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EstimationError as e:
        print(f"estimation failed: {e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
