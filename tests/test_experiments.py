import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from quotamatch.eae import verify_kkt
from quotamatch.experiments import (
    BB_SUBSIDY_AXIS,
    BB_TAX_AXIS,
    FLOOR_REGIONS,
    URBAN_REGION,
    JrmpConfig,
    ScalingConfig,
    bench_eae,
    binding_market,
    gen_jrmp_market,
    gen_scaling_market,
    run_lower_bound_sweep,
    write_locus_csv,
    write_panels_csv,
    write_records_csv,
)
from quotamatch.market import MarketSpec, validate_market
from quotamatch.policies import tax_grid
from quotamatch.rng import SplitMix64, derive_seed


class TestRng:
    def test_splitmix_reference_stream(self):
        # Canonical seed-0 outputs of the SplitMix64 algorithm; pins the
        # stream across platforms and refactors.
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_uniform_range_and_determinism(self):
        rng = SplitMix64(42)
        draws = [rng.next_uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert SplitMix64(42).next_uniform() == draws[0]

    def test_normals_have_unit_moments(self):
        rng = SplitMix64(7)
        sample = rng.normals(200_000)
        assert abs(sample.mean()) < 0.01
        assert abs(sample.std() - 1.0) < 0.01

    @pytest.mark.parametrize("seed", [0, 42, 2**63 + 7, 2**64 - 1])
    @pytest.mark.parametrize("shape", [(0,), (1,), (7, 3), (10, 6)])
    def test_normals_equal_scalar_draws_bit_for_bit(self, seed, shape):
        vector, scalar = SplitMix64(seed), SplitMix64(seed)
        got = vector.normals(shape)
        want = np.array([scalar.next_normal() for _ in range(int(np.prod(shape)))])
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert vector.next_uint64() == scalar.next_uint64()

    def test_derive_seed_distinguishes_labels(self):
        a = derive_seed(0, "market/1")
        b = derive_seed(0, "market/2")
        assert a != b
        assert derive_seed(0, "market/1") == a


class TestJrmpGenerator:
    def test_dimensions_and_validation(self):
        spec, phi = gen_jrmp_market(3)
        assert validate_market(spec).ok
        assert (spec.num_workers, spec.num_slots, spec.num_regions) == (10, 6, 3)
        assert phi.phi.shape == (10, 6)
        assert np.all(spec.n == 0.1) and np.all(spec.m == 0.25)
        assert [spec.region_of[y] for y in spec.slot_types] == [
            "z1", "z1", "z2", "z2", "z3", "z3",
        ]

    def test_seed_determinism(self):
        a = gen_jrmp_market(11)[1].phi
        b = gen_jrmp_market(11)[1].phi
        assert a.tobytes() == b.tobytes()
        c = gen_jrmp_market(12)[1].phi
        assert a.tobytes() != c.tobytes()

    def test_urban_cell_mean_obeys_law_of_large_numbers(self):
        seeds = 10_000
        total = 0.0
        for seed in range(seeds):
            total += gen_jrmp_market(seed)[1].phi[:, :2].mean()
        mean = total / seeds
        tol = 3.0 / np.sqrt(seeds * 20)
        assert abs(mean - 2.0) < tol


class TestScalingGenerator:
    def test_dimensions(self):
        spec, phi = gen_scaling_market(10, 50, seed=0)
        assert spec.num_slots == 500
        assert phi.phi.size == 5000
        assert validate_market(spec).ok

    def test_mass_totals_fixed(self):
        for nx, nz in ((10, 5), (20, 10), (3, 7)):
            spec, _ = gen_scaling_market(nx, nz, seed=1)
            assert spec.n.sum() == pytest.approx(1.0, abs=1e-12)
            assert spec.m.sum() == pytest.approx(1.5, abs=1e-9)
            assert spec.lower.sum() == pytest.approx(0.3, abs=1e-12)

    def test_seed_determinism(self):
        a = gen_scaling_market(4, 3, seed=9)[1].phi
        b = gen_scaling_market(4, 3, seed=9)[1].phi
        assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def small_sweep():
    cfg = JrmpConfig(seeds=(0, 1), floor_grid=(0.0, 0.2, 0.4), replications=2)
    return cfg, run_lower_bound_sweep(cfg)


class TestSweep:
    def test_floor_zero_matches_unconstrained(self, small_sweep):
        _, panel = small_sweep
        base = {
            r.seed: r for r in panel.records if r.policy == "unconstrained" and r.floor == 0.0
        }
        for policy in ("eae", "bbae", "eae_upper_bound", "cap_reduced"):
            for r in panel.records:
                if r.policy == policy and r.floor == 0.0:
                    assert r.social_welfare == base[r.seed].social_welfare
                    assert all(v == 0.0 for v in r.taxes.values())

    def test_eae_uses_rural_subsidies_only(self, small_sweep):
        _, panel = small_sweep
        for r in panel.records:
            if r.policy == "eae":
                assert r.taxes[URBAN_REGION] == 0.0
                assert all(r.taxes[z] <= 0.0 for z in FLOOR_REGIONS)

    def test_eae_rural_mass_meets_floor_and_binds_when_subsidized(self, small_sweep):
        _, panel = small_sweep
        for r in panel.records:
            if r.policy != "eae" or r.floor == 0.0:
                continue
            total = sum(r.rural_mass.values())
            assert total >= 2 * r.floor - 1e-7
            for z in FLOOR_REGIONS:
                if r.taxes[z] < -1e-7:
                    assert r.rural_mass[z] == pytest.approx(r.floor, abs=1e-7)

    def test_panel_rows_cover_grid(self, small_sweep):
        cfg, panel = small_sweep
        rows = panel.panel_rows()
        assert len(rows) == len(cfg.floor_grid) * 5 * 5

    def test_deterministic_rerun(self, small_sweep):
        cfg, panel = small_sweep
        again = run_lower_bound_sweep(cfg)
        assert again == panel

    def test_mapper_equivalence(self, small_sweep):
        cfg, panel = small_sweep

        def scrambled_map(func, items):
            items = list(items)
            return list(reversed([func(x) for x in reversed(items)]))

        other = run_lower_bound_sweep(cfg, mapper=scrambled_map)
        assert other == panel

    def test_csv_outputs_deterministic(self, small_sweep, tmp_path):
        _, panel = small_sweep
        first = {}
        for name, writer in (
            ("panels.csv", write_panels_csv),
            ("locus.csv", write_locus_csv),
            ("records.csv", lambda panel, path: write_records_csv(panel.records, path)),
        ):
            writer(panel, tmp_path / name)
            first[name] = (tmp_path / name).read_bytes()
            writer(panel, tmp_path / name)
            assert (tmp_path / name).read_bytes() == first[name]
        header = first["panels.csv"].decode().splitlines()[0]
        assert header == "floor,policy,metric,mean,stderr"


def one_region_market():
    return MarketSpec(
        ("x1",), ("y1",), ("z1",), np.ones(1), np.ones(1),
        {"y1": "z1"}, np.full(1, np.inf), np.zeros(1),
    )


class TestTaxGrid:
    def test_four_regions_give_each_floor_region_its_own_subsidy_axis(self):
        taxes, subsidies = (0.0, 1.0, 2.0), (-0.2, -0.1, 0.0)
        regions = ("z1", "z2", "z3", "z4")
        slots = ("y1", "y2", "y3", "y4")
        spec = MarketSpec(
            ("x1",), slots, regions, np.ones(1), np.ones(4),
            dict(zip(slots, regions)), np.full(4, np.inf), np.zeros(4),
        )
        grid = tax_grid(spec, "z3", taxes, subsidies)
        # One batch per subsidy of the last floor region z4, each holding
        # every capped-region tax and every subsidy of z1 and z2.
        assert grid.shape == (3, 3 * 3**2, 4)
        assert [set(batch[:, 3]) for batch in grid] == [{s} for s in subsidies]
        # Flattened, rows in itertools.product order over (z4, capped, z1, z2).
        rows = grid.reshape(-1, 4)
        assert rows[:, [3, 2, 0, 1]].tolist() == [
            list(p) for p in itertools.product(subsidies, taxes, subsidies, subsidies)
        ]
        assert len({tuple(row) for row in rows}) == rows.shape[0]

    def test_three_region_default_keeps_its_layout(self):
        spec, _ = gen_jrmp_market(0)
        grid = tax_grid(spec, "z1", BB_TAX_AXIS, BB_SUBSIDY_AXIS)
        assert grid.shape == (21, 21**2, 3)
        assert grid[0, 1].tolist() == [0.0, -0.19, -0.2]
        assert grid[0, 21].tolist() == [0.5, -0.2, -0.2]
        assert grid[1, 0].tolist() == [0.0, -0.2, -0.19]
        assert grid[-1, -1].tolist() == [10.0, 0.0, 0.0]
        # Consecutive batches differ by one subsidy step on z3 alone.
        steps = np.diff(grid, axis=0)
        assert np.allclose(steps[..., :2], 0.0) and np.allclose(steps[..., 2], 0.01)

    def test_one_region_has_one_point_per_tax(self):
        grid = tax_grid(one_region_market(), "z1", (0.0, 0.5, 1.0), ())
        assert grid.shape == (3, 1, 1)
        assert grid.ravel().tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("axis", ["tax", "subsidy"])
    def test_empty_axis_is_rejected(self, axis):
        spec, _ = gen_jrmp_market(0)
        axes = {"tax": BB_TAX_AXIS, "subsidy": BB_SUBSIDY_AXIS, axis: ()}
        with pytest.raises(ValueError, match=f"{axis} axis is empty"):
            tax_grid(spec, "z1", axes["tax"], axes["subsidy"])
        if axis == "tax":
            with pytest.raises(ValueError, match="tax axis is empty"):
                tax_grid(one_region_market(), "z1", (), BB_SUBSIDY_AXIS)


class TestBench:
    def test_smallest_cell_converges(self):
        cfg = ScalingConfig(worker_type_counts=(10,), region_counts=(5,), trials=1)
        rows = bench_eae(cfg)
        assert len(rows) == 1
        assert rows[0].converged
        assert rows[0].mean_seconds > 0.0

    def test_rows_report_newton_steps_and_binding_share(self):
        cfg = ScalingConfig(worker_type_counts=(10,), region_counts=(20,), trials=2)
        (row,) = bench_eae(cfg)
        assert row.converged
        assert 1.0 <= row.newton_steps <= 20.0
        assert 0.5 <= row.binding_frac <= 1.0

    @pytest.mark.parametrize("size", [(10, 5), (20, 20), (10, 100)])
    def test_binding_market_draws_what_the_benchmark_draws(self, size, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("perfbench.workloads")
        for seed in (derive_seed(0, f"eae-binding/{size[0]}x{size[1]}/0"), 7):
            spec, phi = binding_market(*size, seed)
            theirs, their_phi = workloads.binding_market(*size, seed)
            for field in ("worker_types", "slot_types", "regions", "region_of"):
                assert getattr(spec, field) == getattr(theirs, field), field
            for field in ("n", "m", "upper", "lower"):
                assert getattr(spec, field).tobytes() == getattr(theirs, field).tobytes(), field
            assert phi.phi.tobytes() == their_phi.phi.tobytes()

    def test_target_cell_converges_with_kkt_pass(self):
        from quotamatch.eae import solve_eae

        spec, phi = gen_scaling_market(10, 50, seed=0)
        result = solve_eae(spec, phi)
        assert result.diagnostics.converged
        assert verify_kkt(result, spec, phi, tol=1e-6).passed
