import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from quotamatch.estimation import load_covariates
from quotamatch.market import (
    MarketFileError,
    MarketSpec,
    Matching,
    SchemaViolationError,
    SurplusMatrix,
    _read_json,
    _write_json,
    load_market,
    load_result,
    load_surplus,
    load_taxes,
    region_masses,
    save_market,
    save_result,
    validate_market,
)
from quotamatch.ae import solve_ae


def make_spec(upper, lower, n=(0.5, 0.5)):
    return MarketSpec(
        ("x1", "x2"),
        ("y1", "y2", "y3"),
        ("z1", "z2"),
        np.array(n),
        np.array([0.3, 0.3, 0.4]),
        {"y1": "z1", "y2": "z1", "y3": "z2"},
        np.array(upper),
        np.array(lower),
    )


def test_validate_accepts_reference_market(example_market):
    spec, _ = example_market
    assert validate_market(spec).ok


def test_validate_flags_quota_order():
    spec = make_spec(upper=(0.1, 0.4), lower=(0.2, 0.05))
    report = validate_market(spec)
    assert not report.ok
    assert any("below" in v for v in report.violations)


def test_validate_flags_infeasible_floors():
    spec = make_spec(upper=(np.inf, np.inf), lower=(0.7, 0.5))
    report = validate_market(spec)
    assert any("exceeds total worker mass" in v for v in report.violations)


def test_validate_flags_nonpositive_masses():
    spec = make_spec(upper=(0.5, 0.4), lower=(0.1, 0.05), n=(0.5, -0.1))
    assert not validate_market(spec).ok


@pytest.mark.parametrize(
    "field, value",
    [("n", np.nan), ("n", np.inf), ("upper", np.nan), ("lower", np.nan)],
    ids=["nan-mass", "infinite-mass", "nan-ceiling", "nan-floor"],
)
def test_validate_flags_non_finite_numbers(field, value):
    quotas = {"upper": [0.5, 0.4], "lower": [0.1, 0.05], "n": [0.5, 0.5]}
    quotas[field][1] = value
    assert not validate_market(make_spec(**quotas)).ok


def test_validate_flags_floor_on_empty_region():
    spec = MarketSpec(
        ("x",), ("y",), ("z1", "z2"),
        np.array([1.0]), np.array([1.0]),
        {"y": "z1"},
        np.array([np.inf, np.inf]), np.array([0.0, 0.2]),
    )
    report = validate_market(spec)
    assert any("total slot mass" in v for v in report.violations)


def test_validate_reports_every_region_in_order():
    # z1 breaks the sign checks, z2 the ordering and its slot mass (0.75),
    # z3 (NaN quotas) the two sign checks, z4 (no slots) its slot mass, and
    # z5 none; the masses break both mass checks.
    spec = MarketSpec(
        ("x1", "x2"), ("y1", "y2", "y3", "y4", "y5"), ("z1", "z2", "z3", "z4", "z5"),
        np.array([1.0, -1.0]), np.array([0.5, 0.25, 0.25, np.nan, 1.0]),
        {"y1": "z2", "y2": "z3", "y3": "z2", "y4": "z1", "y5": "z5"},
        np.array([0.0, 0.5, np.nan, 3.0, np.inf]), np.array([-1.0, 0.8, np.nan, 3.0, 0.0]),
    )
    assert validate_market(spec).violations == (
        "worker masses must be strictly positive and finite",
        "slot masses must be strictly positive and finite",
        "region 'z1': lower quota must be nonnegative",
        "region 'z1': upper quota must be strictly positive",
        "region 'z2': upper quota 0.5 is below lower quota 0.8",
        "region 'z2': lower quota exceeds the region's total slot mass",
        "region 'z3': lower quota must be nonnegative",
        "region 'z3': upper quota must be strictly positive",
        "region 'z4': lower quota exceeds the region's total slot mass",
    )


def test_region_indicator_marks_each_slot_region(example_market):
    spec, _ = example_market
    R = spec.region_indicator
    assert R.shape == (spec.num_slots, spec.num_regions) and not R.flags.writeable
    assert np.array_equal(R.argmax(axis=1), spec.slot_region_index)
    assert np.array_equal(R.sum(axis=1), np.ones(spec.num_slots))


def test_region_mass_zero_and_single_term(single_pair):
    zero = Matching(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
    assert region_masses(zero, single_pair).tolist() == [0.0]
    half = Matching(np.array([[0.5]]), np.array([0.5]), np.array([0.5]))
    assert region_masses(half, single_pair).tolist() == [0.5]


def test_region_mass_matches_oracle_on_reference_market(example_market):
    from oracles import descent_matching_at_taxes

    spec, phi = example_market
    result = solve_ae(spec, phi)
    oracle = descent_matching_at_taxes(spec, phi.phi, np.zeros(2))
    got = region_masses(result.matching, spec)[spec.region_index("z1")]
    want = oracle.matched[:, [0, 1]].sum()
    assert got == pytest.approx(want, abs=1e-7)


def test_region_masses_account_for_all_matched_mass(example_market):
    spec, phi = example_market
    raw = solve_ae(spec, phi).matching
    # Rescale rows to exact worker-side feasibility; the identity under test
    # is the accounting one, not the solver tolerance.
    scale = spec.n / (raw.matched.sum(axis=1) + raw.unmatched_workers)
    mu = Matching(raw.matched * scale[:, None], raw.unmatched_workers * scale, raw.unmatched_slots)
    total = region_masses(mu, spec).sum() + mu.unmatched_workers.sum()
    assert total == pytest.approx(spec.n.sum(), abs=1e-12)


def test_matching_requires_aligned_vectors():
    with pytest.raises(SchemaViolationError):
        Matching(np.zeros((2, 3)), np.zeros(3), np.zeros(3))


def test_spec_requires_a_region_for_every_slot_type():
    with pytest.raises(SchemaViolationError, match="slot type 'y3' has no region_of entry"):
        MarketSpec(
            ("x1",), ("y1", "y2", "y3"), ("z1", "z2"), np.ones(1), np.ones(3),
            {"y1": "z1", "y2": "z2"}, np.full(2, np.inf), np.zeros(2),
        )


def test_spec_rejects_a_slot_type_in_an_unknown_region():
    with pytest.raises(SchemaViolationError, match="slot type 'y2' maps to unknown region 'z3'"):
        MarketSpec(
            ("x1",), ("y1", "y2", "y3"), ("z1", "z2"), np.ones(1), np.ones(3),
            {"y1": "z1", "y2": "z3", "y3": "z2"}, np.full(2, np.inf), np.zeros(2),
        )


def test_surplus_matrix_rejects_nonfinite():
    with pytest.raises(SchemaViolationError):
        SurplusMatrix(np.array([[np.inf, 0.0]]))


def test_roundtrip_is_exact(tmp_path, example_market):
    spec, _ = example_market
    path = tmp_path / "market.json"
    save_market(spec, path)
    loaded = load_market(path)
    assert loaded.worker_types == spec.worker_types
    assert loaded.slot_types == spec.slot_types
    assert loaded.regions == spec.regions
    for field in ("n", "m", "upper", "lower"):
        got = getattr(loaded, field)
        want = getattr(spec, field)
        assert got.tobytes() == want.tobytes(), field
    assert loaded.region_of == dict(spec.region_of)


def test_roundtrip_exact_on_awkward_floats(tmp_path):
    path = tmp_path / "market.json"
    for upper, lower in (
        ((1 / 3, np.inf), (0.1 + 2e-17, 0.05)),
        ((1.7976931348623157e308, np.inf), (5e-324, 0.05)),
    ):
        spec = make_spec(upper=upper, lower=lower)
        save_market(spec, path)
        loaded = load_market(path)
        assert loaded.upper.tobytes() == spec.upper.tobytes()
        assert loaded.lower.tobytes() == spec.lower.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
@example([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1 + 2e-17])
def test_codec_roundtrips_finite_floats_bit_for_bit(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "floats.json"
    _write_json({"x": values}, path)
    got = _read_json(path)["x"]
    assert np.array(got, dtype=np.float64).tobytes() == np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_codec_refuses_non_finite_floats(tmp_path, bad):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        _write_json({"x": [1.0, bad]}, path)
    assert not path.exists()
    # A refused write leaves a file already at the path as it was, also when
    # the value sits in the last row of an array written row by row.
    _write_json({"x": [1.0]}, path)
    before = path.read_bytes()
    for doc in ({"x": [1.0, bad]}, {"x": np.array([[1.0, 2.0], [3.0, bad]])}):
        with pytest.raises(ValueError):
            _write_json(doc, path)
        assert path.read_bytes() == before


def _listed(value):
    """``value`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listed(v) for v in value]
    return value


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 2e-17]


@pytest.mark.parametrize(
    "doc",
    [
        {"x": np.zeros((0, 3))},
        {"x": np.zeros((3, 0))},
        {"x": np.array(EDGE_FLOATS)},
        {"x": np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]), "n": np.arange(4).reshape(2, 2)},
        {
            "a": {"b": {"c": np.array(EDGE_FLOATS).reshape(1, 5), "d": [1, 2.5, "s", None, True]}},
            "e": [np.ones(2), {"f": np.float64(5e-324)}, []],
            "g": np.float64(-0.0),
            "h": {},
            "i": ({1: np.arange(2), 2.5: np.array([True])}, None),
        },
        {"x": [EDGE_FLOATS, [1, 2]], "y": {"z": np.float64(1.7976931348623157e308)}},
    ],
    ids=["empty-rows", "empty-columns", "1d", "2d", "nested", "no-array"],
)
def test_codec_writes_what_json_dumps_writes(tmp_path, doc):
    path = tmp_path / "doc.json"
    _write_json(doc, path)
    assert path.read_bytes() == (json.dumps(_listed(doc), allow_nan=False) + "\n").encode("utf-8")


def test_save_result_holds_less_than_the_file_it_writes(tmp_path):
    # 20 x 1000 matched, U and V blocks: a 1.3 MB file, which a writer that
    # formed the document's text first would hold whole.
    from quotamatch.eae import solve_eae
    from quotamatch.experiments import gen_scaling_market

    spec, phi = gen_scaling_market(20, 100, 0)
    result = solve_eae(spec, phi)
    path = tmp_path / "result.json"
    _, peak = traced_peak(lambda: save_result(result, path, spec))
    assert peak < path.stat().st_size


def test_result_roundtrip_is_bit_exact(tmp_path, example_market):
    from quotamatch.eae import solve_eae
    from quotamatch.market import load_result, save_result

    spec, phi = example_market
    result = solve_eae(spec, phi)
    path = tmp_path / "result.json"
    save_result(result, path, spec)
    loaded = load_result(path, spec)
    assert loaded.matching.matched.tobytes() == result.matching.matched.tobytes()
    assert loaded.matching.unmatched_workers.tobytes() == result.matching.unmatched_workers.tobytes()
    assert loaded.matching.unmatched_slots.tobytes() == result.matching.unmatched_slots.tobytes()
    assert loaded.utilities.U.tobytes() == result.utilities.U.tobytes()
    assert loaded.utilities.V.tobytes() == result.utilities.V.tobytes()
    assert loaded.taxes.w.tobytes() == result.taxes.w.tobytes()
    assert loaded.diagnostics.dual_value == result.diagnostics.dual_value


def test_load_minimal_market(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(
        '{"worker_types": ["x"], "slot_types": ["y"], "regions": ["z"],'
        ' "n": {"x": 1.0}, "m": {"y": 1.0}, "region_of": {"y": "z"},'
        ' "upper": {}, "lower": {}}'
    )
    spec = load_market(path)
    assert (spec.num_workers, spec.num_slots, spec.num_regions) == (1, 1, 1)
    assert spec.upper[0] == np.inf and spec.lower[0] == 0.0


def test_load_reference_market_fixture(tmp_path, example_market):
    spec, _ = example_market
    path = tmp_path / "example.json"
    save_market(spec, path)
    loaded = load_market(path)
    assert list(loaded.n) == [0.5, 0.5]
    assert list(loaded.m) == [0.3, 0.3, 0.4]
    assert loaded.region_of["y1"] == "z1" and loaded.region_of["y3"] == "z2"
    assert list(loaded.upper) == [0.5, 0.4]
    assert list(loaded.lower) == [0.1, 0.05]


def test_load_missing_region_entry(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        '{"worker_types": ["x"], "slot_types": ["y"], "regions": ["z"],'
        ' "n": {"x": 1.0}, "m": {"y": 1.0}, "region_of": {},'
        ' "upper": {}, "lower": {}}'
    )
    with pytest.raises(SchemaViolationError, match="region_of"):
        load_market(path)


def test_load_rejects_invariant_violation(tmp_path):
    spec = make_spec(upper=(0.1, 0.4), lower=(0.2, 0.05))
    path = tmp_path / "bad.json"
    save_market(spec, path)
    with pytest.raises(SchemaViolationError, match="below"):
        load_market(path)


def test_load_parse_error_has_location(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text('{"worker_types": [,]}')
    with pytest.raises(MarketFileError, match="line 1"):
        load_market(path)


def test_generated_markets_validate():
    from quotamatch.experiments import gen_jrmp_market, gen_scaling_market

    for seed in range(5):
        spec, _ = gen_jrmp_market(seed)
        assert validate_market(spec).ok
    spec, _ = gen_scaling_market(4, 3, seed=1)
    assert validate_market(spec).ok


MALFORMED = {
    "market-upper-list": ("market", lambda doc: doc.update(upper=[1, 2])),
    "market-n-null": ("market", lambda doc: doc.update(n={"x1": None})),
    "market-worker-types-int": ("market", lambda doc: doc.update(worker_types=5)),
    "result-no-dual-value": ("result", lambda doc: doc["diagnostics"].pop("dual_value")),
    "result-mu-int": ("result", lambda doc: doc.update(mu=5)),
    "result-diagnostics-list": ("result", lambda doc: doc.update(diagnostics=[1])),
    "result-converged-string": ("result", lambda doc: doc["diagnostics"].update(converged="false")),
    "result-iterations-float": ("result", lambda doc: doc["diagnostics"].update(inner_iterations=2.7)),
    "result-iterations-bool": ("result", lambda doc: doc["diagnostics"].update(outer_iterations=True)),
    "covariates-s-null": ("covariates", lambda doc: doc.update(S=None)),
    # Each case below loaded before the readers checked JSON types, by
    # conversion: str() of any identifier, float() of true or "0.5", and a
    # float64 np.asarray of strings or booleans.
    "market-worker-types-string": (
        "market", lambda doc: doc.update(worker_types="xy", n={"x": 0.5, "y": 0.5})
    ),
    "market-worker-types-ints": (
        "market", lambda doc: doc.update(worker_types=[1, 2], n={"1": 0.5, "2": 0.5})
    ),
    "market-n-true": ("market", lambda doc: doc["n"].update(x1=True)),
    "market-m-string": ("market", lambda doc: doc["m"].update(y1="0.3")),
    "market-upper-true": ("market", lambda doc: doc["upper"].update(z1=True)),
    "market-lower-string": ("market", lambda doc: doc["lower"].update(z1="0.1")),
    "result-w-true": ("result", lambda doc: doc["w"].update(z1=True)),
    "result-gap-string": ("result", lambda doc: doc["diagnostics"].update(duality_gap="0.0")),
    "result-matched-string": ("result", lambda doc: doc["mu"]["matched"][0].__setitem__(0, "0.1")),
    "result-u-bool": ("result", lambda doc: doc.update(U=[[True] * 3] * 2)),
    "result-v-string": ("result", lambda doc: doc.update(V=[["0.5"] * 3] * 2)),
    "surplus-string": ("surplus", lambda doc: doc.update(phi=[["1.5"] * 3] * 2)),
    "surplus-bool": ("surplus", lambda doc: doc.update(phi=[[True] * 3] * 2)),
    "taxes-true": ("taxes", lambda doc: doc["w"].update(z1=True)),
    "taxes-string": ("taxes", lambda doc: doc["w"].update(z1="0.5")),
    "covariates-c-string": ("covariates", lambda doc: doc.update(c=[[["1"]] * 3] * 2)),
}


@pytest.mark.parametrize("kind, corrupt", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_is_a_schema_violation_naming_the_file(tmp_path, kind, corrupt):
    spec = make_spec(upper=(0.5, 0.4), lower=(0.1, 0.05))
    path = tmp_path / f"{kind}.json"
    if kind == "market":
        save_market(spec, path)
    elif kind == "result":
        save_result(solve_ae(spec, SurplusMatrix(np.zeros((2, 3)))), path, spec)
    elif kind == "surplus":
        _write_json({"phi": np.zeros((2, 3)).tolist()}, path)
    elif kind == "taxes":
        _write_json({"w": {"z1": 0.0, "z2": 0.0}}, path)
    else:
        _write_json({"S": 1, "c": np.ones((2, 3, 1)).tolist()}, path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    load = {
        "market": load_market,
        "result": lambda p: load_result(p, spec),
        "surplus": lambda p: load_surplus(p, spec),
        "taxes": lambda p: load_taxes(p, spec),
        "covariates": lambda p: load_covariates(p, spec),
    }[kind]
    with pytest.raises(SchemaViolationError, match=re.escape(str(path))):
        load(path)
