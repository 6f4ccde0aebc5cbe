"""Domain types for quota-constrained matching markets.

A market couples a worker side and a slot side. Every slot type belongs to
exactly one region, and each region carries an interval quota on the total
matched mass it may absorb. The outside region (unmatched agents) is implicit:
it is never stored because its quota can never bind, and unmatched masses live
in dedicated vectors instead.

Type identifiers are opaque strings used only in files and error messages; all
numeric data is indexed positionally so results are deterministic.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MarketFileError",
    "SchemaViolationError",
    "UnknownRegionError",
    "MarketSpec",
    "SurplusMatrix",
    "TaxScheme",
    "Matching",
    "SystematicUtilities",
    "Diagnostics",
    "EquilibriumResult",
    "ValidationReport",
    "validate_market",
    "region_masses",
    "load_market",
    "save_market",
    "load_surplus",
    "load_taxes",
    "save_result",
    "load_result",
    "load_matching",
]


class MarketFileError(ValueError):
    """A market or result file could not be parsed."""


class SchemaViolationError(ValueError):
    """A file parsed but violates the market schema or a market invariant."""


class UnknownRegionError(KeyError):
    """A region identifier does not exist in the market."""

    def __str__(self) -> str:
        return f"unknown region {self.args[0]!r}"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MarketSpec:
    """Immutable description of a matching market with regional quotas.

    Parameters
    ----------
    worker_types : ordered worker-type identifiers.
    slot_types : ordered slot-type identifiers.
    regions : ordered region identifiers (the unconstrained outside region is
        implicit and never listed).
    n : per-worker-type population mass, aligned with ``worker_types``.
    m : per-slot-type slot mass, aligned with ``slot_types``.
    region_of : map from slot type to its unique region.
    upper : per-region ceiling on matched mass, aligned with ``regions``;
        ``inf`` means unconstrained.
    lower : per-region floor on matched mass, aligned with ``regions``.

    Construction checks structure only (shapes, unknown identifiers); numeric
    invariants such as quota ordering are the business of
    :func:`validate_market`, which reports violations instead of raising.
    """

    worker_types: tuple[str, ...]
    slot_types: tuple[str, ...]
    regions: tuple[str, ...]
    n: np.ndarray
    m: np.ndarray
    region_of: Mapping[str, str]
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "worker_types", tuple(str(t) for t in self.worker_types))
        object.__setattr__(self, "slot_types", tuple(str(t) for t in self.slot_types))
        object.__setattr__(self, "regions", tuple(str(t) for t in self.regions))
        object.__setattr__(self, "n", _readonly(self.n))
        object.__setattr__(self, "m", _readonly(self.m))
        object.__setattr__(self, "region_of", dict(self.region_of))
        object.__setattr__(self, "upper", _readonly(self.upper))
        object.__setattr__(self, "lower", _readonly(self.lower))
        if len(set(self.worker_types)) != len(self.worker_types):
            raise SchemaViolationError("duplicate worker type identifiers")
        if len(set(self.slot_types)) != len(self.slot_types):
            raise SchemaViolationError("duplicate slot type identifiers")
        if len(set(self.regions)) != len(self.regions):
            raise SchemaViolationError("duplicate region identifiers")
        if self.n.shape != (len(self.worker_types),):
            raise SchemaViolationError("n must align with worker_types")
        if self.m.shape != (len(self.slot_types),):
            raise SchemaViolationError("m must align with slot_types")
        if self.upper.shape != (len(self.regions),) or self.lower.shape != (len(self.regions),):
            raise SchemaViolationError("upper/lower must align with regions")
        regions = set(self.regions)
        for y in self.slot_types:
            if y not in self.region_of:
                raise SchemaViolationError(f"slot type {y!r} has no region_of entry")
            if self.region_of[y] not in regions:
                raise SchemaViolationError(
                    f"slot type {y!r} maps to unknown region {self.region_of[y]!r}"
                )

    @property
    def num_workers(self) -> int:
        return len(self.worker_types)

    @property
    def num_slots(self) -> int:
        return len(self.slot_types)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @cached_property
    def slot_region_index(self) -> np.ndarray:
        """Region index of each slot type, aligned with ``slot_types``."""
        lookup = {z: i for i, z in enumerate(self.regions)}
        idx = np.array([lookup[self.region_of[y]] for y in self.slot_types], dtype=np.intp)
        idx.flags.writeable = False
        return idx

    @cached_property
    def region_indicator(self) -> np.ndarray:
        """Read-only (M, L) 0/1 matrix, one at each slot type's region."""
        indicator = np.eye(self.num_regions)[self.slot_region_index]
        indicator.flags.writeable = False
        return indicator

    @cached_property
    def region_slot_indices(self) -> tuple[np.ndarray, ...]:
        """For each region, the slot-type indices that belong to it."""
        return tuple(
            np.flatnonzero(self.slot_region_index == zi) for zi in range(self.num_regions)
        )

    def region_index(self, region: str) -> int:
        try:
            return self.regions.index(region)
        except ValueError:
            raise UnknownRegionError(region) from None

    def with_quotas(
        self,
        upper: Mapping[str, float] | None = None,
        lower: Mapping[str, float] | None = None,
    ) -> "MarketSpec":
        """Copy of the market with quotas replaced (absent region: inf / 0)."""
        up = np.full(self.num_regions, np.inf)
        lo = np.zeros(self.num_regions)
        for z, v in (upper or {}).items():
            up[self.region_index(z)] = float(v)
        for z, v in (lower or {}).items():
            lo[self.region_index(z)] = float(v)
        return MarketSpec(
            self.worker_types, self.slot_types, self.regions,
            self.n, self.m, self.region_of, up, lo,
        )

    def with_slot_masses(self, masses: Mapping[str, float]) -> "MarketSpec":
        """Copy of the market with some slot masses overridden."""
        m = np.array(self.m)
        lookup = {y: i for i, y in enumerate(self.slot_types)}
        for y, v in masses.items():
            if y not in lookup:
                raise SchemaViolationError(f"unknown slot type {y!r}")
            m[lookup[y]] = float(v)
        return MarketSpec(
            self.worker_types, self.slot_types, self.regions,
            self.n, m, self.region_of, self.upper, self.lower,
        )


@dataclass(frozen=True)
class SurplusMatrix:
    """Systematic joint surplus over worker-type x slot-type pairs.

    The null-pair surpluses (matches with the outside option) are identically
    zero and therefore not stored.
    """

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _readonly(self.phi))
        if self.phi.ndim != 2:
            raise SchemaViolationError("surplus matrix must be two-dimensional")
        if not np.isfinite(self.phi).all():
            raise SchemaViolationError("surplus matrix entries must be finite")


def _number_array(raw, name: str) -> np.ndarray:
    """``raw`` as a float array. It is refused unless the dtype one np.asarray
    call infers is integer or float, so strings and booleans are; numpy casts
    a list that mixes booleans with numbers, which therefore passes."""
    arr = np.asarray(raw)
    if arr.dtype.kind not in "iuf":
        raise SchemaViolationError(f"{name} entries must be numbers")
    return arr.astype(np.float64, copy=False)


def as_surplus_array(phi, spec: MarketSpec, name: str = "surplus matrix") -> np.ndarray:
    """Normalize a SurplusMatrix or any N x M array of numbers (``name`` in
    errors) to a validated ndarray."""
    arr = phi.phi if isinstance(phi, SurplusMatrix) else _number_array(phi, name)
    if arr.shape != (spec.num_workers, spec.num_slots):
        raise SchemaViolationError(
            f"{name} shape {arr.shape} does not match market "
            f"({spec.num_workers}, {spec.num_slots})"
        )
    if not np.isfinite(arr).all():
        raise SchemaViolationError(f"{name} entries must be finite")
    return arr


@dataclass(frozen=True)
class TaxScheme:
    """Per-region signed tax: positive entries tax, negative ones subsidize."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(self.w))
        if self.w.ndim != 1 or not np.isfinite(self.w).all():
            raise SchemaViolationError("taxes must be a finite vector")


def as_tax_array(taxes, spec: MarketSpec) -> np.ndarray:
    """Normalize taxes (TaxScheme, vector, mapping, or None) to a vector."""
    if taxes is None:
        return np.zeros(spec.num_regions)
    if isinstance(taxes, TaxScheme):
        arr = np.asarray(taxes.w, dtype=np.float64)
    elif isinstance(taxes, Mapping):
        arr = np.zeros(spec.num_regions)
        for z, v in taxes.items():
            arr[spec.region_index(z)] = float(v)
    else:
        arr = np.asarray(taxes, dtype=np.float64)
    if arr.shape != (spec.num_regions,):
        raise SchemaViolationError(
            f"tax vector length {arr.shape} does not match {spec.num_regions} regions"
        )
    if not np.isfinite(arr).all():
        raise SchemaViolationError("taxes must be finite")
    return arr


@dataclass(frozen=True)
class Matching:
    """Nonnegative match masses, including the unmatched masses on both sides.

    ``matched[x, y]`` is the mass of matches between worker type x and slot
    type y; ``unmatched_workers[x]`` and ``unmatched_slots[y]`` are the masses
    taking the outside option.
    """

    matched: np.ndarray
    unmatched_workers: np.ndarray
    unmatched_slots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matched", _readonly(self.matched))
        object.__setattr__(self, "unmatched_workers", _readonly(self.unmatched_workers))
        object.__setattr__(self, "unmatched_slots", _readonly(self.unmatched_slots))
        if self.matched.ndim != 2:
            raise SchemaViolationError("matched block must be two-dimensional")
        if (
            self.unmatched_workers.shape != (self.matched.shape[0],)
            or self.unmatched_slots.shape != (self.matched.shape[1],)
        ):
            raise SchemaViolationError("unmatched vectors must align with the matched block")

    def total(self) -> float:
        """Total mass over all stored type pairs (matched and unmatched)."""
        return float(
            self.matched.sum() + self.unmatched_workers.sum() + self.unmatched_slots.sum()
        )

    def population_residual(self, spec: MarketSpec) -> float:
        """Largest absolute violation of the two-sided population constraints."""
        worker = self.matched.sum(axis=1) + self.unmatched_workers - spec.n
        slot = self.matched.sum(axis=0) + self.unmatched_slots - spec.m
        return float(max(np.abs(worker).max(), np.abs(slot).max()))


@dataclass(frozen=True)
class SystematicUtilities:
    """Type-pair systematic utilities for both sides.

    The outside-option normalizations (zero utility for matching with the
    null type) are implicit and not stored.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _readonly(self.U))
        object.__setattr__(self, "V", _readonly(self.V))
        if self.U.shape != self.V.shape or self.U.ndim != 2:
            raise SchemaViolationError("U and V must be matrices of equal shape")
        if not (np.isfinite(self.U).all() and np.isfinite(self.V).all()):
            raise SchemaViolationError("systematic utilities must be finite")


@dataclass(frozen=True)
class Diagnostics:
    """Solver health indicators attached to every equilibrium result."""

    dual_value: float
    primal_value: float
    duality_gap: float
    max_kkt_residual: float
    inner_iterations: int
    outer_iterations: int
    converged: bool
    tolerances: dict | None = None


@dataclass(frozen=True)
class EquilibriumResult:
    matching: Matching
    utilities: SystematicUtilities
    taxes: TaxScheme
    diagnostics: Diagnostics


@dataclass(frozen=True)
class ValidationReport:
    """List of violated market invariants; empty means admissible."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


def validate_market(spec: MarketSpec) -> ValidationReport:
    """Check every numeric market invariant, reporting all violations.

    This is a diagnostic: it never raises, and an admissible market yields an
    empty report.
    """
    bad: list[str] = []
    # Negated comparisons, so that a NaN fails them too.
    if not np.all((spec.n > 0) & (spec.n < np.inf)):
        bad.append("worker masses must be strictly positive and finite")
    if not np.all((spec.m > 0) & (spec.m < np.inf)):
        bad.append("slot masses must be strictly positive and finite")
    lower, upper = spec.lower, spec.upper
    slot_mass = np.bincount(spec.slot_region_index, weights=spec.m, minlength=spec.num_regions)
    negative, nonpositive = ~(lower >= 0), ~(upper > 0)
    crossed, overfull = upper < lower, lower > slot_mass
    for zi in np.flatnonzero(negative | nonpositive | crossed | overfull):
        z = spec.regions[zi]
        if negative[zi]:
            bad.append(f"region {z!r}: lower quota must be nonnegative")
        if nonpositive[zi]:
            bad.append(f"region {z!r}: upper quota must be strictly positive")
        if crossed[zi]:
            bad.append(f"region {z!r}: upper quota {upper[zi]:g} is below lower quota {lower[zi]:g}")
        if overfull[zi]:
            bad.append(f"region {z!r}: lower quota exceeds the region's total slot mass")
    if spec.lower.sum() > spec.n.sum():
        bad.append(
            f"sum of lower quotas {spec.lower.sum():g} exceeds total worker mass {spec.n.sum():g}"
        )
    return ValidationReport(tuple(bad))


def region_masses(mu: Matching, spec: MarketSpec) -> np.ndarray:
    """Matched mass absorbed by each region (unmatched masses excluded)."""
    per_slot = mu.matched.sum(axis=0)
    return np.bincount(spec.slot_region_index, weights=per_slot, minlength=spec.num_regions)


# ---------------------------------------------------------------------------
# File formats
#
# Market files and result files are single JSON documents on one line, with
# json.dumps's default ", " and ": " separators and floats in their shortest
# round-trip form, so a load of a save reproduces every numeric field bit for
# bit. Arrays are written row by row, so a write holds one row's text at a
# time, never the whole document's. An absent key in `upper` means an
# infinite ceiling; an absent key in `lower` means a zero floor.
# ---------------------------------------------------------------------------


class _HoldsArray(Exception):
    """json.dumps met an ndarray, which :func:`_write_json` writes itself."""


def _stop_at_array(obj):
    # json.dumps's fallback for a value it cannot encode: json's own TypeError
    # for anything but an ndarray
    if isinstance(obj, np.ndarray):
        raise _HoldsArray
    return json.JSONEncoder().default(obj)


def _json_parts(value, parts: list) -> None:
    """Append ``json.dumps(value, allow_nan=False)``, with every ndarray in
    ``value`` standing for its ``tolist()``, to ``parts``: as text, except
    that a numeric array is appended itself once it is known to be finite.
    A value that holds no ndarray is one json.dumps call."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biuf":
            parts.append(json.dumps(value.tolist(), allow_nan=False))
        elif not np.isfinite(value).all():
            raise ValueError("Out of range float values are not JSON compliant")
        else:
            parts.append(value)
        return
    try:
        parts.append(json.dumps(value, allow_nan=False, default=_stop_at_array))
        return
    except _HoldsArray:
        pass
    if isinstance(value, dict):
        for i, (key, item) in enumerate(value.items()):
            # the key as json.dumps writes it, converted to a string if need be
            key_text = json.dumps({key: 0}, allow_nan=False)[1:-4]
            parts.append(("{" if i == 0 else ", ") + key_text + ": ")
            _json_parts(item, parts)
        parts.append("}")
    else:
        for i, item in enumerate(value):
            parts.append("[" if i == 0 else ", ")
            _json_parts(item, parts)
        parts.append("]")


def _write_array(f, arr: np.ndarray) -> None:
    if arr.ndim <= 1:
        f.write(json.dumps(arr.tolist()))
        return
    f.write("[")
    for i, row in enumerate(arr):
        if i:
            f.write(", ")
        _write_array(f, row)
    f.write("]")


def _write_json(obj: dict, path) -> None:
    """Write ``json.dumps(obj, allow_nan=False)`` and a newline to ``path``,
    every ndarray in ``obj`` as its ``tolist()`` and row by row. A value
    json.dumps refuses raises before the file is opened."""
    parts = []
    _json_parts(obj, parts)
    with open(path, "w", encoding="utf-8") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part)
            else:
                _write_array(f, part)
        f.write("\n")


def _reject_non_finite(token: str):
    # json.loads hook for its NaN, Infinity and -Infinity tokens. An infinite
    # ceiling is written by leaving the region out.
    raise ValueError(f"non-finite number {token} is not allowed")


def _read_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text, parse_constant=_reject_non_finite)
    except json.JSONDecodeError as e:
        raise MarketFileError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:
        raise MarketFileError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise MarketFileError(f"{path}: top-level value must be an object")
    return data


@contextmanager
def _document(path):
    """Read the JSON object in ``path`` for the ``with`` block to parse.

    A missing key or a field of the wrong type surfaces deep in the parse as a
    KeyError, TypeError, AttributeError or ValueError; each is re-raised here,
    once for every reader, as a SchemaViolationError that names the file. An
    UnknownRegionError is a KeyError whose message already says what is wrong.
    """
    data = _read_json(path)
    try:
        yield data
    except (UnknownRegionError, ValueError) as e:
        raise SchemaViolationError(f"{path}: {e}") from None
    except KeyError as e:
        raise SchemaViolationError(f"{path}: missing required key {e}") from None
    except (TypeError, AttributeError) as e:
        raise SchemaViolationError(f"{path}: a field has the wrong type: {e}") from None


_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _json_typed(raw: object, kind: type, what: str):
    # ``float`` stands for any JSON number. bool subclasses int, so a count
    # or number written as true or false is refused too.
    if not isinstance(raw, (int, float) if kind is float else kind) or (
        kind is not bool and isinstance(raw, bool)
    ):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}")
    return float(raw) if kind is float else raw


def _identifiers(raw: object, what: str) -> list[str]:
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        raise ValueError(f"{what} must be a JSON array of strings")
    return raw


def _mass_vector(raw: object, ids: Sequence[str], what: str) -> np.ndarray:
    if not isinstance(raw, dict):
        raise SchemaViolationError(f"{what} must map type identifiers to numbers")
    out = np.empty(len(ids))
    for i, t in enumerate(ids):
        if t not in raw:
            raise SchemaViolationError(f"{what} is missing an entry for {t!r}")
        out[i] = _json_typed(raw[t], float, f"{what}[{t!r}]")
    return out


def _tax_document(raw: object) -> object:
    """A file's tax field, a map from region to number or an array of numbers."""
    if isinstance(raw, dict):
        return {z: _json_typed(v, float, f"w[{z!r}]") for z, v in raw.items()}
    return _number_array(raw, "w")


def save_market(spec: MarketSpec, path) -> None:
    """Write a market spec file (see module docstring for the schema)."""
    doc = {
        "worker_types": list(spec.worker_types),
        "slot_types": list(spec.slot_types),
        "regions": list(spec.regions),
        "n": {t: spec.n[i] for i, t in enumerate(spec.worker_types)},
        "m": {t: spec.m[i] for i, t in enumerate(spec.slot_types)},
        "region_of": {y: spec.region_of[y] for y in spec.slot_types},
        "upper": {
            z: spec.upper[i] for i, z in enumerate(spec.regions) if np.isfinite(spec.upper[i])
        },
        "lower": {z: spec.lower[i] for i, z in enumerate(spec.regions) if spec.lower[i] != 0.0},
    }
    _write_json(doc, path)


def load_market(path) -> MarketSpec:
    """Load and fully validate a market spec file.

    Raises MarketFileError on malformed JSON and SchemaViolationError when a
    required field is missing or has the wrong type, or when a market
    invariant is violated.
    """
    with _document(path) as data:
        worker_types = _identifiers(data["worker_types"], "worker_types")
        slot_types = _identifiers(data["slot_types"], "slot_types")
        regions = _identifiers(data["regions"], "regions")
        n = _mass_vector(data["n"], worker_types, "n")
        m = _mass_vector(data["m"], slot_types, "m")
        region_raw = data["region_of"]
        if not isinstance(region_raw, dict):
            raise SchemaViolationError("region_of must be an object")
        upper = np.full(len(regions), np.inf)
        lower = np.zeros(len(regions))
        index = {z: i for i, z in enumerate(regions)}
        for z, v in data.get("upper", {}).items():
            if z not in index:
                raise SchemaViolationError(f"upper quota for unknown region {z!r}")
            upper[index[z]] = _json_typed(v, float, f"upper[{z!r}]")
        for z, v in data.get("lower", {}).items():
            if z not in index:
                raise SchemaViolationError(f"lower quota for unknown region {z!r}")
            lower[index[z]] = _json_typed(v, float, f"lower[{z!r}]")
        spec = MarketSpec(worker_types, slot_types, regions, n, m, region_raw, upper, lower)
        report = validate_market(spec)
        if not report.ok:
            raise SchemaViolationError(str(report))
        return spec


def load_surplus(path, spec: MarketSpec) -> SurplusMatrix:
    """Load a surplus file: JSON object with key `phi` (row-major N x M)."""
    with _document(path) as data:
        return SurplusMatrix(as_surplus_array(data["phi"], spec))


def load_taxes(path, spec: MarketSpec) -> TaxScheme:
    """Load a tax file: JSON object with key `w` mapping region to tax."""
    with _document(path) as data:
        return TaxScheme(as_tax_array(_tax_document(data["w"]), spec))


def save_result(result: EquilibriumResult, path, spec: MarketSpec, welfare=None) -> None:
    """Write an equilibrium result file.

    The document holds the matching (matched block plus unmatched vectors),
    both systematic utility matrices, the per-region taxes, and diagnostics.
    A welfare breakdown (a dataclass), when given, is stored under the
    `welfare` key.
    """
    mu = result.matching
    diag = result.diagnostics
    doc = {
        "mu": {
            "matched": mu.matched,
            "unmatched_workers": mu.unmatched_workers,
            "unmatched_slots": mu.unmatched_slots,
        },
        "U": result.utilities.U,
        "V": result.utilities.V,
        "w": {z: result.taxes.w[i] for i, z in enumerate(spec.regions)},
        "diagnostics": {
            "dual_value": diag.dual_value,
            "primal_value": diag.primal_value,
            "duality_gap": diag.duality_gap,
            "max_kkt_residual": diag.max_kkt_residual,
            "inner_iterations": diag.inner_iterations,
            "outer_iterations": diag.outer_iterations,
            "converged": diag.converged,
        },
    }
    if diag.tolerances:
        doc["diagnostics"]["tolerances"] = diag.tolerances
    if welfare is not None:
        doc["welfare"] = asdict(welfare)
    _write_json(doc, path)


def _parse_matching(data: dict, spec: MarketSpec) -> Matching:
    mu_raw = data["mu"]
    matching = Matching(
        _number_array(mu_raw["matched"], "mu.matched"),
        _number_array(mu_raw["unmatched_workers"], "mu.unmatched_workers"),
        _number_array(mu_raw["unmatched_slots"], "mu.unmatched_slots"),
    )
    if matching.matched.shape != (spec.num_workers, spec.num_slots):
        raise SchemaViolationError("matching shape does not match the market")
    return matching


def load_matching(path, spec: MarketSpec) -> Matching:
    """Load a matching file: JSON with `mu` in the result layout (an observed
    matching, or any result file)."""
    with _document(path) as data:
        return _parse_matching(data, spec)


def load_result(path, spec: MarketSpec) -> EquilibriumResult:
    """Load an equilibrium result file written by :func:`save_result`."""
    with _document(path) as data:
        matching = _parse_matching(data, spec)
        utilities = SystematicUtilities(
            _number_array(data["U"], "U"), _number_array(data["V"], "V")
        )
        taxes = TaxScheme(as_tax_array(_tax_document(data["w"]), spec))
        diag_raw = data["diagnostics"]
        diag = Diagnostics(
            dual_value=_json_typed(diag_raw["dual_value"], float, "dual_value"),
            primal_value=_json_typed(diag_raw["primal_value"], float, "primal_value"),
            duality_gap=_json_typed(diag_raw["duality_gap"], float, "duality_gap"),
            max_kkt_residual=_json_typed(diag_raw["max_kkt_residual"], float, "max_kkt_residual"),
            inner_iterations=_json_typed(diag_raw["inner_iterations"], int, "inner_iterations"),
            outer_iterations=_json_typed(diag_raw["outer_iterations"], int, "outer_iterations"),
            converged=_json_typed(diag_raw["converged"], bool, "converged"),
            tolerances=_tolerances(diag_raw),
        )
        return EquilibriumResult(matching, utilities, taxes, diag)


def _tolerances(diag_raw: dict) -> dict | None:
    """The optional ``tolerances`` object of a result's diagnostics: JSON
    numbers by name."""
    if "tolerances" not in diag_raw:
        return None
    raw = diag_raw["tolerances"]
    if not isinstance(raw, dict):
        raise ValueError("diagnostics.tolerances must be a JSON object")
    return {name: _json_typed(value, float, f"diagnostics.tolerances.{name}") for name, value in raw.items()}
