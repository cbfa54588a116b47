"""The declarative scenario-spec model behind the matrix engine.

The scenario space — protocol × scenario × N × k × seed — outgrew the
hand-coded E1–E12 sweep functions; this module makes it a first-class,
*validated* artifact.  A :class:`ScenarioSpec` is one row of a spec file
(a TOML ``[[spec]]`` table, mirroring the validation-sweep layout the
repo's exemplars use): every multi-valued field is an **axis**, and
:func:`expand` turns one row into the exact cross-product of its axes as
:class:`MatrixCell` objects — the unit the sweep runner executes.

Three layers of checking, each at the earliest possible moment:

1. **Schema validation at parse time** (:func:`validate_spec`): unknown
   protocol or scenario names, empty or duplicated axis values, and
   nonsensical cross-check settings (``fuzz_schedules`` without
   ``fuzz_ns``) raise :class:`~repro.core.errors.ConfigurationError`
   naming the offending row — a typo, or a field this version no longer
   has, dies at spec load, not 40 cells into a sweep.

2. **Capability gating at spec load** (also :func:`validate_spec`):
   protocols the linter-derived capability table
   (:mod:`repro.lint.capabilities`) marks ``uses_rng`` are refused, and
   ``uses_ctx_rng`` protocols may not ask for the exhaustive or fuzz
   passes the seedless lock-step world cannot drive.

3. **Structural filtering at expansion** (:func:`expand_specs` with
   ``filter=True``): cells that are *individually* impossible — a
   sense-of-direction protocol under the ``adversarial_ports`` wiring
   adversary, a ``k`` axis applied to a protocol without a ``k``
   parameter, ``k > N-1`` — are dropped with a recorded reason instead of
   erroring, because a row like "every protocol × every scenario" is the
   natural way to write a matrix and the illegal corner is exactly what
   the filter is for.  The runner reports every dropped cell; nothing is
   silently skipped.

Round-trip contract (property-tested): ``parse_toml(specs_to_toml(s)) ==
s`` for any valid spec list, and ``len(expand(spec))`` equals the product
of the axis lengths with no duplicate cells.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.protocol import ElectionProtocol

_LIST_INT_FIELDS = ("ns", "seeds", "ks", "verify_ns", "fuzz_ns")
_LIST_STR_FIELDS = ("protocols", "scenarios")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative row: axes plus per-row cross-check settings.

    ``protocols``/``scenarios``/``ns``/``seeds``/``ks`` are axes (the
    cross-product is the row's cell set; ``ks = ()`` means "one cell per
    combination, protocol-default k").  ``verify_ns`` directs
    the exhaustive checker at this row's protocols, ``fuzz_ns``/
    ``fuzz_schedules``/``fault_budget`` direct the schedule fuzzer.
    """

    tag: str
    protocols: tuple[str, ...]
    scenarios: tuple[str, ...]
    ns: tuple[int, ...]
    seeds: tuple[int, ...] = (0,)
    #: Named seed family for randomized (``uses_ctx_rng``) protocols.
    #: When set, ``seeds`` are *indices* into the family and each cell
    #: runs with :func:`family_seed`'s derived value — so a curated row
    #: declares its whole seed discipline in two short fields, the
    #: derived seeds are identical across sizes (monotonicity grouping
    #: still works) and re-deriving the family elsewhere (the stat
    #: checker, E13) reproduces the exact same runs.
    seed_family: str | None = None
    ks: tuple[int, ...] = ()
    verify_ns: tuple[int, ...] = ()
    fuzz_ns: tuple[int, ...] = ()
    fuzz_schedules: int = 0
    fault_budget: int = 0


@dataclass(frozen=True)
class MatrixCell:
    """One fully-instantiated run: a point of the expanded cross-product."""

    tag: str
    protocol: str
    scenario: str
    n: int
    seed: int
    k: int | None = None
    #: The spec row's seed family (None on deterministic rows).  When
    #: set, ``seed`` already holds the family-derived value.
    seed_family: str | None = None

    @property
    def cell_id(self) -> str:
        """Stable directory-and-report identifier for this cell."""
        k_part = f"-k{self.k}" if self.k is not None else ""
        return f"{self.protocol}@{self.n}{k_part}-{self.scenario}-s{self.seed}"

    def config(self) -> dict:
        """The JSON-able configuration written to ``config_used.json``."""
        return {
            "tag": self.tag,
            "protocol": self.protocol,
            "scenario": self.scenario,
            "n": self.n,
            "seed": self.seed,
            "seed_family": self.seed_family,
            "k": self.k,
        }


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def family_seed(family: str, index: int) -> int:
    """The run seed of entry ``index`` of a named seed family.

    A 32-bit blake2b digest over the family name and index, so spec rows
    stay short (two fields) while every consumer — the matrix runner,
    the statistical checker, E13 — derives byte-identical run seeds from
    the same ``(family, index)`` coordinates.  Independent of N on
    purpose: the monotonicity check groups cells across sizes by seed.
    """
    payload = b"repro.seed-family.v1|%s|%d" % (family.encode(), index)
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "big")


def expand(spec: ScenarioSpec) -> list[MatrixCell]:
    """The pure cross-product of one row's axes, in deterministic order.

    No validation and no filtering happen here (see the module docstring's
    layer 3): the cell count is exactly ``len(protocols) * len(scenarios)
    * len(ns) * len(seeds) * max(1, len(ks))``.  On a ``seed_family``
    row, the ``seeds`` axis holds family indices and every cell's
    ``seed`` is the :func:`family_seed`-derived value.
    """
    ks: tuple[int | None, ...] = spec.ks if spec.ks else (None,)
    if spec.seed_family is not None:
        seeds = tuple(family_seed(spec.seed_family, s) for s in spec.seeds)
    else:
        seeds = spec.seeds
    return [
        MatrixCell(spec.tag, protocol, scenario, n, seed, k, spec.seed_family)
        for protocol in spec.protocols
        for scenario in spec.scenarios
        for n in spec.ns
        for seed in seeds
        for k in ks
    ]


def protocol_takes_k(name: str) -> bool:
    """Whether the registered protocol's constructor has a ``k`` parameter."""
    from repro.core.protocol import protocol_class

    signature = inspect.signature(protocol_class(name).__init__)
    return "k" in signature.parameters


def build_protocol(cell: MatrixCell) -> ElectionProtocol:
    """Instantiate the cell's protocol (passing ``k`` when the cell has one)."""
    from repro.core.protocol import protocol_class

    cls = protocol_class(cell.protocol)
    if cell.k is not None:
        return cls(k=cell.k)
    return cls()


def cell_rejection(cell: MatrixCell) -> str | None:
    """Why this cell cannot run, or None when it is legal.

    Structural impossibilities only — anything a spec row's cross-product
    can innocently produce.  Genuine configuration *errors* (unknown
    names, bad cross-check settings) are rejected earlier, by
    :func:`validate_spec`.  The quick explicit checks give the common
    corners crisp messages; the final probe — actually building the
    cell's topology and running the protocol's own ``validate`` — makes
    the filter exactly as strict as the kernel (power-of-two sizes,
    k-range constraints, wiring feasibility), so a filtered matrix never
    dies mid-sweep on a structural :class:`ConfigurationError`.
    """
    from repro.core.protocol import protocol_class
    from repro.harness.scenarios import SCENARIOS
    from repro.lint.capabilities import capability_for

    cls = protocol_class(cell.protocol)
    if cell.seed_family is None and capability_for(cls).uses_ctx_rng:
        return (
            f"randomized protocol {cell.protocol!r} (uses_ctx_rng per the "
            "flow-derived capability table) requires the row to declare a "
            "seed_family: its coin flips are part of the run configuration, "
            "and the family pins which coin universes the matrix samples"
        )
    if cell.scenario == "adversarial_ports":
        if cls.needs_sense_of_direction:
            return "the port adversary only exists on unlabeled networks"
        # The Up/Down wiring needs 2k distinct neighbours (k = ⌈log₂N⌉).
        import math

        k = max(1, math.ceil(math.log2(cell.n)))
        if 2 * k > cell.n - 1:
            return (
                f"N={cell.n} too small for the Up/Down wiring "
                f"(needs 2·⌈log₂N⌉ = {2 * k} ≤ N-1)"
            )
    if cell.k is not None:
        if not protocol_takes_k(cell.protocol):
            return f"protocol {cell.protocol!r} takes no k parameter"
        if cell.k > cell.n - 1:
            return f"k={cell.k} exceeds N-1={cell.n - 1}"
    if cell.scenario not in SCENARIOS:  # pragma: no cover - caught at parse
        return f"unknown scenario {cell.scenario!r}"
    try:
        protocol = build_protocol(cell)
        topology, _ = SCENARIOS[cell.scenario].build(
            cell.n, cell.seed, protocol.needs_sense_of_direction
        )
        protocol.validate(topology)
    except (ConfigurationError, ValueError) as error:
        return str(error)
    return None


def expand_specs(
    specs: list[ScenarioSpec], *, filter: bool = True
) -> tuple[list[MatrixCell], list[tuple[MatrixCell, str]]]:
    """Expand every row; split the cells into (legal, rejected-with-reason).

    ``filter=False`` raises on the first illegal cell instead — the strict
    mode for spec files that are supposed to be exactly runnable.
    """
    legal: list[MatrixCell] = []
    rejected: list[tuple[MatrixCell, str]] = []
    for spec in specs:
        for cell in expand(spec):
            reason = cell_rejection(cell)
            if reason is None:
                legal.append(cell)
            elif filter:
                rejected.append((cell, reason))
            else:
                raise ConfigurationError(
                    f"illegal cell {cell.cell_id} in spec row "
                    f"{spec.tag!r}: {reason}"
                )
    return legal, rejected


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _require(condition: bool, tag: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"spec row {tag!r}: {message}")


def validate_spec(spec: ScenarioSpec) -> None:
    """Schema + capability validation for one row (see module docstring)."""
    from repro.core.protocol import registered_protocols
    from repro.harness.scenarios import SCENARIOS

    tag = spec.tag
    _require(bool(tag), tag, "tag must be non-empty")
    registry = registered_protocols()
    for axis in ("protocols", "scenarios", "ns"):
        values = getattr(spec, axis)
        _require(bool(values), tag, f"axis {axis!r} must be non-empty")
    _require(bool(spec.seeds), tag, "axis 'seeds' must be non-empty")
    if spec.seed_family is not None:
        _require(
            bool(spec.seed_family), tag,
            "seed_family must be a non-empty family name",
        )
    for axis in (*_LIST_STR_FIELDS, *_LIST_INT_FIELDS):
        values = getattr(spec, axis)
        _require(
            len(set(values)) == len(values), tag,
            f"axis {axis!r} contains duplicates: {values!r}",
        )
    for name in spec.protocols:
        _require(
            name in registry, tag,
            f"unknown protocol {name!r}; choose from {sorted(registry)}",
        )
    for name in spec.scenarios:
        _require(
            name in SCENARIOS, tag,
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}",
        )
    for n in (*spec.ns, *spec.verify_ns, *spec.fuzz_ns):
        _require(n >= 2, tag, f"network sizes must be >= 2, got {n}")
    for k in spec.ks:
        _require(k >= 1, tag, f"k values must be >= 1, got {k}")
    _require(
        spec.fuzz_schedules >= 0, tag,
        f"fuzz_schedules must be >= 0, got {spec.fuzz_schedules}",
    )
    _require(
        spec.fault_budget >= 0, tag,
        f"fault_budget must be >= 0, got {spec.fault_budget}",
    )
    if spec.fuzz_schedules:
        _require(
            bool(spec.fuzz_ns), tag,
            "fuzz_schedules requires fuzz_ns (the sizes to fuzz at)",
        )
    else:
        _require(
            not spec.fuzz_ns, tag,
            "fuzz_ns requires fuzz_schedules > 0",
        )
    _ensure_deterministic_capability(spec)


def _ensure_deterministic_capability(spec: ScenarioSpec) -> None:
    """Reject rows naming protocols the flow analysis marks ``uses_rng``.

    Every matrix phase — golden digests, exhaustive exploration, schedule
    fuzzing, trend gating — assumes a protocol's behaviour is a function
    of the seeded schedule alone.  Module-level entropy (``random``,
    ``secrets``, ``uuid``) escapes the seeded RNG and silently breaks
    replay and digest comparison, so such rows are refused at load time
    rather than producing flaky cells.

    ``uses_ctx_rng`` (the seeded per-node streams) is digest-safe, so
    those rows stay — but the lock-step verification world has no run
    seed to derive streams from, so a ctx-rng row may not ask for the
    exhaustive or fuzz passes: probabilistic properties belong to
    ``verify --stat`` (:mod:`repro.verification.stat`).
    """
    from repro.core.protocol import protocol_class
    from repro.lint.capabilities import capability_for

    for name in spec.protocols:
        capability = capability_for(protocol_class(name))
        if capability.uses_rng:
            raise ConfigurationError(
                f"spec row {spec.tag!r}: protocol {name!r} uses module-"
                "level entropy (uses_rng per the flow-derived capability "
                "table), which breaks seeded replay and digest "
                "determinism; drop it from the matrix"
            )
        if capability.uses_ctx_rng and (spec.verify_ns or spec.fuzz_ns):
            raise ConfigurationError(
                f"spec row {spec.tag!r}: protocol {name!r} draws from the "
                "per-node coin stream (uses_ctx_rng); the lock-step "
                "verification world has no run seed, so exhaustive "
                "exploration and schedule fuzzing cannot drive it — drop "
                "verify_ns/fuzz_ns from this row and check it with "
                "`python -m repro verify --stat` instead"
            )


# ---------------------------------------------------------------------------
# TOML round-trip
# ---------------------------------------------------------------------------


def _spec_to_dict(spec: ScenarioSpec) -> dict:
    """Minimal JSON/TOML-able dict: defaults are omitted."""
    out: dict = {
        "tag": spec.tag,
        "protocols": list(spec.protocols),
        "scenarios": list(spec.scenarios),
        "ns": list(spec.ns),
    }
    if spec.seeds != (0,):
        out["seeds"] = list(spec.seeds)
    if spec.seed_family is not None:
        out["seed_family"] = spec.seed_family
    if spec.ks:
        out["ks"] = list(spec.ks)
    if spec.verify_ns:
        out["verify_ns"] = list(spec.verify_ns)
    if spec.fuzz_ns:
        out["fuzz_ns"] = list(spec.fuzz_ns)
    if spec.fuzz_schedules:
        out["fuzz_schedules"] = spec.fuzz_schedules
    if spec.fault_budget:
        out["fault_budget"] = spec.fault_budget
    return out


def _spec_from_dict(raw: dict, *, source: str) -> ScenarioSpec:
    known = {f.name for f in fields(ScenarioSpec)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown spec field(s) {sorted(unknown)}; "
            f"known fields: {sorted(known)}"
        )
    kwargs: dict = dict(raw)
    for name in (*_LIST_STR_FIELDS, *_LIST_INT_FIELDS):
        if name in kwargs:
            value = kwargs[name]
            if not isinstance(value, list):
                raise ConfigurationError(
                    f"{source}: field {name!r} must be a list, got {value!r}"
                )
            kwargs[name] = tuple(value)
    try:
        spec = ScenarioSpec(**kwargs)
    except TypeError as error:
        raise ConfigurationError(f"{source}: {error}") from None
    validate_spec(spec)
    return spec


def specs_to_toml(specs: list[ScenarioSpec]) -> str:
    """Render spec rows as ``[[spec]]`` TOML tables.

    String values are emitted with JSON escaping, which is a subset of
    TOML basic-string escaping, so arbitrary tags survive the round trip.
    """
    blocks = []
    for spec in specs:
        lines = ["[[spec]]"]
        for key, value in _spec_to_dict(spec).items():
            lines.append(f"{key} = {json.dumps(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_toml(text: str, *, source: str = "<toml>") -> list[ScenarioSpec]:
    """Parse and validate ``[[spec]]`` rows from TOML text."""
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigurationError(f"{source}: invalid TOML: {error}") from None
    rows = document.get("spec")
    if not isinstance(rows, list) or not rows:
        raise ConfigurationError(
            f"{source}: expected at least one [[spec]] table"
        )
    return [
        _spec_from_dict(row, source=f"{source} [[spec]] #{index + 1}")
        for index, row in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# file loading and the curated slice
# ---------------------------------------------------------------------------


def load_specs(path: str | Path) -> list[ScenarioSpec]:
    """Load and validate a TOML spec file."""
    return parse_toml(Path(path).read_text(), source=str(path))


def curated_path() -> Path:
    """Location of the packaged curated matrix slice."""
    return Path(__file__).resolve().parent / "curated.toml"


def curated_specs() -> list[ScenarioSpec]:
    """The checked-in curated slice ``python -m repro check --all`` runs."""
    return load_specs(curated_path())


def restrict_for_quick(specs: list[ScenarioSpec]) -> list[ScenarioSpec]:
    """The ``--quick`` slice: cap sizes and schedule counts, keep coverage.

    Election sizes are capped at 32, fuzz at 16 schedules, and exhaustive
    sizes at 4 — every row survives (the protocol × scenario coverage is
    the point), only its extent shrinks.
    """
    trimmed = []
    for spec in specs:
        ns = tuple(n for n in spec.ns if n <= 32) or (min(spec.ns),)
        verify_ns = tuple(n for n in spec.verify_ns if n <= 4)
        fuzz_schedules = min(spec.fuzz_schedules, 16)
        fuzz_ns = spec.fuzz_ns if fuzz_schedules else ()
        trimmed.append(
            ScenarioSpec(
                tag=spec.tag,
                protocols=spec.protocols,
                scenarios=spec.scenarios,
                ns=ns,
                seeds=spec.seeds,
                seed_family=spec.seed_family,
                ks=tuple(k for k in spec.ks if k <= min(ns) - 1),
                verify_ns=verify_ns,
                fuzz_ns=fuzz_ns,
                fuzz_schedules=fuzz_schedules,
                fault_budget=spec.fault_budget,
            )
        )
    return trimmed
