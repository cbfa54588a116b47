"""Declarative scenario-matrix engine.

The scenario space (protocol × scenario × N × k × seed) as a first-class
artifact: spec rows (:mod:`repro.matrix.spec`) expand into cells, the
runner (:mod:`repro.matrix.runner`) sweeps them over the fork pool into
an aggregate report, ``check --all`` (:mod:`repro.matrix.check`) cross-
products the curated slice against the exhaustive checker, the schedule
fuzzer, and the reliable-delivery contract, and the trend comparator
(:mod:`repro.matrix.trends`) gates CI on committed BENCH snapshots.

See ``docs/matrix.md`` for the spec schema and usage.
"""

from repro.matrix.check import CheckReport, check_all
from repro.matrix.runner import MatrixReport, run_matrix
from repro.matrix.spec import (
    MatrixCell,
    ScenarioSpec,
    curated_specs,
    expand,
    expand_specs,
    load_specs,
    parse_toml,
    specs_to_toml,
    validate_spec,
)
from repro.matrix.trends import TrendReport, compare_files, compare_payloads

__all__ = [
    "CheckReport",
    "MatrixCell",
    "MatrixReport",
    "ScenarioSpec",
    "TrendReport",
    "check_all",
    "compare_files",
    "compare_payloads",
    "curated_specs",
    "expand",
    "expand_specs",
    "load_specs",
    "parse_toml",
    "run_matrix",
    "specs_to_toml",
    "validate_spec",
]
