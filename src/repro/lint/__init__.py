"""Static protocol-contract analysis (``python -m repro lint``).

The optimisations in ``verification/`` are sound only under contracts the
type system cannot express: handler purity (transition memoisation,
deterministic replay), frozen message values (copy-on-write worlds) and
single-choke-point sends (message-complexity accounting).  This package
checks those contracts syntactically, with stable ``RPL0xx`` codes,
source spans, inline ``# repro: lint-ok[RPL0xx] reason`` suppressions,
and text/JSON reporters.  It also measures where each protocol breaks
symmetry (the RPL02x sites) and derives the per-protocol capability
table the matrix loader, the sharded kernel and ``verify --stat`` read
(:mod:`repro.lint.capabilities`).

Importing this package registers every rule family.
"""

from __future__ import annotations

from . import accounting, equivariance, messages, purity  # noqa: F401
from .capabilities import (
    ProtocolCapability,
    capability_for,
    derive_capability_table,
)
from .core import (
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    RULES,
    lint_paths,
)
from .flow import (  # noqa: F401  (registers the RPL03x rule family)
    FanOut,
    FlowAutomaton,
    analyze_node_class,
    analyze_protocol,
    flow_findings,
)
from .reporters import render_json, render_sarif, render_text

__all__ = [
    "FanOut",
    "Finding",
    "FlowAutomaton",
    "LintResult",
    "ModuleContext",
    "ProtocolCapability",
    "RULES",
    "Rule",
    "analyze_node_class",
    "analyze_protocol",
    "capability_for",
    "derive_capability_table",
    "flow_findings",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
]
