"""Interprocedural protocol-flow analysis (``repro lint --flow`` / ``repro analyze``).

The RPL01x rules see *names*: a kind that is constructed somewhere and
matched somewhere is "alive", no matter how the construction and the match
relate.  This package sees *flow*: it abstractly interprets the protocol
node classes — resolving helper calls, ``capture_base``/``common`` mixins,
``super().on_message`` chains and ``match``/``isinstance`` dispatch — into
a per-protocol **message-flow automaton** mapping each trigger (spontaneous
wake-up, or one matched message kind) to the set of kinds the handler can
send, the port class each send targets, and a static fan-out bound in the
lattice ``{0, const k, O(num_ports), ⊤}``.

On top of the automaton sit:

* the RPL03x rule family (:mod:`repro.lint.flow.rules`) — amplification
  cycles, dead/unreachable handler surface, unbounded fan-out;
* the capabilities-v2 fields (``uses_timers``, ``uses_rng``,
  ``max_fanout``, ``quiescent_kinds``) consumed by the symmetry prune
  gate, the sharded kernel and the matrix loader;
* the runtime conformance probe (:mod:`repro.lint.flow.conformance`)
  that ``repro check --all`` runs: measured per-activation fan-out must
  not exceed the static bound.
"""

from __future__ import annotations

from .automaton import (
    FlowAutomaton,
    HandlerFlow,
    analyze_node_class,
    analyze_protocol,
)
from .lattice import FanOut
from .rules import flow_findings

__all__ = [
    "FanOut",
    "FlowAutomaton",
    "HandlerFlow",
    "analyze_node_class",
    "analyze_protocol",
    "flow_findings",
]
