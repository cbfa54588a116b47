"""The per-protocol message-flow automaton.

One :class:`FlowAutomaton` summarises one concrete node class: for every
trigger — spontaneous wake-up (``"wake"``), each handled message kind, or
the app-layer leader hook (``"leader"``) — a :class:`HandlerFlow` records
which kinds one activation can send, through which port class, and with
what static fan-out.  On top of that sit the derived facts the rest of
the repo consumes:

* ``max_fanout`` — the join of all handler totals, the per-activation
  bound the runtime conformance probe enforces;
* ``quiescent_kinds`` — handled kinds whose handler provably sends
  nothing (pure sinks: state updates, stall absorbers);
* ``amplification_edges()`` — edges of the *must*-send kind graph that
  sit on a cycle with multiplying product, i.e. potential message
  explosion (RPL030);
* ``uses_timers`` / ``uses_rng`` — behavioural capabilities v2.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from ..core import ModuleContext
from .extract import (
    Analyzer,
    ClassInfo,
    Effects,
    SendRecord,
    Universe,
    build_universe,
    scan_uses_ctx_rng,
    scan_uses_rng,
    scan_uses_timers,
)
from .lattice import FanOut

#: Automaton triggers that are not message kinds.
WAKE = "wake"
LEADER = "leader"


@dataclass(frozen=True)
class FlowSend:
    """One send surface of a handler, ready for display."""

    kinds: tuple[str, ...]
    port_class: str
    fanout: FanOut

    def to_dict(self) -> dict:
        """JSON-ready shape for the ``analyze`` report."""
        return {
            "kinds": list(self.kinds),
            "port_class": self.port_class,
            "fanout": self.fanout.describe(),
        }


@dataclass(frozen=True)
class HandlerFlow:
    """Everything one trigger of the automaton can do."""

    trigger: str
    sends: tuple[FlowSend, ...]
    may: tuple[tuple[str, FanOut], ...]
    must: tuple[tuple[str, int], ...]
    total: FanOut
    records: tuple[SendRecord, ...]  # raw sites, for the rule family

    @property
    def quiescent(self) -> bool:
        return self.total.is_zero

    def may_map(self) -> dict[str, FanOut]:
        """Kind -> worst-case fan-out for everything this trigger *may* send."""
        return dict(self.may)

    def must_map(self) -> dict[str, int]:
        """Kind -> guaranteed count for everything this trigger *must* send."""
        return dict(self.must)

    def bound(self, num_ports: int) -> int | None:
        """Concrete per-activation send bound at ``num_ports`` (None if ⊤)."""
        return self.total.bound(num_ports)

    def to_dict(self) -> dict:
        """JSON-ready shape for the ``analyze`` report."""
        return {
            "sends": [send.to_dict() for send in self.sends],
            "fanout": self.total.describe(),
        }


@dataclass(frozen=True)
class AmplificationEdge:
    """A must-send edge on a multiplying kind cycle."""

    trigger: str
    kind: str
    count: int
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class FlowAutomaton:
    """The message-flow summary of one concrete node class."""

    node_class: str
    path: Path
    protocol: str | None
    handlers: Mapping[str, HandlerFlow]
    uses_timers: bool
    uses_rng: bool
    uses_ctx_rng: bool = False

    @property
    def max_fanout(self) -> FanOut:
        total = FanOut.zero()
        for flow in self.handlers.values():
            total = total.join(flow.total)
        return total

    @property
    def quiescent_kinds(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                trigger
                for trigger, flow in self.handlers.items()
                if trigger not in (WAKE, LEADER) and flow.quiescent
            )
        )

    @property
    def handled_kinds(self) -> tuple[str, ...]:
        return tuple(
            sorted(t for t in self.handlers if t not in (WAKE, LEADER))
        )

    def amplification_edges(self) -> list[AmplificationEdge]:
        """Must-graph edges with count ≥ 2 inside a kind-graph cycle.

        Every must-edge has count ≥ 1, so a cycle's product fan-out
        exceeds 1 exactly when some edge on it multiplies.  Using the
        *must* counts (sends every execution path performs) keeps real
        protocols clean: a contest ladder that can bounce a kind back
        also has losing/terminating branches, so its guaranteed fan-out
        per traversal stays ≤ 1.
        """
        graph: dict[str, dict[str, int]] = {}
        for trigger, flow in self.handlers.items():
            if trigger in (WAKE, LEADER):
                continue
            for kind, count in flow.must:
                if kind in self.handlers:
                    graph.setdefault(trigger, {})[kind] = count
        edges: list[AmplificationEdge] = []
        for component in _strongly_connected(graph):
            members = set(component)
            cyclic = len(component) > 1 or any(
                src in graph.get(src, {}) for src in component
            )
            if not cyclic:
                continue
            for src in component:
                for dst, count in graph.get(src, {}).items():
                    if dst in members and count >= 2:
                        edges.append(
                            AmplificationEdge(
                                trigger=src,
                                kind=dst,
                                count=count,
                                cycle=tuple(sorted(members)),
                            )
                        )
        return sorted(edges, key=lambda e: (e.trigger, e.kind))

    def to_dict(self, num_ports: int | None = None) -> dict:
        """JSON-ready automaton summary, optionally bound at ``num_ports``."""
        payload: dict = {
            "node_class": self.node_class,
            "max_fanout": self.max_fanout.describe(),
            "quiescent_kinds": list(self.quiescent_kinds),
            "uses_timers": self.uses_timers,
            "uses_rng": self.uses_rng,
            "uses_ctx_rng": self.uses_ctx_rng,
            "handlers": {
                trigger: flow.to_dict()
                for trigger, flow in sorted(self.handlers.items())
            },
        }
        if self.protocol is not None:
            payload["protocol"] = self.protocol
        if num_ports is not None:
            payload["bound_at_num_ports"] = {
                "num_ports": num_ports,
                "max_messages_per_activation": self.max_fanout.bound(
                    num_ports
                ),
            }
        return payload


def _strongly_connected(
    graph: Mapping[str, Mapping[str, int]]
) -> list[list[str]]:
    """Tarjan's SCC over the kind graph (iterative, graphs are tiny)."""
    nodes = sorted(set(graph) | {d for e in graph.values() for d in e})
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work: list[tuple[str, list[str], int]] = [
            (root, sorted(graph.get(root, {})), 0)
        ]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors, cursor = work.pop()
            advanced = False
            while cursor < len(successors):
                succ = successors[cursor]
                cursor += 1
                if succ not in index:
                    work.append((node, successors, cursor))
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(graph.get(succ, {})), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in nodes:
        if node not in index:
            visit(node)
    return components


# ---------------------------------------------------------------------------
# Building automata.
# ---------------------------------------------------------------------------


def _handler_flow(trigger: str, effects: Effects) -> HandlerFlow:
    sends = tuple(
        sorted(
            {
                FlowSend(
                    kinds=record.kinds,
                    port_class=record.port_class,
                    fanout=record.fanout,
                )
                for record in effects.sites
                if not record.fanout.is_zero
            },
            key=lambda s: (s.kinds, s.port_class, s.fanout.describe()),
        )
    )
    return HandlerFlow(
        trigger=trigger,
        sends=sends,
        may=effects.may,
        must=effects.must,
        total=effects.total,
        records=effects.sites,
    )


def _framework_path(path: Path) -> bool:
    parts = path.parts
    for index, part in enumerate(parts):
        if part == "repro" and index + 1 < len(parts):
            return parts[index + 1] in ("core", "topology")
    return False


def _capability_trees(
    universe: Universe, class_name: str
) -> tuple[list[ast.AST], list[ast.Module]]:
    """(MRO class subtrees, defining non-framework module trees)."""
    subtrees: list[ast.AST] = []
    module_trees: list[ast.Module] = []
    seen_paths: set[Path] = set()
    trees_by_path = {path: tree for path, tree, _ in universe.files}
    for name in universe.mro(class_name):
        info = universe.classes.get(name)
        if info is None:
            continue
        subtrees.append(info.node)
        if info.path not in seen_paths and not _framework_path(info.path):
            seen_paths.add(info.path)
            tree = trees_by_path.get(info.path)
            if tree is not None:
                module_trees.append(tree)
    return subtrees, module_trees


def analyze_node_class(
    universe: Universe,
    class_name: str,
    *,
    analyzer: Analyzer | None = None,
    protocol: str | None = None,
) -> FlowAutomaton:
    """Summarise one concrete node class of the universe."""
    if analyzer is None:
        analyzer = Analyzer(universe)
    info = universe.classes[class_name]
    handlers: dict[str, HandlerFlow] = {}
    if analyzer.has_entry(class_name, "on_wake"):
        handlers[WAKE] = _handler_flow(
            WAKE, analyzer.wake_effects(class_name)
        )
    for kind in sorted(universe.handled_kinds(class_name)):
        handlers[kind] = _handler_flow(
            kind, analyzer.message_effects(class_name, kind)
        )
    if analyzer.has_entry(class_name, "on_leader_elected"):
        handlers[LEADER] = _handler_flow(
            LEADER, analyzer.leader_effects(class_name)
        )
    subtrees, module_trees = _capability_trees(universe, class_name)
    return FlowAutomaton(
        node_class=class_name,
        path=info.path,
        protocol=protocol,
        handlers=handlers,
        uses_timers=scan_uses_timers(subtrees),
        uses_rng=scan_uses_rng(module_trees),
        uses_ctx_rng=scan_uses_ctx_rng(subtrees),
    )


def _most_derived_node_class(universe: Universe) -> ClassInfo | None:
    """The node class no other target class derives from."""
    candidates = universe.node_classes()
    if not candidates:
        return None
    derived_from: set[str] = set()
    for info in candidates:
        derived_from.update(universe.mro(info.name)[1:])
    leaves = [c for c in candidates if c.name not in derived_from]
    return leaves[0] if leaves else candidates[0]


def analyze_protocol(protocol_cls: type) -> FlowAutomaton:
    """Automaton of one registered protocol's node class.

    The universe is the protocol's implementation modules (its class MRO
    plus the node-class MRO, framework layers excluded — the same module
    resolution capabilities v1 uses) closed over their ``repro.*``
    imports.
    """
    from ..capabilities import (
        _module_source_file,
        _node_class,
        implementation_modules,
    )

    paths = []
    for module_name in implementation_modules(protocol_cls):
        path = _module_source_file(module_name)
        if path is not None:
            paths.append(path)
    contexts = [ModuleContext(path) for path in sorted(set(paths))]
    universe = build_universe(contexts)
    node_cls = _node_class(protocol_cls)
    name: str | None = None
    if node_cls is not None and node_cls.__name__ in universe.classes:
        name = node_cls.__name__
    else:
        leaf = _most_derived_node_class(universe)
        if leaf is not None:
            name = leaf.name
    if name is None:
        raise ValueError(
            f"no node class found for protocol {protocol_cls!r}"
        )
    return analyze_node_class(
        universe,
        name,
        protocol=getattr(protocol_cls, "name", protocol_cls.__name__),
    )


def analyze_targets(
    contexts: Sequence[ModuleContext],
) -> tuple[Universe, list[FlowAutomaton]]:
    """Automata for every concrete node class in the lint targets."""
    universe = build_universe(contexts)
    analyzer = Analyzer(universe)
    automata = []
    for info in universe.node_classes():
        automata.append(
            analyze_node_class(universe, info.name, analyzer=analyzer)
        )
    return universe, automata
