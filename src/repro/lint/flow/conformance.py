"""Runtime conformance probe: measured fan-out vs. the static bound.

The flow analyzer (:mod:`repro.lint.flow`) derives, per handler, a
symbolic per-activation send bound in the :class:`~repro.lint.flow.FanOut`
lattice.  That derivation is only useful if the running code actually
respects it — an obfuscated send (``getattr(ctx, "se" + "nd")``) or an
analyzer bug would make the static table a fiction.  This probe closes
the loop: it instruments every node of a real :class:`~repro.sim.network.
Network`, runs one benign election, and records the number of messages
each single activation (one ``on_wake`` or one ``on_message`` call)
pushed onto the wire, keyed by its trigger (``"wake"`` or the delivered
message's ``type_name``).  The measured maxima must not exceed the
static bounds evaluated at the topology's ``num_ports``.

The probe is *sound in one direction only*: it can refute a static bound
(measured > bound is always a real violation — every counted send
happened), but a clean run does not prove the bound tight or even
correct, since one schedule at one size exercises one path.  That is
exactly the right asymmetry for a conformance gate, and it is why the
probe runs inside ``python -m repro check --all`` (phase 6) rather than
replacing the analyzer.

Instrumentation detail: the wrappers go on ``on_wake``/``on_message``
(the protocol hooks), **not** ``wake``/``receive`` (the runtime entry
points).  ``receive`` on a sleeping node calls ``wake`` internally; the
hook-level wrappers attribute the wake-up sends to ``"wake"`` and only
the subsequent handler sends to the message kind, matching how the
analyzer splits the effects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .automaton import WAKE, FlowAutomaton

if TYPE_CHECKING:
    from repro.core.node import Node
    from repro.sim.network import Network

#: Default probe size: small enough that every protocol finishes in
#: milliseconds, a power of two so the tournament protocols (B, C)
#: accept it, and large enough that O(num_ports) bounds are not
#: accidentally satisfied by constant behaviour.
PROBE_N = 8


def _instrument_node(
    node: "Node", network: "Network", measured: dict[str, int]
) -> None:
    """Wrap one node's protocol hooks to record per-activation fan-out.

    ``measured`` maps trigger key -> max messages sent by one activation
    with that trigger, aggregated across all nodes of the network.
    """
    original_wake = node.on_wake
    original_message = node.on_message

    def on_wake(spontaneous: bool) -> None:
        before = network._messages_total
        original_wake(spontaneous)
        delta = network._messages_total - before
        if delta > measured.get(WAKE, -1):
            measured[WAKE] = delta

    def on_message(port: int, message: Any) -> None:
        before = network._messages_total
        original_message(port, message)
        delta = network._messages_total - before
        kind = message.type_name
        if delta > measured.get(kind, -1):
            measured[kind] = delta

    # Instance attributes shadow the class methods; the runtime entry
    # points (wake/receive) dispatch through ``self.on_*`` and pick the
    # wrappers up transparently.
    node.on_wake = on_wake  # type: ignore[method-assign]
    node.on_message = on_message  # type: ignore[method-assign]


def _trigger_bound(
    automaton: FlowAutomaton, trigger: str, num_ports: int
) -> int | None:
    """Static bound for one trigger at ``num_ports`` (None = unbounded).

    A trigger the automaton never saw (a kind with no matching handler
    arm, delivered anyway) falls back to the automaton-wide maximum so
    the probe still has *a* bound to hold the runtime to.
    """
    flow = automaton.handlers.get(trigger)
    if flow is not None:
        return flow.bound(num_ports)
    return automaton.max_fanout.bound(num_ports)


def probe_protocol_instance(
    protocol: Any,
    automaton: FlowAutomaton,
    *,
    n: int = PROBE_N,
    seed: int = 0,
) -> dict[str, Any]:
    """Run one instrumented benign election and compare against bounds.

    Returns a JSON-ready verdict.  The payload deliberately contains no
    wall-clock times and no worker counts: it is embedded in the
    ``check --all`` digest, which must be schedule-host-deterministic.
    """
    from repro.sim.network import Network
    from repro.topology.complete import (
        complete_with_sense_of_direction,
        complete_without_sense,
    )

    topology = (
        complete_with_sense_of_direction(n)
        if protocol.needs_sense_of_direction
        else complete_without_sense(n, seed=0)
    )
    network = Network(protocol, topology, seed=seed)
    measured: dict[str, int] = {}
    for node in network.nodes:
        _instrument_node(node, network, measured)
    result = network.run()

    num_ports = topology.num_ports
    per_trigger: dict[str, dict[str, Any]] = {}
    violations: list[dict[str, Any]] = []
    for trigger in sorted(measured):
        bound = _trigger_bound(automaton, trigger, num_ports)
        observed = measured[trigger]
        per_trigger[trigger] = {"measured": observed, "bound": bound}
        if bound is not None and observed > bound:
            violations.append(
                {"trigger": trigger, "measured": observed, "bound": bound}
            )
    return {
        "n": n,
        "num_ports": num_ports,
        "max_fanout": automaton.max_fanout.describe(),
        "static_bound": automaton.max_fanout.bound(num_ports),
        "measured_max": max(measured.values(), default=0),
        "leader_id": result.leader_id,
        "messages_total": result.messages_total,
        "per_trigger": per_trigger,
        "violations": violations,
        "ok": not violations,
    }


def probe_protocol_class(
    protocol_cls: type, *, n: int = PROBE_N, seed: int = 0
) -> dict[str, Any]:
    """Analyze + probe one protocol class (used by tests for fixtures)."""
    from .automaton import analyze_protocol

    automaton = analyze_protocol(protocol_cls)
    return probe_protocol_instance(protocol_cls(), automaton, n=n, seed=seed)
