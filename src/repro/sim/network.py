"""The network runtime: topology + protocol + scheduler + adversaries.

:class:`Network` wires a :class:`~repro.topology.complete.CompleteTopology`
to one :class:`~repro.core.protocol.ElectionProtocol`, drives the event loop
and produces an :class:`~repro.core.results.ElectionResult`.

Model guarantees enforced here (Section 2 of the paper):

* reliable FIFO links with per-message latency in ``(0, 1]`` chosen by the
  :class:`~repro.sim.delays.DelayModel` (the asynchronous adversary);
* passive nodes wake when their first message arrives, and such nodes are
  not base nodes;
* every message is audited against the O(log N)-bit budget;
* at most one leader may ever be declared — a second declaration raises
  :class:`~repro.core.errors.ProtocolViolation` at the exact instant of the
  violation, with both culprits named.

Failure injection (for the fault-tolerant protocol): positions listed in
``failed_positions`` model the paper's *initial site failures* — they never
wake, never send, and silently drop everything addressed to them.
``crash_schedule`` additionally kills nodes *mid-run* (``{position:
time}``): from that instant the node drops incoming messages and any send
it attempts raises.  The paper's protocols make no promises about mid-run
crashes (a purely asynchronous network cannot detect them — the FLP
boundary), so these runs are expected to hang candidates; the facility
exists to *demonstrate* that boundary and to fuzz the protocols' state
machines, not to model a tolerated fault.  A crash at t=0.0 is *not* the
same as an initial failure — the crashed node's links exist and its crash
is reported in ``crashed_positions``, so the two stay distinguishable (and
listing a position in both is rejected as a configuration error).

Link faults: passing a :class:`~repro.sim.faults.FaultPlan` as ``faults``
installs seeded per-link drop/duplication/jitter/partition injection (and
generalised crash-stop via ``FaultPlan.crashes``, which merges into the
crash schedule).  See :mod:`repro.sim.faults` and docs/faults.md; with no
plan installed the compiled send carries no fault code and the pipeline
pays a single attribute test, the same zero-cost-off discipline as
tracing; with a plan installed the compiled send runs its verdict inline.

One runtime core: :class:`SendPath` holds what the serial :class:`Network`
and the sharded kernel's shards (:mod:`repro.sim.shard`) share — the
per-run state, the send pipeline, the delivery, wake and crash handlers
that :class:`~repro.sim.scheduler.Scheduler` dispatches in both, the
leader-uniqueness check (:func:`leader_conflict`) and the final tally,
which :func:`fold_result` turns into the
:class:`~repro.core.results.ElectionResult`.  Each runtime adds only where
its sends go and how its timers rank.

Hot-path design (see docs/performance.md): the first send of each message
class compiles a fused send function for it (:func:`_compile_send`), shared
by both runtimes and cached per set of baked-in constants — including the
fault verdict when a plan is installed, nested envelope payloads (audited
with :func:`message_bits`), run-RNG :class:`UniformDelay` draws and direct
reads of a table wiring; only tracing and values outside the declared
field types take the :meth:`SendPath._transmit` pipeline.  Deliveries ride
the heap as plain tuples handled by one preallocated bound method that
calls an awake node's ``on_message`` inline; tracing is a single attribute
test when disabled; per-link FIFO state is two flat dicts; and
message/bit/depth counters accumulate in plain attributes that are
tallied once, at quiescence.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import fields as _dataclass_fields
from heapq import heappush
from typing import Any

from repro.core.errors import ProtocolViolation, SimulationError
from repro.core.messages import (
    MAX_INT_FIELDS,
    TYPE_TAG_BITS,
    Message,
    _word_bits,
    message_bits,
)
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol
from repro.core.results import ElectionResult
from repro.sim.delays import ConstantDelay, DelayModel, UniformDelay
from repro.sim.faults import COMPILED_TWIN, COMPILED_VERDICT, FaultPlan
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import node_stream
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer
from repro.topology.complete import CompleteTopology

#: A wake-up schedule maps base-node *positions* to spontaneous wake times.
WakeupSchedule = Mapping[int, float]
WakeupFactory = Callable[[CompleteTopology, random.Random], WakeupSchedule]

#: The collector's young-generation threshold while a run builds its nodes
#: or runs (the interpreter's default is 700).
_YOUNG_THRESHOLD = 20_000


@contextmanager
def spaced_young_collections() -> Iterator[None]:
    """The one collector policy of both runtimes, for the ``with`` block.

    Node construction, the heap's entries and a shard window's decoded
    records all allocate objects that live on: a young pass every 700
    allocations would only traverse them and promote them towards full
    collections.  The block raises the young threshold to
    :data:`_YOUNG_THRESHOLD` (unless the caller switched automatic
    collection off) and restores the caller's thresholds on every exit.
    """
    thresholds = gc.get_threshold()
    if thresholds[0]:
        gc.set_threshold(max(thresholds[0], _YOUNG_THRESHOLD), *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


def resolve_wakeup(
    spec: WakeupSchedule | WakeupFactory | None,
    topology: CompleteTopology,
    failed_positions: frozenset[int],
    rng: random.Random,
) -> dict[int, float]:
    """Materialise a wake-up schedule (default: everyone at t=0).

    Shared by :class:`Network` and the sharded kernel so both resolve the
    same spec to the same schedule — factories draw from ``rng`` *before*
    any other consumer, which is what keeps factory-produced schedules
    identical between serial and sharded runs of the same seed.
    """
    if spec is None:
        schedule = {p: 0.0 for p in range(topology.n)}
    elif callable(spec):
        schedule = dict(spec(topology, rng))
    else:
        schedule = dict(spec)
    schedule = {p: t for p, t in schedule.items() if p not in failed_positions}
    if not schedule:
        raise SimulationError("wake-up schedule contains no live base node")
    for position, time in schedule.items():
        if not 0 <= position < topology.n:
            raise SimulationError(f"wake position {position} out of range")
        if time < 0:
            raise SimulationError(f"negative wake time {time}")
    return schedule


def merge_crash_schedule(
    crash_schedule: Mapping[int, float] | None, faults: FaultPlan | None
) -> dict[int, float]:
    """Fold a fault plan's crashes into an explicit crash schedule."""
    merged = dict(crash_schedule or {})
    if faults is not None:
        for position, time in faults.crashes.items():
            existing = merged.get(position)
            if existing is not None and existing != time:
                raise SimulationError(
                    f"position {position} has conflicting crash times: "
                    f"{existing} (crash_schedule) vs {time} (fault plan)"
                )
            merged[position] = time
    return merged


def validate_failure_config(
    n: int,
    failed_positions: frozenset[int],
    crash_schedule: Mapping[int, float],
) -> None:
    """Reject out-of-range/contradictory failure configurations.

    One validation path for every runtime (serial network, sharded
    kernel), so misconfiguration errors are identical wherever a run is
    executed.
    """
    bad = [p for p in failed_positions if not 0 <= p < n]
    if bad:
        raise SimulationError(f"failed positions out of range: {bad}")
    bad = [p for p in crash_schedule if not 0 <= p < n]
    if bad:
        raise SimulationError(f"crash positions out of range: {bad}")
    bad = [p for p, t in sorted(crash_schedule.items()) if t < 0]
    if bad:
        raise SimulationError(f"negative crash times for positions: {bad}")
    overlap = sorted(failed_positions & crash_schedule.keys())
    if overlap:
        raise SimulationError(
            f"positions {overlap} are both initially failed and scheduled "
            "to crash; an initially-failed node never existed at runtime, "
            "so crashing it is contradictory (a crash at t=0.0 is the "
            "distinguishable alternative)"
        )


def leader_conflict(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    first: tuple[int, float, int],
    second: tuple[int, float, int],
) -> ProtocolViolation:
    """The violation two leader declarations raise, in every runtime.

    ``first`` and ``second`` are ``(position, time, depth)`` declarations
    in either order; the earlier one is the incumbent.  The serial kernel,
    a shard and the sharded coordinator all build the error here, so a
    conflict reads the same wherever it is caught.
    """
    if second[1] < first[1]:
        first, second = second, first
    return ProtocolViolation(
        f"{protocol.name}: node {topology.id_at(second[0])} declared leader "
        f"at t={second[1]} but node {topology.id_at(first[0])} already had"
    )


def fold_result(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    tallies: list[dict[str, Any]],
    *,
    quiescent_at: float,
    failed_positions: frozenset[int],
    trace: Tracer,
) -> ElectionResult:
    """Assemble the :class:`ElectionResult` from per-runtime tallies.

    Each tally is a :meth:`SendPath._tally`.  The serial kernel passes its
    one tally; the sharded coordinator passes one per shard, with base
    positions and snapshots already merged into position order (the lists
    are concatenated tally by tally), having already refused a second
    leader at the window barriers.
    """

    def total(key: str) -> int:
        return sum(tally[key] for tally in tallies)

    by_type: Counter = Counter()
    for tally in tallies:
        by_type.update(tally["type_counts"])
    first_wake = min(
        (t["first_wake"] for t in tallies if t["first_wake"] is not None),
        default=None,
    )
    last_wake = max(
        (t["last_wake"] for t in tallies if t["last_wake"] is not None),
        default=None,
    )
    leader = next((t["leader"] for t in tallies if t["leader"]), None)
    position, elected_at, depth = leader or (None, None, None)
    return ElectionResult(
        n=topology.n,
        protocol=protocol.describe(),
        leader_id=topology.id_at(position) if position is not None else None,
        leader_position=position,
        elected_at=elected_at,
        election_time=(
            elected_at - first_wake
            if elected_at is not None and first_wake is not None
            else float("inf")
        ),
        election_depth=depth,
        messages_total=total("messages_total"),
        bits_total=total("bits_total"),
        messages_by_type=dict(by_type),
        max_depth=max(tally["max_depth"] for tally in tallies),
        quiescent_at=quiescent_at,
        first_wake_time=first_wake,
        last_wake_time=last_wake,
        base_positions=tuple(p for t in tallies for p in t["base_positions"]),
        failed_positions=tuple(sorted(failed_positions)),
        node_snapshots=tuple(
            snapshot for t in tallies for snapshot in t["snapshots"] or ()
        ),
        trace=trace,
        crashed_positions=tuple(sorted(p for t in tallies for p in t["crashed"])),
        max_channel_load=max(tally["max_channel_load"] for tally in tallies),
        messages_dropped=total("dropped"),
        messages_duplicated=total("duplicated"),
        messages_jittered=total("jittered"),
        retransmissions=total("retransmissions"),
        duplicates_suppressed=total("duplicates_suppressed"),
        packets_abandoned=total("packets_abandoned"),
    )


#: Compiled send functions, keyed by the message class and every constant
#: they bake in, so runs of one shape share them (``exec`` is not cheap).
_SEND_CACHE: dict[tuple, Callable] = {}

#: Field annotation -> its kind in a compiled send.  A field annotated
#: otherwise (``None``-able, tuple) keeps its class on the pipeline.
_FIELD_KINDS = {
    "int": "int", int: "int", "bool": "bool", bool: "bool",
    "Message": "message", Message: "message",
}

#: Each kind's guard; a value failing it sends through the pipeline.
_FIELD_GUARDS = {
    "bool": "(v{i} is True or v{i} is False)",
    "int": "type(v{i}) is int",
    "message": "isinstance(v{i}, _Message)",
}

def _compile_send(
    cls: type,
    kinds: tuple[str, ...],
    n: int,
    num_ports: int,
    wiring: str,
    latency: float | tuple[float, float] | None,
    faulty: bool,
    tail: tuple,
) -> Callable:
    """Exec-compile the fused send of one message class.

    Straight-line code for what :meth:`SendPath._transmit` does — port
    check, bit audit (a literal, plus :func:`message_bits` of each nested
    message), per-type tally, wiring, FIFO arrival, and with ``faulty``
    the fault verdict — with ``n``, the wiring and the latency baked in,
    ending in the runtime's ``tail`` (see :meth:`SendPath._send_tail`).
    ``wiring`` is ``"cyclic"`` (arithmetic), ``"table"`` (the topology's
    port rows, read directly) or ``"methods"``; ``latency`` is a constant,
    a run-RNG uniform ``(low, high - low)`` or None (the delay model).  A
    send outside the envelope (a bad port, or a value that is ``None`` or
    not of its declared type) takes the pipeline, which is the reference.
    Only a run-RNG uniform latency records the link's last arrival for
    the FIFO clamp: a constant one cannot reorder a link.
    """
    _key, guards, hand_off, namespace = tail
    names = [f.name for f in _dataclass_fields(cls)]
    ints = kinds.count("int")
    nested = [i for i, kind in enumerate(kinds) if kind == "message"]
    bits = TYPE_TAG_BITS + _word_bits(n) * ints + kinds.count("bool")
    checks = [*guards, f"0 <= port < {num_ports}"] + [
        _FIELD_GUARDS[kind].format(i=i) for i, kind in enumerate(kinds)
    ]
    if nested:
        # Nested payloads are audited in full before anything is counted,
        # so an oversized one raises exactly as the pipeline does.
        audit = [
            f"        bits = {bits}"
            + "".join(f" + _bits(v{i}, {n})" for i in nested)
        ]
        charge = "        self._bits_total += bits"
        namespace = {**namespace, "_Message": Message, "_bits": message_bits}
    else:
        audit = []
        charge = f"        self._bits_total += {bits}"
    if wiring == "cyclic":
        # Sense-of-direction wiring is arithmetic: inline it.
        wiring_lines = [
            "        far = position + port + 1",
            f"        if far >= {n}:",
            f"            far -= {n}",
            f"        far_port = {n - 2} - port",
        ]
    elif wiring == "table":
        wiring_lines = [
            "        topology = self.topology",
            "        far = topology._port_neighbor[position][port]",
            "        inverse = topology._inverse_rows[far]",
            "        if inverse is None:",
            "            inverse = topology._inverse_row(far)",
            "        far_port = inverse[position]",
        ]
    else:
        wiring_lines = [
            "        topology = self.topology",
            "        far = topology.neighbor(position, port)",
            "        far_port = topology.reverse_port(position, port)",
        ]
    if latency is None:
        arrival = [
            "        arrival = self.link_arrival(",
            "            position, far, m, self.scheduler._now",
            "        )",
        ]
    else:
        if isinstance(latency, tuple):
            # ``rng.uniform(low, high)`` is ``low + (high - low) * random()``.
            low, span = latency
            delay = f"({low!r} + {span!r} * self.rng.random())"
            clamp = [
                "        lasts = self._lasts",
                "        last = lasts.get(link)",
                "        if last is not None and arrival < last:",
                "            arrival = last",
                "        lasts[link] = arrival",
            ]
        else:
            # The clock never goes back and ``now + latency`` is monotone
            # in ``now``: a constant latency cannot reorder a link.
            delay = repr(latency)
            clamp = []
        arrival = [
            f"        arrival = self.scheduler._now + {delay}",
            f"        link = position * {n} + far",
            *clamp,
            "        loads = self._loads",
            "        loads[link] = loads.get(link, 0) + 1",
        ]
    defaults = "".join(f", {name}={name}" for name in namespace)
    lines = [
        f"def _send(self, position, port, m{defaults}):",
        *(f"    v{i} = m.{name}" for i, name in enumerate(names)),
        "    if (" + "\n            and ".join(checks) + "):",
        *audit,
        *wiring_lines,
        "        self._messages_total += 1",
        charge,
        f"        self._type_counts[{cls.__name__!r}] += 1",
        *arrival,
        *(COMPILED_VERDICT if faulty else ()),
        *hand_off,
        *(COMPILED_TWIN if faulty else ()),
        "        return",
        "    self._transmit(position, port, m)",
    ]
    scope: dict[str, Any] = dict(namespace)
    # One file name per class keeps the sends apart in profiles.
    code = compile("\n".join(lines), f"<send {cls.__qualname__}>", "exec")
    exec(code, scope)  # noqa: S102 - trusted codegen
    return scope["_send"]


class SendPath:
    """The runtime core shared by the serial network and the shards.

    It owns everything both runtimes do the same way: the per-run state
    (scheduler, per-link FIFO state, failure sets, the bound fault plan
    and delay model, the accounting accumulators), the per-send pipeline
    — port validation, bit audit, per-type tally, FIFO arrival and the
    fault verdict — the compiled sends that fuse it, the leader-uniqueness
    check, and the final :meth:`_tally`.  A pipeline send ends in one
    :meth:`_dispatch_send` call that each runtime binds to its own
    delivery machinery (the serial :class:`Network` schedules a heap
    entry, and a shard buffers the send until the window barrier); a
    compiled send ends in the same hand-off, generated from
    :meth:`_send_tail`.  There is exactly one definition of what a send
    does, which is what keeps the runtimes byte-identical.

    Both runtimes dispatch the same heap entries through one
    :meth:`~repro.sim.scheduler.Scheduler.run` loop into the handlers
    here: :meth:`_deliver_entry`, :meth:`_wake_entry` and
    :meth:`_crash_entry` (timers stay per runtime, since a shard ranks
    them).  Each handler records its entry as ``_current_entry``, which a
    shard reads as the rank of the sends the event makes.

    Hosts set ``protocol``, ``nodes`` (their owned nodes, in position
    order) and ``_node_at`` (a table indexed by position, holding the
    owned nodes).  Hosts that trace set ``_tracing`` and ``tracer``;
    the others never touch ``tracer``.
    """

    def __init__(
        self,
        topology: CompleteTopology,
        delays: DelayModel | None,
        failed_positions: frozenset[int] | set[int],
        crash_schedule: Mapping[int, float] | None,
        faults: FaultPlan | None,
        seed: int,
        max_events: int,
    ) -> None:
        self.topology = topology
        #: The run's own view of the delay model (see DelayModel.bind).
        self.delays = (
            delays if delays is not None else ConstantDelay(1.0)
        ).bind()
        self.seed = seed
        self.rng = random.Random(seed)
        self.scheduler = Scheduler(max_events=max_events)
        self.metrics = MetricsCollector()
        self.failed_positions = frozenset(failed_positions)
        self.crash_schedule = merge_crash_schedule(crash_schedule, faults)
        validate_failure_config(
            topology.n, self.failed_positions, self.crash_schedule
        )
        self._crashed: set[int] = set()
        self._has_failures = bool(self.failed_positions) or bool(
            self.crash_schedule
        )
        #: Per-run fault state; ``None`` (no plan) compiles sends without
        #: a verdict and costs the pipeline one attribute test.
        self._faults = faults.bind() if faults is not None else None
        self.fault_plan = faults

        # Hot-path state: ids/num_ports as plain attributes and counters as
        # local accumulators, tallied once at quiescence.
        self._ids = topology.ids
        self._num_ports = topology.num_ports
        self._n = topology.n
        self._messages_total = 0
        self._bits_total = 0
        self._type_counts: dict[str, int] = {}
        self._max_depth = 0
        self._dropped = 0
        self._duplicated = 0
        self._jittered = 0
        #: Per directed link ``position * n + far``: last arrival (kept by
        #: the sends whose latency can vary) and load.
        self._lasts: dict[int, float] = {}
        self._loads: dict[int, int] = {}
        #: Message class -> its send function: compiled, or the pipeline.
        self._send_fns: dict[type, Callable] = {}
        #: The first leader declared here: ``(position, time, depth)``.
        self._leader: tuple[int, float, int] | None = None
        # Constant latency with the default zero gap needs no per-message
        # delay-model dispatch (and consumes no randomness): the arrival is
        # just the FIFO clamp of ``now + delay``.  A run-RNG uniform draws
        # ``rng.uniform(low, high)`` inline, as ``(low, high - low)``.
        #: The latency a compiled send inlines, or None (the delay model).
        self._inline_latency: float | tuple[float, float] | None = None
        delays = self.delays
        if type(delays) is ConstantDelay and type(delays).gap is DelayModel.gap:
            self._inline_latency = delays.delay
        elif type(delays) is UniformDelay and delays.uses_run_rng:
            self._inline_latency = (delays.low, delays.high - delays.low)
        self._current_depth = 0
        self._tracing = False
        #: The entry being dispatched (see the class docstring).
        self._current_entry: tuple | None = None

    def _dispatch_send(
        self,
        arrival: float,
        far: int,
        far_port: int,
        message: Message,
        sender_id: int,
    ) -> None:
        raise NotImplementedError

    def _send_tail(self) -> tuple:
        """This runtime's part of every compiled send.

        ``(cache key, extra guards, tail lines, namespace)``: the guards
        join the fast path's condition, and the tail lines hand the send
        (``far``, ``far_port``, ``m``, ``arrival``) to the runtime's
        delivery machinery.
        """
        raise NotImplementedError

    def _send_fn(self, cls: type) -> Callable:
        """Find (and remember) the send function for message class ``cls``.

        Compiled when the run is not traced and every field of ``cls`` is
        declared ``int``, ``bool`` or ``Message`` (at most
        :data:`MAX_INT_FIELDS` ints); :meth:`_transmit` otherwise.  A
        fault plan compiles its verdict into the send, and a run-RNG
        :class:`UniformDelay` its draw.
        """
        fn: Callable = SendPath._transmit
        kinds = tuple(_FIELD_KINDS.get(f.type) for f in _dataclass_fields(cls))
        if (
            not self._tracing
            and None not in kinds
            and kinds.count("int") <= MAX_INT_FIELDS
        ):
            tail = self._send_tail()
            topology = self.topology
            if getattr(topology, "_cyclic", False):
                wiring = "cyclic"
            elif type(topology) is CompleteTopology:
                wiring = "table"
            else:
                wiring = "methods"
            faulty = self._faults is not None
            latency = self._inline_latency
            num_ports = self._num_ports
            key = (cls, self._n, num_ports, wiring, latency, faulty, tail[0])
            fn = _SEND_CACHE.get(key)
            if fn is None:
                fn = _SEND_CACHE[key] = _compile_send(
                    cls, kinds, self._n, num_ports, wiring, latency, faulty,
                    tail,
                )
            # The compiled tally increments in place.
            self._type_counts.setdefault(cls.__name__, 0)
        self._send_fns[cls] = fn
        return fn

    def link_arrival(
        self, position: int, far: int, message: Message, send_time: float
    ) -> float:
        """The FIFO arrival of ``message`` on the link ``position -> far``.

        Section 2's "arrive in the order sent": the delay model picks the
        latency and the spacing after the link's previous arrival, and the
        arrival is clamped to be no earlier than that previous one, so FIFO
        holds for any model.  Models are addressed by identity, so
        adversarial strategies can condition on the ids the paper's
        constructions talk about.  Records the arrival and counts the
        message against the link's load.
        """
        ids = self._ids
        delays = self.delays
        rng = self.rng
        sender_id, receiver_id = ids[position], ids[far]
        latency = delays.latency(sender_id, receiver_id, message, send_time, rng)
        gap = delays.gap(sender_id, receiver_id, message, send_time, rng)
        link = position * self._n + far
        last = self._lasts.get(link, 0.0)
        arrival = max(send_time + latency, last + gap)
        if arrival < last:  # pragma: no cover - defensive
            arrival = last
        self._lasts[link] = arrival
        loads = self._loads
        loads[link] = loads.get(link, 0) + 1
        return arrival

    def _transmit(self, position: int, port: int, message: Message) -> None:
        """Node ``position`` sends ``message`` through ``port``.

        The reference pipeline every compiled send must match.  With a
        :class:`FaultPlan` installed, the plan's per-link verdict runs
        after the FIFO arrival is computed.  A dropped message still
        *counts* as sent (loss is the gap between sent and delivered), and
        jitter is added on top without advancing the link's FIFO clock, so
        reordering stays bounded by the plan's ``jitter``.
        """
        if not 0 <= port < self._num_ports:
            raise SimulationError(
                f"node {self._ids[position]} used invalid port {port}"
            )
        bits = message_bits(message, self._n)
        self._messages_total += 1
        self._bits_total += bits
        type_name = message.type_name
        counts = self._type_counts
        counts[type_name] = counts.get(type_name, 0) + 1
        topology = self.topology
        far = topology.neighbor(position, port)
        far_port = topology.reverse_port(position, port)
        sender_id = self._ids[position]
        receiver_id = self._ids[far]
        now = self.scheduler.now
        if self._tracing:
            self.tracer.record(
                now, "send", sender_id, to=receiver_id, message=type_name
            )
        arrival = self.link_arrival(position, far, message, now)
        if self._faults is None:
            self._dispatch_send(arrival, far, far_port, message, sender_id)
            return
        copies, jitter, dup_jitter, reason = self._faults.judge(
            sender_id, receiver_id, now
        )
        if copies == 0:
            self._dropped += 1
            if self._tracing:
                self.tracer.record(
                    now, "drop", sender_id, to=receiver_id,
                    message=type_name, reason=reason,
                )
            return
        if jitter > 0.0:
            self._jittered += 1
            if self._tracing:
                self.tracer.record(
                    now, "jitter", sender_id, to=receiver_id,
                    message=type_name, delay=jitter,
                )
        self._dispatch_send(arrival + jitter, far, far_port, message, sender_id)
        if copies == 2:
            self._duplicated += 1
            if self._tracing:
                self.tracer.record(
                    now, "duplicate", sender_id, to=receiver_id,
                    message=type_name,
                )
            self._dispatch_send(
                arrival + dup_jitter, far, far_port, message, sender_id
            )

    # -- entry handlers (one definition for both runtimes) -----------------

    def _deliver_entry(self, entry: tuple) -> None:
        """Hand a message to its destination node (or drop it if failed).

        ``entry`` is ``(time, key, action, depth, position, port,
        message)``; the serial network appends the sender id, which only
        tracing reads.  An awake node's ``on_message`` runs inline, with no
        ``Node.receive`` frame, and the depth needs no restore because
        every handler sets its own.
        """
        self._current_entry = entry
        depth = entry[3]
        position = entry[4]
        if depth > self._max_depth:
            self._max_depth = depth
        if self._has_failures and (
            position in self.failed_positions or position in self._crashed
        ):
            return
        self._current_depth = depth
        node = self._node_at[position]
        if self._tracing:
            self.tracer.record(
                entry[0], "deliver", self._ids[position],
                message=entry[6].type_name, sender=entry[7],
            )
        if node.awake:
            node.on_message(entry[5], entry[6])
        else:
            self.metrics.on_wake(entry[0])
            node.receive(entry[5], entry[6])

    def _wake_entry(self, entry: tuple) -> None:
        """Wake a base node, unless it crashed or a message woke it first."""
        self._current_entry = entry
        self._current_depth = 0
        position = entry[4]
        node = self._node_at[position]
        if position not in self._crashed and not node.awake:
            self.metrics.on_wake(entry[0])
            node.wake(spontaneous=True)

    def _crash_entry(self, entry: tuple) -> None:
        """Crash-stop a node: it drops every later delivery and timer."""
        self._current_entry = entry
        position = entry[4]
        self._crashed.add(position)
        if self._tracing:
            self.tracer.record(entry[0], "crash", self._ids[position])

    def _on_leader_declared(self, position: int) -> None:
        """Record the first declaration; a second leader is a violation."""
        declared = (position, self.scheduler.now, self._current_depth)
        leader = self._leader
        if leader is None:
            self._leader = declared
        elif leader[0] != position:
            raise leader_conflict(self.protocol, self.topology, leader, declared)

    def _tally(self, positions: range, snapshots: bool) -> dict[str, Any]:
        """This runtime's accounting for :func:`fold_result`.

        ``positions`` are the owned positions, in the order of ``nodes``.
        """
        metrics = self.metrics
        return {
            "messages_total": self._messages_total,
            "bits_total": self._bits_total,
            # Compiled classes are seeded with 0 (see :meth:`_send_fn`).
            "type_counts": {
                name: count for name, count in self._type_counts.items() if count
            },
            "max_depth": self._max_depth,
            "dropped": self._dropped,
            "duplicated": self._duplicated,
            "jittered": self._jittered,
            "retransmissions": metrics.retransmissions,
            "duplicates_suppressed": metrics.duplicates_suppressed,
            "packets_abandoned": metrics.packets_abandoned,
            "first_wake": metrics.first_wake_time,
            "last_wake": metrics.last_wake_time,
            "leader": self._leader,
            "processed": self.scheduler.events_processed,
            # The congestion story of Section 4 in one number: under AG85
            # a hotspot's owner link carries Θ(N) forwarded claims; ℰ's
            # flow control caps it.
            "max_channel_load": max(self._loads.values(), default=0),
            # A node scheduled to wake spontaneously may have been woken
            # earlier by a message, in which case it is *not* a base node.
            "base_positions": [
                position
                for position, node in zip(positions, self.nodes)
                if node.is_base
            ],
            "crashed": sorted(self._crashed),
            "snapshots": (
                [node.snapshot() for node in self.nodes] if snapshots else None
            ),
        }


class _BoundContext(NodeContext):
    """The capability handle handed to one node, in either runtime."""

    def __init__(self, network: SendPath, position: int) -> None:
        topology = network.topology
        self._network = network
        self._position = position
        self.node_id = topology.id_at(position)
        self.n = topology.n
        self.num_ports = topology.num_ports
        self.has_sense_of_direction = topology.sense_of_direction
        self._rng: random.Random | None = None

    def send(self, port: int, message: Message) -> None:
        """Dispatch to the message class's send function.

        (A monomorphic inline cache — binding the first class's compiled
        function over this method per instance — was tried and reverted:
        election nodes are heavily polymorphic senders, so the class guard
        failed on ~3/4 of sends and the re-dispatch cost more than the
        saved frame.)
        """
        network = self._network
        cls = type(message)
        fn = network._send_fns.get(cls)
        if fn is None:
            fn = network._send_fn(cls)
        fn(network, self._position, port, message)

    def port_label(self, port: int) -> int | None:  # noqa: D102
        return self._network.topology.label(self._position, port)

    def port_with_label(self, distance: int) -> int:  # noqa: D102
        return self._network.topology.port_with_label(self._position, distance)

    def now(self) -> float:  # noqa: D102
        return self._network.scheduler.now

    def declare_leader(self) -> None:  # noqa: D102
        self._network._on_leader_declared(self._position)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Arm a one-shot timer; see :meth:`NodeContext.set_timer`."""
        self._network._schedule_timer(self._position, delay, callback)

    def count(self, metric: str, delta: int = 1) -> None:  # noqa: D102
        self._network.metrics.bump(metric, delta)

    def rng(self) -> random.Random:
        """This node's ``(run_seed, node_id)``-derived stream (lazy)."""
        stream = self._rng
        if stream is None:
            stream = self._rng = node_stream(self._network.seed, self.node_id)
        return stream

    def trace(self, kind: str, **detail: Any) -> None:  # noqa: D102
        network = self._network
        if network._tracing:
            network.tracer.record(
                network.scheduler.now, kind, self.node_id, **detail
            )


class Network(SendPath):
    """One runnable election instance."""

    def __init__(
        self,
        protocol: ElectionProtocol,
        topology: CompleteTopology,
        *,
        delays: DelayModel | None = None,
        wakeup: WakeupSchedule | WakeupFactory | None = None,
        failed_positions: frozenset[int] | set[int] = frozenset(),
        crash_schedule: Mapping[int, float] | None = None,
        faults: FaultPlan | None = None,
        seed: int = 0,
        trace: bool = False,
        max_events: int = 5_000_000,
    ) -> None:
        protocol.validate(topology)
        super().__init__(
            topology, delays, failed_positions, crash_schedule, faults, seed,
            max_events,
        )
        self.protocol = protocol
        self.tracer = Tracer(enabled=trace)
        self._tracing = trace
        self._wakeup_spec = wakeup
        self._ran = False
        self._schedule_payload = self.scheduler.schedule_payload
        # What compiled sends push to: the event queue and the delivery
        # handler, bound once.
        self._queue = self.scheduler._queue
        self._deliver = self._deliver_entry
        with spaced_young_collections():
            self.nodes: list[Node] = [
                protocol.create_node(_BoundContext(self, position))
                for position in range(topology.n)
            ]
        self._node_at = self.nodes

    # -- wiring ---------------------------------------------------------------

    def _resolve_wakeup(self) -> dict[int, float]:
        """Materialise the wake-up schedule (default: everyone at t=0)."""
        return resolve_wakeup(
            self._wakeup_spec, self.topology, self.failed_positions, self.rng
        )

    def _dispatch_send(
        self,
        arrival: float,
        far: int,
        far_port: int,
        message: Message,
        sender_id: int,
    ) -> None:
        """Serial delivery: one payload-carrying heap entry per message."""
        self._schedule_payload(
            arrival,
            self._deliver,
            self._current_depth + 1,
            (far, far_port, message, sender_id),
        )

    def _send_tail(self) -> tuple:
        """A compiled serial send schedules its delivery entry itself.

        The entry is :meth:`_dispatch_send`'s.  Under a constant latency
        with no fault plan, every arrival is ``now + latency`` with the
        next ``seq``, both monotone, so the send appends the entry to the
        queue's in-order lane.  Under a run-RNG uniform latency, or with a
        fault plan's jitter, it pushes the entry with one ``heappush`` (the
        arrival is computed inline, so it is never in the past).  Other
        delay models hand off to :meth:`_dispatch_send`.
        """
        latency = self._inline_latency
        if latency is None:
            hand_off = [
                "        self._dispatch_send(",
                "            arrival, far, far_port, m, self._ids[position]",
                "        )",
            ]
            return ("serial",), (), hand_off, {}
        if isinstance(latency, tuple) or self._faults is not None:
            push, namespace = "_push(queue.heap, (", {"_push": heappush}
        else:
            push, namespace = "queue.lane.append((", {}
        hand_off = [
            "        queue = self._queue",
            "        seq = queue._seq",
            "        queue._seq = seq + 1",
            f"        {push}",
            "            arrival, seq, self._deliver, self._current_depth + 1,",
            "            far, far_port, m, self._ids[position],",
            "        ))",
        ]
        return ("serial",), (), hand_off, namespace

    def _schedule_timer(
        self, position: int, delay: float, callback: Callable[[], None]
    ) -> None:
        """Arm a one-shot timer for ``position`` (``NodeContext.set_timer``).

        Timers ride the same payload fast path as deliveries but with
        tiebreak 1, so a delivery (or ack) landing at the exact timeout
        instant is processed first and a retransmission overlay never
        retransmits something already acknowledged "now".
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        self._schedule_payload(
            self.scheduler.now + delay,
            self._timer_entry,
            self._current_depth,
            (position, callback),
            1,
        )

    def _timer_entry(self, entry: tuple) -> None:
        """Fire a timer callback unless its owner has failed or crashed."""
        position = entry[4]
        if self._has_failures and (
            position in self.failed_positions or position in self._crashed
        ):
            return
        self._current_depth = entry[3]
        entry[5]()

    # -- running ---------------------------------------------------------------

    def run(
        self, *, until: float | None = None, require_leader: bool = True
    ) -> ElectionResult:
        """Execute to quiescence (or ``until``) and return the result.

        With ``require_leader=True`` (default) the result is also verified:
        liveness, safety and validity per :meth:`ElectionResult.verify`.
        """
        if self._ran:
            raise SimulationError("a Network instance can only run once")
        self._ran = True

        schedule_payload = self._schedule_payload
        with spaced_young_collections():
            for position, time in self._resolve_wakeup().items():
                schedule_payload(time, self._wake_entry, 0, (position,), -1)
            # Crashes win ties against wakes and deliveries at the same
            # instant: the adversary kills the node before it can act.
            for position, time in self.crash_schedule.items():
                schedule_payload(time, self._crash_entry, 0, (position,), -2)
            self.scheduler.run(until=until)
            result = fold_result(
                self.protocol,
                self.topology,
                [self._tally(range(self._n), snapshots=True)],
                quiescent_at=self.scheduler.now,
                failed_positions=self.failed_positions,
                trace=self.tracer,
            )
        # Tallied: drop the per-run send state (link maps, fault streams),
        # so a finished network holds no per-link data.
        self._lasts = {}
        self._loads = {}
        self._faults = None
        if require_leader:
            result.verify()
        return result


def run_election(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    delays: DelayModel | None = None,
    wakeup: WakeupSchedule | WakeupFactory | None = None,
    failed_positions: frozenset[int] | set[int] = frozenset(),
    crash_schedule: Mapping[int, float] | None = None,
    faults: FaultPlan | None = None,
    seed: int = 0,
    trace: bool = False,
    max_events: int = 5_000_000,
    until: float | None = None,
    require_leader: bool = True,
) -> ElectionResult:
    """One-shot convenience wrapper: build a :class:`Network` and run it.

    The keyword signature mirrors :class:`Network` exactly (plus ``until``
    and ``require_leader`` from :meth:`Network.run`), so a mistyped keyword
    raises ``TypeError`` here instead of being silently forwarded.
    """
    network = Network(
        protocol,
        topology,
        delays=delays,
        wakeup=wakeup,
        failed_positions=failed_positions,
        crash_schedule=crash_schedule,
        faults=faults,
        seed=seed,
        trace=trace,
        max_events=max_events,
    )
    return network.run(until=until, require_leader=require_leader)
