"""Reliable FIFO delivery over lossy links — an overlay, not a protocol.

The paper's protocols assume reliable FIFO links (Section 2).  When the
simulator injects link faults (:mod:`repro.sim.faults`), that assumption
breaks — unless the protocol runs *over* this overlay, which rebuilds
reliable FIFO semantics per directed link with the classic ARQ toolkit:

* **sequence numbers** — every payload gets the next per-port sequence
  number, carried in a :class:`Packet` envelope;
* **cumulative acks** — the receiver acks its in-order high-water mark on
  every packet arrival (so a lost ack is repaired by the next arrival);
* **timeout + retransmit** — a single per-node timer retransmits the oldest
  unacked packet per port, with capped exponential backoff;
* **duplicate suppression** — re-delivered sequence numbers (link
  duplication or retransmission overshoot) are counted and dropped;
* **reorder buffering** — out-of-order arrivals wait until the gap fills,
  so the inner protocol observes exactly the fault-free FIFO sequence.

The wrapping mirrors :mod:`repro.apps.wrapper`: :class:`ReliableDelivery`
composes over any unmodified :class:`ElectionProtocol` factory, and the
inner node talks to a :class:`_ReliableContext` whose ``send`` diverts
through the ARQ machinery.  The envelope is audited by the usual
O(log N)-bit model (a nested message is charged at full size), so the
overlay's cost is visible, not hidden: roughly 2× messages (acks) plus
retransmissions, all tallied via ``ctx.count`` into the run's metrics.

Liveness boundary: retransmission cannot reach a crashed or initially
failed node.  After ``max_retries`` unanswered attempts on a port the
overlay *abandons* it (counting ``packets_abandoned``) so the run reaches
quiescence instead of livelocking; the inner protocol then simply never
hears back — exactly the black-hole behaviour the fault-tolerant protocol's
redundancy window is designed to survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import random

from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol


@dataclass(frozen=True, slots=True)
class Packet(Message):
    """Envelope for one protocol message: per-port sequence + payload."""

    seq: int
    payload: Message


@dataclass(frozen=True, slots=True)
class Ack(Message):
    """Cumulative acknowledgement: all sequence numbers <= ``ack`` arrived."""

    ack: int


class _ReliableContext(NodeContext):
    """Pass-through context diverting the inner protocol's sends into ARQ."""

    def __init__(self, real: NodeContext, outer: "ReliableNode") -> None:
        self._real = real
        self._outer = outer
        self.node_id = real.node_id
        self.n = real.n
        self.num_ports = real.num_ports
        self.has_sense_of_direction = real.has_sense_of_direction

    def send(self, port: int, message: Message) -> None:  # noqa: D102
        # repro: lint-ok[RPL041] forwards into the ARQ layer, whose
        # ctx.send is the metered choke point
        self._outer.send_reliable(port, message)

    def port_label(self, port: int) -> int | None:  # noqa: D102
        return self._real.port_label(port)

    def port_with_label(self, distance: int) -> int:  # noqa: D102
        return self._real.port_with_label(distance)

    def now(self) -> float:  # noqa: D102
        return self._real.now()

    def declare_leader(self) -> None:  # noqa: D102
        self._real.declare_leader()

    def trace(self, kind: str, **detail: Any) -> None:  # noqa: D102
        self._real.trace(kind, **detail)

    def count(self, metric: str, delta: int = 1) -> None:  # noqa: D102
        self._real.count(metric, delta)

    def rng(self) -> "random.Random":  # noqa: D102
        return self._real.rng()


class ReliableNode(Node):
    """One node's ARQ state machine wrapped around the inner protocol node."""

    def __init__(
        self, ctx: NodeContext, election: ElectionProtocol,
        config: "ReliableDelivery",
    ) -> None:
        super().__init__(ctx)
        self.inner = election.create_node(_ReliableContext(ctx, self))
        self._rto = config.rto
        self._rto_cap = config.rto_cap
        self._max_retries = config.max_retries
        # Sender side, per port.  A port is in ``_unacked`` only while it
        # has packets in flight, so the timer visits no idle port.
        self._next_seq: dict[int, int] = {}
        self._unacked: dict[int, dict[int, Message]] = {}
        self._acked: dict[int, int] = {}
        self._attempts: dict[int, int] = {}
        self._dead_ports: set[int] = set()
        # Receiver side, per port.
        self._delivered: dict[int, int] = {}
        self._reorder: dict[int, dict[int, Message]] = {}
        # One timer per node; staleness-checked at fire time instead of
        # cancelled (the scheduler has no cancellation on the fast path).
        self._timer_armed = False
        self._backoff_exp = 0

    # -- sender side --------------------------------------------------------

    def send_reliable(self, port: int, payload: Message) -> None:
        """Assign the next sequence number on ``port`` and ship it."""
        seq = self._next_seq.get(port, 0) + 1
        self._next_seq[port] = seq
        self._unacked.setdefault(port, {})[seq] = payload
        self.ctx.send(port, Packet(seq, payload))
        self._arm_timer()

    def _arm_timer(self) -> None:
        if not self._timer_armed:
            self._timer_armed = True
            delay = min(
                self._rto * (2 ** self._backoff_exp), self._rto_cap
            )
            self.ctx.set_timer(delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer_armed = False
        progress_possible = False
        for port in sorted(self._unacked):
            buffer = self._unacked[port]
            if port in self._dead_ports:
                continue
            attempts = self._attempts.get(port, 0) + 1
            if attempts > self._max_retries:
                # The far side has not acked anything across the whole
                # backoff ladder: treat it as a black hole and give up so
                # the run can quiesce.  The inner protocol never learns —
                # exactly what a crashed peer looks like in this model.
                self._dead_ports.add(port)
                self.ctx.count("packets_abandoned", len(buffer))
                self.ctx.trace("rel_abandon", port=port, pending=len(buffer))
                del self._unacked[port]
                continue
            self._attempts[port] = attempts
            oldest = min(buffer)
            self.ctx.send(port, Packet(oldest, buffer[oldest]))
            self.ctx.count("retransmissions")
            self.ctx.trace("rel_retransmit", port=port, seq=oldest)
            progress_possible = True
        if progress_possible:
            self._backoff_exp += 1
            self._arm_timer()
        else:
            self._backoff_exp = 0

    def _on_ack(self, port: int, ack: int) -> None:
        if ack <= self._acked.get(port, 0):
            return  # stale (reordered) cumulative ack
        self._acked[port] = ack
        buffer = self._unacked.get(port)
        if buffer:
            for seq in [s for s in buffer if s <= ack]:
                del buffer[seq]
            if not buffer:
                del self._unacked[port]
        # Forward progress: restart the backoff ladder for this port.
        self._attempts[port] = 0
        self._backoff_exp = 0
        if buffer:
            self._arm_timer()

    # -- receiver side ------------------------------------------------------

    def _on_packet(self, port: int, packet: Packet) -> None:
        seq = packet.seq
        delivered = self._delivered.get(port, 0)
        pending = self._reorder.get(port)
        if seq <= delivered or (pending and seq in pending):
            self.ctx.count("duplicates_suppressed")
            self.ctx.trace("rel_duplicate", port=port, seq=seq)
        elif seq == delivered + 1:
            delivered += 1
            self.inner.receive(port, packet.payload)
            while pending and delivered + 1 in pending:
                delivered += 1
                self.inner.receive(port, pending.pop(delivered))
            self._delivered[port] = delivered
        else:
            self._reorder.setdefault(port, {})[seq] = packet.payload
        # Ack on every arrival: a lost ack is repaired by the next packet
        # (first or retransmitted) on this link.
        self.ctx.send(port, Ack(self._delivered.get(port, 0)))

    # -- protocol hooks -----------------------------------------------------

    def on_wake(self, spontaneous: bool) -> None:
        self.inner.wake(spontaneous)

    def on_message(self, port: int, message: Message) -> None:
        if type(message) is Packet:
            self._on_packet(port, message)
        elif type(message) is Ack:
            self._on_ack(port, message.ack)
        else:
            # Not ours (a mixed network without the overlay on the peer);
            # hand it through untouched.
            self.inner.receive(port, message)

    def snapshot(self) -> dict[str, Any]:
        base = self.inner.snapshot()
        base.update(
            awake=self.awake,
            is_base=self.is_base,
            is_leader=self.inner.is_leader,
            abandoned_ports=tuple(sorted(self._dead_ports)),
        )
        return base


class ReliableDelivery(ElectionProtocol):
    """Wrap any election protocol to run correctly over lossy links.

    Not ``@register``-ed: the overlay is infrastructure, addressed as
    ``ReliableDelivery(inner_protocol)``, and composes with the app
    wrappers (either order works — each is a plain context interposition).
    """

    name = "REL"

    def __init__(
        self,
        election: ElectionProtocol,
        *,
        rto: float = 2.5,
        rto_cap: float = 64.0,
        max_retries: int = 25,
    ) -> None:
        """``rto`` is the initial retransmission timeout.  Latencies live in
        ``(0, 1]``, so the default never fires before a healthy round trip;
        ``rto_cap`` bounds the exponential backoff and ``max_retries``
        bounds how long a silent peer is pursued before the port is
        abandoned (see the module docstring's liveness boundary)."""
        if rto <= 0.0:
            raise ConfigurationError(f"rto must be positive, got {rto}")
        if rto_cap < rto:
            raise ConfigurationError(f"rto_cap {rto_cap} below rto {rto}")
        if max_retries < 1:
            raise ConfigurationError(f"max_retries must be >= 1, got {max_retries}")
        self.election = election
        self.rto = rto
        self.rto_cap = rto_cap
        self.max_retries = max_retries

    @property
    def needs_sense_of_direction(self) -> bool:  # type: ignore[override]
        return self.election.needs_sense_of_direction

    def validate(self, topology) -> None:  # noqa: D102
        self.election.validate(topology)

    def create_node(self, ctx: NodeContext) -> ReliableNode:
        return ReliableNode(ctx, self.election, self)

    def describe(self) -> str:
        return f"REL[{self.election.describe()}]"
