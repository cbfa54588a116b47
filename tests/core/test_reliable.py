"""Tests for the reliable-delivery overlay (`repro.core.reliable`).

The headline property (the issue's acceptance bar): under *any* seeded
fault plan with drop-rate < 1.0, the payload sequence each inner node
observes per link equals the fault-free FIFO sequence — no loss, no
duplicates, order preserved.  Plus: configuration validation, metadata
delegation, duplicate/ack bookkeeping, port abandonment at the liveness
boundary, and the fourteen-protocol N=64 election over lossy links.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol, registered_protocols
from repro.core.reliable import Ack, Packet, ReliableDelivery, ReliableNode
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.faults import FaultPlan, Partition
from repro.sim.network import run_election
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)


@dataclass(frozen=True, slots=True)
class Token(Message):
    """Numbered test payload."""

    value: int


class _StreamNode(Node):
    """Sends ``count`` numbered tokens down every port; records arrivals."""

    def __init__(self, ctx: NodeContext, count: int) -> None:
        super().__init__(ctx)
        self.received: list[tuple[int, int]] = []
        self._count = count

    def on_wake(self, spontaneous: bool) -> None:
        if spontaneous:
            for value in range(1, self._count + 1):
                for port in range(self.ctx.num_ports):
                    self.ctx.send(port, Token(value))

    def on_message(self, port: int, message: Message) -> None:
        assert isinstance(message, Token)
        self.received.append((port, message.value))


class StreamProtocol(ElectionProtocol):
    """Not an election: a deterministic per-link payload stream."""

    name = "STREAM"

    def __init__(self, count: int) -> None:
        self.count = count
        self.nodes: list[_StreamNode] = []

    def create_node(self, ctx: NodeContext) -> _StreamNode:
        node = _StreamNode(ctx, self.count)
        self.nodes.append(node)
        return node


class TestConfiguration:
    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError, match="rto must be positive"):
            ReliableDelivery(ProtocolE(), rto=0.0)
        with pytest.raises(ConfigurationError, match="below rto"):
            ReliableDelivery(ProtocolE(), rto=2.0, rto_cap=1.0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            ReliableDelivery(ProtocolE(), max_retries=0)

    def test_metadata_delegates_to_the_inner_protocol(self):
        wrapped = ReliableDelivery(ProtocolC())
        assert wrapped.needs_sense_of_direction
        assert wrapped.describe() == "REL[C]"
        assert not ReliableDelivery(ProtocolE()).needs_sense_of_direction

    def test_validate_delegates(self):
        with pytest.raises(ConfigurationError):
            ReliableDelivery(ProtocolC()).validate(
                complete_without_sense(8, seed=1)
            )


class TestFifoRestoration:
    @settings(max_examples=25, deadline=None)
    @given(
        drop=st.floats(min_value=0.0, max_value=0.6),
        duplicate=st.floats(min_value=0.0, max_value=1.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_plan_below_total_loss_yields_the_fault_free_sequence(
        self, drop, duplicate, jitter, seed
    ):
        count = 5
        stream = StreamProtocol(count)
        run_election(
            ReliableDelivery(stream, max_retries=200),
            complete_without_sense(3, seed=seed),
            faults=FaultPlan(
                seed=seed, drop=drop, duplicate=duplicate, jitter=jitter
            ),
            seed=seed,
            require_leader=False,
        )
        expected = list(range(1, count + 1))
        assert len(stream.nodes) == 3
        for node in stream.nodes:
            for port in range(2):
                arrived = [v for p, v in node.received if p == port]
                assert arrived == expected

    def test_lossy_election_bookkeeping_is_consistent(self):
        result = run_election(
            ReliableDelivery(ProtocolE()),
            complete_without_sense(16, seed=3),
            faults=FaultPlan(seed=3, drop=0.2, duplicate=0.1),
            seed=3,
        )
        result.verify()
        assert result.messages_dropped > 0
        assert result.retransmissions > 0
        assert result.duplicates_suppressed > 0
        assert result.packets_abandoned == 0

    def test_abandonment_bounds_pursuit_of_a_crashed_peer(self):
        # Crash one node immediately: its peers' retransmissions must stop
        # (ports abandoned) instead of livelocking, and the election still
        # reaches quiescence.
        result = run_election(
            ReliableDelivery(ProtocolE(), rto=0.5, rto_cap=1.0, max_retries=3),
            complete_without_sense(8, seed=5),
            faults=FaultPlan(seed=5, crashes={2: 0.5}),
            seed=5,
            require_leader=False,
        )
        assert result.crashed_positions == (2,)
        assert result.packets_abandoned > 0
        abandoned = [
            s["abandoned_ports"] for s in result.node_snapshots
            if s.get("abandoned_ports")
        ]
        assert abandoned


class _ArqProbe(NodeContext):
    """White-box context: records sends, hands out timers to fire by hand."""

    def __init__(self, num_ports: int = 2) -> None:
        self.node_id = 0
        self.n = num_ports + 1
        self.num_ports = num_ports
        self.has_sense_of_direction = False
        self.sent: list[tuple[int, Message]] = []
        self.counters: dict[str, int] = {}
        self.timers: list = []

    def send(self, port: int, message: Message) -> None:  # noqa: D102
        self.sent.append((port, message))

    def set_timer(self, delay, callback) -> None:  # noqa: D102
        self.timers.append(callback)

    def fire_timer(self) -> None:
        """Fire the oldest armed timer (the overlay arms one at a time)."""
        self.timers.pop(0)()

    def count(self, metric: str, delta: int = 1) -> None:  # noqa: D102
        self.counters[metric] = self.counters.get(metric, 0) + delta

    def port_label(self, port: int):  # noqa: D102
        return None

    def port_with_label(self, distance: int) -> int:  # noqa: D102
        raise AssertionError("no sense of direction in this probe")

    def now(self) -> float:  # noqa: D102
        return 0.0

    def declare_leader(self) -> None:  # noqa: D102
        pass

    def trace(self, kind: str, **detail) -> None:  # noqa: D102
        pass


def _arq_node(max_retries: int = 3, num_ports: int = 2):
    """A ReliableNode over a 1-token stream, plus its probe context."""
    ctx = _ArqProbe(num_ports)
    node = ReliableNode(ctx, StreamProtocol(1), ReliableDelivery(
        ProtocolE(), max_retries=max_retries
    ))
    return node, ctx


class TestAbandonmentEdgeCases:
    """The liveness boundary, exercised packet by packet."""

    def test_retry_cap_abandons_the_port_and_stops_pursuit(self):
        node, ctx = _arq_node(max_retries=3)
        node.send_reliable(0, Token(1))
        # Original transmission went out and a timer is armed.
        assert [p for p, _ in ctx.sent] == [0]
        for _ in range(3):
            ctx.fire_timer()
        assert ctx.counters.get("retransmissions") == 3
        assert ctx.counters.get("packets_abandoned") is None
        # The cap-breaking firing abandons instead of retransmitting:
        # all still-buffered packets are counted, the buffer is cleared,
        # and no further timer is armed for the port.
        ctx.fire_timer()
        assert ctx.counters["packets_abandoned"] == 1
        assert ctx.counters["retransmissions"] == 3
        assert 0 not in node._unacked
        assert 0 in node._dead_ports
        assert not ctx.timers

    def test_abandonment_counts_every_buffered_packet(self):
        node, ctx = _arq_node(max_retries=1)
        for value in (1, 2, 3):
            node.send_reliable(0, Token(value))
        ctx.fire_timer()  # one retransmission of the oldest
        ctx.fire_timer()  # cap broken: all three pending packets abandoned
        assert ctx.counters["packets_abandoned"] == 3

    def test_healthy_ports_keep_retransmitting_past_a_dead_one(self):
        node, ctx = _arq_node(max_retries=1)
        node.send_reliable(0, Token(1))
        node.send_reliable(1, Token(1))
        ctx.fire_timer()  # retry both
        ctx.fire_timer()  # both hit the cap together here
        assert node._dead_ports == {0, 1}
        # A port acked in time never dies: redo with one responsive peer.
        node, ctx = _arq_node(max_retries=1)
        node.send_reliable(0, Token(1))
        node.send_reliable(1, Token(1))
        node.receive(1, Ack(1))  # port 1's peer answers
        ctx.fire_timer()
        ctx.fire_timer()
        assert node._dead_ports == {0}
        assert 1 not in node._unacked


class TestResequencingBuffer:
    """Out-of-order arrivals wait in the reorder buffer until the gap fills
    — the unit view of a partition closing mid-flight."""

    def test_buffered_packets_drain_in_order_when_the_gap_fills(self):
        node, ctx = _arq_node()
        stream = node.inner
        # Seqs 2 and 3 race ahead of seq 1 (cut, then healed+retransmitted).
        node.receive(0, Packet(2, Token(2)))
        node.receive(0, Packet(3, Token(3)))
        assert stream.received == []
        assert set(node._reorder[0]) == {2, 3}
        # Acks still flow while the gap is open, at the old high-water mark.
        assert [m.ack for _, m in ctx.sent if isinstance(m, Ack)] == [0, 0]
        node.receive(0, Packet(1, Token(1)))
        assert stream.received == [(0, 1), (0, 2), (0, 3)]
        assert node._reorder[0] == {}
        assert [m.ack for _, m in ctx.sent if isinstance(m, Ack)][-1] == 3

    def test_duplicate_of_a_buffered_packet_is_suppressed(self):
        node, ctx = _arq_node()
        node.receive(0, Packet(2, Token(2)))
        node.receive(0, Packet(2, Token(2)))  # retransmission overshoot
        assert ctx.counters["duplicates_suppressed"] == 1
        assert node._reorder[0] == {2: Token(2)}

    def test_partition_closing_mid_flight_restores_fifo(self):
        # Simulator view: a one-way cut 1->0 while node 1's stream is in
        # flight.  Everything sent into the cut is dropped; after it heals
        # the retransmissions interleave with younger packets, so the
        # reorder buffer must resequence.  The inner protocol still sees
        # the exact fault-free FIFO stream.
        count = 6
        stream = StreamProtocol(count)
        result = run_election(
            ReliableDelivery(stream, rto=0.5, max_retries=200),
            complete_without_sense(3, seed=7),
            faults=FaultPlan(
                seed=7, jitter=0.8,
                partitions=(Partition(1, 0, 0.0, 4.0),),
            ),
            seed=7,
            require_leader=False,
        )
        expected = list(range(1, count + 1))
        for node in stream.nodes:
            for port in range(2):
                assert [v for p, v in node.received if p == port] == expected
        assert result.messages_dropped > 0
        assert result.retransmissions > 0
        assert result.packets_abandoned == 0


class TestAcksOnAbandonedPorts:
    """A late ack from a peer already written off must be harmless."""

    def test_late_ack_after_abandonment_does_not_resurrect_the_port(self):
        node, ctx = _arq_node(max_retries=1)
        node.send_reliable(0, Token(1))
        ctx.fire_timer()
        ctx.fire_timer()
        assert 0 in node._dead_ports
        sends_before = len(ctx.sent)
        # The peer was only slow, not dead: its cumulative ack limps in.
        node.receive(0, Ack(1))
        # No crash, no retransmission, no new timer — the port stays dead.
        assert len(ctx.sent) == sends_before
        assert not ctx.timers
        assert 0 in node._dead_ports

    def test_sends_after_abandonment_are_not_pursued(self):
        node, ctx = _arq_node(max_retries=1)
        node.send_reliable(0, Token(1))
        ctx.fire_timer()
        ctx.fire_timer()
        assert 0 in node._dead_ports
        # The inner protocol, oblivious, keeps talking into the black hole.
        node.send_reliable(0, Token(2))
        assert any(
            isinstance(m, Packet) and m.seq == 2 for _, m in ctx.sent
        )
        while ctx.timers:  # drain whatever ladder the send armed
            ctx.fire_timer()
        # Dead ports are skipped: no retransmission, no abandonment double
        # count for the new packet beyond its own buffer entry.
        assert ctx.counters["retransmissions"] == 1

    def test_stale_ack_is_ignored_without_touching_backoff(self):
        node, ctx = _arq_node(max_retries=5)
        node.send_reliable(0, Token(1))
        node.send_reliable(0, Token(2))
        node.receive(0, Ack(2))
        assert 0 not in node._unacked
        ctx.fire_timer()  # nothing pending: ladder resets quietly
        node.receive(0, Ack(1))  # reordered stale cumulative ack
        assert node._acked[0] == 2
        assert not ctx.timers


class TestAllProtocolsSurviveLoss:
    @pytest.mark.parametrize("name", sorted(registered_protocols()))
    def test_unique_leader_at_n64_under_ten_percent_drop(self, name):
        cls = registered_protocols()[name]
        protocol = ReliableDelivery(cls())
        topology = (
            complete_with_sense_of_direction(64)
            if cls.needs_sense_of_direction
            else complete_without_sense(64, seed=1)
        )
        result = run_election(
            protocol,
            topology,
            faults=FaultPlan(seed=11, drop=0.10, duplicate=0.05),
            seed=1,
        )
        result.verify()
        assert result.messages_dropped > 0
        assert result.protocol == f"REL[{cls().describe()}]"
