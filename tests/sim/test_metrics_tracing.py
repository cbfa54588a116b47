"""Unit tests for metrics accounting and trace collection."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.sim.metrics import MetricsCollector
from repro.sim.network import run_election
from repro.sim.shard import run_sharded_election
from repro.sim.tracing import TraceEvent, Tracer
from repro.topology.complete import complete_without_sense


@dataclass(frozen=True, slots=True)
class _Hello(Message):
    hops: int


class _SilentNode(Node):
    """Greets one neighbour and never declares: the election never ends."""

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(0, _Hello(1))

    def on_message(self, port, message):
        pass


class _SilentProtocol(ElectionProtocol):
    name = "silent-test"

    def create_node(self, ctx):
        return _SilentNode(ctx)


class TestMetricsCollector:
    def test_wake_window(self):
        metrics = MetricsCollector()
        for t in (3.0, 1.0, 2.0):
            metrics.on_wake(t)
        assert metrics.first_wake_time == 1.0
        assert metrics.last_wake_time == 3.0

    def test_bump_adds_to_an_existing_counter_and_rejects_typos(self):
        metrics = MetricsCollector()
        metrics.bump("retransmissions")
        metrics.bump("retransmissions", 4)
        assert metrics.retransmissions == 5
        with pytest.raises(AttributeError):
            metrics.bump("retransmision")
        with pytest.raises(TypeError, match="not an integer counter"):
            metrics.bump("first_wake_time")


class TestElectionTime:
    def test_unfinished_election_is_infinite(self):
        """A run that never elects reports no leader and an infinite
        election time, on the serial and the sharded kernel alike."""
        topology = complete_without_sense(8, seed=2)
        results = [
            run_election(_SilentProtocol(), topology, require_leader=False),
            run_sharded_election(
                _SilentProtocol(), topology, shards=2, workers=0,
                require_leader=False,
            ),
        ]
        for result in results:
            assert result.leader_id is None
            assert result.election_time == float("inf")
            assert result.first_wake_time == 0.0
            assert result.messages_total == 8


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "send", 3, to=4)
        assert len(tracer) == 0

    def test_enabled_tracer_records_sorted_detail(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, "send", 3, to=4, message="X")
        event = tracer.events[0]
        assert event == TraceEvent(
            1.0, "send", 3, (("message", "X"), ("to", 4))
        )
        assert event.get("to") == 4
        assert event.get("missing", "default") == "default"

    def test_of_kind_filters(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, "send", 0)
        tracer.record(2.0, "wake", 1)
        tracer.record(3.0, "send", 2)
        assert [e.node for e in tracer.of_kind("send")] == [0, 2]
