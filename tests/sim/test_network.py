"""Integration tests for the network runtime itself.

These pin the model semantics every protocol relies on: wake-by-message,
base-node bookkeeping, failure injection, single-leader enforcement, and
metric accounting.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import pytest

from repro.core.errors import LivelockError, ProtocolViolation, SimulationError
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.sim.network import Network, run_election
from repro.topology.complete import complete_without_sense
from repro.protocols.nosense.protocol_d import ProtocolD


@dataclass(frozen=True, slots=True)
class Ping(Message):
    hops: int


class PingNode(Node):
    """Wakes neighbours in a chain through port 0, then declares."""

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(0, Ping(1))

    def on_message(self, port, message):
        if message.hops < self.ctx.n:
            self.ctx.send(0, Ping(message.hops + 1))
        else:
            self.become_leader()


class PingProtocol(ElectionProtocol):
    name = "ping-test"

    def create_node(self, ctx):
        return PingNode(ctx)


class GreedyLeaderNode(Node):
    """Every base node declares itself leader immediately — unsafe."""

    def on_wake(self, spontaneous):
        if spontaneous:
            self.become_leader()

    def on_message(self, port, message):
        pass


class GreedyProtocol(ElectionProtocol):
    name = "greedy-test"

    def create_node(self, ctx):
        return GreedyLeaderNode(ctx)


class TestWakeSemantics:
    def test_message_wakes_a_passive_node_as_non_base(self):
        topo = complete_without_sense(4, seed=0)
        result = run_election(
            PingProtocol(), topo, wakeup={0: 0.0}, require_leader=False
        )
        awake = [s for s in result.node_snapshots if s["awake"]]
        assert len(awake) >= 2
        assert result.base_positions == (0,)

    def test_scheduled_wake_after_message_does_not_create_a_base_node(self):
        topo = complete_without_sense(4, seed=0)
        victim = topo.neighbor(0, 0)
        # victim is scheduled to wake spontaneously long after 0's ping hits.
        result = run_election(
            PingProtocol(), topo, wakeup={0: 0.0, victim: 50.0},
            require_leader=False,
        )
        assert victim not in result.base_positions

    def test_empty_wake_schedule_is_rejected(self):
        topo = complete_without_sense(4, seed=0)
        with pytest.raises(SimulationError, match="no live base node"):
            run_election(PingProtocol(), topo, wakeup={})


class TestSafetyEnforcement:
    def test_second_leader_declaration_raises_at_the_violation_instant(self):
        topo = complete_without_sense(3, seed=0)
        with pytest.raises(ProtocolViolation, match="already had"):
            run_election(GreedyProtocol(), topo)

    def test_single_greedy_base_is_fine(self):
        topo = complete_without_sense(3, seed=0)
        result = run_election(GreedyProtocol(), topo, wakeup={1: 0.0})
        assert result.leader_position == 1


class TestFailureInjection:
    def test_failed_nodes_drop_messages_and_never_wake(self):
        topo = complete_without_sense(4, seed=0)
        victim = topo.neighbor(0, 0)
        result = run_election(
            PingProtocol(), topo, wakeup={0: 0.0},
            failed_positions={victim}, require_leader=False,
        )
        snap = result.node_snapshots[victim]
        assert not snap["awake"]

    def test_failed_base_positions_are_dropped_from_the_schedule(self):
        from repro.protocols.nosense.fault_tolerant import FaultTolerantElection

        topo = complete_without_sense(5, seed=0)
        result = run_election(
            FaultTolerantElection(max_failures=1), topo, failed_positions={0},
        )
        assert 0 not in result.base_positions
        assert result.leader_position != 0

    def test_protocol_d_cannot_survive_failures(self):
        """D waits for grants from everyone, so a dead node stalls it —
        the contrast that motivates the fault-tolerant variant."""
        topo = complete_without_sense(4, seed=0)
        result = run_election(
            ProtocolD(), topo, failed_positions={0}, require_leader=False
        )
        assert result.leader_id is None

    def test_out_of_range_failure_rejected(self):
        topo = complete_without_sense(4, seed=0)
        with pytest.raises(SimulationError, match="out of range"):
            Network(ProtocolD(), topo, failed_positions={9})


class TestMetrics:
    def test_message_counts_and_types(self):
        topo = complete_without_sense(8, seed=1)
        result = run_election(ProtocolD(), topo)
        assert result.messages_total == sum(result.messages_by_type.values())
        assert result.messages_by_type["BroadcastElect"] == 8 * 7
        assert result.bits_total > 0

    def test_election_time_measured_from_first_wake(self):
        topo = complete_without_sense(4, seed=0)
        result = run_election(ProtocolD(), topo, wakeup={0: 5.0, 1: 6.0})
        assert result.first_wake_time == 5.0
        assert result.election_time == result.elected_at - 5.0

    def test_causal_depth_tracks_message_chains(self):
        topo = complete_without_sense(4, seed=0)
        result = run_election(ProtocolD(), topo)
        # D is one round trip: elect (depth 1) + accept (depth 2).
        assert result.election_depth == 2

    def test_network_can_only_run_once(self):
        topo = complete_without_sense(4, seed=0)
        network = Network(ProtocolD(), topo)
        network.run()
        with pytest.raises(SimulationError, match="only run once"):
            network.run()

    def test_invalid_port_is_a_simulation_error(self):
        class BadNode(Node):
            def on_wake(self, spontaneous):
                self.ctx.send(99, Ping(1))

            def on_message(self, port, message):
                pass

        class BadProtocol(ElectionProtocol):
            name = "bad-port-test"

            def create_node(self, ctx):
                return BadNode(ctx)

        topo = complete_without_sense(4, seed=0)
        with pytest.raises(SimulationError, match="invalid port"):
            run_election(BadProtocol(), topo, require_leader=False)


class ThresholdNode(PingNode):
    """A ping chain that records the collector's thresholds as it runs."""

    seen: list[tuple[int, int, int]] = []

    def __init__(self, ctx):
        super().__init__(ctx)
        self.seen.append(gc.get_threshold())

    def on_message(self, port, message):
        self.seen.append(gc.get_threshold())
        super().on_message(port, message)


class ThresholdProtocol(ElectionProtocol):
    name = "threshold-test"

    def create_node(self, ctx):
        return ThresholdNode(ctx)


class TestCollectorPolicy:
    """Construction and run raise the collector's young threshold for
    their own duration only, as a sharded run does, and leave automatic
    collection off when the caller switched it off."""

    @pytest.mark.parametrize("young, during", [(1234, 20_000), (0, 0)])
    @pytest.mark.parametrize("max_events", [5_000_000, 3])
    def test_a_run_restores_the_callers_thresholds(
        self, young, during, max_events
    ):
        original = gc.get_threshold()
        ThresholdNode.seen = []
        gc.set_threshold(young, 5, 6)
        try:
            network = Network(
                ThresholdProtocol(), complete_without_sense(8, seed=0),
                wakeup={0: 0.0}, max_events=max_events,
            )
            assert gc.get_threshold() == (young, 5, 6)
            if max_events == 3:
                with pytest.raises(LivelockError):
                    network.run()
            else:
                assert network.run().leader_id is not None
            assert gc.get_threshold() == (young, 5, 6)
        finally:
            gc.set_threshold(*original)
        assert len(ThresholdNode.seen) > 8
        assert set(ThresholdNode.seen) == {(during, 5, 6)}


class TestRunElectionSignature:
    """run_election takes explicit keywords: option typos must not pass
    silently (the old **kwargs forwarding swallowed e.g. ``seeds=3``)."""

    def test_misspelled_option_raises_type_error(self):
        topo = complete_without_sense(4, seed=0)
        with pytest.raises(TypeError, match="seeds"):
            run_election(ProtocolD(), topo, seeds=3)

    def test_options_are_keyword_only(self):
        topo = complete_without_sense(4, seed=0)
        with pytest.raises(TypeError):
            run_election(ProtocolD(), topo, None, None)  # positional options

    def test_explicit_keywords_accepted(self):
        topo = complete_without_sense(4, seed=0)
        result = run_election(ProtocolD(), topo, seed=3, trace=False)
        assert result.leader_id is not None
