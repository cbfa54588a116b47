"""Tests for the exhaustive interleaving explorer.

The positive tests are the library's strongest correctness statement: for
these instances, *every* reachable interleaving of wake-ups and FIFO
deliveries elects exactly one valid leader.  The negative tests prove the
explorer actually catches violations (a checker that cannot fail checks
nothing).
"""

from __future__ import annotations

import pytest

from repro.core.errors import ProtocolViolation
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.protocols.nosense.fault_tolerant import FaultTolerantElection
from repro.protocols.nosense.protocol_d import ProtocolD
from repro.protocols.nosense.protocol_e import AfekGafni, ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.sense.chang_roberts import ChangRoberts
from repro.protocols.sense.hirschberg_sinclair import HirschbergSinclair
from repro.protocols.sense.lmw86 import LMW86
from repro.protocols.sense.protocol_a import ProtocolA
from repro.protocols.sense.protocol_c import ProtocolC
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.verification import explore_protocol


class TestExhaustiveSafety:
    """Every interleaving of these instances is verified."""

    @pytest.mark.parametrize(
        "protocol,n",
        [
            (ProtocolA(), 3),
            (LMW86(), 3),
            (ProtocolC(), 4),
            (ChangRoberts(), 4),
            (HirschbergSinclair(), 3),
        ],
        ids=["A", "LMW86", "C", "CR", "HS"],
    )
    def test_sense_protocols_all_interleavings(self, protocol, n):
        report = explore_protocol(
            protocol, complete_with_sense_of_direction(n)
        )
        assert report.complete
        assert report.terminal_states > 0
        # every base node wins in SOME interleaving: the adversary can
        # always capture a not-yet-woken candidate first
        assert report.leaders_seen == set(range(n))

    @pytest.mark.parametrize(
        "protocol",
        [ProtocolD(), AfekGafni(), ProtocolE()],
        ids=["D", "AG85", "E"],
    )
    def test_unlabeled_protocols_all_interleavings(self, protocol):
        report = explore_protocol(protocol, complete_without_sense(3, seed=0))
        assert report.complete
        assert report.leaders_seen == {0, 1, 2}

    def test_g_with_two_base_nodes(self):
        report = explore_protocol(
            ProtocolG(k=2),
            complete_without_sense(4, seed=0),
            base_positions=(0, 1),
        )
        assert report.complete
        assert report.leaders_seen <= {0, 1}

    def test_fault_tolerant_with_two_base_nodes(self):
        report = explore_protocol(
            FaultTolerantElection(1),
            complete_without_sense(4, seed=0),
            base_positions=(0, 1),
        )
        assert report.complete
        assert report.leaders_seen <= {0, 1}

    def test_single_base_node_has_one_winner(self):
        report = explore_protocol(
            ProtocolE(), complete_without_sense(3, seed=0),
            base_positions=(1,),
        )
        assert report.complete
        assert report.leaders_seen == {1}


class _GreedyNode(Node):
    """Declares on wake — blatantly unsafe with two base nodes."""

    def on_wake(self, spontaneous):
        if spontaneous:
            self.become_leader()

    def on_message(self, port, message):
        pass


class _Greedy(ElectionProtocol):
    name = "greedy-explore-test"

    def create_node(self, ctx):
        return _GreedyNode(ctx)


class _SilentNode(Node):
    """Never does anything — blatantly non-live."""

    def on_wake(self, spontaneous):
        pass

    def on_message(self, port, message):
        pass


class _Silent(ElectionProtocol):
    name = "silent-explore-test"

    def create_node(self, ctx):
        return _SilentNode(ctx)


class _EagerFollowerNode(Node):
    """A passive node that declares when poked — invalid leader."""

    def on_wake(self, spontaneous):
        if spontaneous:
            from repro.core.messages import Wakeup

            self.ctx.send(0, Wakeup())

    def on_message(self, port, message):
        if not self.is_base:
            self.become_leader()


class _EagerFollower(ElectionProtocol):
    name = "eager-explore-test"

    def create_node(self, ctx):
        return _EagerFollowerNode(ctx)


class TestExplorerCatchesViolations:
    def test_double_declaration_is_caught(self):
        with pytest.raises(ProtocolViolation, match="two leaders"):
            explore_protocol(_Greedy(), complete_without_sense(3, seed=0))

    def test_missing_leader_is_caught(self):
        with pytest.raises(ProtocolViolation, match="no leader"):
            explore_protocol(_Silent(), complete_without_sense(2, seed=0))

    def test_non_base_leader_is_caught(self):
        with pytest.raises(ProtocolViolation, match="non-base"):
            explore_protocol(
                _EagerFollower(), complete_without_sense(3, seed=0),
                base_positions=(0,),
            )

    def test_truncation_is_reported_not_hidden(self):
        report = explore_protocol(
            ProtocolC(), complete_with_sense_of_direction(4), max_states=50
        )
        assert not report.complete


def _pinned_instances():
    from repro.protocols.sense.protocol_b import ProtocolB

    sense = complete_with_sense_of_direction
    return {
        "A@5": (ProtocolA(), sense(5), None),
        "B@4": (ProtocolB(), sense(4), None),
        "C@4": (ProtocolC(), sense(4), None),
        "E@3": (ProtocolE(), complete_without_sense(3, seed=0), None),
        "G2@4": (ProtocolG(k=2), complete_without_sense(4, seed=0), (0, 1)),
        "FT1@4": (
            FaultTolerantElection(1),
            complete_without_sense(4, seed=0),
            (0, 1),
        ),
    }


#: (states, transitions, terminal states, compressed steps,
#: |quiescent_outcomes|) of the default POR search.  Any change to the
#: world's memo keys, channel hashing or the DFS that alters the explored
#: graph moves at least one of these.
_PINNED_GRAPHS = {
    "A@5": (10248, 16995, 56, 2673, 17),
    "B@4": (2361, 2893, 66, 599, 28),
    "C@4": (647, 709, 29, 115, 18),
    "E@3": (149, 160, 13, 36, 10),
    "G2@4": (2726, 4330, 32, 549, 6),
    "FT1@4": (5687, 9595, 74, 2, 15),
}


class TestPinnedGraphs:
    """The explored graph is pinned exactly, not just its verdict."""

    @pytest.mark.parametrize("instance", sorted(_PINNED_GRAPHS))
    def test_explored_graph_is_pinned(self, instance):
        protocol, topology, base = _pinned_instances()[instance]
        report = explore_protocol(protocol, topology, base_positions=base)
        assert report.complete
        assert (
            report.states_explored,
            report.transitions,
            report.terminal_states,
            report.compressed_steps,
            len(report.quiescent_outcomes),
        ) == _PINNED_GRAPHS[instance]


class TestDeterminism:
    def test_exploration_is_reproducible(self):
        a = explore_protocol(ProtocolA(), complete_with_sense_of_direction(3))
        b = explore_protocol(ProtocolA(), complete_with_sense_of_direction(3))
        assert (a.states_explored, a.terminal_states) == (
            b.states_explored, b.terminal_states
        )


class TestCrossEngineConsistency:
    """The timed simulator and the explorer are two execution engines for
    the same state machines; anything the simulator observes must be a
    state the exhaustive search also reached."""

    @pytest.mark.parametrize(
        "protocol_factory,sense",
        [(ProtocolA, True), (ProtocolE, False)],
        ids=["A", "E"],
    )
    def test_simulated_leaders_are_a_subset_of_explored_leaders(
        self, protocol_factory, sense
    ):
        from repro.sim.delays import UniformDelay
        from repro.sim.network import run_election

        n = 3
        if sense:
            explored = explore_protocol(
                protocol_factory(), complete_with_sense_of_direction(n)
            )
        else:
            explored = explore_protocol(
                protocol_factory(), complete_without_sense(n, seed=0)
            )
        simulated = set()
        for seed in range(20):
            topology = (
                complete_with_sense_of_direction(n)
                if sense
                else complete_without_sense(n, seed=0)
            )
            result = run_election(
                protocol_factory(), topology,
                delays=UniformDelay(0.05, 1.0), seed=seed,
            )
            simulated.add(result.leader_id)
        assert simulated <= explored.leaders_seen
