"""The structural encoding behind every fingerprint, pinned literally.

Every node hash, message hash and world fingerprint the checker computes
is Python's tuple hash of a value :func:`freeze_value` or
:meth:`LockStepWorld.node_state` built.  Hashes vary with
``PYTHONHASHSEED``, so these tests pin the frozen tuples themselves: one
per value shape protocol state uses — a ``Strength`` named tuple, frozen
message dataclasses carrying identities, sets, a plain record, and the
nodes whose fields hold ports (protocol E's ``_buffered`` pair, FT's
``_in_flight`` dict and ``_retry_ports`` list).  A change to any of them
changes which states the search tells apart.
"""

from __future__ import annotations

from repro.core.strength import Strength
from repro.protocols.nosense.fault_tolerant import FaultTolerantElection
from repro.protocols.nosense.protocol_e import ProtocolE, SeqCapture
from repro.protocols.sense.protocol_b import StepCapture
from repro.topology.complete import complete_without_sense
from repro.verification.world import LockStepWorld, freeze_value


class _Record:
    """A plain record, like a pending-challenge entry."""

    def __init__(self) -> None:
        self.cand = 5
        self.owner_port = 2
        self.ports = {3, 1}
        self.strength = Strength(1, 4)


def test_a_named_tuple_is_tagged_with_its_type():
    assert freeze_value(Strength(2, 7)) == ("Strength", 2, 7)


def test_messages_are_tagged_and_keep_their_identities():
    assert freeze_value(SeqCapture(level=3, cand=6)) == ("SeqCapture", 3, 6)
    assert freeze_value(StepCapture(step=1, cand=2)) == ("StepCapture", 1, 2)


def test_sets_are_sorted():
    assert freeze_value({4, 0, 2}) == (0, 2, 4)
    assert freeze_value(frozenset({Strength(1, 2), Strength(0, 9)})) == (
        ("Strength", 0, 9),
        ("Strength", 1, 2),
    )


def test_a_plain_record_keeps_its_field_names():
    assert freeze_value(_Record()) == (
        "_Record",
        ("cand", 5),
        ("owner_port", 2),
        ("ports", (1, 3)),
        ("strength", ("Strength", 1, 4)),
    )


def test_a_buffered_e_node():
    world = LockStepWorld(ProtocolE(), complete_without_sense(3, seed=0), (0, 1, 2))
    node = world.nodes[0]
    node._buffered = (1, Strength(2, 7))
    node._next_port = 1
    assert world.node_state(0) == (
        "ProtocolENode", False, False, False, ("Role", "passive"), None, None,
        (), 0, 0, 1, False, (1, ("Strength", 2, 7)),
    )


def test_an_ft_node_with_claims_in_flight_and_retries():
    world = LockStepWorld(
        FaultTolerantElection(), complete_without_sense(4, seed=0), (0, 1, 2, 3)
    )
    node = world.nodes[1]
    node._in_flight = {2: 1, 0: 0}
    node._retry_ports = [(1, 0), (2, 1)]
    assert world.node_state(1) == (
        "FaultTolerantNode", False, False, False, ("Role", "passive"), None,
        None, (), 0, 0, 0, False, None, 0, 2, 2, 0, ((0, 0), (2, 1)),
        ((1, 0), (2, 1)),
    )
