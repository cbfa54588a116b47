"""Branch isolation: sibling branches can never observe each other.

The world shares node objects, channel columns and transition memos between
branches (that sharing is what makes exhaustive search affordable), so
the property that keeps the whole checker honest is *isolation*: after
``branch()``, steps applied to one world are invisible to its parent and
to every sibling.  Property-tested here with seeded random walks over
every registered protocol — two siblings step divergently and each
other's frozen state must stay byte-identical — plus the fuzzer's
template pattern (many branches of one never-stepped template world).
A second property checks the incrementally maintained hashes: after
random walks that mix adversary actions with the explorer's bookkeeping
steps, every entry of the channel column must resolve through the intern
table to a message with that hash, and the world fingerprint must equal a
from-scratch recomputation.  A third checks the read API: after
``branch()``, ``apply`` and ``pop_head``, ``peek_message``,
``peek_transition`` and ``state_tuple`` return the queued messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

import repro  # noqa: F401  (imports register every protocol)
from repro.core.errors import ProtocolViolation
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol, registered_protocols
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.verification.world import (
    _MESSAGES,
    LockStepWorld,
    freeze_value,
    message_hash,
)
from tests.verification.conftest import deterministic_protocols

_POWER_OF_TWO_ONLY = {"B", "C"}


def _instance(name):
    cls = registered_protocols()[name]
    n = 4 if name in _POWER_OF_TWO_ONLY else 3
    if cls.needs_sense_of_direction:
        return cls(), complete_with_sense_of_direction(n)
    return cls(), complete_without_sense(n, seed=0)


def _random_walk(world: LockStepWorld, rng: random.Random, steps: int) -> None:
    for _ in range(steps):
        actions = world.enabled_actions()
        if not actions:
            return
        try:
            world.apply(actions[rng.randrange(len(actions))])
        except ProtocolViolation:  # pragma: no cover - no planted bugs here
            return


@pytest.mark.parametrize("name", deterministic_protocols(), ids=str)
def test_divergent_siblings_stay_isolated(name):
    protocol, topology = _instance(name)
    rng = random.Random(f"cow:{name}")
    for round_ in range(5):
        parent = LockStepWorld(protocol, topology, tuple(range(topology.n)))
        _random_walk(parent, rng, rng.randrange(0, 8))
        parent_before = parent.state_tuple()
        left, right = parent.branch(), parent.branch()
        assert left.state_tuple() == parent_before == right.state_tuple()

        _random_walk(left, rng, rng.randrange(1, 10))
        # neither the parent nor the sibling saw the left walk
        assert parent.state_tuple() == parent_before
        assert right.state_tuple() == parent_before
        assert right.fingerprint() == parent.fingerprint()

        left_after = left.state_tuple()
        _random_walk(right, rng, rng.randrange(1, 10))
        # ...and the right walk is invisible to the stepped left branch
        assert left.state_tuple() == left_after
        assert parent.state_tuple() == parent_before


def test_template_branches_are_fresh_and_deterministic():
    # The fuzzer's pattern: one template world, one branch per episode.
    protocol, topology = _instance("A")
    template = LockStepWorld(protocol, topology, tuple(range(topology.n)))
    pristine = template.state_tuple()

    def walk(seed: int):
        world = template.branch()
        _random_walk(world, random.Random(seed), 40)
        return world.state_tuple()

    first = walk(7)
    second = walk(7)
    assert first == second  # same seed, same branch, same trajectory
    assert template.state_tuple() == pristine  # episodes never leak back
    assert walk(8) != first  # and the walk actually moves


def test_branch_shares_but_never_mutates_node_objects():
    # Nodes are replaced, never mutated: after a transition the parent's
    # object is still the pre-transition one (possibly shared), and the
    # child holds a different object for the stepped position.
    protocol, topology = _instance("A")
    parent = LockStepWorld(protocol, topology, tuple(range(topology.n)))
    child = parent.branch()
    before = parent.nodes[0]
    child.apply(("wake", 0))
    assert parent.nodes[0] is before
    assert child.nodes[0] is not before
    assert not before.awake
    assert child.nodes[0].awake


def _queued(world: LockStepWorld) -> dict[tuple[int, int], tuple]:
    """Every non-empty channel's queued messages, read off the column."""
    n = world.topology.n
    return {
        divmod(link, n): tuple(_MESSAGES[h] for h in column)
        for link, column in world.hashes.items()
    }


def _fingerprint_from_scratch(world: LockStepWorld) -> int:
    """The world fingerprint rebuilt from node states and queued messages."""
    n = world.topology.n
    fp = 0
    for position in range(world.topology.n):
        fp ^= hash((1, position, hash(world.node_state(position))))
    for (src, dst), queue in _queued(world).items():
        fp ^= hash((2, src * n + dst, tuple(message_hash(m) for m in queue)))
    for position in world.pending_wakes:
        fp ^= hash((3, position))
    return fp


def _assert_consistent(world: LockStepWorld) -> None:
    n = world.topology.n
    for link, column in world.hashes.items():
        assert column, link  # an empty channel has no entry
        src, dst = divmod(link, n)
        assert src != dst, link
        for h in column:
            # every entry resolves to a message whose hash it is
            assert message_hash(_MESSAGES[h]) == h
    for position in range(world.topology.n):
        assert world.node_hash(position) == hash(world.node_state(position))
    assert world.fingerprint() == _fingerprint_from_scratch(world)
    assert dict(world.state_tuple()[1]) == {
        link: tuple(freeze_value(m) for m in queue)
        for link, queue in _queued(world).items()
    }


def _mixed_walk(world: LockStepWorld, rng: random.Random, steps: int) -> None:
    """Adversary actions (drops included) mixed with the explorer-only
    ``pop_head`` and ``drop_wakes`` bookkeeping steps."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15 and world.hashes:
            world.pop_head(rng.choice(sorted(_queued(world))))
            continue
        if roll < 0.25 and world.pending_wakes:
            pending = sorted(world.pending_wakes)
            world.drop_wakes(rng.sample(pending, rng.randint(1, len(pending))))
            continue
        actions = world.enabled_actions()
        if not actions:
            return
        try:
            world.apply(actions[rng.randrange(len(actions))])
        except ProtocolViolation:  # lost messages may break safety
            return


@pytest.mark.parametrize("name", deterministic_protocols(), ids=str)
def test_incremental_hashes_match_a_from_scratch_recomputation(name):
    protocol, topology = _instance(name)
    rng = random.Random(f"consistency:{name}")
    for _ in range(6):
        world = LockStepWorld(
            protocol, topology, tuple(range(topology.n)),
            fault_budget=rng.randrange(0, 4),
        )
        _assert_consistent(world)
        _mixed_walk(world, rng, rng.randrange(5, 30))
        _assert_consistent(world)
        # a branch inherits the columns and keeps them in step on its own
        child = world.branch()
        _mixed_walk(child, rng, rng.randrange(5, 30))
        _assert_consistent(child)
        _assert_consistent(world)


# -- the read API over the channel column -------------------------------------


def _sequence_protocol():
    """A protocol whose base node sends ``Seq(0)``, ``Seq(1)``, ``Seq(2)``
    down its port 0 on waking; a receiver records the last value.

    Each call builds new classes, so two calls give two message classes
    with one name and one field layout.
    """

    @dataclass(frozen=True, slots=True)
    class Seq(Message):
        value: int

    class SeqNode(Node):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.last = -1

        def on_wake(self, spontaneous):
            if spontaneous:
                for value in range(3):
                    self.ctx.send(0, Seq(value))

        def on_message(self, port, message):
            self.last = message.value

    class SeqProtocol(ElectionProtocol):
        name = "seq-read-api-test"

        def create_node(self, ctx):
            return SeqNode(ctx)

    return SeqProtocol(), Seq


def _frozen_channel(world, link):
    return dict(world.state_tuple()[1]).get(link, ())


def test_reads_return_the_queued_messages_after_each_step():
    protocol, seq = _sequence_protocol()
    topology = complete_with_sense_of_direction(3)
    world = LockStepWorld(protocol, topology, (0,))
    world.apply(("wake", 0))
    link = (0, topology.neighbor(0, 0))
    expected = [seq(value) for value in range(3)]
    assert _frozen_channel(world, link) == tuple(map(freeze_value, expected))

    child = world.branch()
    for w in (world, child):
        head = w.peek_message(link)
        assert type(head) is seq and head == expected[0]
        assert _frozen_channel(w, link) == tuple(map(freeze_value, expected))

    effect = child.peek_transition(link)
    child.apply(("deliver", link))
    assert effect == (child.node_hash(link[1]), (), 0)
    assert child.nodes[link[1]].last == 0
    assert child.peek_message(link) == expected[1]
    assert _frozen_channel(child, link) == tuple(map(freeze_value, expected[1:]))
    # the parent still holds all three
    assert world.peek_message(link) == expected[0]
    assert _frozen_channel(world, link) == tuple(map(freeze_value, expected))

    child.pop_head(link)
    assert type(child.peek_message(link)) is seq
    assert child.peek_message(link) == expected[2]
    assert _frozen_channel(child, link) == (freeze_value(expected[2]),)
    receiver = child.node_hash(link[1])
    assert child.peek_transition(link)[0] != receiver  # last becomes 2
    child.pop_head(link)
    assert link not in dict(child.state_tuple()[1])
    assert world.peek_message(link) == expected[0]


def test_look_alike_message_classes_resolve_to_their_own_class():
    # Two message classes with one name and one field layout freeze to the
    # same structure; the intern table must still hand each world back
    # objects of its own class.
    topology = complete_with_sense_of_direction(3)
    link = (0, topology.neighbor(0, 0))
    worlds = []
    for protocol, seq in (_sequence_protocol(), _sequence_protocol()):
        world = LockStepWorld(protocol, topology, (0,))
        world.apply(("wake", 0))
        worlds.append((world, seq))
    (first, first_seq), (second, second_seq) = worlds
    assert first_seq is not second_seq
    assert freeze_value(first_seq(0)) == freeze_value(second_seq(0))
    assert type(first.peek_message(link)) is first_seq
    assert type(second.peek_message(link)) is second_seq
    second.apply(("deliver", link))
    assert second.nodes[link[1]].last == 0
