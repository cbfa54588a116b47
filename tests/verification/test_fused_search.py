"""The fused DFS against a reference search built from ``LockStepWorld.apply``.

``_SearchCore.run`` takes every transition inline — pop, memo lookup,
node install, replayed sends, compression, one fingerprint-table probe —
and narrows the compression scan to the actor's pending wake-up, the links
into the actor and the links the step gave a new head.  This module keeps
the search it replaced, written plainly: ``LockStepWorld.apply`` per
transition, a scan of *every* pending wake-up and *every* channel head per
arrival, ``FingerprintTable.get``/``put`` per probe.  For every
deterministic registered protocol, in every search mode, the two must
produce the same report and the same visited table, fingerprint for
fingerprint and sleep mask for sleep mask.

The fused search packs its sleep masks over the search's action bits
(:func:`~repro.verification.explore.action_bit`); the reference packs its
masks with the same helper, and otherwise runs its own plain search.

The toy protocol ``_NoisyClaim`` pins the one edge the narrowed scan has
to get right by construction: a handler that sends two messages down a
previously empty link whose first message is inert at an awake receiver.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest

import repro  # noqa: F401  (imports register every protocol)
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol, registered_protocols
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.verification import explore
from repro.verification.explore import (
    ExplorationReport,
    _check_terminal,
    action_bit,
    explore_protocol,
)
from repro.verification.store import FingerprintTable
from repro.verification.world import _MESSAGES, LockStepWorld, independent
from tests.verification.conftest import deterministic_protocols

#: Search modes, as ``explore_protocol`` keyword arguments.
_MODES = {
    "default": {},
    "no-compress": {"compress": False},
    "no-por": {"por": False},
}


class _Reference:
    """The pre-fusion search, one plain step at a time."""

    def __init__(self, protocol, topology, *, max_states=200_000, **mode):
        self.protocol = protocol
        self.por = mode.get("por", True)
        self.compress = mode.get("compress", self.por) and self.por
        self.max_states = max_states
        self.n = topology.n
        self.table = FingerprintTable()
        self.report = ExplorationReport(
            states_explored=0, terminal_states=0, por=self.por
        )
        self.terminals: set[int] = set()
        self.root = LockStepWorld(protocol, topology, tuple(range(topology.n)))

    def compress_state(self, world):
        report = self.report
        stale = [p for p in world.pending_wakes if world.nodes[p].awake]
        if stale:
            world.drop_wakes(stale)
            report.compressed_steps += len(stale)
        if not self.compress:
            return
        for kind, link in world.enabled_actions():
            if kind != "deliver":
                continue
            receiver_fp = world.node_hash(link[1])
            while ("deliver", link) in world.enabled_actions():
                new_fp, sends, declared = world.peek_transition(link)
                if sends or declared or new_fp != receiver_fp:
                    break
                world.pop_head(link)
                report.compressed_steps += 1

    def arrive(self, world, sleep):
        report = self.report
        if self.por:
            self.compress_state(world)
        key = world.fingerprint()
        stored = self.table.get(key)
        if stored == 0:
            return None
        actions = world.enabled_actions()
        allowed = -1 if stored is None else stored
        mask, candidates = 0, []
        for action in actions:
            bit = 1 << action_bit(action, self.n)
            if action in sleep:
                mask |= bit
            elif allowed & bit:
                candidates.append(action)
        if stored is not None:
            if not candidates:
                return None
            self.table.put(key, stored & mask)
            return [world, candidates, 0, sleep]
        report.states_explored += 1
        if not actions:
            self.table.put(key, 0)
            self.terminals.add(key)
            _check_terminal(world, self.protocol, report)
            return None
        self.table.put(key, mask)
        return [world, candidates, 0, sleep] if candidates else None

    def run(self) -> ExplorationReport:
        report = self.report
        first = self.arrive(self.root, set())
        stack = [first] if first else []
        while stack:
            frame = stack[-1]
            world, candidates, index, sleep = frame
            action = candidates[index]
            frame[2] = index + 1
            last = frame[2] == len(candidates)
            if last:
                stack.pop()
                child = world
            else:
                child = world.branch()
            child_sleep = {slept for slept in sleep if independent(action, slept)}
            if self.por and not last:
                sleep.add(action)
            child.apply(action)
            report.transitions += 1
            child_frame = self.arrive(child, child_sleep)
            if len(self.table) > self.max_states:
                report.complete = False
                break
            if child_frame:
                stack.append(child_frame)
        report.terminal_states = len(self.terminals)
        return report


def _entries(table: FingerprintTable) -> dict[int, int]:
    """Every stored ``fingerprint -> sleep mask`` pair of a table."""
    return {
        key: table._overflow[key] if value == -1 else value
        for key, value in zip(table._keys, table._values)
        if key != 0
    }


@pytest.fixture
def fused(monkeypatch):
    """Run ``explore_protocol``; return its report and its visited table."""
    tables: list[FingerprintTable] = []

    class Recorded(FingerprintTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(explore, "FingerprintTable", Recorded)

    def search(protocol, topology, **mode):
        tables.clear()
        report = explore_protocol(protocol, topology, **mode)
        (table,) = tables
        return report, table

    return search


def _assert_same_search(fused_search, protocol_factory, topology, **mode):
    report, table = fused_search(protocol_factory(), topology, **mode)
    reference = _Reference(protocol_factory(), topology, **mode)
    assert vars(report) == vars(reference.run())
    assert len(table) == len(reference.table)
    assert _entries(table) == _entries(reference.table)
    return table


def _instance(name):
    cls = registered_protocols()[name]
    n = 4 if name in {"B", "C"} else 3
    if cls.needs_sense_of_direction:
        return cls, complete_with_sense_of_direction(n)
    return cls, complete_without_sense(n, seed=0)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", deterministic_protocols(), ids=str)
def test_fused_search_matches_the_reference(fused, name, mode):
    cls, topology = _instance(name)
    _assert_same_search(fused, cls, topology, **_MODES[mode])


def test_truncated_search_matches_the_reference(fused):
    cls = registered_protocols()["A"]
    topology = complete_with_sense_of_direction(5)
    _assert_same_search(fused, cls, topology, max_states=700)


# -- the action bit order -----------------------------------------------------


@pytest.mark.parametrize("n", range(2, 8))
def test_action_bits_follow_the_enabled_actions_order(n):
    topology = complete_with_sense_of_direction(n)
    world = LockStepWorld(registered_protocols()["A"](), topology, tuple(range(n)))
    links = [(s, d) for s in range(n) for d in range(n) if s != d]
    world.hashes = dict.fromkeys(
        reversed([src * n + dst for src, dst in links]), (0,)
    )
    actions = world.enabled_actions()
    assert [action_bit(action, n) for action in actions] == list(range(n * n))
    order = explore._ActionOrder(n)
    assert order.actions == actions
    assert order.enabled(world) == (1 << n * n) - 1
    for d in range(n):
        # An action of another actor is independent of d's: it stays.
        kept = [a for a in actions if order.keep[d] >> action_bit(a, n) & 1]
        assert kept == [a for a in actions if independent(a, actions[d])]


def test_a_mask_with_bit_63_round_trips_through_the_overflow(fused):
    # Link (6, 7) is bit 63 at N=9.  (At N=8 the only bit past 62 is the
    # highest action, which is always its frame's last branch and so never
    # asleep.)
    cls = registered_protocols()["A"]
    topology = complete_with_sense_of_direction(9)
    assert action_bit(("deliver", (6, 7)), 9) == 63
    table = _assert_same_search(fused, cls, topology, max_states=300)
    wide = {k: v for k, v in _entries(table).items() if v >= 2**63}
    assert any(mask >> 63 & 1 for mask in wide.values())
    assert wide.keys() == table._overflow.keys()
    assert all(table.get(key) == mask for key, mask in wide.items())
    copy = FingerprintTable.unpacked(table.packed())
    assert _entries(copy) == _entries(table)
    merged = FingerprintTable()
    merged.merge(table)
    assert _entries(merged) == _entries(table)


# -- a handler that puts two messages on an empty link ------------------------


@dataclass(frozen=True, slots=True)
class _Noise(Message):
    """Wakes a sleeping receiver; inert at an awake one."""


@dataclass(frozen=True, slots=True)
class _Claim(Message):
    value: int


@dataclass(frozen=True, slots=True)
class _Ack(Message):
    pass


class _NoisyClaimNode(Node):
    """A base node sends ``_Noise`` then its ``_Claim`` down every link.

    A node acks a claim larger than any it has seen (its own id included,
    once it woke spontaneously); a claimant with ``n - 1`` acks leads.  A
    node woken by a message is passive and never claims, so the largest
    claimant is the one node every other node acks.
    """

    def __init__(self, ctx):
        super().__init__(ctx)
        self.best = -1
        self.acks = 0

    def on_wake(self, spontaneous):
        if spontaneous:
            self.best = self.ctx.node_id
            for port in range(self.ctx.num_ports):
                self.ctx.send(port, _Noise())
                self.ctx.send(port, _Claim(self.ctx.node_id))

    def on_message(self, port, message):
        if isinstance(message, _Claim):
            if message.value > self.best:
                self.best = message.value
                self.ctx.send(port, _Ack())
        elif isinstance(message, _Ack):
            self.acks += 1
            if self.acks == self.ctx.n - 1:
                self.become_leader()


class _NoisyClaim(ElectionProtocol):
    name = "noisy-claim-fused-test"

    def create_node(self, ctx):
        return _NoisyClaimNode(ctx)


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_two_sends_onto_an_empty_link(fused, mode):
    topology = complete_with_sense_of_direction(3)
    _assert_same_search(fused, _NoisyClaim, topology, **_MODES[mode])


def test_noise_on_a_fresh_link_is_compressed():
    # A claimant's _Noise reaches an awake neighbour on a link the wake-up
    # itself created; compression must drain it there.
    topology = complete_with_sense_of_direction(3)
    compressed = explore_protocol(_NoisyClaim(), topology)
    plain = explore_protocol(_NoisyClaim(), topology, compress=False)
    assert compressed.leaders_seen == plain.leaders_seen
    assert compressed.quiescent_outcomes == plain.quiescent_outcomes
    assert compressed.states_explored < plain.states_explored


# -- replayed sends are audited once, at capture ------------------------------


def _immutable(value) -> bool:
    """Whether a message field can never change after its audit."""
    if value is None or type(value) in (bool, int):
        return True
    if type(value) is tuple:
        return all(type(item) is int for item in value)
    return isinstance(value, Message) and _frozen(value)


def _frozen(message: Message) -> bool:
    # The class itself must be a frozen dataclass, not merely inherit
    # from one: an undecorated subclass can carry attributes of its own.
    params = vars(type(message)).get("__dataclass_params__")
    return (
        params is not None
        and params.frozen
        and all(
            _immutable(getattr(message, f.name))
            for f in dataclasses.fields(message)
        )
    )


@pytest.mark.parametrize("name", deterministic_protocols(), ids=str)
def test_captured_messages_cannot_change_after_their_audit(monkeypatch, name):
    # ``_CaptureContext.send`` audits every message with ``message_bits``
    # when a memo miss captures it; the fused loop replays the captured
    # object without a second audit.  That is sound only while no
    # captured message can change: a frozen dataclass whose fields are
    # None, bools, ints, tuples of ints or such messages again.
    captured: list[Message] = []
    run_transition = LockStepWorld._run_transition

    def recording(world, position, port, message):
        entry = run_transition(world, position, port, message)
        captured.extend(_MESSAGES[sent] for _, sent in entry[1])
        return entry

    monkeypatch.setattr(LockStepWorld, "_run_transition", recording)
    cls, topology = _instance(name)
    explore_protocol(cls(), topology)
    assert captured
    mutable = {type(m).__name__ for m in captured if not _frozen(m)}
    assert not mutable, f"{name} captures mutable messages: {sorted(mutable)}"
