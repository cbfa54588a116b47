"""The lock-step execution world shared by the explorer, fuzzer and replayer.

The timed simulator cannot branch (its event queue holds closures), so all
of :mod:`repro.verification` runs on a separate *lock-step* world of plain
FIFO queues.  Node state machines are reused verbatim — the **same**
``Node`` classes the simulator runs, driven through the same
``NodeContext`` interface, so there is no model/implementation gap.

A configuration is ``(per-node protocol state, per-channel FIFO queue,
pending spontaneous wake-ups)``.  The adversary's remaining freedom, once
latencies are abstracted away, is exactly the set of *actions*:

* ``("wake", position)`` — fire one pending spontaneous wake-up;
* ``("deliver", (src, dst))`` — deliver the head-of-line message of one
  channel (FIFO fixes the order *within* a channel; Section 2 guarantees
  nothing *across* channels).

Three things make the world cheap enough to explore at N=6:

**Persistent nodes and memoised local transitions.**
:meth:`LockStepWorld.branch` copies only the container skeleton (node
list, channel column, node hashes); node objects are shared between
branches and treated as immutable values.  A node's ``receive``/``wake``
is a pure function of its own structural state plus the arriving message
and the link it came over, so its effect — new state, sends, leader
declarations — is memoised in two tables shared by every branch:
deliveries under ``(link, state hash, message hash)``, spontaneous
wake-ups under ``(position, state hash)``.  Keys of the two tables can
never alias, and a delivery hit needs neither the port wiring nor the
message object.  A memoised effect stores its sends already resolved to
``(link, message hash)``.  The vast majority of transitions an exhaustive
search takes are *repeats* of a local transition seen on another
interleaving; those replace the actor's node entry with a shared
representative object by pointer and replay the captured sends, running
no protocol code, copying nothing and re-freezing nothing.  Only the
first occurrence of each local transition pays for a node clone, the
receive call and re-freezing — everything else is a dict hit.

**One channel column of message hashes.**  A link ``(src, dst)`` is the
int ``src * n + dst``, and :attr:`LockStepWorld.hashes` maps each
non-empty link to the tuple of its queued messages' hashes, head first.
That column is the only channel state a world holds: the message behind
a hash is recovered from one process-wide intern table, which
:func:`message_hash` fills the first time it hashes a message (every
message a node sends is hashed once, when a memo miss captures it).  The
table resolves a hash to the first message that produced it, so two
distinct messages with one 64-bit hash would read as one — the same
collision budget the transition memos, keyed by message hash, already
accept.  The hash covers the message's class as well as its structure,
so two message classes that share a name and fields never resolve to
each other.

**Structural fingerprints, hash-compacted to one machine word.**  Node and
message state is *frozen* into nested tuples of plain values
(:func:`freeze_value`) and hashed with Python's tuple hash — no pickling
anywhere on the hot path.  Each node carries a cached 64-bit hash, and a
channel's fingerprint component is the tuple hash of its link and its
hash column, so enqueues, head pops and replayed sends rehash a channel
without touching a message; :func:`message_hash` runs only when a memo
miss captures a transition's sends.  The world fingerprint is a single
``int`` that fits an 8-byte table slot (see
:mod:`repro.verification.store`) instead of a 16-byte digest object plus
a set entry.  Hash compaction trades a vanishing collision probability
(Stern–Dill: ~``|S|²/2⁶⁴``, under 10⁻⁹ for the ~10⁶-state searches run
here) for roughly 5× less resident memory per visited state.  Fork-started
workers inherit the interpreter's hash seed and its intern table, so
fingerprints are comparable across the parallel explorer's worker pool.

**A permutation-apply primitive.**  :meth:`LockStepWorld.state_tuple`
returns the frozen structural state, optionally relabelled through a node
permutation (positions, identities and — for hidden-wiring networks —
per-node port renumberings).  :mod:`repro.verification.symmetry` builds
automorphism-group candidates on top of it to canonicalise fingerprints
modulo rotation (sense of direction) or arbitrary relabelling (no sense
of direction).
"""

from __future__ import annotations

import copy
import enum
from typing import Any, Sequence

from repro.core.errors import ProtocolViolation
from repro.core.messages import Message, message_bits
from repro.core.node import Node, NodeContext
from repro.core.protocol import ElectionProtocol
from repro.topology.complete import CompleteTopology

#: One adversary choice: ``("wake", position)``, ``("deliver", (src, dst))``
#: or — in fault-budgeted fuzzing worlds only — ``("drop", (src, dst))``.
Action = tuple[str, Any]

#: A memoised transition effect: ``(new node hash, sends, leader
#: declarations)``, each send resolved to ``(link, message hash)`` with the
#: link as the int ``src * n + dst``.
_Effect = tuple[int, tuple[tuple[int, int], ...], int]


def actor(action: Action) -> int:
    """The position whose node an action steps.

    ``wake p`` steps node ``p``; ``deliver (src, dst)`` steps node ``dst``;
    ``drop (src, dst)`` is attributed to ``dst`` too (the deprived node).
    This is the key to the independence relation: actions with different
    actors commute (see :func:`independent`).
    """
    kind, arg = action
    return arg if kind == "wake" else arg[1]


def independent(a: Action, b: Action) -> bool:
    """Whether two enabled actions commute (Mazurkiewicz independence).

    Sufficient condition, proved in ``docs/verification.md``: actions with
    distinct actors commute.  Each action mutates exactly its actor's node,
    pops exactly its own channel's head, and only ever *appends* to other
    channels' tails — and appending at the tail commutes with popping the
    head of a non-empty FIFO queue.
    """
    return actor(a) != actor(b)


class _Interned(dict):
    """``arg -> (kind, arg)`` action tuples, each built once per process.

    :meth:`LockStepWorld.enabled_actions` hands out these shared tuples, so
    the explorer's sleep-set tests compare actions by identity first.  An
    entry is a pure function of its key, so sharing the tables between
    worlds and callers cannot couple them.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def __missing__(self, arg: Any) -> Action:
        action = self[arg] = (self.kind, arg)
        return action


_WAKE_ACTIONS = _Interned("wake")
_DELIVER_ACTIONS = _Interned("deliver")
_DROP_ACTIONS = _Interned("drop")


# -- structural freezing -----------------------------------------------------
#
# ``freeze_value`` turns protocol state (node ``__dict__`` entries, message
# fields, nested records) into nested tuples of hashable plain values.  The
# encoding is canonical for the state machines in this repo: every node
# attribute is created in ``__init__`` (so ``__dict__`` iteration order is
# the class-definition order for all nodes of a type), and the only
# history-order-sensitive containers — dicts keyed by token/port and sets —
# are sorted.

#: Field names whose ``int`` values are node *identities* (relabelled by a
#: permutation's identity map).  ``node_id`` covers ``Strength.node_id``.
ID_FIELDS = frozenset({"cand", "max_seen", "node_id"})

#: Field names whose ``int`` values are *port numbers* of the holding node.
PORT_FIELDS = frozenset({"owner_port", "reply_port", "_next_port"})

#: Fields holding sequences of ports.
PORT_SEQ_FIELDS = frozenset({"_fp_proceed_ports", "_check_queue"})

#: Fields holding ``(port, payload)`` pairs (or one such pair).
PORT_PAIR_FIELDS = frozenset({"_retry_ports", "_buffered"})

#: Fields holding dicts keyed by port.
PORT_KEYED_FIELDS = frozenset({"_in_flight"})


class Relabeling:
    """How one node's frozen state is rewritten under a permutation.

    ``id_map[old_id] -> new_id`` relabels identity-valued fields;
    ``port_map[old_port] -> new_port`` relabels port-valued fields of this
    particular node (``None`` means ports keep their numbers, as they do
    under rotations of the canonical cyclic wiring).  Values outside the
    maps' domains (sentinels like ``-1``, exhausted port counters equal to
    ``num_ports``) pass through unchanged.
    """

    __slots__ = ("id_map", "port_map")

    def __init__(
        self,
        id_map: dict[int, int] | None,
        port_map: Sequence[int] | None,
    ) -> None:
        self.id_map = id_map
        self.port_map = port_map

    def ident(self, value: int) -> int:
        """Relabel an identity-valued field (out-of-map values pass through)."""
        if self.id_map is None:
            return value
        return self.id_map.get(value, value)

    def port(self, value: int) -> int:
        """Relabel a port-valued field (out-of-range values pass through)."""
        pm = self.port_map
        if pm is None or not 0 <= value < len(pm):
            return value
        return pm[value]


_IDENTITY = Relabeling(None, None)

#: Types a copy-on-write node clone can share with the original outright.
_SHAREABLE = (int, float, str, bytes, frozenset, enum.Enum)


def _is_shareable(value: Any) -> bool:
    return (
        value is None
        or isinstance(value, _SHAREABLE)
        or (
            isinstance(value, tuple)
            and all(_is_shareable(item) for item in value)
        )
    )


def _copy_state_value(value: Any) -> Any:
    """An independent copy of one node attribute, sharing immutables.

    The semantics of ``copy.deepcopy`` for the value shapes protocol state
    actually uses — scalars, ``Strength`` tuples, enums, lists/dicts/sets
    of those, and plain mutable records — at a fraction of the cost,
    because immutable values (most fields) are shared, not copied.
    Anything unrecognised falls back to ``deepcopy``.
    """
    if value is None or isinstance(value, _SHAREABLE):
        return value
    if isinstance(value, tuple):
        if all(_is_shareable(item) for item in value):
            return value
        return copy.deepcopy(value)
    if isinstance(value, list):
        return [_copy_state_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy_state_value(item) for key, item in value.items()}
    if isinstance(value, set):
        return set(value)
    clone_dict = getattr(value, "__dict__", None)
    if clone_dict is not None:
        clone = object.__new__(type(value))
        clone.__dict__.update(
            (key, _copy_state_value(item)) for key, item in clone_dict.items()
        )
        return clone
    return copy.deepcopy(value)


def freeze_value(value: Any, relabel: Relabeling = _IDENTITY, field: str = ""):
    """A hashable structural encoding of one protocol-state value.

    Handles the value shapes protocol nodes and messages actually use:
    scalars, named tuples (``Strength``), frozen dataclasses (messages),
    dicts, lists/tuples, sets and plain records with a ``__dict__``.
    ``field`` is the attribute name the value was reached through; the
    ``*_FIELDS`` registries use it to decide identity/port relabelling.
    """
    if value is None or value is True or value is False:
        return value
    if type(value) is int:
        if field in ID_FIELDS:
            return relabel.ident(value)
        if field in PORT_FIELDS or field in PORT_SEQ_FIELDS:
            return relabel.port(value)
        return value
    if type(value) is str or type(value) is float or type(value) is bytes:
        return value
    if isinstance(value, enum.Enum):
        # Encode by name+value, not object identity.
        return (type(value).__name__, value.value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # Named tuple (Strength): relabel field-wise, tag with the type.
        return (type(value).__name__,) + tuple(
            freeze_value(v, relabel, name)
            for name, v in zip(value._fields, value)
        )
    if isinstance(value, (list, tuple)):
        if field in PORT_PAIR_FIELDS and value and type(value[0]) is int:
            # one (port, payload) pair, e.g. protocol E's ``_buffered``
            return (relabel.port(value[0]),) + tuple(
                freeze_value(v, relabel) for v in value[1:]
            )
        if field in PORT_PAIR_FIELDS:
            return tuple(
                freeze_value(v, relabel, field) for v in value
            )
        return tuple(freeze_value(v, relabel, field) for v in value)
    if isinstance(value, dict):
        if field in PORT_KEYED_FIELDS:
            return tuple(
                sorted(
                    (relabel.port(k), freeze_value(v, relabel))
                    for k, v in value.items()
                )
            )
        return tuple(
            sorted((k, freeze_value(v, relabel)) for k, v in value.items())
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(freeze_value(v, relabel, field) for v in value))
    if hasattr(value, "__dataclass_fields__"):
        # Frozen message dataclasses; tag with the type so two message
        # types with identical field values cannot collide structurally.
        return (type(value).__name__,) + tuple(
            freeze_value(getattr(value, name), relabel, name)
            for name in value.__dataclass_fields__
        )
    if hasattr(value, "__dict__"):
        # Plain record (e.g. a pending-challenge entry).
        return (type(value).__name__,) + tuple(
            (k, freeze_value(v, relabel, k))
            for k, v in value.__dict__.items()
        )
    return value


#: Global per-message hash memo.  Messages are immutable frozen
#: dataclasses; keys compare by value *and* class (dataclass ``__eq__``
#: rejects other types), so distinct message types never alias.  Only
#: captured sends consult it: queued messages are their hashes.
_MESSAGE_HASH: dict[Message, int] = {}

#: The intern table: message hash -> the first message with that hash.
#: Every world's channel column holds hashes only and reads its messages
#: back from here (see the module docstring for the collision budget).
_MESSAGES: dict[int, Message] = {}


def message_hash(message: Message) -> int:
    """Memoised 64-bit hash of one (immutable) message: its class and its
    frozen structure.  Interns the message on first sight."""
    h = _MESSAGE_HASH.get(message)
    if h is None:
        h = _MESSAGE_HASH[message] = hash((type(message), freeze_value(message)))
        _MESSAGES.setdefault(h, message)
    return h


class _CaptureContext(NodeContext):
    """Context for running one node transition in isolation.

    Sends and leader declarations are captured instead of applied, so the
    world can memoise the transition's effect (see
    :meth:`LockStepWorld._run_transition`) and replay it — including the
    audit and declaration ordering — without re-running the node code.
    """

    __slots__ = (
        "node_id",
        "n",
        "num_ports",
        "has_sense_of_direction",
        "_topology",
        "_position",
        "sends",
        "declared",
    )

    def __init__(self, topology: CompleteTopology, position: int) -> None:
        self.node_id = topology.id_at(position)
        self.n = topology.n
        self.num_ports = topology.num_ports
        self.has_sense_of_direction = topology.sense_of_direction
        self._topology = topology
        self._position = position
        self.sends: list[tuple[int, Message]] = []
        self.declared = 0

    def send(self, port: int, message: Message) -> None:  # noqa: D102
        message_bits(message, self.n)  # audit at the same point as a live send
        self.sends.append((port, message))

    def port_label(self, port: int):  # noqa: D102
        return self._topology.label(self._position, port)

    def port_with_label(self, distance: int) -> int:  # noqa: D102
        return self._topology.port_with_label(self._position, distance)

    def now(self) -> float:  # noqa: D102
        # No protocol reads the clock in its transition logic (they only
        # pass it to traces, which the lock-step world drops); memoised
        # transitions depend on (state, port, message) alone.
        return 0.0

    def declare_leader(self) -> None:  # noqa: D102
        self.declared += 1

    def trace(self, kind: str, **detail: Any) -> None:  # noqa: D102
        pass


def _clone_node(node: Node, ctx: NodeContext) -> Node:
    """An independent copy of ``node`` wired to ``ctx``."""
    clone = object.__new__(type(node))
    clone_dict = clone.__dict__
    for key, value in node.__dict__.items():
        if key != "ctx":
            clone_dict[key] = _copy_state_value(value)
    clone.ctx = ctx
    return clone


def _freeze_node(node: Node, relabel: Relabeling = _IDENTITY):
    """Frozen structural state of one node (type-tagged nested tuples).

    Node attributes are created in ``__init__`` for every protocol in the
    repo, so ``__dict__`` iteration order is class-definition order and
    the values-only encoding is canonical without sorting or field names.
    """
    items: list = [type(node).__name__]
    append = items.append
    identity = relabel is _IDENTITY
    for key, value in node.__dict__.items():
        if key == "ctx":
            continue
        if identity and (type(value) is int or value is None):
            append(value)
        else:
            append(freeze_value(value, relabel, key))
    return tuple(items)


class LockStepWorld:
    """One node-states + channel-column configuration, branchable cheaply.

    A link ``(src, dst)`` is stored as the int ``src * n + dst``; the
    public methods take and return tuple links, as :data:`Action` does.
    """

    __slots__ = (
        "topology",
        "fault_budget",
        "dropped",
        "nodes",
        "hashes",
        "pending_wakes",
        "leaders",
        "messages_sent",
        "_node_fp",
        "_fp",
        "_wake_memo",
        "_deliver_memo",
        "_reps",
    )

    def __init__(
        self,
        protocol: ElectionProtocol,
        topology: CompleteTopology,
        base_positions: tuple[int, ...],
        fault_budget: int = 0,
    ) -> None:
        protocol.validate(topology)
        self.topology = topology
        #: Remaining ``("drop", link)`` actions the adversary may still
        #: take.  Zero (the default, and the explorer's only mode) keeps
        #: the action set at the paper's reliable-link model; the fuzzer's
        #: fault families set it per episode.  Budget and drop count are
        #: deliberately NOT folded into the incremental fingerprint: fault
        #: worlds are for fuzzing, where no state deduplication happens.
        self.fault_budget = fault_budget
        #: Messages destroyed by ``("drop", ...)`` actions so far.
        self.dropped = 0
        # Root nodes never run a handler on this context: every transition
        # runs on a clone wired to a fresh one (``_run_transition``).
        self.nodes: list[Node] = [
            protocol.create_node(_CaptureContext(topology, position))
            for position in range(topology.n)
        ]
        #: The channel column: per non-empty link ``src * n + dst``, the
        #: :func:`message_hash` of each queued message, head first, as an
        #: immutable tuple; absent key == empty channel.
        self.hashes: dict[int, tuple[int, ...]] = {}
        self.pending_wakes: frozenset[int] = frozenset(base_positions)
        self.leaders: tuple[int, ...] = ()
        self.messages_sent = 0
        self._node_fp: list[int] = [
            hash(self.node_state(p)) for p in range(topology.n)
        ]
        # Local-transition memos and the state-hash -> representative node
        # map, shared by reference across every branch of this world (pure
        # deterministic data; see ``_run_transition``).
        self._wake_memo: dict = {}
        self._deliver_memo: dict = {}
        self._reps: dict[int, Node] = {
            fp: node for fp, node in zip(self._node_fp, self.nodes)
        }
        # Zobrist-style incremental world fingerprint: the XOR of one
        # salted hash per component (node state, channel column, pending
        # wake-up).  Every mutation folds the old component out and the
        # new one in, so ``fingerprint()`` is O(1) instead of rebuilding
        # and sorting the whole configuration at every arrival.
        fp = 0
        for p, node_fp in enumerate(self._node_fp):
            fp ^= hash((1, p, node_fp))
        for p in self.pending_wakes:
            fp ^= hash((3, p))
        self._fp = fp

    # -- branching ----------------------------------------------------------

    def branch(self) -> "LockStepWorld":
        """A copy sharing node objects and channel columns with ``self``.

        Node objects are treated as immutable values once installed (a
        transition *replaces* its actor's entry in ``nodes`` with a shared
        representative, never mutates in place), so a branch is O(N)
        pointer copies — no copy-on-write bookkeeping is needed, and two
        sibling branches can never observe each other's steps.  The
        transition memos and representative map are shared by reference:
        they are pure functions of (state, link, message), so every branch
        of a campaign feeds the same caches.
        """
        child = object.__new__(LockStepWorld)
        child.topology = self.topology
        child.fault_budget = self.fault_budget
        child.dropped = self.dropped
        child.nodes = self.nodes.copy()
        child.hashes = self.hashes.copy()
        child.pending_wakes = self.pending_wakes
        child.leaders = self.leaders
        child.messages_sent = self.messages_sent
        child._node_fp = self._node_fp.copy()
        child._fp = self._fp
        child._wake_memo = self._wake_memo
        child._deliver_memo = self._deliver_memo
        child._reps = self._reps
        return child

    # -- transitions ---------------------------------------------------------

    def _link(self, link: tuple[int, int]) -> int:
        """The int key of a tuple link."""
        return link[0] * self.topology.n + link[1]

    def _push(self, link: int, message_fp: int) -> None:
        """Append one message hash to a channel's column."""
        # O(log N) audit, as in sim
        message_bits(_MESSAGES[message_fp], self.topology.n)
        old = self.hashes.get(link)
        if old is None:
            new = self.hashes[link] = (message_fp,)
            self._fp ^= hash((2, link, new))
        else:
            new = self.hashes[link] = old + (message_fp,)
            self._fp ^= hash((2, link, old)) ^ hash((2, link, new))

    def on_leader(self, position: int) -> None:
        """Record a leader declaration; raise on the second distinct one."""
        self.leaders = self.leaders + (position,)
        if len(set(self.leaders)) > 1:
            ids = sorted(self.topology.id_at(p) for p in set(self.leaders))
            raise ProtocolViolation(f"two leaders declared: {ids}")

    def enabled_actions(self) -> list[Action]:
        """Every choice the adversary has in this configuration, in a
        canonical deterministic order (wake-ups, then channel deliveries,
        then — while the fault budget lasts — channel-head drops).

        The action tuples are interned, so equal actions are one object."""
        wakes = self.pending_wakes
        actions = (
            list(map(_WAKE_ACTIONS.__getitem__, sorted(wakes))) if wakes else []
        )
        if self.hashes:
            # ``src * n + dst`` sorts as ``(src, dst)`` does.
            n = self.topology.n
            links = [divmod(link, n) for link in sorted(self.hashes)]
            actions += map(_DELIVER_ACTIONS.__getitem__, links)
            if self.fault_budget > 0:
                actions += map(_DROP_ACTIONS.__getitem__, links)
        return actions

    def peek_message(self, link: tuple[int, int]) -> Message:
        """Head-of-line message of a channel (for narration; no mutation)."""
        return _MESSAGES[self.hashes[self._link(link)][0]]

    def _pop_queue(self, link: int) -> int:
        """Remove a channel's head; return its message hash."""
        hashes = self.hashes
        column = hashes[link]
        fp = self._fp ^ hash((2, link, column))
        if len(column) > 1:
            rest = hashes[link] = column[1:]
            fp ^= hash((2, link, rest))
        else:
            del hashes[link]
        self._fp = fp
        return column[0]

    def pop_head(self, link: tuple[int, int]) -> None:
        """Consume a channel head **without** running the receiver.

        Only sound when the delivery is known to be inert — i.e. running
        ``receive`` on the head message would change nothing but the queue
        (see the compression layer in :mod:`repro.verification.explore`,
        whose DFS pops inert heads inline; this is the reference step).
        """
        self._pop_queue(self._link(link))

    def drop_wakes(self, positions) -> None:
        """Clear pending wake-up flags without stepping the nodes.

        The reference step of the explorer's stale-wake compression: the
        nodes are already awake, so the flags are pure bookkeeping.
        """
        for position in positions:
            self._fp ^= hash((3, position))
        self.pending_wakes = self.pending_wakes - frozenset(positions)

    def _run_transition(
        self, position: int, port: int, message: Message | None
    ) -> _Effect:
        """Run one node transition in isolation and capture its effect.

        A node's ``receive`` (and ``wake``) is a pure function of its own
        structural state plus the arriving ``(port, message)`` — contexts
        expose only constants, and no protocol reads the clock — so the
        effect ``(new state hash, sends, leader declarations)`` is what
        the callers memoise and every branch of the campaign shares.
        ``port < 0`` encodes a spontaneous wake-up.  The transition runs
        once, on a clone wired to a :class:`_CaptureContext`; the clone
        then becomes the shared representative object for its new state
        hash, so memo hits replace the actor's node by pointer — no copy,
        no protocol code, no re-freezing.  Sends come back resolved to
        ``(link, message hash)``, ready to replay; hashing them interns
        the messages.
        """
        ctx = _CaptureContext(self.topology, position)
        clone = _clone_node(self.nodes[position], ctx)
        if port < 0:
            clone.wake(spontaneous=True)
        else:
            clone.receive(port, message)
        new_fp = hash(_freeze_node(clone))
        if new_fp not in self._reps:
            self._reps[new_fp] = clone
        neighbor = self.topology.neighbor
        base = position * self.topology.n
        sends = tuple(
            (base + neighbor(position, out), message_hash(sent))
            for out, sent in ctx.sends
        )
        return new_fp, sends, ctx.declared

    def _delivery(self, link: int, message_fp: int) -> _Effect:
        """The memoised effect of delivering ``message_fp`` over ``link``."""
        src, dst = divmod(link, self.topology.n)
        key = (link, self._node_fp[dst], message_fp)
        entry = self._deliver_memo.get(key)
        if entry is None:
            port = self.topology.port_to(dst, src)
            entry = self._deliver_memo[key] = self._run_transition(
                dst, port, _MESSAGES[message_fp]
            )
        return entry

    def _install(self, position: int, entry: _Effect) -> None:
        """Apply a memoised transition effect to this world."""
        new_fp, sends, declared = entry
        old_fp = self._node_fp[position]
        if new_fp != old_fp:
            self.nodes[position] = self._reps[new_fp]
            self._node_fp[position] = new_fp
            self._fp ^= hash((1, position, old_fp)) ^ hash((1, position, new_fp))
        if sends:
            push = self._push
            for link, message_fp in sends:
                push(link, message_fp)
            self.messages_sent += len(sends)
        for _ in range(declared):
            self.on_leader(position)

    def apply(self, action: Action) -> None:
        """Take one transition: fire a wake-up, deliver a channel head, or
        (fault-budgeted worlds) destroy a channel head.

        The fuzzer, the replayer and ``count_unpruned_interleavings`` step
        through here.  The explorer's DFS (``_SearchCore.run``) takes the
        same transition inline, over the same column, memos and
        fingerprint components; ``tests/verification/test_fused_search.py``
        pins the two to the same explored graph.
        """
        kind, arg = action
        if kind == "deliver":
            link = self._link(arg)
            entry = self._delivery(link, self._pop_queue(link))
            self._install(arg[1], entry)
        elif kind == "wake":
            self._fp ^= hash((3, arg))
            self.pending_wakes = self.pending_wakes - {arg}
            key = (arg, self._node_fp[arg])
            entry = self._wake_memo.get(key)
            if entry is None:
                entry = self._wake_memo[key] = self._run_transition(arg, -1, None)
            self._install(arg, entry)
        else:  # "drop"
            self._pop_queue(self._link(arg))
            self.dropped += 1
            self.fault_budget -= 1

    def peek_transition(self, link: tuple[int, int]) -> _Effect:
        """The effect delivering ``link``'s head would have, without taking
        the step.  A delivery is *inert* exactly when the returned entry is
        ``(current node hash, no sends, no declarations)`` — the test the
        explorer's compression layer runs, inline, per scanned channel
        head."""
        key = self._link(link)
        return self._delivery(key, self.hashes[key][0])

    # -- identity -------------------------------------------------------------

    def node_state(
        self, position: int, relabel: Relabeling = _IDENTITY
    ):
        """Frozen structural state of one node (see :func:`_freeze_node`)."""
        return _freeze_node(self.nodes[position], relabel)

    def node_hash(self, position: int) -> int:
        """The maintained 64-bit structural hash of one node's state."""
        return self._node_fp[position]

    def fingerprint(self) -> int:
        """A 64-bit identity of this configuration (hash-compacted).

        The Zobrist-style XOR of per-component hashes maintained
        incrementally by every mutation, so reading it is O(1).
        Collisions merge distinct states silently — the Stern–Dill risk
        quantified in the module docstring — which every search here
        accepts in exchange for an 8-byte flat-table entry.
        """
        return self._fp

    # -- permutation-apply primitive -----------------------------------------

    def state_tuple(
        self,
        positions: Sequence[int] | None = None,
        id_map: dict[int, int] | None = None,
        port_maps: Sequence[Sequence[int] | None] | None = None,
    ):
        """The frozen structural world state, optionally permuted.

        ``positions[p]`` is where the node at position ``p`` lands (``None``
        = identity).  ``id_map`` relabels identity-valued fields and
        ``port_maps[p]`` renumbers node ``p``'s ports — rotations of the
        canonical cyclic wiring need neither, arbitrary relabellings of a
        hidden wiring need both (see :mod:`repro.verification.symmetry`).

        The encoding covers exactly what :meth:`fingerprint` covers — node
        states, channel contents, pending wake-ups — so two worlds with
        equal ``state_tuple()`` are behaviourally identical, and a world's
        orbit under a group of permutations is the set of its permuted
        tuples.
        """
        n = self.topology.n
        if positions is None:
            positions = range(n)
        relabels = [
            Relabeling(id_map, port_maps[p] if port_maps else None)
            for p in range(n)
        ]
        nodes = [None] * n
        for p in range(n):
            nodes[positions[p]] = self.node_state(p, relabels[p])
        queues = []
        for link, column in self.hashes.items():
            src, dst = divmod(link, n)
            queues.append((
                (positions[src], positions[dst]),
                tuple(freeze_value(_MESSAGES[h], relabels[src]) for h in column),
            ))
        queues.sort()
        wakes = tuple(sorted(positions[p] for p in self.pending_wakes))
        return (tuple(nodes), tuple(queues), wakes)
