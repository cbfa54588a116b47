"""Exhaustive interleaving exploration — an explicit-state checker with POR.

The paper's safety claims are "for every execution"; random delay sampling
only ever visits a sliver of that space.  For small N this module explores
it **completely**: the asynchronous adversary's remaining freedom, once
latencies are abstracted away, is exactly (a) the interleaving of
spontaneous wake-ups with everything else and (b) which channel's
head-of-line message is delivered next (see :mod:`repro.verification.world`).

:func:`explore_protocol` runs a depth-first search over those choices with
state-fingerprint memoisation and checks, in every reachable state:

* **safety** — never two leader declarations (checked on every transition);
* **liveness** — every quiescent state (no enabled action) has exactly one
  leader;
* **validity** — the leader woke spontaneously.

Reductions.  Three commutativity arguments prune the search:

1. **Eager no-op wake-ups** (``por=True``).  A pending spontaneous wake-up
   of a node that is *already awake* (woken passively by a message) is a
   pure bookkeeping transition: ``Node.wake`` is idempotent, so the action
   changes no node state, sends nothing, and enables/disables nothing — it
   only clears the pending flag.  Such an action is independent of *every*
   other action (including ones at the same node), i.e. it forms a
   persistent singleton, so it is fired immediately and merged into its
   predecessor instead of doubling the state space once per stale flag.

2. **Inert-delivery compression** (``compress=True``, the default under
   POR).  The same idea extended to message deliveries: when running
   ``receive`` on a channel head would change *nothing* — receiver state
   identical, nothing sent, no leader declared — the delivery is a pure
   queue pop, and it is fired eagerly instead of branching.  Inertness is
   read off the world's memoised local-transition table (the one
   :meth:`~repro.verification.world.LockStepWorld.peek_transition` reads):
   ``receive`` is a pure function of ``(receiver state, arrival port,
   message)``, so the question is answered exactly, at most once per
   distinct triple across the whole campaign, and a cache hit is a dict
   lookup with no node copy at all.  Unlike stale wake-ups this eager firing
   assumes *stale-monotonicity*: a delivery that is a no-op stays a no-op
   as its receiver makes progress.  That holds for every capture-style
   protocol here — a message is inert precisely when its token, strength
   or candidate is already dead, and progress never resurrects the dead —
   and ``tests/verification/test_por_soundness.py`` cross-validates the
   quiescent-outcome sets against ``compress=False`` exhaustively for
   every registered protocol.  Disable with ``compress=False`` for a
   protocol outside that family.

3. **Sleep sets** (``por=True``).  Actions stepping *different* nodes
   commute (:func:`repro.verification.world.independent`), so most
   interleavings of a configuration's enabled actions are redundant
   permutations of one another.  The search prunes them with sleep sets
   (Godefroid): after exploring action ``a`` from a state, ``a`` is put to
   sleep for the remaining branches, and a child inherits the sleeping
   actions that are independent of the action just taken — those orderings
   are provably covered by the sibling subtree.  Combined with state
   memoisation this needs Godefroid's state-matching rule to stay sound:
   the sleep set a state was first reached with is stored, and a revisit
   with a *smaller* sleep set re-explores exactly the actions the first
   visit slept (``stored - current``), with the stored set shrunk to the
   intersection.  Sleep sets preserve every reachable quiescent state and
   at least one linearisation of every Mazurkiewicz trace, so all three
   checks above are preserved.

Visited states live in a :class:`~repro.verification.store.FingerprintTable`
— 8-byte hash-compacted fingerprints plus sleep-set bitmasks in flat
preallocated arrays — and ``workers=K`` fans top-level action-prefix
strata across the :func:`repro.harness.parallel.run_sweep` fork pool
(workers return their visited tables and the parent merges/deduplicates).
There is no symmetry reduction: the protocols compare identities, so no
relabelling of nodes maps the checked system onto itself
(``docs/verification.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.errors import ProtocolViolation
from repro.core.protocol import ElectionProtocol
from repro.harness.parallel import run_sweep
from repro.topology.complete import CompleteTopology
from repro.verification.store import _EMPTY, _ZERO_ALIAS, FingerprintTable
from repro.verification.world import (
    _DELIVER_ACTIONS,
    _MESSAGES,
    _WAKE_ACTIONS,
    Action,
    LockStepWorld,
)

#: Expand the serial frontier until it holds this many strata per worker
#: before fanning out (more strata = better load balance, longer serial
#: prefix).
_STRATA_PER_WORKER = 4

#: Hard cap on the serial-prefix expansion, so stratification can never
#: dominate the search it is trying to parallelise.
_MAX_EXPANSION_STATES = 4_096


@dataclass
class ExplorationReport:
    """What the exhaustive search saw."""

    states_explored: int
    terminal_states: int
    leaders_seen: set[int] = field(default_factory=set)
    #: True when the search finished within budget, i.e. the verdict covers
    #: *every* reachable interleaving.
    complete: bool = True
    max_messages_sent: int = 0
    #: Transitions applied (> states when diamonds or revisits occur).
    transitions: int = 0
    #: Whether partial-order reduction was enabled for this search.
    por: bool = True
    #: Quiescent outcomes: one ``(leader_id, messages_sent)`` pair per
    #: terminal state, deduplicated.  POR provably preserves this set;
    #: the cross-validation tests assert it equals the unpruned DFS's.
    quiescent_outcomes: set[tuple[int, int]] = field(default_factory=set)
    #: Inert transitions merged into their predecessors by compression
    #: (stale wake-ups + inert deliveries); not counted in ``transitions``.
    compressed_steps: int = 0
    #: Worker processes the search fanned out to (1 = serial).
    workers: int = 1

    def __str__(self) -> str:
        coverage = "complete" if self.complete else "TRUNCATED"
        mode = "POR" if self.por else "full DFS"
        return (
            f"{self.states_explored} states, {self.transitions} transitions, "
            f"{self.terminal_states} terminal, "
            f"leaders {sorted(self.leaders_seen)} ({coverage}, {mode})"
        )


def action_bit(action: Action, n: int) -> int:
    """The bit that stands for ``action`` in the action sets of a search
    over ``n`` nodes.

    Wake-up ``p`` is bit ``p``; delivery over ``(src, dst)`` is bit
    ``n + src·(n−1) + (dst − (dst > src))``.  Ascending bit order is
    :meth:`LockStepWorld.enabled_actions` order (wake-ups, then links,
    both sorted), so an action set is one int and its lowest bit is the
    first action in canonical order.
    """
    kind, arg = action
    if kind == "wake":
        return arg
    src, dst = arg
    return n + src * (n - 1) + dst - (dst > src)


class _ActionOrder:
    """One search's action numbering (see :func:`action_bit`), tabulated.

    Links are the ints ``src * n + dst`` that key
    :attr:`LockStepWorld.hashes`.
    """

    __slots__ = ("actions", "actors", "links", "wake_bits", "link_bits", "into", "keep")

    def __init__(self, n: int) -> None:
        pairs = [(src, dst) for src in range(n) for dst in range(n) if src != dst]
        #: Bit index -> the interned action tuple.
        self.actions: list[Action] = [_WAKE_ACTIONS[p] for p in range(n)]
        self.actions += map(_DELIVER_ACTIONS.__getitem__, pairs)
        #: Bit index -> the node the action steps.
        self.actors = [*range(n), *(dst for _, dst in pairs)]
        #: Bit index -> the action's link (-1 for a wake-up).
        self.links = [-1] * n + [src * n + dst for src, dst in pairs]
        self.wake_bits = [1 << p for p in range(n)]
        #: Link -> the bit of its delivery (0 for the unused ``p * n + p``).
        self.link_bits = [0] * (n * n)
        for index in range(n, len(self.links)):
            self.link_bits[self.links[index]] = 1 << index
        #: Per node ``d``: the bits of the links into ``d``, ascending in
        #: their source.
        self.into = [
            sum(self.link_bits[src * n + d] for src in range(n) if src != d)
            for d in range(n)
        ]
        #: Per actor ``d``: every bit but ``d``'s own actions (its wake-up
        #: and the links into it).  Actions of different actors commute
        #: (:func:`~repro.verification.world.independent`), so
        #: ``sleep & keep[d]`` is the sleep set a child inherits through
        #: an action of ``d``.
        self.keep = [~(self.wake_bits[d] | self.into[d]) for d in range(n)]

    def enabled(self, world: LockStepWorld) -> int:
        """``world.enabled_actions()`` as a bit set (no fault budget)."""
        return sum(
            map(self.link_bits.__getitem__, world.hashes),
            sum(map(self.wake_bits.__getitem__, world.pending_wakes)),
        )


@dataclass(slots=True)
class _Frame:
    """One DFS stack entry: a world, the branches it has not taken yet,
    its sleep set and its enabled actions, each as an action bit set."""

    world: LockStepWorld
    candidates: int
    sleep: int
    enabled: int


class _SearchCore:
    """The DFS engine, shared verbatim by the serial explorer, the
    frontier expansion, and every parallel worker (so a one-stratum run is
    byte-identical to the serial search)."""

    def __init__(
        self,
        protocol: ElectionProtocol,
        report: ExplorationReport,
        visited: FingerprintTable,
        *,
        por: bool,
        compress: bool,
        max_states: int,
    ) -> None:
        self.protocol = protocol
        self.report = report
        self.visited = visited
        self.por = por
        self.compress = compress and por
        self.max_states = max_states
        #: Fingerprints of quiescent states (parallel merge dedups on it).
        self.terminal_fps: set[int] = set()

    def run(
        self,
        world: LockStepWorld | None,
        stack: list[_Frame],
        spill: deque[_Frame] | None = None,
    ) -> None:
        """Arrive at ``world`` (the root, if given), then drive the DFS
        over ``stack`` to exhaustion or budget.

        Frames that still have branches to take go onto ``stack``, or into
        ``spill`` when one is given: the parallel search expands its
        frontier one frame at a time that way, through this same loop.

        Each iteration takes one transition inline — take the frame's
        lowest candidate bit, branch, pop the head hash off the link's
        column or clear the wake-up flag, look the local transition up in
        the world's memo, install the actor's new node, append the
        replayed sends' hashes — and then *arrives* at the child:
        compress, probe the fingerprint table once, build the child's
        frame.  The loop works on the world's int-keyed channel column
        alone; it reads a message object from the intern table only on a
        memo miss.  Every action set (sleep, enabled, candidates, stored
        mask) is an int over the search's action bits
        (:func:`action_bit`).  A replayed send is not
        audited again: ``_CaptureContext.send`` audited that same message
        when the memo miss captured it, and captured messages are frozen
        (``tests/verification/test_fused_search.py`` checks both).
        :meth:`LockStepWorld.apply` is the reference for the transition
        half; ``tests/verification/test_fused_search.py`` pins this loop
        against a search built from it, visited table included.

        Compression (under POR) fires every invisible transition enabled
        at the child: stale wake-ups first (always sound: ``Node.wake`` is
        idempotent), then inert deliveries (sound under the
        stale-monotonicity assumption in the module docstring).  Every
        arrived state is fully compressed, so the child of a fully
        compressed parent can only hold a stale wake-up or an inert head
        where the transition changed something:

        * only the actor's node changed, so only the actor's pending
          wake-up can have gone stale;
        * a head's inertness is a function of (receiver state, head
          message) alone.  The links *into* the actor have a new receiver
          state, so every non-empty one is scanned; a link the step gave a
          new head (a send onto an empty link, the actor being its
          source) is scanned too.  Any other link has the head and the
          receiver it had in the parent, where it was already found
          non-inert — in particular the actor's outgoing links that were
          non-empty before the step, which only had sends appended.

        The scanned links are read off the action bits: ``enabled &
        into[d]`` (source-ascending) plus the bits of the new heads.  An
        inert pop changes nothing but its own channel's head, so inert
        pops commute: each scanned link drains in place, in any order.
        The root (no parent) is scanned whole.
        """
        report = self.report
        visited = self.visited
        max_states = self.max_states
        por = self.por
        compress = self.compress
        push = stack.append if spill is None else spill.append
        # Every world of one search shares its root's topology and memos.
        origin = world if world is not None else stack[0].world
        topology = origin.topology
        n = topology.n
        port_to = topology.port_to
        deliver_memo = origin._deliver_memo
        wake_memo = origin._wake_memo
        reps = origin._reps
        messages = _MESSAGES
        order = _ActionOrder(n)
        actors = order.actors
        links = order.links
        keep = order.keep
        wake_bits = order.wake_bits
        link_bits = order.link_bits
        into = order.into
        index = -1  # the bit of the action that produced ``world``; -1: root
        sleep = 0
        if world is not None:
            enabled = order.enabled(world)  # a frame carries its own
        while True:
            if world is None:
                # -- the next branch: the frame's lowest candidate bit ---------
                if not stack:
                    return
                frame = stack[-1]
                candidates = frame.candidates
                low = candidates & -candidates
                index = low.bit_length() - 1
                d = actors[index]
                link = links[index]
                # Sleeping actions of other actors stay asleep in the child.
                sleep = frame.sleep & keep[d]
                enabled = frame.enabled
                candidates ^= low
                if candidates:
                    frame.candidates = candidates
                    world = frame.world.branch()
                    if por:
                        frame.sleep |= low
                else:
                    stack.pop()
                    world = frame.world  # safe: the frame takes no more branches
            hashes = world.hashes
            node_fp = world._node_fp
            fp = world._fp
            heads = 0  # bits of the links this step gave a new head
            if index >= 0:
                # -- the transition (LockStepWorld.apply, inline) ---------------
                report.transitions += 1
                old = node_fp[d]
                if link >= 0:
                    column = hashes[link]
                    fp ^= hash((2, link, column))
                    rest = column[1:]
                    if rest:
                        hashes[link] = rest
                        fp ^= hash((2, link, rest))
                    else:
                        del hashes[link]
                        enabled ^= low
                    key = (link, old, column[0])
                    entry = deliver_memo.get(key)
                    if entry is None:
                        entry = deliver_memo[key] = world._run_transition(
                            d, port_to(d, link // n), messages[column[0]]
                        )
                else:
                    fp ^= hash((3, d))
                    enabled ^= low
                    world.pending_wakes = world.pending_wakes - {d}
                    key = (d, old)
                    entry = wake_memo.get(key)
                    if entry is None:
                        entry = wake_memo[key] = world._run_transition(
                            d, -1, None
                        )
                new_fp, sends, declared = entry
                if new_fp != old:
                    world.nodes[d] = reps[new_fp]
                    node_fp[d] = new_fp
                    fp ^= hash((1, d, old)) ^ hash((1, d, new_fp))
                if sends:
                    for out, message_fp in sends:
                        column = hashes.get(out)
                        if column is None:
                            column = hashes[out] = (message_fp,)
                            fp ^= hash((2, out, column))
                            heads |= link_bits[out]
                        else:
                            new = hashes[out] = column + (message_fp,)
                            fp ^= hash((2, out, column)) ^ hash((2, out, new))
                    enabled |= heads
                    world.messages_sent += len(sends)
                if declared:
                    for _ in range(declared):
                        world.on_leader(d)
            # -- compression ------------------------------------------------------
            if por:
                pending = world.pending_wakes
                if pending:
                    nodes = world.nodes
                    if index < 0:
                        stale = [p for p in pending if nodes[p].awake]
                    elif d in pending and nodes[d].awake:
                        stale = [d]
                    else:
                        stale = None
                    if stale:
                        for p in stale:
                            fp ^= hash((3, p))
                            enabled ^= wake_bits[p]
                        world.pending_wakes = pending - frozenset(stale)
                        report.compressed_steps += len(stale)
                if compress and hashes:
                    # The non-empty links into the actor, then the new heads
                    # (all of them out of the actor); at the root, every
                    # non-empty link.
                    if index < 0:
                        scan = enabled >> n << n
                    else:
                        scan = enabled & into[d] | heads
                    while scan:
                        bit = scan & -scan
                        scan ^= bit
                        at = bit.bit_length() - 1
                        link = links[at]
                        dst = actors[at]
                        column = hashes[link]
                        receiver_fp = node_fp[dst]
                        while True:
                            # The memo answers the inertness question: a
                            # delivery is inert iff its effect is
                            # (unchanged receiver hash, no sends, no
                            # declarations).  A non-inert head (including
                            # one that would declare a second leader) is
                            # left enabled and explored as a real branch.
                            key = (link, receiver_fp, column[0])
                            entry = deliver_memo.get(key)
                            if entry is None:
                                entry = deliver_memo[key] = world._run_transition(
                                    dst, port_to(dst, link // n), messages[column[0]]
                                )
                            if entry[1] or entry[2] or entry[0] != receiver_fp:
                                break
                            report.compressed_steps += 1
                            fp ^= hash((2, link, column))
                            column = column[1:]
                            if not column:
                                del hashes[link]
                                enabled ^= bit
                                break
                            hashes[link] = column
                            fp ^= hash((2, link, column))
            world._fp = fp
            # -- memoisation ----------------------------------------------------
            # One probe finds the state's slot: its entry on a revisit, the
            # empty slot to insert at otherwise (see FingerprintTable.get).
            key = fp if fp != _EMPTY else _ZERO_ALIAS
            keys = visited._keys
            slot_mask = visited._mask
            slot = key & slot_mask
            while True:
                present = keys[slot]
                if present == key:
                    stored = visited._values[slot]
                    if stored == -1:
                        stored = visited._overflow[key]
                    break
                if present == _EMPTY:
                    stored = None
                    break
                slot = (slot + 1) & slot_mask
            arrived = world
            world = None
            if stored == 0:
                continue  # a revisit that every branch already covered
            # ``enabled`` is LockStepWorld.enabled_actions() as a bit set,
            # kept up to date where a wake-up clears, a link empties or a
            # send starts a link.  The stored mask is the sleep set
            # restricted to it; the candidates are the enabled actions not
            # asleep, restricted on a revisit to those the stored mask
            # slept.
            mask = sleep & enabled
            candidates = enabled ^ mask
            if stored is not None:
                candidates &= stored
                if candidates:
                    mask &= stored
                    visited.put_at(slot, key, mask)
                    push(_Frame(arrived, candidates, sleep, enabled))
                continue
            report.states_explored += 1
            if not enabled:
                visited.put_at(slot, key, 0)
                self.terminal_fps.add(fp)
                _check_terminal(arrived, self.protocol, report)
            else:
                visited.put_at(slot, key, mask)
                if candidates:
                    push(_Frame(arrived, candidates, sleep, enabled))
            if len(visited) > max_states:
                report.complete = False
                return


def explore_protocol(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    base_positions: tuple[int, ...] | None = None,
    max_states: int = 200_000,
    por: bool = True,
    compress: bool | None = None,
    workers: int | None = None,
) -> ExplorationReport:
    """Exhaustively check every interleaving of one election instance.

    Raises :class:`ProtocolViolation` the moment any interleaving declares
    a second leader, reaches quiescence without a leader, or elects a
    non-base node.  Returns the coverage report otherwise.  ``max_states``
    bounds the search; if it is hit, ``report.complete`` is False and the
    verdict only covers the states visited.

    ``por=False`` disables partial-order reduction (same verdict, many
    more states); ``compress=False`` keeps sleep sets but disables
    inert-delivery compression (the PR 1 behaviour — used by the
    cross-validation tests as the reference search).  ``workers``
    fans top-level strata across a fork pool; ``None`` or ``<= 1`` runs
    the serial search, byte-identical to previous releases, and pool
    degradation (no ``fork``, restricted sandbox, ``REPRO_PARALLEL=0``)
    falls back to running the strata serially with the same merged
    result.
    """
    if base_positions is None:
        base_positions = tuple(range(topology.n))
    root = LockStepWorld(protocol, topology, tuple(base_positions))
    report = ExplorationReport(states_explored=0, terminal_states=0, por=por)
    core = _SearchCore(
        protocol,
        report,
        FingerprintTable(),
        por=por,
        compress=por if compress is None else compress,
        max_states=max_states,
    )

    workers = int(workers) if workers else 1
    if workers <= 1:
        core.run(root, [])
        report.terminal_states = len(core.terminal_fps)
        return report
    return _explore_parallel(core, root, workers)


def _explore_parallel(
    core: _SearchCore, root: LockStepWorld, workers: int
) -> ExplorationReport:
    """Stratified parallel search: expand a serial frontier of top-level
    action prefixes, fan the strata across the fork pool, merge.

    Each stratum is a ``(world, sleep set)`` pair produced by exactly the
    serial arrival logic, so the union of the workers' searches covers
    precisely what the serial search covers (sleep-set soundness is a
    property of the covered trace set, not of visit order).  Each stratum
    searches from its own copy of the frontier-time visited table and
    returns it; the parent merges the tables in stratum order,
    deduplicating states several strata reached independently, so the
    report does not depend on which worker ran which stratum.
    """
    report = core.report
    report.workers = workers
    frontier: deque[_Frame] = deque()
    core.run(root, [], spill=frontier)
    target = _STRATA_PER_WORKER * workers
    while (
        frontier
        and len(frontier) < target
        and len(core.visited) <= min(core.max_states, _MAX_EXPANSION_STATES)
    ):
        core.run(None, [frontier.popleft()], spill=frontier)
    if len(core.visited) > core.max_states:
        report.complete = False
        report.terminal_states = len(core.terminal_fps)
        return report

    strata = list(frontier)
    # Every stratum starts from its own copy of the frontier-time table, so
    # what it explores depends neither on the worker that runs it nor on
    # the strata that worker ran before.
    frontier_table = core.visited.packed()

    def _make_task(frame: _Frame):
        def task():
            worker_report = ExplorationReport(
                states_explored=0, terminal_states=0, por=core.por
            )
            worker = _SearchCore(
                core.protocol,
                worker_report,
                FingerprintTable.unpacked(frontier_table),
                por=core.por,
                compress=core.compress,
                max_states=core.max_states,
            )
            violation = None
            try:
                worker.run(None, [frame])
            except ProtocolViolation as exc:
                violation = exc
            return (
                worker.visited.packed(),
                worker.terminal_fps,
                worker_report.leaders_seen,
                worker_report.quiescent_outcomes,
                worker_report.transitions,
                worker_report.max_messages_sent,
                worker_report.compressed_steps,
                worker_report.complete,
                violation,
            )

        return task

    results = run_sweep(
        [_make_task(frame) for frame in strata],
        parallel=True,
        processes=workers,
    )

    terminal_fps = set(core.terminal_fps)
    for (
        packed,
        worker_terminals,
        leaders,
        outcomes,
        transitions,
        max_msgs,
        compressed,
        complete,
        violation,
    ) in results:
        if violation is not None:
            raise violation
        core.visited.merge(FingerprintTable.unpacked(packed))
        terminal_fps |= worker_terminals
        report.leaders_seen |= leaders
        report.quiescent_outcomes |= outcomes
        report.transitions += transitions
        report.max_messages_sent = max(report.max_messages_sent, max_msgs)
        report.compressed_steps += compressed
        report.complete = report.complete and complete
    report.states_explored = len(core.visited)
    report.terminal_states = len(terminal_fps)
    return report


def count_unpruned_interleavings(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    base_positions: tuple[int, ...] | None = None,
    max_states: int = 200_000,
) -> ExplorationReport:
    """The literal "every interleaving" enumeration, with nothing pruned.

    A depth-first search over the *execution tree* — no memoisation, no
    partial-order reduction — counting every configuration visited
    (duplicates included, exactly as a naive checker would).  This is the
    baseline :func:`explore_protocol`'s reductions are measured against in
    ``benchmarks/test_verify_speed.py``; it truncates honestly at
    ``max_states`` because the tree is astronomically larger than the
    reduced graph for anything beyond toy instances.
    """
    if base_positions is None:
        base_positions = tuple(range(topology.n))
    root = LockStepWorld(protocol, topology, tuple(base_positions))
    report = ExplorationReport(states_explored=1, terminal_states=0, por=False)
    order = _ActionOrder(topology.n)
    stack: list[_Frame] = []
    enabled = order.enabled(root)
    if enabled:
        stack.append(_Frame(root, enabled, 0, enabled))
    else:
        _check_terminal(root, protocol, report)
    while stack:
        frame = stack[-1]
        candidates = frame.candidates
        low = candidates & -candidates
        action = order.actions[low.bit_length() - 1]
        frame.candidates = candidates ^ low
        if frame.candidates:
            child = frame.world.branch()
        else:
            stack.pop()
            child = frame.world
        child.apply(action)
        report.transitions += 1
        report.states_explored += 1
        if report.states_explored > max_states:
            report.complete = False
            return report
        enabled = order.enabled(child)
        if not enabled:
            _check_terminal(child, protocol, report)
            continue
        stack.append(_Frame(child, enabled, 0, enabled))
    return report


def _check_terminal(
    world: LockStepWorld,
    protocol: ElectionProtocol,
    report: ExplorationReport,
) -> None:
    """Liveness and validity checks at one quiescent configuration."""
    report.terminal_states += 1
    report.max_messages_sent = max(
        report.max_messages_sent, world.messages_sent
    )
    leaders = set(world.leaders)
    if not leaders:
        raise ProtocolViolation(
            f"{protocol.describe()}: an interleaving reached quiescence "
            "with no leader"
        )
    (leader,) = leaders  # safety already enforced on declaration
    if not world.nodes[leader].is_base:
        raise ProtocolViolation(
            f"{protocol.describe()}: an interleaving elected the non-base "
            f"node {world.topology.id_at(leader)}"
        )
    leader_id = world.topology.id_at(leader)
    report.leaders_seen.add(leader_id)
    report.quiescent_outcomes.add((leader_id, world.messages_sent))
