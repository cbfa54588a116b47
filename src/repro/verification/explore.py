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
   read off the world's memoised local-transition table
   (:meth:`~repro.verification.world.LockStepWorld.peek_transition`):
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
``symmetry="census"`` additionally counts distinct states modulo the
topology's relabelling group, and ``symmetry="prune"`` memoises on the
orbit representative outright — gated by the linter-derived capability
table (:func:`repro.verification.symmetry.ensure_prune_sound`), with
``symmetry="prune-unsound"`` as the ungated bug-hunting escape hatch
whose soundness boundary :mod:`repro.verification.symmetry` spells out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import ProtocolViolation
from repro.core.protocol import ElectionProtocol
from repro.harness.parallel import run_sweep
from repro.topology.complete import CompleteTopology
from repro.verification.store import FingerprintTable
from repro.verification.symmetry import (
    Permutation,
    canonical_state,
    ensure_prune_sound,
    symmetry_group,
)
from repro.verification.world import Action, LockStepWorld, independent

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
    #: Distinct states modulo the topology's relabelling group, when a
    #: symmetry mode ran (None otherwise).  See ``verification/symmetry.py``
    #: for what this does and does not imply.
    canonical_states: int | None = None
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


@dataclass(slots=True)
class _Frame:
    """One DFS stack entry: a world and its not-yet-taken branches."""

    world: LockStepWorld
    candidates: list[Action]
    index: int
    sleep: set[Action]


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
        group: Sequence[Permutation] | None = None,
        prune_symmetric: bool = False,
        canonical_seen: set[int] | None = None,
    ) -> None:
        self.protocol = protocol
        self.report = report
        self.visited = visited
        self.por = por
        self.compress = compress and por
        self.max_states = max_states
        self.group = group
        self.prune_symmetric = prune_symmetric
        self.canonical_seen = (
            canonical_seen if canonical_seen is not None else set()
        )
        #: Fingerprints of quiescent states (parallel merge dedups on it).
        self.terminal_fps: set[int] = set()

    # -- compression ---------------------------------------------------------

    def _compress_state(
        self, world: LockStepWorld, action: Action | None
    ) -> None:
        """Eagerly fire every invisible transition enabled at ``world``.

        Stale wake-ups first (always sound: ``Node.wake`` is idempotent),
        then inert deliveries (sound under the stale-monotonicity
        assumption in the module docstring).  ``action`` is the transition
        that produced ``world``; because every explored state is fully
        compressed on arrival, a child state can only have inert heads on
        channels *touching the actor* of that transition (its node state
        changed, its channel heads moved, its sends created new heads) —
        so only those links are scanned, not the whole queue map.
        """
        report = self.report
        pending = world.pending_wakes
        if pending:
            nodes = world.nodes
            stale = [p for p in pending if nodes[p].awake]
            if stale:
                world.drop_wakes(stale)
                report.compressed_steps += len(stale)
        queues = world.queues
        if not self.compress or not queues:
            return
        if action is None:
            links = list(queues)
        else:
            d = action[1] if action[0] == "wake" else action[1][1]
            links = [link for link in queues if d in link]
        # An inert pop changes nothing but its own channel's head, so inert
        # pops commute: each link drains in place, in any order.
        peek, pop_head = world.peek_transition, world.pop_head
        for link in links:
            receiver_fp = world.node_hash(link[1])
            while True:
                # The world's memoised local-transition table answers the
                # inertness question directly: a delivery is inert iff its
                # effect is (unchanged receiver hash, no sends, no leader
                # declarations).  A non-inert head (including one that
                # would declare a second leader) is left enabled and
                # explored as a real branch.
                new_fp, sends, declared = peek(link)
                if sends or declared or new_fp != receiver_fp:
                    break
                pop_head(link)
                report.compressed_steps += 1
                if link not in queues:
                    break

    # -- memoisation ---------------------------------------------------------

    def arrive(
        self,
        world: LockStepWorld,
        sleep: set[Action],
        action: Action | None = None,
    ) -> _Frame | None:
        """Memoise ``world``; return a frame if its subtree needs work.

        ``action`` is the transition that produced ``world`` (None for the
        root), which bounds the compression scan to the links it touched.
        The returned frame takes ownership of the ``sleep`` set.
        """
        if self.por:
            self._compress_state(world, action)
        if self.prune_symmetric:
            key = hash(canonical_state(world, self.group))
        else:
            key = world.fingerprint()
        visited = self.visited
        stored = visited.get(key)
        if stored == 0:
            return None  # a revisit that every branch already covered
        actions = world.enabled_actions()
        # One pass builds the sleep mask (sleep ∩ actions, packed over the
        # canonical order) and the candidates: the non-sleeping actions,
        # restricted on a revisit to those the stored mask slept.
        mask = 0
        if stored is None and not sleep:
            candidates = actions
        else:
            allowed = -1 if stored is None else stored
            candidates = []
            bit = 1
            for enabled in actions:
                if enabled in sleep:
                    mask |= bit
                elif allowed & bit:
                    candidates.append(enabled)
                bit <<= 1
        if stored is not None:
            if not candidates:
                return None
            visited.put(key, stored & mask)
            return _Frame(world, candidates, 0, sleep)
        report = self.report
        report.states_explored += 1
        if self.group is not None and not self.prune_symmetric:
            self.canonical_seen.add(hash(canonical_state(world, self.group)))
        if not actions:
            visited.put(key, 0)
            self.terminal_fps.add(key)
            _check_terminal(world, self.protocol, report)
            return None
        visited.put(key, mask)
        if not candidates:
            return None
        return _Frame(world, candidates, 0, sleep)

    # -- the DFS loop --------------------------------------------------------

    def run(self, frame: _Frame | None) -> None:
        """Drive the DFS from one arrived frame to exhaustion or budget."""
        report = self.report
        visited = self.visited
        max_states = self.max_states
        por = self.por
        arrive = self.arrive
        stack: list[_Frame] = [frame] if frame is not None else []
        while stack:
            frame = stack[-1]
            candidates = frame.candidates
            index = frame.index
            action = candidates[index]
            index += 1
            last = index == len(candidates)
            if last:
                stack.pop()
                child = frame.world  # safe: this frame takes no more branches
            else:
                frame.index = index
                child = frame.world.branch()
            sleep = frame.sleep
            if sleep:
                # Sleeping actions independent of ``action`` (a different
                # actor; see :func:`~repro.verification.world.independent`)
                # stay asleep in the child.
                d = action[1] if action[0] == "wake" else action[1][1]
                child_sleep = {
                    slept
                    for slept in sleep
                    if (slept[1] if slept[0] == "wake" else slept[1][1]) != d
                }
            else:
                child_sleep = set()
            if por and not last:
                sleep.add(action)
            child.apply(action)
            report.transitions += 1
            child_frame = arrive(child, child_sleep, action)
            if len(visited) > max_states:
                report.complete = False
                return
            if child_frame is not None:
                stack.append(child_frame)


def explore_protocol(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    base_positions: tuple[int, ...] | None = None,
    max_states: int = 200_000,
    por: bool = True,
    compress: bool | None = None,
    symmetry: str | bool | None = None,
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
    cross-validation tests as the reference search).  ``symmetry`` is
    ``None``/``False`` (off), ``"census"`` (count distinct states modulo
    the topology's relabelling group, exploration unchanged),
    ``"prune"`` (memoise on orbit representatives — gated: refused with
    :class:`~repro.core.errors.ConfigurationError` unless the
    linter-derived capability table proves the protocol equivariant
    under the topology's group, see
    :func:`repro.verification.symmetry.ensure_prune_sound`) or
    ``"prune-unsound"`` (the ungated orbit memoisation — a bug-hunting
    mode; see :mod:`repro.verification.symmetry` for why it does not
    promise outcome completeness for id-comparing protocols).
    ``workers``
    fans top-level strata across a fork pool; ``None`` or ``<= 1`` runs
    the serial search, byte-identical to previous releases, and pool
    degradation (no ``fork``, restricted sandbox, ``REPRO_PARALLEL=0``)
    falls back to running the strata serially with the same merged
    result.
    """
    if base_positions is None:
        base_positions = tuple(range(topology.n))
    if symmetry is True:
        symmetry = "prune"
    if symmetry not in (None, False, "census", "prune", "prune-unsound"):
        raise ValueError(f"unknown symmetry mode: {symmetry!r}")
    if symmetry == "prune":
        ensure_prune_sound(protocol, topology)
    group = None
    if symmetry:
        if topology.n > 6 and not topology.sense_of_direction:
            raise ValueError(
                "symmetry reduction over the full symmetric group is "
                f"infeasible at n={topology.n} (n! permutations per state)"
            )
        group = symmetry_group(topology)

    root = LockStepWorld(protocol, topology, tuple(base_positions))
    report = ExplorationReport(states_explored=0, terminal_states=0, por=por)
    core = _SearchCore(
        protocol,
        report,
        FingerprintTable(),
        por=por,
        compress=por if compress is None else compress,
        max_states=max_states,
        group=group,
        prune_symmetric=symmetry in ("prune", "prune-unsound"),
    )

    workers = int(workers) if workers else 1
    if workers <= 1:
        core.run(core.arrive(root, set()))
        report.terminal_states = len(core.terminal_fps)
        _finish_report(report, core)
        return report
    return _explore_parallel(core, root, workers)


def _finish_report(report: ExplorationReport, core: _SearchCore) -> None:
    if core.group is not None:
        report.canonical_states = (
            report.states_explored
            if core.prune_symmetric
            else len(core.canonical_seen)
        )


def _explore_parallel(
    core: _SearchCore, root: LockStepWorld, workers: int
) -> ExplorationReport:
    """Stratified parallel search: expand a serial frontier of top-level
    action prefixes, fan the strata across the fork pool, merge.

    Each stratum is a ``(world, sleep set)`` pair produced by exactly the
    serial arrival logic, so the union of the workers' searches covers
    precisely what the serial search covers (sleep-set soundness is a
    property of the covered trace set, not of visit order).  Workers
    inherit the parent's visited table through ``fork`` copy-on-write and
    return their private tables; the parent merges them, deduplicating
    states several workers reached independently.
    """
    report = core.report
    report.workers = workers
    frontier: deque[_Frame] = deque()
    first = core.arrive(root, set())
    if first is not None:
        frontier.append(first)
    target = _STRATA_PER_WORKER * workers
    while (
        frontier
        and len(frontier) < target
        and len(core.visited) <= min(core.max_states, _MAX_EXPANSION_STATES)
    ):
        frame = frontier.popleft()
        world, sleep = frame.world, frame.sleep
        for i, action in enumerate(frame.candidates):
            last = i == len(frame.candidates) - 1
            child = world if last else world.branch()
            if core.por:
                child_sleep = {
                    slept for slept in sleep if independent(action, slept)
                }
            else:
                child_sleep = set()
            child.apply(action)
            report.transitions += 1
            child_frame = core.arrive(child, child_sleep, action)
            if core.por:
                sleep.add(action)
            if child_frame is not None:
                frontier.append(child_frame)
    if len(core.visited) > core.max_states:
        report.complete = False
        report.terminal_states = len(core.terminal_fps)
        _finish_report(report, core)
        return report

    strata = list(frontier)

    def _make_task(frame: _Frame):
        def task():
            worker_report = ExplorationReport(
                states_explored=0, terminal_states=0, por=core.por
            )
            worker = _SearchCore(
                core.protocol,
                worker_report,
                core.visited,  # private copy via fork (or shared when the
                por=core.por,  # pool degraded to serial — still correct,
                compress=core.compress,  # the memo just accumulates)
                max_states=core.max_states,
                group=core.group,
                prune_symmetric=core.prune_symmetric,
                canonical_seen=set(core.canonical_seen),
            )
            violation = None
            try:
                worker.run(frame)
            except ProtocolViolation as exc:
                violation = exc
            return (
                worker.visited.packed(),
                worker.terminal_fps,
                worker_report.leaders_seen,
                worker_report.quiescent_outcomes,
                worker.canonical_seen,
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
        canonical,
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
        core.canonical_seen |= canonical
        report.transitions += transitions
        report.max_messages_sent = max(report.max_messages_sent, max_msgs)
        report.compressed_steps += compressed
        report.complete = report.complete and complete
    report.states_explored = len(core.visited)
    report.terminal_states = len(terminal_fps)
    _finish_report(report, core)
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
    stack: list[_Frame] = []
    actions = root.enabled_actions()
    if actions:
        stack.append(_Frame(root, actions, 0, set()))
    else:
        _check_terminal(root, protocol, report)
    while stack:
        frame = stack[-1]
        if frame.index >= len(frame.candidates):
            stack.pop()
            continue
        action = frame.candidates[frame.index]
        frame.index += 1
        last = frame.index >= len(frame.candidates)
        if last:
            stack.pop()
            child = frame.world
        else:
            child = frame.world.branch()
        child.apply(action)
        report.transitions += 1
        report.states_explored += 1
        if report.states_explored > max_states:
            report.complete = False
            return report
        actions = child.enabled_actions()
        if not actions:
            _check_terminal(child, protocol, report)
            continue
        stack.append(_Frame(child, actions, 0, set()))
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
