"""Sharded simulation kernel: conservative time-window synchronization.

The serial kernel (:mod:`repro.sim.network`) interprets one global event
queue; beyond ~10⁵ nodes that single loop is the bottleneck.  This module
partitions the node set across *shards* — shard ``i`` of ``k`` owns the
strided positions ``range(i, n, k)``, so ``shard_of(p) = p % k`` — each
with its own :class:`~repro.sim.scheduler.Scheduler`, channel table and
metrics, and runs them under **conservative time-window
synchronization**:

* The *lookahead* ``L`` is the delay model's declared ``min_latency``.
  Every message sent at time ``t`` arrives no earlier than ``t + L``
  (the FIFO clamp and fault jitter only push arrivals later), so events
  inside a window ``[T, T + L)`` can never affect that same window.
* Each shard therefore executes its window events independently, buffering
  every send until the barrier instead of scheduling it.  A send is held
  as one ``(depth, dest_pos, far_port, message)`` payload tuple, the
  message object itself, next to its merge key.  A send to the sender's
  own shard stays in the shard (the *local lane*): only its merge key
  goes to the coordinator.  A send to another shard travels there in the
  same layout (the *remote lane*).  Sends a timer makes have ragged
  ranks and wait in the *timer lane*; those to the sender's own shard
  also keep their payloads there and send only their ranks.
* At the window barrier the coordinator sorts every lane's merge keys in
  one flat sort, assigns each record a global sequence key, and hands the
  keys back with the next window op: local keys to the sending shard,
  remote and timer batches (with their keys) to the destination shard.

Each shard (:class:`_Shard`) is the :class:`~repro.sim.network.SendPath`
runtime core it shares with the serial kernel plus its window buffers, and
the coordinator folds the shards' tallies with the same
:func:`~repro.sim.network.fold_result`.  A window is one
:meth:`~repro.sim.scheduler.Scheduler.run` call over the shard's event
queue with the strict horizon ``time < end``: the window's incoming
deliveries are sorted into the queue's in-order lane as serial-layout
entries carrying their global keys, the shard's wakes, crashes and timers
sit on its heap, and the shared delivery, wake and crash handlers
dispatch them in global merge order.  Sends of messages whose
fields are declared ``int``, ``bool`` or ``Message`` go through the
per-class compiled, fused send that :class:`~repro.sim.network.SendPath`
generates for both runtimes, ending in the shard's tail, one append to
the destination's buffer; every other send takes the shared pipeline.  A
window's incoming records become lane entries in one C-level pass and
one sort.

Shards run in-process (:class:`_LocalHandle`) or one per forked worker
(:class:`_ForkHandle`).  Shard 0 always runs in the coordinator's process:
a forked run forks workers for shards 1..k−1 only, sends each window op to
them first, runs shard 0 while they run theirs, and lays out shard 0's
records for the key route while it waits for theirs.  A forked worker
talks to the coordinator over a single pipe, which carries each window's
routed batches and local keys in and its outgoing batches, local merge
keys and stats back; the merge-key arrays pickle as flat buffers and the
payload tuples as objects.  At the end every shard computes its tally at
once: the coordinator sends ``finish`` to every worker before it waits
for any.

**Digest contract.**  A sharded run must be indistinguishable from the
serial run in every deterministic result field
(``tests/sim/determinism_cases.fingerprint``).  The serial kernel's total
event order is ``(time, tiebreak, seq)`` where ``seq`` is the global
scheduling order; the coordinator reconstructs exactly that order from
per-send *merge keys*:

* an event dispatched from a globally-keyed entry has rank
  ``(time, key)``;
* a timer fired at ``t`` set by an event of rank ``R`` has rank
  ``(t, TIMER_MARK, R, i)`` — ``TIMER_MARK`` exceeds every delivery key
  and is negative for none, so ranks of any two *distinct* events always
  compare without reaching ragged positions;
* a send of an event of rank ``R`` carries merge key ``R + (j,)``.

``i`` and ``j`` are the shard's timer and send counters.  They are never
reset: merge keys of distinct ranks differ before the counter, so a
counter only has to increase within one event's rank.

Sorting one window's sends by merge key reproduces the serial scheduling
order of those sends; assigning consecutive global keys in that order (the
counter persists across windows) reproduces the serial delivery order at
every destination.  Wake nudges and crashes get their global keys up
front, in the same plane order as the serial kernel (crashes < wakes <
deliveries < timers at equal times).

What is *not* supported sharded: delay models that consume the shared run
RNG (``UniformDelay`` — a global draw order cannot be reproduced
per-shard), models with no declared positive ``min_latency``, tracing, and
``until`` horizons.  Fault plans work unchanged: their per-directed-link
RNG streams are keyed by ``(seed, src, dst)`` and every link is owned by
exactly one (sender-side) shard, so draws are independent of execution
order by construction.

The livelock budget is **global**: before each window every shard is
granted only what remains of the whole run's ``max_events``, and the
coordinator re-checks the aggregate at each barrier — k shards can never
overrun the serial budget k×.
"""

from __future__ import annotations

import builtins
import gc
import heapq
import os
import random
from array import array
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from itertools import count, repeat
from math import inf, nextafter
from time import perf_counter
from typing import Any

from repro.core import errors as _errors
from repro.core.errors import ConfigurationError, LivelockError, SimulationError
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.core.results import ElectionResult
from repro.harness.parallel import configured_processes, fork_context
from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.events import TIEBREAK_SHIFT
from repro.sim.faults import FaultPlan
from repro.sim.network import (
    SendPath,
    WakeupFactory,
    WakeupSchedule,
    _BoundContext,
    fold_result,
    leader_conflict,
    merge_crash_schedule,
    resolve_wakeup,
    spaced_young_collections,
    validate_failure_config,
)
from repro.sim.tracing import Tracer
from repro.topology.complete import CompleteTopology

#: Rank marker for timer-sourced events; above every delivery key (< 2**48).
TIMER_MARK = 1 << TIEBREAK_SHIFT
#: Global key planes for the setup entries, mirroring the serial kernel's
#: tiebreaks (wake -1, crash -2).
_WAKE_BASE = -(1 << TIEBREAK_SHIFT)
_CRASH_BASE = -(2 << TIEBREAK_SHIFT)


class _OutBuffer:
    """One window's buffered sends from one shard to one destination shard.

    Every delivery-ranked send stores its merge key columnwise in
    ``times``/``keys`` (the coordinator sorts on nothing else) and its
    payload in ``held``.  The layout is the same whether the destination
    is the shard itself (the local lane) or another shard (the remote
    lane); only the sends a timer makes, whose ranks are ragged, wait in
    ``timer`` instead.
    """

    __slots__ = ("times", "keys", "held", "timer", "tex", "kex", "hap")

    def __init__(self) -> None:
        #: Two doubles per record: (source time, arrival time).
        self.times = array("d")
        #: Two ints per record: (source key, send index).
        self.keys = array("q")
        #: ``(depth, dest_pos, far_port, message)`` payloads.
        self.held: list[tuple] = []
        #: Timer lane: ``(merge_key, arrival, payload)`` records, payload
        #: as in ``held``.
        self.timer: list[tuple] = []
        # Pre-bound mutators for the fused send: appending through these
        # skips two attribute walks per lane per send.
        self.tex = self.times.extend
        self.kex = self.keys.extend
        self.hap = self.held.append


# ---------------------------------------------------------------------------
# The run configuration (inherited by forked workers, never pickled).
# ---------------------------------------------------------------------------


@dataclass
class _RunConfig:
    protocol: ElectionProtocol
    topology: CompleteTopology
    delays: DelayModel
    failed_positions: frozenset[int]
    crash_schedule: dict[int, float]
    faults: FaultPlan | None
    seed: int
    max_events: int
    shards: int
    collect_snapshots: bool
    #: Initial entries ``(time, global_key, position)``, bucketed by the
    #: owning shard ``position % shards``.
    wakes: list[list[tuple[float, int, int]]]
    crashes: list[list[tuple[float, int, int]]]


class _Shard(SendPath):
    """One shard's runtime: the shared core plus its window buffers.

    Shard ``index`` owns the strided positions ``range(index, n, k)``.
    The per-run state, send pipeline (port check, bit audit, FIFO
    arrival, fault verdicts), the delivery, wake and crash handlers, the
    leader check and the final tally are :class:`SendPath`, shared
    verbatim with the serial kernel, and a window is one
    :meth:`~repro.sim.scheduler.Scheduler.run` call over the same entry
    layout.  This class adds only its send tail — a
    :meth:`_dispatch_send` bound to the window buffers (one payload
    layout for every destination shard, its own included, and the timer
    lane for sends under a timer's rank) and its compiled twin,
    :meth:`_send_tail` — the timer rank, and the buffers' decode and
    hand-off at the barrier.

    ``_send_seq`` and ``_timer_seq`` are the send and timer counters of
    the merge keys; the module docstring says why they are never reset.
    """

    def __init__(self, cfg: _RunConfig, index: int) -> None:
        # Shardable delay models draw from per-link streams (or none at
        # all), never from the run RNG this builds.
        super().__init__(
            cfg.topology, cfg.delays, cfg.failed_positions,
            cfg.crash_schedule, cfg.faults, cfg.seed, cfg.max_events,
        )
        self.cfg = cfg
        self.protocol = cfg.protocol
        self._shards = cfg.shards
        self.index = index
        #: Owned positions, in the order of ``nodes``.
        self.positions = range(index, self._n, cfg.shards)
        #: The rank of a timer callback's sends, while ``_current_entry``
        #: is None (see :meth:`_rank`).
        self._current_rank: tuple = ()
        self._send_seq = 0
        self._timer_seq = 0
        self._busy = 0.0
        #: The window's outgoing buffers, one slot per destination shard.
        self._out: list[_OutBuffer | None] = [None] * cfg.shards
        #: The last window's local lane, waiting for the global keys the
        #: next window op brings: arrivals and payloads, and the own-shard
        #: timer-lane records.
        self._held_arrivals = array("d")
        self._held: list[tuple] = []
        self._held_timer: list[tuple] = []
        self._deliver = self._deliver_entry
        protocol = cfg.protocol
        self.nodes: list[Node] = [
            protocol.create_node(_BoundContext(self, position))
            for position in self.positions
        ]
        self._node_at: list[Node | None] = [None] * self._n
        self._node_at[index::cfg.shards] = self.nodes
        heap = self.scheduler._queue.heap
        heap += [
            (time, key, self._wake_entry, 0, position)
            for time, key, position in cfg.wakes[index]
        ]
        heap += [
            (time, key, self._crash_entry, 0, position)
            for time, key, position in cfg.crashes[index]
        ]
        heapq.heapify(heap)

    # -- the send path (SendPath pipeline, buffered dispatch) --------------

    def _rank(self) -> tuple:
        """The serial-order rank of the event being dispatched."""
        ce = self._current_entry
        return self._current_rank if ce is None else (ce[0], ce[1])

    def _dispatch_send(
        self,
        arrival: float,
        far: int,
        far_port: int,
        message: Message,
        sender_id: int,
    ) -> None:
        """Buffer one send until the window barrier instead of scheduling it."""
        payload = (self._current_depth + 1, far, far_port, message)
        idx = self._send_seq
        self._send_seq = idx + 1
        dest = far % self._shards
        buf = self._out[dest]
        if buf is None:
            buf = self._out[dest] = _OutBuffer()
        ce = self._current_entry
        if ce is None:  # timer-ranked: the rank is a 4-tuple
            buf.timer.append((self._current_rank + (idx,), arrival, payload))
            return
        buf.tex((ce[0], arrival))
        buf.kex((ce[1], idx))
        buf.hap(payload)

    def _send_tail(self) -> tuple:
        """A compiled shard send buffers itself, as :meth:`_dispatch_send`.

        Sends under a timer rank (no current entry) take the pipeline.
        Any other appends its merge key and payload to the buffer of the
        destination shard, whichever shard that is, so the tail bakes in
        only the shard count: the shards of one run share one compiled
        send per class.
        """
        hand_off = [
            "        idx = self._send_seq",
            "        self._send_seq = idx + 1",
            f"        dest = far % {self._shards}",
            "        out = self._out",
            "        buf = out[dest]",
            "        if buf is None:",
            "            buf = out[dest] = _OutBuffer()",
            "        buf.tex((ce[0], arrival))",
            "        buf.kex((ce[1], idx))",
            "        buf.hap((self._current_depth + 1, far, far_port, m))",
        ]
        return (
            ("shard", self._shards),
            ("(ce := self._current_entry) is not None",),
            hand_off,
            {"_OutBuffer": _OutBuffer},
        )

    # -- timers: the one handler that ranks differently ---------------------

    def _schedule_timer(
        self, position: int, delay: float, callback: Callable[[], None]
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        fire = self.scheduler.now + delay
        rank = (fire, TIMER_MARK, self._rank(), self._timer_seq)
        self._timer_seq += 1
        self.scheduler.schedule_payload(
            fire,
            self._timer_entry,
            self._current_depth,
            (position, callback, rank),
            1,
        )

    def _timer_entry(self, entry: tuple) -> None:
        # Timer callbacks send under the timer's own 4-tuple rank.
        self._current_entry = None
        self._current_rank = entry[6]
        position = entry[4]
        if self._has_failures and (
            position in self.failed_positions or position in self._crashed
        ):
            return
        self._current_depth = entry[3]
        entry[5]()

    # -- the window --------------------------------------------------------

    def _decode_incoming(
        self, incoming: list[tuple | None], local_keys: tuple | None
    ) -> None:
        """Lay held local sends and routed batches into the in-order lane.

        Every record becomes a serial-layout delivery entry ``(time,
        global_key, deliver, depth, position, port, message)``, built at C
        level: one ``map`` of ``tuple.__add__`` appends each payload to its
        ``(time, key, deliver)`` head, for the shard's own held lane and a
        remote batch alike (it measured faster than transposing the lane
        with ``zip(*held)``, whose per-tuple iterators also feed the
        garbage collector).  One ``sort`` orders the lot with the
        deliveries still pending from earlier windows (each batch is
        already a sorted run, so it merges runs), and the result becomes
        the lane: a shard's deliveries never touch its heap, which holds
        only its wakes, crashes and timers.
        """
        entries: list[tuple] = []
        deliver = repeat(self._deliver)

        def add_timer(timer: list[tuple], timer_keys: array) -> None:
            entries.extend(
                (record[1], key, self._deliver, *record[2])
                for record, key in zip(timer, timer_keys)
            )

        if local_keys is not None:
            keys, timer_keys = local_keys
            entries += map(
                tuple.__add__,
                zip(self._held_arrivals, keys, deliver),
                self._held,
            )
            add_timer(self._held_timer, timer_keys)
            self._held = []
            self._held_timer = []
        for batch in incoming:
            if batch is None:
                continue
            arrivals, keys, held, timer, timer_keys = batch
            entries += map(tuple.__add__, zip(arrivals, keys, deliver), held)
            add_timer(timer, timer_keys)
        if entries:
            lane = self.scheduler._queue.lane
            entries += lane
            lane.clear()
            entries.sort()
            lane += entries

    def run_window(
        self,
        start: float,
        end: float,
        budget: int,
        incoming: list[tuple | None],
        local_keys: tuple | None,
    ) -> tuple[dict[int, tuple], tuple | None, dict[str, Any]]:
        """Execute every owned event with time in ``[start, end)``.

        ``budget`` is the whole run's remaining event allowance — the
        global livelock budget, not a per-shard one.  ``local_keys`` are
        the global keys of the previous window's local lane, as ``(keys,
        timer keys)``.  Returns the remote and timer batches (keyed by
        destination shard), this window's local lane or None, and window
        stats.  The local lane is the merge keys of the sends this shard
        keeps, ``(source times, (source key, send index) pairs, timer
        ranks, earliest arrival)``: its payloads, the timer lane's own-shard
        records included, never leave the shard.
        """
        t0 = perf_counter()
        self._decode_incoming(incoming, local_keys)
        scheduler = self.scheduler
        before = scheduler.events_processed
        scheduler.set_max_events(before + budget)
        try:
            scheduler.run(until=nextafter(end, -inf))
        except Exception as exc:
            if isinstance(exc, LivelockError):  # name the run's budget
                exc = LivelockError(
                    f"event budget of {self.cfg.max_events} exhausted at "
                    f"t={scheduler.now}; the protocol is livelocked"
                )
            # Shards run a window independently, so several may fail in
            # one; the coordinator re-raises the failure the serial run
            # would have met first, by the rank of its failing event.
            exc.shard_rank = self._rank()
            raise exc
        out: dict[int, tuple] = {}
        local = None
        for dest, buf in enumerate(self._out):
            if buf is None:
                continue
            if dest != self.index:
                out[dest] = (buf.times, buf.keys, buf.held, buf.timer)
                continue
            # The own buffer stays here: its merge keys are the local lane.
            self._held_arrivals = arrivals = buf.times[1::2]
            self._held = buf.held
            self._held_timer = timer = buf.timer
            earliest = min(
                min(arrivals, default=inf),
                min((record[1] for record in timer), default=inf),
            )
            local = (
                buf.times[0::2], buf.keys, [record[0] for record in timer],
                earliest,
            )
        self._out = [None] * self._shards
        self._busy += perf_counter() - t0
        queue = scheduler._queue
        heads = [part[0][0] for part in (queue.heap, queue.lane) if part]
        stats = {
            "processed": scheduler.events_processed - before,
            "next_time": min(heads, default=None),
            "leader": self._leader,
        }
        return out, local, stats

    def finish(self) -> dict[str, Any]:
        """This shard's :meth:`SendPath._tally`, for the coordinator.

        ``last_time`` is the time of the shard's last event, whose rank
        every handler leaves behind (the window horizon moved the clock
        past it).
        """
        processed = self.scheduler.events_processed
        return {
            **self._tally(self.positions, self.cfg.collect_snapshots),
            "busy": self._busy,
            "last_time": self._rank()[0] if processed else 0.0,
        }


# ---------------------------------------------------------------------------
# Worker transport: in-process handles and forked pipe workers.
# ---------------------------------------------------------------------------


class _LocalHandle:
    """Drives one shard in this process.

    Every shard of an in-process run (``workers=0``, or one CPU) is one of
    these, and so is shard 0 of a forked run: the coordinator runs it
    while the forked workers run theirs.
    """

    def __init__(self, cfg: _RunConfig, index: int) -> None:
        self._shard = _Shard(cfg, index)

    def _call(self, method, *args) -> None:
        # A failure waits for collect(), as a forked worker's would, so
        # every shard runs the window before the coordinator picks one.
        try:
            self._reply = method(*args)
        except Exception as exc:
            self._reply = exc

    def window(self, start, end, budget, incoming, local_keys) -> None:
        self._call(
            self._shard.run_window, start, end, budget, incoming, local_keys
        )

    def finish(self) -> None:
        self._call(self._shard.finish)

    def collect(self):
        reply = self._reply
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        pass


def _worker_main(conn, cfg: _RunConfig, index: int) -> None:
    """Forked worker loop: build the shard post-fork, serve window ops."""
    try:
        shard = _Shard(cfg, index)
        while True:
            op = conn.recv()
            if op[0] == "window":
                conn.send(("done", shard.run_window(*op[1:])))
            elif op[0] == "finish":
                conn.send(("done", shard.finish()))
                return
            else:
                return
    except BaseException as exc:  # relayed and re-raised by the parent
        import traceback

        try:
            conn.send((
                "error", type(exc).__name__, str(exc),
                traceback.format_exc(), getattr(exc, "shard_rank", None),
            ))
        except Exception:
            pass
    finally:
        conn.close()


def _relayed_error(
    name: str, message: str, tb: str, rank: tuple | None = None
) -> BaseException:
    """Rebuild a worker's exception so forked runs raise what in-process
    runs raise.

    The name is resolved in :mod:`repro.core.errors`, then among the
    builtins; anything else (or a type that will not take one message
    argument) surfaces as :class:`SimulationError`.  The worker's
    traceback rides along as a note, and the rank of the failing event
    (if any) as ``shard_rank``.
    """
    exc_type = getattr(_errors, name, None) or getattr(builtins, name, None)
    exc = None
    if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
        try:
            exc = exc_type(message)
        except TypeError:  # needs other constructor arguments
            pass
        else:
            exc.add_note(f"raised in a shard worker:\n{tb}")
    if exc is None:
        exc = SimulationError(f"shard worker failed: {message}\n{tb}")
    if rank is not None:
        exc.shard_rank = rank
    return exc


def _first_failure(errors: list[Exception]) -> Exception:
    """The failure the serial run meets first among one window's shard
    failures: the lowest event rank (events in one window never affect
    another shard's events in it); a failure outside event dispatch
    ranks before all."""
    def order(exc: Exception) -> tuple:
        rank = getattr(exc, "shard_rank", None)
        return (False, ()) if rank is None else (True, rank)

    return min(errors, key=order)


class _ForkHandle:
    """Drives one shard in a forked worker over a pipe.

    The pipe carries everything: control messages, per-window stats, the
    local lane's merge keys out and global keys back, and the remote and
    timer lanes of every routed batch (the merge-key arrays pickle as flat
    buffers, the payload tuples as objects).
    The run configuration is inherited through the fork, never pickled.
    """

    def __init__(self, context, cfg: _RunConfig, index: int) -> None:
        self.index = index
        #: Where the worker is, for the error if it dies: the number and
        #: start of the last window op sent, or the finish.
        self._where = "before its first window"
        self._windows = 0
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_worker_main, args=(child, cfg, index), daemon=True
        )
        self._process.start()
        child.close()

    def window(self, start, end, budget, incoming, local_keys) -> None:
        self._windows += 1
        self._where = f"in window {self._windows} (start t={start})"
        self._conn.send(("window", start, end, budget, incoming, local_keys))

    def finish(self) -> None:
        self._where = f"while finishing, after window {self._windows}"
        self._conn.send(("finish",))

    def collect(self):
        try:
            reply = self._conn.recv()
        except EOFError:
            raise SimulationError(
                f"shard {self.index} worker exited unexpectedly (killed or "
                f"crashed hard) {self._where}"
            ) from None
        if reply[0] == "error":
            raise _relayed_error(*reply[1:])
        return reply[1]

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5)


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------


def _refuse_unshardable_protocol(protocol: ElectionProtocol) -> None:
    """Refuse protocols whose flow-derived capability breaks sharding.

    The digest contract ("sharded == serial, bit for bit") holds because
    every event is a pure function of the seeded schedule.  A protocol
    *implementation* that arms wall-clock-shaped timers couples its
    behaviour to the window partition (a timer races the window barrier
    differently at different shard counts), and module-level entropy
    (``random``/``secrets``/``uuid``) escapes the seeded streams
    entirely — so both are refused up front, per the capability table the
    flow analyzer derives (``uses_timers``/``uses_rng``).

    Overlay layers are unwrapped via ``.election`` and judged on their
    *own* implementation modules: the framework's ``ReliableDelivery``
    overlay uses timers internally, but those live in ``repro.core`` and
    are vetted with the kernel itself (its rank machinery orders timer
    events deterministically), so wrapping a shardable election keeps it
    shardable.

    ``uses_ctx_rng`` (the randomized family's seeded per-node streams,
    :mod:`repro.sim.rng`) is deliberately *not* refused: a node's coin
    sequence depends only on ``(run_seed, node_id)`` and its own draw
    count, all of which the window schedule reproduces exactly, so
    ctx-RNG protocols keep the serial digest — asserted by the phase-5
    cells of ``check --all`` and tests/sim/test_shard.py.
    """
    from repro.lint.capabilities import capability_for, implementation_modules

    layer: object | None = protocol
    seen: set[int] = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        if implementation_modules(type(layer)):
            capability = capability_for(type(layer))
            if capability.uses_timers:
                raise ConfigurationError(
                    f"protocol {capability.protocol!r} arms timers in its "
                    "implementation modules (uses_timers per the flow-"
                    "derived capability table); sharded execution cannot "
                    "guarantee the serial digest for implementation-level "
                    "timers — run it on the serial kernel"
                )
            if capability.uses_rng:
                raise ConfigurationError(
                    f"protocol {capability.protocol!r} imports entropy "
                    "modules (uses_rng per the flow-derived capability "
                    "table); sharded execution requires behaviour to be a "
                    "function of the seeded schedule alone"
                )
        layer = getattr(layer, "election", None)


class ShardedNetwork:
    """One runnable sharded election (digest-identical to :class:`Network`).

    ``workers=None`` auto-selects: forked shard workers when
    ``REPRO_PARALLEL`` permits, ``fork`` is available and the host has
    more than one CPU; in-process shards otherwise.  ``workers=0`` forces
    in-process execution, any positive value forces a forked run.  A
    forked run forks k−1 workers, one each for shards 1..k−1; the
    coordinator runs shard 0 itself (so one shard forks nothing).  Both
    modes run the identical window/merge pipeline, so their results are
    equal by construction.

    After :meth:`run`, :attr:`stats` holds the kernel-level numbers the
    benchmarks publish (per-shard busy seconds and event counts, window
    count, per-lane record counts, the seconds the coordinator spent in
    the key route, wall time).
    """

    def __init__(
        self,
        protocol: ElectionProtocol,
        topology: CompleteTopology,
        *,
        shards: int,
        workers: int | None = None,
        delays: DelayModel | None = None,
        wakeup: WakeupSchedule | WakeupFactory | None = None,
        failed_positions: frozenset[int] | set[int] = frozenset(),
        crash_schedule: Mapping[int, float] | None = None,
        faults: FaultPlan | None = None,
        seed: int = 0,
        max_events: int = 5_000_000,
        collect_snapshots: bool = True,
    ) -> None:
        protocol.validate(topology)
        if (
            not isinstance(shards, int)
            or isinstance(shards, bool)
            or not 1 <= shards <= topology.n
        ):
            raise ConfigurationError(
                f"shards must be an integer in [1, n={topology.n}], "
                f"got {shards!r}"
            )
        if workers is not None and (
            not isinstance(workers, int)
            or isinstance(workers, bool)
            or workers < 0
        ):
            raise ConfigurationError(
                f"workers must be None or an integer >= 0, got {workers!r}"
            )
        delays = delays if delays is not None else ConstantDelay(1.0)
        if delays.uses_run_rng:
            raise ConfigurationError(
                f"{type(delays).__name__} consumes the shared run RNG; "
                "sharded execution cannot reproduce a global draw order "
                "(use ConstantDelay, a HookDelay with min_latency, or "
                "UniformDelay(min_latency=...) for per-link streams)"
            )
        lookahead = delays.min_latency
        if lookahead is None or lookahead <= 0.0:
            raise ConfigurationError(
                f"{type(delays).__name__} declares no positive min_latency; "
                "conservative windows need a strictly positive lookahead"
            )
        _refuse_unshardable_protocol(protocol)
        self.protocol = protocol
        self.topology = topology
        self.lookahead = float(lookahead)
        self.shards = shards
        self.max_events = max_events
        failed = frozenset(failed_positions)
        crashes = merge_crash_schedule(crash_schedule, faults)
        validate_failure_config(topology.n, failed, crashes)

        rng = random.Random(seed)
        schedule = resolve_wakeup(wakeup, topology, failed, rng)
        wakes: list[list[tuple[float, int, int]]] = [[] for _ in range(shards)]
        for i, (position, time) in enumerate(schedule.items()):
            wakes[position % shards].append((time, _WAKE_BASE + i, position))
        crash_entries: list[list[tuple[float, int, int]]] = [
            [] for _ in range(shards)
        ]
        for j, (position, time) in enumerate(crashes.items()):
            crash_entries[position % shards].append(
                (time, _CRASH_BASE + j, position)
            )
        self._initial_min = min(
            min((t for t, _k, _p in entries), default=float("inf"))
            for entries in (
                [w + c for w, c in zip(wakes, crash_entries)]
            )
        )
        self._cfg = _RunConfig(
            protocol=protocol,
            topology=topology,
            delays=delays,
            failed_positions=failed,
            crash_schedule=crashes,
            faults=faults,
            seed=seed,
            max_events=max_events,
            shards=shards,
            collect_snapshots=collect_snapshots,
            wakes=wakes,
            crashes=crash_entries,
        )
        if workers is None:
            env = configured_processes()
            forked = (
                env != 0
                and (env or os.cpu_count() or 1) > 1
                and fork_context() is not None
            )
        else:
            forked = workers > 0 and fork_context() is not None
        # Shard 0 always runs in this process: one shard forks nothing.
        self._forked = forked and shards > 1
        self._ran = False
        self.stats: dict[str, Any] = {}

    # -- the barrier loop --------------------------------------------------

    def run(self, *, require_leader: bool = True) -> ElectionResult:
        """Drive every shard window-by-window to global quiescence."""
        if self._ran:
            raise SimulationError(
                "a ShardedNetwork instance can only run once"
            )
        self._ran = True
        wall0 = perf_counter()
        k = self.shards
        cfg = self._cfg
        # Forked workers inherit the run's collector policy.
        handles: list[Any] = []
        with spaced_young_collections():
            try:
                # Built inside the try: if one worker fails to start, the
                # ones already running are closed with the rest.  Shard 0
                # runs in this process; a forked run forks the others
                # first, so that no worker inherits shard 0's state.
                if self._forked:
                    context = fork_context()
                    for i in range(1, k):
                        handles.append(_ForkHandle(context, cfg, i))
                    handles.insert(0, _LocalHandle(cfg, 0))
                else:
                    handles.extend(_LocalHandle(cfg, i) for i in range(k))
                finals = self._drive(handles)
            finally:
                for handle in handles:
                    handle.close()
        result = fold_result(
            self.protocol,
            self.topology,
            _in_position_order(finals, self.topology.n),
            quiescent_at=max(final["last_time"] for final in finals),
            failed_positions=cfg.failed_positions,
            trace=Tracer(enabled=False),
        )
        self.stats["wall_seconds"] = perf_counter() - wall0
        if require_leader:
            if cfg.collect_snapshots:
                result.verify()
            elif result.leader_id is None:
                raise SimulationError(
                    "no leader elected (snapshots were not collected, so "
                    "only the leader check ran)"
                )
        return result

    def _drive(self, handles: list[Any]) -> list[dict[str, Any]]:
        k = self.shards
        lookahead = self.lookahead
        max_events = self.max_events
        global_seq = 0
        total_processed = 0
        windows = 0
        route_seconds = 0.0
        records = {"local": 0, "remote": 0, "timer": 0}
        leader: tuple[int, float, int] | None = None
        leader_shard = -1
        #: pending_in[dest][src]: batch routed but not yet delivered.
        pending_in: list[list[tuple | None]] = [
            [None] * k for _ in range(k)
        ]
        #: local_in[src]: global keys of src's last local lane.
        local_in: list[tuple | None] = [None] * k
        next_times: list[float | None] = [
            self._initial_min if self._initial_min != float("inf") else None
        ] * k
        incoming_min = float("inf")
        # Shard 0 runs in this process when the others are forked: every
        # op goes to the workers first, so that they run while it does.
        order = [*range(1, k), 0]

        while True:
            start = incoming_min
            for t in next_times:
                if t is not None and t < start:
                    start = t
            if start == float("inf"):
                break
            end = start + lookahead
            budget = max_events - total_processed
            windows += 1
            for index in order:
                handles[index].window(
                    start, end, budget, pending_in[index], local_in[index]
                )
            pending_in = [[None] * k for _ in range(k)]
            local_in = [None] * k
            route = _Route(records)
            window_stats = []
            errors = []
            # The route allocates only acyclic tuples and arrays: the
            # collector stays paused from the first reply to the last key.
            collecting = gc.isenabled()
            gc.disable()
            try:
                for index, handle in enumerate(handles):
                    try:
                        out, local, stats = handle.collect()
                    except Exception as exc:
                        errors.append(exc)
                        continue
                    window_stats.append(stats)
                    # Shard 0 comes first: its records join the route
                    # while the forked shards still run.
                    route0 = perf_counter()
                    route.add(index, out, local)
                    route_seconds += perf_counter() - route0
                if errors:
                    raise _first_failure(errors)
                for index, stats in enumerate(window_stats):
                    total_processed += stats["processed"]
                    next_times[index] = stats["next_time"]
                    reported = stats["leader"]
                    if reported is not None:
                        if leader is None:
                            leader, leader_shard = reported, index
                        elif leader_shard != index:
                            raise leader_conflict(
                                self.protocol, self.topology, leader, reported
                            )
                if total_processed > max_events:
                    raise LivelockError(
                        f"event budget of {max_events} exhausted at "
                        f"t={start}; the protocol is livelocked (aggregate "
                        f"across {k} shard schedulers)"
                    )
                route0 = perf_counter()
                global_seq = route.assign(global_seq, pending_in, local_in)
                route_seconds += perf_counter() - route0
            finally:
                if collecting:
                    gc.enable()
            incoming_min = route.incoming_min

        for index in order:
            handles[index].finish()
        finals = [handle.collect() for handle in handles]
        self.stats.update(
            {
                "shards": k,
                "forked": self._forked,
                "transport": "pipes" if self._forked else "local",
                "windows": windows,
                "events_total": total_processed,
                "events_per_shard": [f["processed"] for f in finals],
                "busy_per_shard": [f["busy"] for f in finals],
                "records": records,
                "route_seconds": route_seconds,
            }
        )
        return finals

    @property
    def aggregate_events_per_sec(self) -> float:
        """Sum of per-shard busy-time event rates (see docs/performance.md).

        Each shard's events divided by the wall seconds it spent
        *processing* (window barriers and coordinator time excluded),
        summed over shards.  A projection — the rate with one core per
        shard and free barriers — not a measured rate: the run's wall
        clock is ``stats["wall_seconds"]``.
        """
        events = self.stats.get("events_per_shard") or []
        busy = self.stats.get("busy_per_shard") or []
        return sum(
            e / b for e, b in zip(events, busy) if b > 0.0
        )


class _Route:
    """One window's key route: globally order the sends, hand out keys.

    Each shard's window output joins with :meth:`add` as soon as the
    coordinator collects it, so shard 0's records, made in this process,
    are laid out while the forked shards still run.  Every record becomes
    one flat item ending in its position ``f`` in the window's flat key
    array — ``(t, key, idx, f)`` for the local and remote lanes,
    ``(*rank, f)`` for the timer lane — built with C-level ``zip`` over
    the merge-key columns.  Distinct ranks differ before any ragged
    position, so one sort in :meth:`assign` merges the lanes, and each
    record's global key is its place in sorted order: assigning
    consecutive keys so reproduces the serial kernel's scheduling order
    (see the module docstring).  Each lane's records hold one span of the
    flat array, so its keys are one slice of it.

    It allocates only acyclic tuples and arrays, so the coordinator runs
    it with the collector paused.
    """

    def __init__(self, records: dict[str, int]) -> None:
        #: The run's per-lane record counts, which :meth:`add` advances.
        self._records = records
        self._items: list[tuple] = []
        #: ``(src, span, timer span)`` per local lane.
        self._locals: list[tuple] = []
        #: ``(src, dest, arrivals, span, held, timer, timer span)`` per
        #: remote batch.
        self._batches: list[tuple] = []
        #: The earliest arrival of any routed record.
        self.incoming_min = inf

    def _span(self, src_times: array, mkeys: array) -> slice:
        items = self._items
        start = len(items)
        items.extend(zip(src_times, mkeys[0::2], mkeys[1::2], count(start)))
        return slice(start, len(items))

    def _timer_span(self, ranks: list[tuple]) -> slice:
        items = self._items
        start = len(items)
        items.extend((*rank, f) for f, rank in enumerate(ranks, start))
        return slice(start, len(items))

    def add(
        self, src: int, out: dict[int, tuple], local: tuple | None
    ) -> None:
        """Lay out shard ``src``'s window output: its batches by
        destination and its local lane (see :meth:`_Shard.run_window`)."""
        records = self._records
        arrival = inf
        if local is not None:
            src_times, mkeys, ranks, arrival = local
            records["local"] += len(src_times)
            records["timer"] += len(ranks)
            self._locals.append(
                (src, self._span(src_times, mkeys), self._timer_span(ranks))
            )
        for dest, (times, mkeys, held, timer) in out.items():
            arrivals = times[1::2]
            self._batches.append((
                src, dest, arrivals, self._span(times[0::2], mkeys), held,
                timer, self._timer_span([record[0] for record in timer]),
            ))
            records["remote"] += len(held)
            records["timer"] += len(timer)
            arrival = min(
                arrival,
                min(arrivals, default=inf),
                min((record[1] for record in timer), default=inf),
            )
        if arrival < self.incoming_min:
            self.incoming_min = arrival

    def assign(
        self,
        global_seq: int,
        pending_in: list[list[tuple | None]],
        local_in: list[tuple | None],
    ) -> int:
        """Sort, and hand out global keys from ``global_seq`` on.

        Fills ``local_in[src]`` with the ``(keys, timer keys)`` of
        ``src``'s local lane and ``pending_in[dest][src]`` with
        ``(arrivals, keys, held, timer, timer_keys)``.  Returns the
        advanced global sequence counter.
        """
        items = self._items
        items.sort()
        keys = array("q", bytes(8 * len(items)))
        for g, item in enumerate(items, global_seq):
            keys[item[-1]] = g
        for src, span, timer_span in self._locals:
            local_in[src] = (keys[span], keys[timer_span])
        for src, dest, arrivals, span, held, timer, timer_span in self._batches:
            pending_in[dest][src] = (
                arrivals, keys[span], held, timer, keys[timer_span]
            )
        return global_seq + len(items)


def _in_position_order(
    finals: list[dict[str, Any]], n: int
) -> list[dict[str, Any]]:
    """The shard tallies with base positions and snapshots in position order.

    :func:`fold_result` concatenates both tally by tally, but strided
    shard ``i`` of ``k`` owns ``range(i, n, k)``: the first tally takes
    every shard's lists, interleaved back into position order.
    """
    k = len(finals)
    if k == 1:
        return finals
    bases = sorted(p for final in finals for p in final["base_positions"])
    snapshots = None
    if finals[0]["snapshots"] is not None:
        snapshots = [None] * n
        for i, final in enumerate(finals):
            snapshots[i::k] = final["snapshots"]
    return [
        {**finals[0], "base_positions": bases, "snapshots": snapshots},
        *(
            {**final, "base_positions": [], "snapshots": None}
            for final in finals[1:]
        ),
    ]


def run_sharded_election(
    protocol: ElectionProtocol,
    topology: CompleteTopology,
    *,
    shards: int,
    workers: int | None = None,
    delays: DelayModel | None = None,
    wakeup: WakeupSchedule | WakeupFactory | None = None,
    failed_positions: frozenset[int] | set[int] = frozenset(),
    crash_schedule: Mapping[int, float] | None = None,
    faults: FaultPlan | None = None,
    seed: int = 0,
    max_events: int = 5_000_000,
    collect_snapshots: bool = True,
    require_leader: bool = True,
) -> ElectionResult:
    """One-shot convenience wrapper: build a :class:`ShardedNetwork`, run it.

    The keyword signature mirrors :func:`repro.sim.network.run_election`
    minus the serial-only options (``trace``, ``until``) and plus the
    sharding controls.  A forked run forks k−1 workers and runs shard 0
    in this process (see :class:`ShardedNetwork`).
    """
    network = ShardedNetwork(
        protocol,
        topology,
        shards=shards,
        workers=workers,
        delays=delays,
        wakeup=wakeup,
        failed_positions=failed_positions,
        crash_schedule=crash_schedule,
        faults=faults,
        seed=seed,
        max_events=max_events,
        collect_snapshots=collect_snapshots,
    )
    return network.run(require_leader=require_leader)
