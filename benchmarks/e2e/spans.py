"""Span tracing for the benchmark's traced run.

Tracing lives entirely in the benchmark: :func:`install` wraps public entry
points of the ``repro`` package (class attributes and module-level
functions) and :meth:`Installation.uninstall` puts the originals back.
Nothing under ``src/`` knows about it.

A span is ``(id, name, start_ns, end_ns, parent_id, unit)``.  Open spans sit
on a stack, so a span's *self time* (its duration minus the time its child
spans cover) is computed when it closes and folded into a per-name
``[count, total_ns, self_ns]`` aggregate.  Summed over every span, self
times equal the summed duration of the root spans, which is what makes
``trace.unattributed_s`` (unit wall minus root spans) exact.

The aggregates cover every span.  Raw span records are kept in memory up to
:data:`SPAN_CAP` and written out when the run ends; an election at N=32768
opens over half a million spans, and storing all of them would cost more
memory than the run being measured.

Forked sweep workers inherit the installed wrappers and a copy of the
tracer.  The benchmark's task closures reset that copy at the start of each
task and ship its aggregates back with the task's result
(:meth:`Tracer.export` / :meth:`Tracer.absorb`).  Forked shard workers stay
opaque: the wrappers that would run inside them are suspended while
``ShardedNetwork.run`` forks, and their time comes from
``ShardedNetwork.stats`` instead.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, NamedTuple

#: Raw span records kept in memory per process (aggregates are unbounded).
SPAN_CAP = 50_000

#: Raw span records a forked sweep task ships back with its result.
TASK_SPAN_CAP = 200


class Tracer:
    """Span stack, per-name aggregates, counters and collected facts."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        #: Index of the traced unit, stamped on every span (a traced run
        #: traces one unit).
        self.unit = 1
        self.spans: list[tuple] = []
        self.dropped = 0
        #: name -> [count, total_ns, self_ns] over spans opened here.
        self.stats: dict[str, list[int]] = {}
        #: The same aggregates shipped back from forked sweep workers.
        self.remote_stats: dict[str, list[int]] = {}
        self.remote_spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Objects the per-layer metrics read after the unit (shard stats,
        #: the visited-state table).
        self.facts: dict[str, Any] = {}
        self._stack: list[list] = []
        self._next_id = 1

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent_id, self.unit))
        else:
            self.dropped += 1

    def top(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def self_ns(self) -> int:
        """Self time summed over every local span (= root span time)."""
        return sum(stat[2] for stat in self.stats.values())

    # -- forked sweep workers ------------------------------------------------

    def reset_in_worker(self) -> bool:
        """Start a fresh record in a forked worker; False in the owner."""
        if os.getpid() == self.owner_pid:
            return False
        self.spans.clear()
        self.stats.clear()
        self.counts.clear()
        self._stack.clear()
        return True

    def export(self) -> tuple:
        """What a forked task ships back: aggregates, counts, a few spans."""
        pid = os.getpid()
        return (
            self.stats,
            dict(self.counts),
            [span + (pid,) for span in self.spans[:TASK_SPAN_CAP]],
        )

    def absorb(self, exported: tuple) -> None:
        """Fold one forked task's export into the remote aggregates."""
        stats, counts, spans = exported
        for name, (count, total, own) in stats.items():
            stat = self.remote_stats.setdefault(name, [0, 0, 0])
            stat[0] += count
            stat[1] += total
            stat[2] += own
        self.counts.update(counts)
        self.remote_spans.extend(spans)

    def to_json(self) -> dict[str, Any]:
        """The trace file's payload."""

        def table(stats: dict[str, list[int]]) -> dict[str, Any]:
            return {
                name: {
                    "count": count,
                    "total_s": total / 1e9,
                    "self_s": own / 1e9,
                }
                for name, (count, total, own) in sorted(stats.items())
            }

        return {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "unit"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "remote_span_fields": [
                "id", "name", "start_ns", "end_ns", "parent", "unit", "pid",
            ],
            "remote_spans": self.remote_spans,
            "layers": table(self.stats),
            "remote_layers": table(self.remote_stats),
            "counts": dict(sorted(self.counts.items())),
        }


class _Patch(NamedTuple):
    owner: Any
    attr: str
    original: Any
    replacement: Any
    #: Wraps per-node or per-search-step code, which forked shard workers
    #: would otherwise run traced.
    hot: bool


class Installation:
    """The wrappers :func:`install` put in place."""

    def __init__(self) -> None:
        self.patches: list[_Patch] = []

    def wrap(self, owner, attr: str, make: Callable, *, hot: bool = False):
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        replacement = make(original)
        self.patches.append(_Patch(owner, attr, original, replacement, hot))
        setattr(owner, attr, replacement)
        return replacement

    def alias(self, owner, attr: str, replacement) -> None:
        """Point another module-level name at an existing wrapper."""
        self.patches.append(
            _Patch(owner, attr, getattr(owner, attr), replacement, False)
        )
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.attr, patch.original)
        self.patches.clear()

    @contextmanager
    def hot_suspended(self):
        """Remove the per-node wrappers while forked shard workers start."""
        hot = [patch for patch in self.patches if patch.hot]
        for patch in hot:
            setattr(patch.owner, patch.attr, patch.original)
        try:
            yield
        finally:
            for patch in hot:
                setattr(patch.owner, patch.attr, patch.replacement)


def _span(tracer: Tracer, name: str) -> Callable:
    open_, close = tracer.open, tracer.close

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return wrapper

    return make


def install(tracer: Tracer) -> Installation:
    """Wrap the entry points the per-layer metrics are read from."""
    from repro.core import node as core_node
    from repro.core import results as core_results
    from repro.core.reliable import ReliableNode
    from repro.harness import parallel, scenarios
    from repro.sim import network as sim_network
    from repro.sim import scheduler as sim_scheduler
    from repro.sim import shard as sim_shard
    from repro.topology import complete
    from repro.verification import explore, store, world

    inst = Installation()
    open_, close, counts = tracer.open, tracer.close, tracer.counts

    # Topology constructors, where the benchmark and harness.scenarios
    # look them up.
    for attr in ("complete_with_sense_of_direction", "complete_without_sense"):
        wrapper = inst.wrap(complete, attr, _span(tracer, "topology.build"))
        inst.alias(scenarios, attr, wrapper)

    # Serial runtime.
    inst.wrap(sim_network.Network, "__init__", _span(tracer, "sim.network.ctor"))
    inst.wrap(sim_network.Network, "run", _span(tracer, "sim.network.run"))
    inst.wrap(
        core_results.ElectionResult, "verify", _span(tracer, "core.results.verify")
    )

    def scheduler_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            before = self.events_processed
            open_("sim.scheduler.run")
            try:
                return fn(self, *args, **kwargs)
            finally:
                close()
                counts["sim.scheduler.events"] += self.events_processed - before

        return run

    inst.wrap(sim_scheduler.Scheduler, "run", scheduler_run, hot=True)
    context = sim_network._BoundContext  # the runtime's NodeContext
    inst.wrap(context, "send", _span(tracer, "sim.network.send"), hot=True)

    def set_timer(fn):
        @functools.wraps(fn)
        def arm(self, delay, callback):
            counts["core.reliable.timers"] += 1

            def fire():
                open_("core.reliable.timer")
                try:
                    callback()
                finally:
                    close()

            return fn(self, delay, fire)

        return arm

    inst.wrap(context, "set_timer", set_timer, hot=True)

    def node_entry(fn):
        @functools.wraps(fn)
        def entry(self, *args, **kwargs):
            if type(self) is ReliableNode:
                name = "core.reliable.node"
            else:
                name = "protocols.node"
                if tracer.top() != name:
                    counts["protocols.activations"] += 1
            open_(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                close()

        return entry

    inst.wrap(core_node.Node, "wake", node_entry, hot=True)
    inst.wrap(core_node.Node, "receive", node_entry, hot=True)

    # Sharded runtime: parent-side spans only.
    inst.wrap(sim_shard.ShardedNetwork, "__init__", _span(tracer, "sim.shard.ctor"))

    def shard_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            open_("sim.shard.run")
            try:
                with inst.hot_suspended():
                    return fn(self, *args, **kwargs)
            finally:
                close()
                tracer.facts.setdefault("shard_stats", []).append(dict(self.stats))

        return run

    inst.wrap(sim_shard.ShardedNetwork, "run", shard_run)

    # Sweep pool.
    inst.wrap(parallel, "run_sweep", _span(tracer, "harness.parallel.sweep"))

    # Exhaustive checker.
    inst.wrap(explore, "explore_protocol", _span(tracer, "verification.explore"))
    lock_step = world.LockStepWorld
    for attr, name in (
        ("apply", "verification.world.apply"),
        ("branch", "verification.world.branch"),
        ("peek_transition", "verification.world.peek"),
        ("enabled_actions", "verification.world.enabled"),
        ("fingerprint", "verification.world.fingerprint"),
    ):
        inst.wrap(lock_step, attr, _span(tracer, name), hot=True)

    def table_get(fn):
        @functools.wraps(fn)
        def get(self, fingerprint):
            open_("verification.store.get")
            try:
                value = fn(self, fingerprint)
            finally:
                close()
            if value is not None:
                counts["verification.store.hits"] += 1
            return value

        return get

    def table_put(fn):
        @functools.wraps(fn)
        def put(self, fingerprint, mask):
            tracer.facts["store"] = self
            open_("verification.store.put")
            try:
                return fn(self, fingerprint, mask)
            finally:
                close()

        return put

    inst.wrap(store.FingerprintTable, "get", table_get, hot=True)
    inst.wrap(store.FingerprintTable, "put", table_put, hot=True)
    return inst


# -- per-layer metrics -------------------------------------------------------

#: Every per-layer metric the traced run emits, with its unit.  A layer the
#: workload does not exercise reports 0.
LAYER_METRICS: dict[str, str] = {
    "topology.build_s": "s",
    "topology.builds": "count",
    "sim.network.ctor_s": "s",
    "sim.network.sends": "count",
    "sim.network.send_s": "s",
    "sim.network.bits_per_msg": "bits",
    "sim.network.finish_s": "s",
    "sim.scheduler.events": "count",
    "sim.scheduler.self_s": "s",
    "protocols.activations": "count",
    "protocols.handler_s": "s",
    "core.results.verify_s": "s",
    "core.reliable.overlay_s": "s",
    "core.reliable.timers": "count",
    "core.reliable.retransmissions": "count",
    "core.reliable.duplicates_suppressed": "count",
    "core.reliable.abandoned": "count",
    "core.reliable.goodput": "ratio",
    "sim.faults.dropped": "count",
    "sim.faults.duplicated": "count",
    "sim.faults.jittered": "count",
    "sim.shard.ctor_s": "s",
    "sim.shard.run_s": "s",
    "sim.shard.busy_max_s": "s",
    "sim.shard.busy_sum_s": "s",
    "sim.shard.coord_s": "s",
    "sim.shard.windows": "count",
    "sim.shard.events_per_window": "count",
    "sim.shard.imbalance": "ratio",
    "sim.shard.speedup_vs_serial": "ratio",
    "harness.parallel.sweep_s": "s",
    "harness.parallel.startup_s": "s",
    "harness.parallel.busy_s": "s",
    "harness.parallel.util": "ratio",
    "harness.parallel.drain_s": "s",
    "harness.scenarios.election_p50_ms": "ms",
    "harness.scenarios.election_p95_ms": "ms",
    "verification.world.apply_calls": "count",
    "verification.world.branch_calls": "count",
    "verification.world.peek_calls": "count",
    "verification.world.apply_s": "s",
    "verification.world.branch_s": "s",
    "verification.world.peek_s": "s",
    "verification.world.enabled_s": "s",
    "verification.world.fingerprint_s": "s",
    "verification.world.memo_misses": "count",
    "verification.world.memo_hit_ratio": "ratio",
    "verification.store.gets": "count",
    "verification.store.puts": "count",
    "verification.store.hit_ratio": "ratio",
    "verification.store.op_s": "s",
    "verification.store.bytes": "bytes",
    "verification.explore.states": "count",
    "verification.explore.transitions": "count",
    "verification.explore.compressed_steps": "count",
    "verification.explore.new_state_ratio": "ratio",
    "verification.explore.self_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    results: list,
    reports: list,
    pool: dict[str, float],
    speedup_vs_serial: float,
) -> dict[str, float]:
    """Derive every :data:`LAYER_METRICS` value from one traced unit.

    ``results`` are the unit's ``ElectionResult``s and ``reports`` its
    ``ExplorationReport``s; ``pool`` holds the sweep-pool timings, and
    ``speedup_vs_serial`` the untraced serial-over-sharded wall ratio (both
    measured without tracing, 0 where they do not apply).
    """
    merged: dict[str, list[int]] = {}
    for stats in (tracer.stats, tracer.remote_stats):
        for name, (count, total, own) in stats.items():
            stat = merged.setdefault(name, [0, 0, 0])
            stat[0] += count
            stat[1] += total
            stat[2] += own

    def calls(name: str) -> int:
        return merged.get(name, (0, 0, 0))[0]

    def total_s(name: str) -> float:
        return merged.get(name, (0, 0, 0))[1] / 1e9

    def self_s(*names: str) -> float:
        return sum(merged.get(name, (0, 0, 0))[2] for name in names) / 1e9

    counts = tracer.counts
    messages = sum(r.messages_total for r in results)
    packets = sum(r.messages_by_type.get("Packet", 0) for r in results)
    retransmissions = sum(r.retransmissions for r in results)
    shard_stats = tracer.facts.get("shard_stats", [])
    busy = [b for stats in shard_stats for b in stats.get("busy_per_shard", [])]
    shard_events = [
        e for stats in shard_stats for e in stats.get("events_per_shard", [])
    ]
    windows = sum(stats.get("windows", 0) for stats in shard_stats)
    shard_run_s = total_s("sim.shard.run")
    applies = calls("verification.world.apply")
    peeks = calls("verification.world.peek")
    in_explore = bool(reports)
    misses = counts["protocols.activations"] if in_explore else 0
    gets = calls("verification.store.get")
    table = tracer.facts.get("store")
    states = sum(r.states_explored for r in reports)
    transitions = sum(r.transitions for r in reports)

    values = {
        "topology.build_s": self_s("topology.build"),
        "topology.builds": calls("topology.build"),
        "sim.network.ctor_s": self_s("sim.network.ctor"),
        "sim.network.sends": calls("sim.network.send"),
        "sim.network.send_s": self_s("sim.network.send"),
        "sim.network.bits_per_msg": _ratio(
            sum(r.bits_total for r in results), messages
        ),
        "sim.network.finish_s": self_s("sim.network.run"),
        "sim.scheduler.events": counts["sim.scheduler.events"],
        "sim.scheduler.self_s": self_s("sim.scheduler.run"),
        "protocols.activations": counts["protocols.activations"],
        "protocols.handler_s": self_s("protocols.node"),
        "core.results.verify_s": self_s("core.results.verify"),
        "core.reliable.overlay_s": self_s(
            "core.reliable.node", "core.reliable.timer"
        ),
        "core.reliable.timers": counts["core.reliable.timers"],
        "core.reliable.retransmissions": retransmissions,
        "core.reliable.duplicates_suppressed": sum(
            r.duplicates_suppressed for r in results
        ),
        "core.reliable.abandoned": sum(r.packets_abandoned for r in results),
        "core.reliable.goodput": _ratio(packets - retransmissions, messages)
        if packets
        else 0.0,
        "sim.faults.dropped": sum(r.messages_dropped for r in results),
        "sim.faults.duplicated": sum(r.messages_duplicated for r in results),
        "sim.faults.jittered": sum(r.messages_jittered for r in results),
        "sim.shard.ctor_s": self_s("sim.shard.ctor"),
        "sim.shard.run_s": shard_run_s,
        "sim.shard.busy_max_s": max(busy, default=0.0),
        "sim.shard.busy_sum_s": sum(busy),
        "sim.shard.coord_s": shard_run_s - max(busy, default=0.0)
        if shard_stats
        else 0.0,
        "sim.shard.windows": windows,
        "sim.shard.events_per_window": _ratio(sum(shard_events), windows),
        "sim.shard.imbalance": _ratio(
            max(shard_events, default=0), sum(shard_events) / len(shard_events)
        )
        if shard_events
        else 0.0,
        "sim.shard.speedup_vs_serial": speedup_vs_serial,
        "verification.world.apply_calls": applies,
        "verification.world.branch_calls": calls("verification.world.branch"),
        "verification.world.peek_calls": peeks,
        "verification.world.apply_s": self_s("verification.world.apply"),
        "verification.world.branch_s": self_s("verification.world.branch"),
        "verification.world.peek_s": self_s("verification.world.peek"),
        "verification.world.enabled_s": self_s("verification.world.enabled"),
        "verification.world.fingerprint_s": self_s(
            "verification.world.fingerprint"
        ),
        "verification.world.memo_misses": misses,
        "verification.world.memo_hit_ratio": 1.0 - _ratio(misses, applies + peeks)
        if applies + peeks
        else 0.0,
        "verification.store.gets": gets,
        "verification.store.puts": calls("verification.store.put"),
        "verification.store.hit_ratio": _ratio(
            counts["verification.store.hits"], gets
        ),
        "verification.store.op_s": self_s(
            "verification.store.get", "verification.store.put"
        ),
        "verification.store.bytes": table.bytes_used() if table is not None else 0,
        "verification.explore.states": states,
        "verification.explore.transitions": transitions,
        "verification.explore.compressed_steps": sum(
            r.compressed_steps for r in reports
        ),
        "verification.explore.new_state_ratio": _ratio(states, transitions),
        "verification.explore.self_s": self_s("verification.explore"),
        "trace.overhead": _ratio(traced_wall_s, untraced_wall_s),
        "trace.unattributed_s": traced_wall_s - tracer.self_ns() / 1e9,
    }
    for name in (
        "harness.parallel.sweep_s",
        "harness.parallel.startup_s",
        "harness.parallel.busy_s",
        "harness.parallel.util",
        "harness.parallel.drain_s",
        "harness.scenarios.election_p50_ms",
        "harness.scenarios.election_p95_ms",
    ):
        values[name] = pool.get(name, 0.0)
    assert values.keys() == LAYER_METRICS.keys()
    return values
