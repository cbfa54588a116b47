"""Unit tests for the event queue and scheduler."""

from __future__ import annotations

import heapq
from math import inf, nextafter

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import LivelockError, SimulationError
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler
from repro.sim.shard import ShardedNetwork, _Shard
from repro.topology.complete import complete_with_sense_of_direction


def _noop(entry):
    pass


def _drain(queue: EventQueue) -> list[tuple]:
    return [heapq.heappop(queue.heap) for _ in range(len(queue))]


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        for time, name in ((3.0, "c"), (1.0, "a"), (2.0, "b")):
            queue.push_entry(time, lambda e: order.append(e[4]), 0, (name,))
        for entry in _drain(queue):
            entry[2](entry)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        queue.push_entry(1.0, _noop, 0, ("first",))
        queue.push_entry(1.0, _noop, 0, ("second",))
        assert [entry[4] for entry in _drain(queue)] == ["first", "second"]

    def test_tiebreak_overrides_insertion_order(self):
        queue = EventQueue()
        queue.push_entry(1.0, _noop, 0, ("late",), 1)
        queue.push_entry(1.0, _noop, 0, ("early",), -1)
        assert [entry[4] for entry in _drain(queue)] == ["early", "late"]

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=50))
    def test_any_schedule_pops_sorted(self, times):
        queue = EventQueue()
        for t in times:
            queue.push_entry(t, _noop, 0, ())
        popped = [entry[0] for entry in _drain(queue)]
        assert popped == sorted(popped)

    def test_size_and_truth_count_the_heap_and_the_lane(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.lane.append((1.0, 0, _noop, 0))
        assert queue and len(queue) == 1
        queue.push_entry(0.5, _noop, 0, ())
        assert len(queue) == 2
        queue.lane.clear()
        assert queue and len(queue) == 1


#: A plan step: ``("lane", spawns)`` appends an in-order lane entry, and
#: ``("heap", time, tiebreak, spawns)`` pushes a heap entry.  ``spawns``
#: are what the entry's handler schedules when it fires: ``("lane",)``
#: appends a delivery at ``now + 1`` to the lane, as a constant-latency
#: serial send does, and ``("heap", delay, tiebreak)`` pushes an entry.
_TIEBREAKS = st.sampled_from([-2, -1, 0, 1])
_SPAWN = st.one_of(
    st.just(("lane",)),
    st.tuples(st.just("heap"), st.sampled_from([0.0, 0.5, 1.0]), _TIEBREAKS),
)
_SPAWNS = st.lists(_SPAWN, max_size=3).map(tuple)
_STEP = st.one_of(
    st.tuples(st.just("lane"), _SPAWNS),
    st.tuples(
        st.just("heap"), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        _TIEBREAKS, _SPAWNS,
    ),
)


def _replay(plan, lane_times, *, use_lane, until):
    """Run ``plan`` and return the ``(time, key)`` pops and the clocks.

    The i-th lane step is appended at ``lane_times[i]`` (sorted, and
    below 1, so every spawned lane entry lands after it).  With
    ``use_lane=False`` every lane append is a heap push of the same
    entry instead: the pure-heap reference order.  With ``until``, the
    run pauses there, reports the clock, and then runs to the end.
    """
    scheduler = Scheduler()
    queue = scheduler._queue
    popped = []

    def append(time, spawns):
        key = queue._seq
        queue._seq = key + 1
        entry = (time, key, fire, 0, spawns)
        if use_lane:
            queue.lane.append(entry)
        else:
            heapq.heappush(queue.heap, entry)

    def fire(entry):
        popped.append(entry[:2])
        for spawn in entry[4]:
            if spawn[0] == "lane":
                append(scheduler.now + 1.0, ())
            else:
                scheduler.schedule_payload(
                    scheduler.now + spawn[1], fire, 0, ((),), spawn[2]
                )

    times = iter(lane_times)
    for step in plan:
        if step[0] == "lane":
            append(next(times), step[1])
        else:
            scheduler.schedule_payload(step[1], fire, 0, (step[3],), step[2])
    clocks = []
    if until is not None:
        scheduler.run(until=until)
        clocks.append((len(popped), scheduler.now))
    scheduler.run()
    clocks.append((len(popped), scheduler.now))
    return popped, clocks


class TestInOrderLane:
    """The lane plus the heap pop in exactly the order one heap would."""

    @given(
        st.lists(_STEP, max_size=40),
        st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=40, max_size=40),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.75, 2.5])),
    )
    def test_merged_pops_match_a_pure_heap(self, plan, lane_times, until):
        lane_times = sorted(lane_times)
        got = _replay(plan, lane_times, use_lane=True, until=until)
        want = _replay(plan, lane_times, use_lane=False, until=until)
        assert got == want


class TestScheduler:
    def test_clock_advances_with_events(self):
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_payload(
            2.5, lambda e: seen.append(scheduler.now), 0, ()
        )
        scheduler.run()
        assert seen == [2.5]
        assert scheduler.now == 2.5

    def test_actions_can_schedule_more_events(self):
        scheduler = Scheduler()
        seen = []

        def first(entry):
            seen.append("first")
            scheduler.schedule_payload(
                scheduler.now + 1.0, lambda e: seen.append("second"), 0, ()
            )

        scheduler.schedule_payload(1.0, first, 0, ())
        scheduler.run()
        assert seen == ["first", "second"]
        assert scheduler.now == 2.0

    def test_scheduling_into_the_past_is_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule_payload(5.0, _noop, 0, ())
        scheduler.run()
        with pytest.raises(SimulationError, match="past"):
            scheduler.schedule_payload(1.0, _noop, 0, ())

    def test_event_budget_turns_livelock_into_an_error(self):
        scheduler = Scheduler(max_events=100)

        def forever(entry):
            scheduler.schedule_payload(scheduler.now + 1.0, forever, 0, ())

        scheduler.schedule_payload(0.0, forever, 0, ())
        with pytest.raises(LivelockError):
            scheduler.run()

    def test_run_until_stops_before_later_events(self):
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_payload(1.0, lambda e: seen.append(1), 0, ())
        scheduler.schedule_payload(10.0, lambda e: seen.append(10), 0, ())
        scheduler.run(until=5.0)
        assert seen == [1]
        scheduler.run()
        assert seen == [1, 10]

    def test_run_until_advances_clock_to_the_horizon(self):
        # Regression: run(until=...) used to leave ``now`` at the last
        # *processed* event, so a later schedule_payload() inside the
        # already-simulated window was silently accepted.
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_payload(1.0, _noop, 0, ())
        scheduler.schedule_payload(10.0, lambda e: seen.append(10), 0, ())
        scheduler.run(until=5.0)
        assert scheduler.now == 5.0
        with pytest.raises(SimulationError, match="past"):
            scheduler.schedule_payload(3.0, _noop, 0, ())
        scheduler.run(until=20.0)
        assert scheduler.now == 20.0
        assert seen == [10]

    def test_run_until_with_drained_queue_still_reaches_the_horizon(self):
        scheduler = Scheduler()
        scheduler.schedule_payload(1.0, _noop, 0, ())
        scheduler.run(until=5.0)
        assert scheduler.now == 5.0

    def test_run_until_never_moves_the_clock_backwards(self):
        scheduler = Scheduler()
        scheduler.schedule_payload(7.0, _noop, 0, ())
        scheduler.run()
        assert scheduler.now == 7.0
        scheduler.run(until=5.0)  # horizon already in the past: no-op
        assert scheduler.now == 7.0

    def test_a_window_horizon_is_strict(self):
        # A shard runs its window [start, end) as
        # run(until=nextafter(end, -inf)): an entry at exactly ``end``
        # waits for the next window, and a timer armed inside the window
        # for a time before ``end`` fires in it.
        scheduler = Scheduler()
        seen = []

        def record(entry):
            seen.append((entry[4], scheduler.now))

        def arm(entry):
            record(entry)
            scheduler.schedule_payload(
                scheduler.now + 0.5, record, 0, ("timer",), 1
            )

        scheduler.schedule_payload(0.25, arm, 0, ("arm",))
        scheduler.schedule_payload(1.0, record, 0, ("at end",))
        scheduler.run(until=nextafter(1.0, -inf))
        assert seen == [("arm", 0.25), ("timer", 0.75)]
        # The clock stays below ``end``: the barrier may still add entries
        # at ``end`` for the next window.
        scheduler.schedule_payload(1.0, record, 0, ("routed",))
        scheduler.run(until=nextafter(2.0, -inf))
        assert seen[2:] == [("at end", 1.0), ("routed", 1.0)]

    def test_depth_is_carried_on_events(self):
        scheduler = Scheduler()
        depths = []
        scheduler.schedule_payload(1.0, lambda e: depths.append(e[3]), 7, ())
        scheduler.run()
        assert depths == [7]


def test_negative_timer_delay_is_rejected_in_both_runtimes():
    topology = complete_with_sense_of_direction(4)
    serial = Network(ProtocolC(), topology)
    sharded = ShardedNetwork(ProtocolC(), topology, shards=2, workers=0)
    shard = _Shard(sharded._cfg, 0)
    for node in (serial.nodes[0], shard.nodes[0]):
        with pytest.raises(SimulationError, match="negative timer delay -0.1"):
            node.ctx.set_timer(-0.1, lambda: None)
