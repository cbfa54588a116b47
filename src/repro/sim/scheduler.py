"""The discrete-event scheduler.

A thin, deterministic loop over :class:`~repro.sim.events.EventQueue` with a
virtual clock and a hard event budget.  The budget turns protocol livelocks
into loud :class:`~repro.core.errors.LivelockError` failures instead of hung
test runs.

It is the one dispatch loop of both runtimes.  The serial network runs it
to quiescence (or to an inclusive ``until``); a shard runs each
conservative window ``[start, end)`` as ``run(until=nextafter(end,
-inf))``: no float lies strictly between that horizon and ``end``, so the
inclusive test is the strict ``time < end`` one.  An entry at exactly
``end`` waits for the next window, and a timer a handler arms for a time
before ``end`` fires in this one.

The run loop is the kernel's single hottest frame: it binds the heap, the
in-order lane and their pops to locals, indexes entries positionally (see
the entry layout in :mod:`repro.sim.events`), and keeps the event counter
in a local that is flushed back on exit.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.core.errors import LivelockError, SimulationError
from repro.sim.events import EventQueue


class Scheduler:
    """Runs events in virtual-time order.

    The clock only moves forward.  Scheduling into the past is a kernel bug
    and raises :class:`SimulationError` immediately rather than silently
    reordering history.
    """

    def __init__(self, *, max_events: int = 5_000_000) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._max_events = max_events
        self._processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (for budget accounting)."""
        return self._processed

    @property
    def max_events(self) -> int:
        """The current event budget (see :meth:`set_max_events`)."""
        return self._max_events

    def set_max_events(self, budget: int) -> None:
        """Re-arm the livelock budget mid-run.

        Multi-scheduler runs (the sharded kernel) share ONE global budget:
        before each synchronization window the coordinator grants every
        shard ``events_processed + remaining_global``, so no single shard
        can burn more than the whole run has left.  Without this, k shards
        each carrying the full budget could overrun the serial limit k×
        before any of them raised.
        """
        if budget < self._processed:
            raise SimulationError(
                f"event budget {budget} is below the {self._processed} "
                "events already processed"
            )
        self._max_events = budget

    def schedule_payload(
        self,
        time: float,
        action: Callable[[tuple], None],
        depth: int,
        payload: tuple,
        tiebreak: int = 0,
    ) -> None:
        """Schedule ``action`` at ``time`` with ``payload`` in the entry.

        One tuple allocation per entry and no closure: ``action`` receives
        the raw entry and reads the payload from slots 4+.  ``tiebreak``
        orders same-instant entries (see :mod:`repro.sim.events`).
        """
        if time < self._now:
            raise SimulationError(
                f"attempt to schedule an event at t={time} in the past "
                f"(now={self._now})"
            )
        self._queue.push_entry(time, action, depth, payload, tiebreak)

    def run(self, *, until: float | None = None) -> None:
        """Process events until the queue drains (or past ``until``).

        Each step pops the smaller of the two heads, the heap's and the
        in-order lane's (see :mod:`repro.sim.events`): one tuple
        comparison while both hold entries, none while one is empty.  The
        events therefore fire in exactly the ``(time, key)`` order a single
        heap would give, whichever container each entry sits in.

        When ``until`` is given and the simulation pauses early (later
        events remain, or the queue drained before the horizon), the clock
        advances to ``until`` so ``now`` reflects the full simulated window
        rather than the last processed event.

        Raises :class:`LivelockError` when the event budget is exhausted,
        which in practice means a protocol is cycling messages forever.
        """
        if self._running:
            raise SimulationError("scheduler re-entered while running")
        self._running = True
        heap = self._queue.heap
        lane = self._queue.lane
        heappop = heapq.heappop
        popleft = lane.popleft
        max_events = self._max_events
        processed = self._processed
        try:
            if until is None:
                while True:
                    if lane and not (heap and heap[0] < lane[0]):
                        entry = popleft()
                    elif heap:
                        entry = heappop(heap)
                    else:
                        break
                    self._now = entry[0]
                    processed += 1
                    if processed > max_events:
                        raise LivelockError(
                            f"event budget of {max_events} exhausted at "
                            f"t={self._now}; the protocol is livelocked"
                        )
                    entry[2](entry)
            else:
                while True:
                    if lane and not (heap and heap[0] < lane[0]):
                        if lane[0][0] > until:
                            break
                        entry = popleft()
                    elif heap and heap[0][0] <= until:
                        entry = heappop(heap)
                    else:
                        break
                    self._now = entry[0]
                    processed += 1
                    if processed > max_events:
                        raise LivelockError(
                            f"event budget of {max_events} exhausted at "
                            f"t={self._now}; the protocol is livelocked"
                        )
                    entry[2](entry)
        finally:
            self._processed = processed
            self._running = False
        if until is not None and self._now < until:
            # The horizon was simulated in full: quiescence timestamps must
            # read ``until`` even though no event fired exactly there.  Both
            # heads, if any, lie beyond it: the loop ran every entry up to it.
            self._now = until
