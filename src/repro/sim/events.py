"""Event primitives for the discrete-event kernel.

The kernel is a classic calendar queue: events are ``(time, tiebreak, seq)``
ordered, where ``seq`` is a global monotone counter.  The counter makes the
order *total* and therefore the whole simulation deterministic: two events at
the same instant always fire in the order they were scheduled.  Determinism
matters here because the benchmarks compare protocols run-for-run and the
property tests shrink counterexamples; a nondeterministic kernel would make
both useless.

Heap entries are *tuples*, not objects: ``(time, key, action, depth,
*payload)``.  Tuple comparison stops at ``key`` (unique), so the action is
never compared, and ``heapq`` sifts entries with C-level tuple comparisons
instead of calling a generated ``__lt__``.  :class:`Event` is a tuple
subclass adding named read access for handlers and tests; the network fast
path pushes plain tuples through :meth:`EventQueue.push_entry` and indexes
them directly.

``key`` packs the ``(tiebreak, seq)`` pair into one integer —
``seq + (tiebreak << 48)`` — so prioritised event classes (timers 1, wake
nudges -1, crashes -2) order ahead of or behind same-instant deliveries
without widening the entry or adding a comparison level to the heap sifts.
The encoding is exact while ``seq`` stays below 2**48 (the event budget caps
it around 5M), and the common case (tiebreak 0) keeps ``key == seq``, a
small int.  Deliveries dominate the heap, so the hot comparisons are the
same float-then-small-int pair the layout always had.

Entry layout (index constants below)::

    0 time      fire time (float)
    1 key       seq + (tiebreak << 48); orders (tiebreak, seq), total
    2 action    callable invoked as ``action(entry)``
    3 depth     causal depth (longest message chain leading here)
    4+          optional payload slots (the delivery fast path packs
                ``far, far_port, message, sender_id`` here)
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable

#: Indexes into a heap entry (see module docstring).
TIME, KEY, ACTION, DEPTH = range(4)

#: Bit position of ``tiebreak`` inside the packed ordering key.  ``seq``
#: occupies the low 48 bits; the kernel's event budget keeps it far below
#: 2**48, so the packing is exact.
TIEBREAK_SHIFT = 48


class Event(tuple):
    """A scheduled action, as an ordered tuple with named read access.

    Ordering is by ``(time, tiebreak, seq)`` via the packed key (see the
    module docstring).  ``tiebreak`` lets callers prioritise classes of
    simultaneous events (e.g. deliveries before wake nudges); most callers
    leave it 0.  ``action`` takes the event itself so handlers can read the
    fire time and causal depth.
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        tiebreak: int,
        seq: int,
        action: Callable[["Event"], None],
        depth: int = 0,
    ) -> "Event":
        if tiebreak:
            seq += tiebreak << TIEBREAK_SHIFT
        return tuple.__new__(cls, (time, seq, action, depth))

    time = property(itemgetter(TIME))
    #: The packed ordering key, ``seq + (tiebreak << TIEBREAK_SHIFT)``.
    key = property(itemgetter(KEY))
    action = property(itemgetter(ACTION))
    #: Length of the longest message chain leading to this event.  Used to
    #: report the "ideal time" (causal depth) metric alongside simulated time.
    depth = property(itemgetter(DEPTH))


class EventQueue:
    """A deterministic min-heap of event entries.

    ``heap`` is the raw underlying list; the scheduler's run loop pops from
    it directly to keep the per-event cost at a few C calls.
    """

    __slots__ = ("heap", "_seq")

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(
        self,
        time: float,
        action: Callable[[Event], None],
        *,
        tiebreak: int = 0,
        depth: int = 0,
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the created event."""
        event = Event(time, tiebreak, self._seq, action, depth)
        self._seq += 1
        heapq.heappush(self.heap, event)
        return event

    def push_entry(
        self,
        time: float,
        action: Callable[[tuple], None],
        depth: int,
        payload: tuple,
        tiebreak: int = 0,
    ) -> None:
        """Kernel fast path: push a plain-tuple entry carrying ``payload``.

        The payload rides in the entry itself (slots 4+), so the hot send
        path allocates exactly one tuple per message -- no :class:`Event`
        object and no per-message closure.  ``tiebreak`` is positional-after
        -payload so the hot call sites stay four-argument; timers pass 1 so
        that same-instant deliveries (and their acks) beat timeouts.
        """
        key = self._seq
        self._seq = key + 1
        if tiebreak:
            key += tiebreak << TIEBREAK_SHIFT
        heapq.heappush(self.heap, (time, key, action, depth) + payload)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self.heap)

    def pop_until(self, horizon: float) -> list[tuple]:
        """Batch-pop every entry with ``time < horizon``, in fire order.

        The sharded kernel's window loop drains all currently-due entries
        in one call instead of interleaving per-event heap peeks with its
        sorted delivery list; entries pushed *after* the drain (a handler
        arming a timer inside the window) still sit on the heap and are
        picked up by the loop's per-event check.  Returns ``[]`` without
        touching the heap when nothing is due — the common case for
        protocols that never set timers.
        """
        heap = self.heap
        if not heap or heap[0][0] >= horizon:
            return []
        heappop = heapq.heappop
        due: list[tuple] = []
        append = due.append
        while heap and heap[0][0] < horizon:
            append(heappop(heap))
        return due
