"""The event queue of the discrete-event kernel.

Events are ``(time, tiebreak, seq)`` ordered, where ``seq`` is a global
monotone counter.  The counter makes the order *total* and therefore the
whole simulation deterministic: two events at the same instant always fire
in the order they were scheduled.  Determinism matters here because the
benchmarks compare protocols run-for-run and the property tests shrink
counterexamples; a nondeterministic kernel would make both useless.

The queue keeps its entries in two containers.  ``heap`` is a binary
min-heap and takes any entry.  ``lane`` is a FIFO deque that takes only
entries appended in ``(time, key)`` order, each no smaller than the last
one appended: its head is then its minimum, and it pops in O(1) with no
sift.  The run loop pops whichever head is smaller, so the merged stream
is exactly the order one heap holding every entry would pop.  Under a
constant latency every delivery arrives at ``now + latency`` with the
next ``seq``, and both grow monotonically, so the delivery stream is
already sorted: the serial network appends those deliveries to the lane,
and a shard sorts each window's incoming deliveries into it.  Wakes,
crashes, timers and every arrival that can come out of order (a delay
model's, a random or jittered one) stay on the heap.

Entries are plain *tuples*: ``(time, key, action, depth, *payload)``.
Tuple comparison stops at ``key`` (unique), so the action is never
compared, and ``heapq`` sifts entries (and the run loop compares the two
heads) with C-level tuple comparisons instead of calling a generated
``__lt__``.  Handlers receive the entry itself and index it directly.
Both runtimes fill one entry layout: the serial network pushes through
:meth:`EventQueue.push_entry` (or inlines a push or a lane append in a
compiled send), and a shard lays its window's deliveries into the lane
with the global keys the coordinator assigned.

``key`` packs the ``(tiebreak, seq)`` pair into one integer —
``seq + (tiebreak << 48)`` — so prioritised event classes (timers 1, wake
nudges -1, crashes -2) order ahead of or behind same-instant deliveries
without widening the entry or adding a comparison level to the heap sifts.
The encoding is exact while ``seq`` stays below 2**48 (the event budget caps
it around 5M), and the common case (tiebreak 0) keeps ``key == seq``, a
small int.  Deliveries dominate the queue, so the hot comparisons are the
same float-then-small-int pair the layout always had.

Entry layout::

    0 time      fire time (float)
    1 key       seq + (tiebreak << 48); orders (tiebreak, seq), total
    2 action    callable invoked as ``action(entry)``
    3 depth     causal depth (longest message chain leading here)
    4+          payload slots (a delivery packs ``position, port,
                message`` here, and the serial network the sender id)
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

#: Bit position of ``tiebreak`` inside the packed ordering key.  ``seq``
#: occupies the low 48 bits; the kernel's event budget keeps it far below
#: 2**48, so the packing is exact.
TIEBREAK_SHIFT = 48


class EventQueue:
    """A deterministic priority queue of entry tuples: a heap and a lane.

    ``heap`` is the raw underlying heap list and ``lane`` the in-order
    deque (see the module docstring); the scheduler's run loop pops from
    both directly to keep the per-event cost at a few C calls.  Whoever
    appends to ``lane`` keeps it sorted.
    """

    __slots__ = ("heap", "lane", "_seq")

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.lane: deque[tuple] = deque()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.heap) + len(self.lane)

    def __bool__(self) -> bool:
        return bool(self.heap) or bool(self.lane)

    def push_entry(
        self,
        time: float,
        action: Callable[[tuple], None],
        depth: int,
        payload: tuple,
        tiebreak: int = 0,
    ) -> None:
        """Push an entry carrying ``payload`` in slots 4+.

        The payload rides in the entry itself, so the hot send path
        allocates exactly one tuple per message and no per-message
        closure.  ``tiebreak`` is positional-after-payload so the hot call
        sites stay four-argument; timers pass 1 so that same-instant
        deliveries (and their acks) beat timeouts.
        """
        key = self._seq
        self._seq = key + 1
        if tiebreak:
            key += tiebreak << TIEBREAK_SHIFT
        heapq.heappush(self.heap, (time, key, action, depth) + payload)
