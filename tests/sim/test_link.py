"""FIFO link tests — Section 2's 'arrive in the order sent' guarantee.

The rule lives in :meth:`SendPath.link_arrival`: per directed link it keeps
the last scheduled arrival and the load, in two flat dicts keyed
``position * n + far``.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.messages import Wakeup
from repro.sim.delays import ConstantDelay, HookDelay, UniformDelay
from repro.sim.network import SendPath
from repro.topology.complete import complete_with_sense_of_direction


def _send_path(delays, seed: int = 0, n: int = 4) -> SendPath:
    return SendPath(
        complete_with_sense_of_direction(n), delays, frozenset(), None, None,
        seed, 1000,
    )


class TestChannel:
    def test_constant_delay_arrivals(self):
        path = _send_path(ConstantDelay(1.0))
        t1 = path.link_arrival(0, 1, Wakeup(), 0.0)
        t2 = path.link_arrival(0, 1, Wakeup(), 0.5)
        assert (t1, t2) == (1.0, 1.5)

    def test_fifo_clamps_reordering_delays(self):
        """A later message with a shorter draw must not overtake."""
        draws = iter([1.0, 0.1])
        path = _send_path(HookDelay(lambda *a: next(draws)))
        t1 = path.link_arrival(0, 1, Wakeup(), 0.0)
        t2 = path.link_arrival(0, 1, Wakeup(), 0.05)
        assert t1 == 1.0
        assert t2 >= t1  # clamped to FIFO despite the 0.1 draw

    def test_gap_spaces_consecutive_deliveries(self):
        path = _send_path(HookDelay(lambda *a: 0.05, gap_fn=lambda *a: 1.0))
        times = [path.link_arrival(0, 1, Wakeup(), 0.0) for _ in range(5)]
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(d - 1.0) < 1e-9 for d in diffs)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_fifo_holds_for_any_send_times_and_random_delays(self, sends):
        """Property: per-channel arrival order equals send order."""
        path = _send_path(UniformDelay(0.01, 1.0), seed=7)
        send_times = sorted(t for t, _ in sends)
        arrivals = [
            path.link_arrival(0, 1, Wakeup(), t) for t in send_times
        ]
        assert arrivals == sorted(arrivals)
        assert all(a >= t for a, t in zip(arrivals, send_times))

    def test_links_are_directed_and_count_their_load(self):
        """Each direction keeps its own FIFO clock and load."""
        path = _send_path(HookDelay(lambda *a: 1.0, gap_fn=lambda *a: 1.0))
        forward = [path.link_arrival(0, 1, Wakeup(), 0.0) for _ in range(3)]
        backward = path.link_arrival(1, 0, Wakeup(), 0.0)
        assert forward == [1.0, 2.0, 3.0]
        assert backward == 1.0
        assert path._loads == {0 * 4 + 1: 3, 1 * 4 + 0: 1}
