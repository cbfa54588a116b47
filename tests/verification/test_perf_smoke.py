"""Explorer-throughput sanity check that rides in tier-1.

Companion to ``tests/sim/test_perf_smoke.py``: one small fixed workload
(exhaustive Protocol A at N=4, ~1k states), a conservative states/sec
floor far below what the checker actually sustains (~25k/sec here vs the
~17k/sec of the PR 1 explorer), so it fires only on a catastrophic
regression — pickling sneaking back onto the hot path, the transition
memo silently disabled, a freeze-encoding blow-up — never on machine
noise.  Budget: well under 10 seconds wall clock including the floor.
The full tracking lives in ``benchmarks/test_verify_speed.py`` (which
writes ``BENCH_verify.json``).
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.protocols.sense.protocol_a import ProtocolA
from repro.topology.complete import complete_with_sense_of_direction
from repro.verification import explore_protocol, world
from repro.verification.explore import _SearchCore
from repro.verification.store import FingerprintTable
from repro.verification.world import LockStepWorld

#: states/sec floor — the PR 1 explorer already beat this comfortably.
MIN_STATES_PER_SEC = 3_000.0


@pytest.mark.perf_smoke
def test_explorer_sustains_minimum_throughput():
    topology = complete_with_sense_of_direction(4)
    start = time.perf_counter()
    report = explore_protocol(ProtocolA(), topology)
    dt = time.perf_counter() - start
    assert report.complete
    assert report.leaders_seen == {0, 1, 2, 3}
    assert dt < 10.0, f"A@4 took {dt:.1f}s; the explorer is pathologically slow"
    assert report.states_explored / dt >= MIN_STATES_PER_SEC, (
        f"explorer throughput collapsed: {report.states_explored / dt:.0f} "
        f"states/sec on A@4 (floor {MIN_STATES_PER_SEC:.0f})"
    )


@pytest.mark.perf_smoke
def test_explorer_takes_each_transition_inline(monkeypatch):
    """The DFS's transitions stay fused: a default search calls none of
    the per-transition reference steps it replaced.

    ``LockStepWorld.apply``, ``peek_transition`` and ``enabled_actions``
    stay the reference for fuzzing, replay and the differential test,
    ``independent`` the reference for the sleep-set rule, and
    ``FingerprintTable.get`` and ``put`` for merges; a search that routes
    its transitions back through them (or through a per-transition
    ``_SearchCore.arrive``) has lost the fused loop, whatever its
    states/sec.
    """
    calls: Counter[str] = Counter()

    def count(owner, name):
        original = getattr(owner, name, None)

        def counted(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted, raising=False)

    count(LockStepWorld, "apply")
    count(LockStepWorld, "peek_transition")
    count(LockStepWorld, "enabled_actions")
    count(world, "independent")
    count(FingerprintTable, "get")
    count(FingerprintTable, "put")
    count(_SearchCore, "arrive")
    report = explore_protocol(ProtocolA(), complete_with_sense_of_direction(4))
    assert report.complete and report.transitions > 1_000
    assert not calls, f"per-transition calls in the fused DFS: {dict(calls)}"
