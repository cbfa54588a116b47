"""Parallel stratified exploration: same answers, any worker count.

The contract mirrors the experiment harness: ``workers=K`` fans
top-level action-prefix strata across the fork pool, and every form of
pool degradation (no fork, one CPU, ``REPRO_PARALLEL=0``) silently runs
the same strata serially — so all of these tests hold on any machine,
pool or no pool, and the fork path is additionally exercised wherever
``fork`` exists.
"""

from __future__ import annotations

import pytest

import repro  # noqa: F401  (imports register every protocol)
from repro.core.errors import ProtocolViolation
from repro.protocols.sense.protocol_a import ProtocolA
from repro.protocols.sense.protocol_b import ProtocolB
from repro.topology.complete import complete_with_sense_of_direction
from repro.verification import explore_protocol


def _assert_same_search(serial, parallel):
    assert parallel.states_explored == serial.states_explored
    assert parallel.terminal_states == serial.terminal_states
    assert parallel.quiescent_outcomes == serial.quiescent_outcomes
    assert parallel.leaders_seen == serial.leaders_seen
    assert parallel.max_messages_sent == serial.max_messages_sent
    assert parallel.complete and serial.complete


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_matches_serial_protocol_b(workers):
    topology = complete_with_sense_of_direction(4)
    serial = explore_protocol(ProtocolB(), topology)
    parallel = explore_protocol(ProtocolB(), topology, workers=workers)
    assert parallel.workers == workers
    _assert_same_search(serial, parallel)


def test_parallel_matches_serial_protocol_a_n5():
    topology = complete_with_sense_of_direction(5)
    serial = explore_protocol(ProtocolA(), topology)
    parallel = explore_protocol(ProtocolA(), topology, workers=2)
    _assert_same_search(serial, parallel)


def test_workers_one_is_the_serial_search():
    topology = complete_with_sense_of_direction(4)
    report = explore_protocol(ProtocolB(), topology, workers=1)
    assert report.workers == 1
    _assert_same_search(explore_protocol(ProtocolB(), topology), report)


def test_degraded_pool_still_correct(monkeypatch):
    # REPRO_PARALLEL=0 forces run_sweep serial; the stratified search must
    # degrade to the same merged result, exactly like experiment sweeps.
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    topology = complete_with_sense_of_direction(4)
    serial = explore_protocol(ProtocolB(), topology)
    degraded = explore_protocol(ProtocolB(), topology, workers=3)
    _assert_same_search(serial, degraded)


def test_violation_found_in_a_worker_propagates(buggy_protocol):
    topology = complete_with_sense_of_direction(6)
    with pytest.raises(ProtocolViolation, match="two leaders"):
        explore_protocol(
            buggy_protocol, topology, max_states=100_000, workers=2
        )


def test_truncated_parallel_search_reports_incomplete():
    topology = complete_with_sense_of_direction(5)
    report = explore_protocol(ProtocolA(), topology, max_states=500, workers=2)
    assert not report.complete


def test_census_survives_the_parallel_merge():
    topology = complete_with_sense_of_direction(4)
    serial = explore_protocol(ProtocolB(), topology, symmetry="census")
    parallel = explore_protocol(
        ProtocolB(), topology, symmetry="census", workers=2
    )
    assert parallel.canonical_states == serial.canonical_states
    _assert_same_search(serial, parallel)


def test_parallel_report_does_not_depend_on_scheduling(monkeypatch):
    # Which worker runs which stratum, and after which other strata, is up
    # to the pool; every stratum must search from the same frontier table
    # regardless.  The degraded pool runs all strata in one process, in
    # order, which is one more schedule to agree with.
    topology = complete_with_sense_of_direction(3)
    reports = [
        vars(explore_protocol(ProtocolA(), topology, workers=2))
        for _ in range(4)
    ]
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    reports.append(vars(explore_protocol(ProtocolA(), topology, workers=2)))
    assert all(report == reports[0] for report in reports)
