"""Verification throughput regression tracking -> ``BENCH_verify.json``.

Measures the exhaustive checker the way ``test_kernel_speed.py`` measures
the simulator: fixed workloads, ``time.perf_counter`` around
``explore_protocol`` only, results written to ``BENCH_verify.json`` at
the repo root so perf regressions show up in review diffs.

The yardstick is the **PR 1 explorer** (commit 434bbec: pickle-digest
fingerprints, per-transition deepcopy, no compression, no parallel
strata) on this container.  Its reference workload is Protocol B
at N=4, ``por=True``: 5066 states at ~16,800 states/sec (~0.30 s).
Against it this explorer records, on the *same instance*:

* ``B@4-reference`` — ``compress=False`` visits the identical 5066-state
  graph, so its states/sec is the like-for-like engine speedup;
* ``B@4`` — the default search: inert-delivery compression covers the
  same execution space through ~2.1x fewer stored states, so its
  *effective* rate is (reference states / wall), the wall-clock speedup
  a user sees;
* ``A@5`` / ``A@6`` — the headline reach: A@6 (~55k states) completes
  in seconds with tens of MB of RSS, where the seed checker could not
  finish A@5.

``B@4-prune`` and ``B@4-census`` are the numbers of a removed mode: the
orbit-pruned bug-hunting search and the orbit census, deleted with the
checker's symmetry modes because no relabelling is an automorphism of
an id-comparing protocol.  ``_flush`` carries both records over
unchanged as frozen history, so the trend gate never sees their metrics
go missing; they are not measured here.

Peak RSS is ``ru_maxrss`` — a process-wide high-water mark, honest for
the big A@6 run that dominates this process's footprint, loose for the
small ones.  Floors are deliberately conservative: CI machines vary, and
a flaky perf gate is worse than none.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.sense.protocol_a import ProtocolA
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.verification import count_unpruned_interleavings, explore_protocol

from conftest import write_bench

BENCH_PATH = Path(__file__).parent.parent / "BENCH_verify.json"

#: The PR 1 explorer on the reference workload (B@4, por=True), measured
#: in a fresh process on this container at commit 434bbec.
PR1_BASELINE = {"states": 5066, "states_per_sec": 16_800.0, "seconds": 0.30}

#: Conservative floor on the like-for-like engine speedup (measured ~2.5x).
MIN_ENGINE_SPEEDUP = 1.5

#: Records of the removed symmetry modes, kept in BENCH_verify.json as
#: frozen history (see the module docstring).
FROZEN_LABELS = ("B@4-census", "B@4-prune")

_RESULTS: dict[str, dict[str, float]] = {}


def _rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _measure(label: str, protocol, topology, **kwargs):
    start = time.perf_counter()
    report = explore_protocol(protocol, topology, **kwargs)
    dt = time.perf_counter() - start
    stats = {
        "run_seconds": round(dt, 4),
        "states": report.states_explored,
        "transitions": report.transitions,
        "states_per_sec": round(report.states_explored / dt, 1),
        "compressed_steps": report.compressed_steps,
        "peak_rss_mb": _rss_mb(),
        "complete": report.complete,
    }
    _RESULTS[label] = stats
    return report, stats


def _frozen() -> dict:
    committed = json.loads(BENCH_PATH.read_text())
    return {label: committed[label] for label in FROZEN_LABELS}


def _flush() -> None:
    _RESULTS["pr1_baseline_B@4"] = dict(PR1_BASELINE)
    write_bench(BENCH_PATH, {**_frozen(), **_RESULTS})


def test_b4_reference_search_beats_pr1_engine(benchmark):
    """compress=False visits the PR 1 explorer's exact 5066-state graph."""
    topology = complete_with_sense_of_direction(4)
    report, stats = benchmark.pedantic(
        _measure, args=("B@4-reference", ProtocolB(), topology),
        kwargs={"compress": False}, rounds=1, iterations=1,
    )
    benchmark.extra_info.update(stats)
    assert report.complete
    assert report.states_explored == PR1_BASELINE["states"]
    assert stats["states_per_sec"] >= (
        MIN_ENGINE_SPEEDUP * PR1_BASELINE["states_per_sec"]
    )
    _flush()


def test_b4_default_search_covers_same_space_faster(benchmark):
    topology = complete_with_sense_of_direction(4)
    reference = explore_protocol(ProtocolB(), topology, compress=False)
    report, stats = benchmark.pedantic(
        _measure, args=("B@4", ProtocolB(), topology), rounds=1, iterations=1,
    )
    # compression must not change the verdict, only the stored graph
    assert report.quiescent_outcomes == reference.quiescent_outcomes
    assert report.terminal_states == reference.terminal_states
    stats["effective_states_per_sec"] = round(
        reference.states_explored / stats["run_seconds"], 1
    )
    stats["wall_speedup_vs_pr1"] = round(
        PR1_BASELINE["seconds"] / stats["run_seconds"], 2
    )
    benchmark.extra_info.update(stats)
    _flush()


def test_explore_protocol_c_n4(benchmark):
    report, stats = benchmark.pedantic(
        _measure,
        args=("C@4", ProtocolC(), complete_with_sense_of_direction(4)),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(stats)
    assert report.complete
    _flush()


def test_explore_protocol_e_n3(benchmark):
    report, stats = benchmark.pedantic(
        _measure, args=("E@3", ProtocolE(), complete_without_sense(3, seed=0)),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(stats)
    assert report.complete
    _flush()


def test_por_reduction_ratio_b4(benchmark):
    """POR visits >= 10x fewer states than the unpruned execution tree."""
    topology = complete_with_sense_of_direction(4)
    reduced = explore_protocol(ProtocolB(), topology, por=True)
    bound = 10 * reduced.states_explored
    baseline = benchmark.pedantic(
        lambda: count_unpruned_interleavings(
            ProtocolB(), topology, max_states=bound
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["por_states"] = reduced.states_explored
    benchmark.extra_info["unpruned_states_lower_bound"] = (
        baseline.states_explored
    )
    assert not baseline.complete  # the tree blows through the 10x cap
    assert reduced.states_explored * 10 <= baseline.states_explored


def test_explore_a5_completes(benchmark):
    """Exhaustive Protocol A at N=5 — out of reach for the seed checker."""
    report, stats = benchmark.pedantic(
        _measure,
        args=("A@5", ProtocolA(), complete_with_sense_of_direction(5)),
        kwargs={"max_states": 100_000}, rounds=1, iterations=1,
    )
    benchmark.extra_info.update(stats)
    assert report.complete
    assert report.leaders_seen == {0, 1, 2, 3, 4}
    _flush()


def test_explore_a6_completes(benchmark):
    """The ISSUE 3 reach target: complete coverage of Protocol A at N=6.

    (The companion B@N=5 target is structurally void — Protocol B's
    tournament requires a power-of-two N, so N=5 does not exist for it
    and N=8 is beyond exhaustive reach at ~3M+ states; B's exhaustive
    milestone remains complete coverage at N=4, tracked above.)
    """
    report, stats = benchmark.pedantic(
        _measure,
        args=("A@6", ProtocolA(), complete_with_sense_of_direction(6)),
        kwargs={"max_states": 500_000}, rounds=1, iterations=1,
    )
    benchmark.extra_info.update(stats)
    assert report.complete
    assert report.leaders_seen == {0, 1, 2, 3, 4, 5}
    _flush()
