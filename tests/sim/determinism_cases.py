"""Shared determinism cases: fixed (protocol, topology, seed) runs.

The kernel's determinism contract is that a run is a pure function of its
configuration: same protocol, same topology, same seed, same adversaries →
identical :class:`~repro.core.results.ElectionResult` fields, across kernel
rewrites and across serial/parallel sweep execution.  This module holds the
canonical case list and the fingerprint function; the fixture file
``tests/fixtures/determinism.json`` freezes what the seed kernel produced.

Regenerate (only when a behaviour change is *intended*) with::

    PYTHONPATH=src python -m tests.sim.determinism_cases --write
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from repro.adversary import wakeup
from repro.adversary.delays import congested_links, worst_case_unit
from repro.core.reliable import ReliableDelivery
from repro.core.results import ElectionResult
from repro.protocols.nosense.fault_tolerant import FaultTolerantElection
from repro.protocols.nosense.protocol_d import ProtocolD
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.nosense.protocol_r import ProtocolR
from repro.protocols.random import RandomizedSampling, RandomizedTradeoff
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.delays import UniformDelay
from repro.sim.faults import FaultPlan, isolate
from repro.sim.network import run_election
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)

FIXTURE_PATH = Path(__file__).parent.parent / "fixtures" / "determinism.json"


def _case_c64() -> ElectionResult:
    return run_election(ProtocolC(), complete_with_sense_of_direction(64))


def _case_b32_unit() -> ElectionResult:
    return run_election(
        ProtocolB(),
        complete_with_sense_of_direction(32),
        delays=worst_case_unit(),
    )


def _case_c32_chain() -> ElectionResult:
    return run_election(
        ProtocolC(),
        complete_with_sense_of_direction(32),
        delays=worst_case_unit(),
        wakeup=wakeup.staggered_chain(),
    )


def _case_d32() -> ElectionResult:
    return run_election(ProtocolD(), complete_without_sense(32, seed=1), seed=1)


def _case_e64_uniform() -> ElectionResult:
    # UniformDelay consumes the run RNG per message: this case pins the
    # exact RNG draw order of the send path, not just the event order.
    return run_election(
        ProtocolE(),
        complete_without_sense(64, seed=2),
        delays=UniformDelay(0.05, 1.0),
        seed=2,
    )


def _case_g64_k8() -> ElectionResult:
    return run_election(
        ProtocolG(k=8),
        complete_without_sense(64, seed=3),
        delays=worst_case_unit(),
        seed=3,
    )


def _case_r64_lone_base() -> ElectionResult:
    return run_election(
        ProtocolR(),
        complete_without_sense(64, seed=5),
        wakeup={0: 0.0},
        seed=5,
    )


def _case_e32_congested() -> ElectionResult:
    return run_election(
        ProtocolE(),
        complete_without_sense(32, seed=7),
        delays=congested_links(),
        seed=7,
    )


def _case_e32_lossy_rel() -> ElectionResult:
    # The full fault stack: drop + duplication + jitter, masked by the
    # retransmission overlay.  Pins the fault RNG streams, the overlay's
    # timer schedule, and every new counter.
    return run_election(
        ReliableDelivery(ProtocolE()),
        complete_without_sense(32, seed=9),
        faults=FaultPlan(seed=9, drop=0.10, duplicate=0.05, jitter=0.25),
        seed=9,
    )


def _case_g32_partition_rel() -> ElectionResult:
    topology = complete_without_sense(32, seed=4)
    victim = max(topology.ids)
    return run_election(
        ReliableDelivery(ProtocolG(k=4)),
        topology,
        faults=FaultPlan(
            seed=4, drop=0.05,
            partitions=isolate(victim, topology.ids, 1.0, 4.0),
        ),
        seed=4,
    )


def _case_e16_crash() -> ElectionResult:
    # Mid-run crash-stop via the plan (no overlay): the run may or may not
    # elect — the digest pins whatever the kernel does, including the
    # crashed-positions report.
    return run_election(
        ProtocolE(),
        complete_without_sense(16, seed=6),
        faults=FaultPlan(seed=6, crashes={3: 1.0, 11: 2.5}),
        seed=6,
        require_leader=False,
    )


def _case_rs64() -> ElectionResult:
    # Randomized candidate sampling: every coin flip comes from the
    # per-node streams derived from the run seed, so the fingerprint —
    # including which nodes stood and who won — is pure configuration.
    return run_election(
        RandomizedSampling(),
        complete_without_sense(64, seed=11),
        seed=11,
    )


def _case_rt64_unit() -> ElectionResult:
    return run_election(
        RandomizedTradeoff(),
        complete_without_sense(64, seed=12),
        delays=worst_case_unit(),
        seed=12,
    )


def _case_rs32_lossy_rel() -> ElectionResult:
    # Coin streams under the fault stack: node draws must stay decoupled
    # from the fault-layer RNGs (a drop must not shift a candidacy flip).
    return run_election(
        ReliableDelivery(RandomizedSampling()),
        complete_without_sense(32, seed=13),
        faults=FaultPlan(seed=13, drop=0.10, duplicate=0.05, jitter=0.25),
        seed=13,
    )


def _case_ft48_link_delay_lossy_rel() -> ElectionResult:
    # Per-link delay streams (the shardable ``min_latency=`` mode) beside
    # per-link fault streams, on ids spread over 30 bits: pins both
    # stream families and how each derives a link's seed from its ids.
    # The busiest link carries 68 sends, so its delay stream is read
    # past its first batch.
    ids = random.Random(17).sample(range(2**30), 48)
    return run_election(
        ReliableDelivery(FaultTolerantElection(max_failures=0)),
        complete_without_sense(48, ids=ids, seed=17),
        delays=UniformDelay(0.05, 1.0, min_latency=0.05, stream_seed=7),
        faults=FaultPlan(seed=17, drop=0.10, duplicate=0.05, jitter=0.25),
        seed=17,
    )


CASES: dict[str, Any] = {
    "C@64": _case_c64,
    "B@32-unit": _case_b32_unit,
    "C@32-chain": _case_c32_chain,
    "D@32": _case_d32,
    "E@64-uniform": _case_e64_uniform,
    "G@64-k8": _case_g64_k8,
    "R@64-lone-base": _case_r64_lone_base,
    "E@32-congested": _case_e32_congested,
    "E@32-lossy-rel": _case_e32_lossy_rel,
    "G@32-partition-rel": _case_g32_partition_rel,
    "E@16-crash": _case_e16_crash,
    "RS@64": _case_rs64,
    "RT@64-unit": _case_rt64_unit,
    "RS@32-lossy-rel": _case_rs32_lossy_rel,
    "FT@48-link-delay-lossy-rel": _case_ft48_link_delay_lossy_rel,
}


def fingerprint(result: ElectionResult) -> dict[str, Any]:
    """A JSON-stable digest of every deterministic result field."""
    digest: dict[str, Any] = {
        "n": result.n,
        "leader_id": result.leader_id,
        "leader_position": result.leader_position,
        "elected_at": result.elected_at,
        "election_time": result.election_time,
        "election_depth": result.election_depth,
        "messages_total": result.messages_total,
        "bits_total": result.bits_total,
        "messages_by_type": dict(sorted(result.messages_by_type.items())),
        "max_depth": result.max_depth,
        "quiescent_at": result.quiescent_at,
        "first_wake_time": result.first_wake_time,
        "last_wake_time": result.last_wake_time,
        "base_positions": list(result.base_positions),
        "max_channel_load": result.max_channel_load,
    }
    # Fault-layer and overlay fields join the digest only when active, so
    # fixtures frozen before the fault layer existed stay byte-identical.
    for name in (
        "messages_dropped", "messages_duplicated", "messages_jittered",
        "retransmissions", "duplicates_suppressed", "packets_abandoned",
    ):
        value = getattr(result, name)
        if value:
            digest[name] = value
    if result.crashed_positions:
        digest["crashed_positions"] = list(result.crashed_positions)
    return digest


def fingerprint_bytes(result: ElectionResult) -> bytes:
    """Byte-exact serialisation used by the determinism assertions."""
    return json.dumps(fingerprint(result), sort_keys=True).encode()


def assert_digest_stable(build: Any, *, label: str = "digest") -> Any:
    """Assert ``build(parallel)`` digests agree across execution modes.

    ``build`` is invoked once with ``False`` (serial) and once with
    ``True`` (fork pool) and must return a comparable digest — bytes, a
    hex string, or a JSON-able structure.  This is the shared form of
    the serial-vs-parallel assertion the determinism suite and the
    matrix runner both owe; returns the serial digest for further
    pinning.
    """
    serial = build(False)
    parallel = build(True)
    assert serial == parallel, (
        f"{label} diverged between serial and parallel execution:\n"
        f"  serial:   {serial!r}\n"
        f"  parallel: {parallel!r}"
    )
    return serial


def run_all_cases() -> dict[str, dict[str, Any]]:
    """Run every case and return its fingerprint, keyed by case name."""
    return {name: fingerprint(run()) for name, run in CASES.items()}


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true", help="regenerate the fixture file"
    )
    args = parser.parse_args()
    fingerprints = run_all_cases()
    if args.write:
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE_PATH.write_text(json.dumps(fingerprints, indent=1, sort_keys=True))
        print(f"wrote {len(fingerprints)} fixtures to {FIXTURE_PATH}")
    else:
        print(json.dumps(fingerprints, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
