"""Execution-space verification: exhaustive exploration, fuzzing, replay.

The simulator samples executions; this package *checks* them at scale,
all against the same lock-step world (:mod:`repro.verification.world`)
driving the very ``Node`` classes the simulator runs:

* :mod:`repro.verification.explore` — every interleaving of wake-ups and
  FIFO message deliveries a complete asynchronous network allows, for
  small N, with partial-order reduction, inert-delivery compression, a
  flat hash-compacted fingerprint store and optional parallel strata;
* :mod:`repro.verification.symmetry` — node-relabelling permutation
  groups, orbit canonicalisation, and the honest statement of where
  symmetry reduction is (and is not) sound for id-comparing protocols;
* :mod:`repro.verification.store` — the 8-byte-per-state visited table;
* :mod:`repro.verification.fuzz` — seeded pseudo-random and adversarial
  schedule families (wake-last, starve-channel, PCT) for N beyond
  exhaustive reach, every run recorded as a replayable trace;
* :mod:`repro.verification.replay` — byte-for-byte deterministic replay
  of schedule traces, delta-debugging shrinking, and trace files;
* :mod:`repro.verification.stat` — Monte-Carlo statistical model
  checking with exact Clopper–Pearson confidence bounds, the honest
  check for the randomized family the seedless lock-step world cannot
  drive (``python -m repro verify --stat``, docs/randomized.md).
"""

from repro.verification.explore import (
    ExplorationReport,
    count_unpruned_interleavings,
    explore_protocol,
)
from repro.verification.fuzz import (
    DEFAULT_FAMILIES,
    FAULT_FAMILIES,
    FuzzReport,
    FuzzViolation,
    MessageLossSchedule,
    PCTSchedule,
    SchedulePolicy,
    StarveChannelSchedule,
    TargetedLossSchedule,
    UniformSchedule,
    WakeLastSchedule,
    fuzz_protocol,
)
from repro.verification.replay import (
    ReplayOutcome,
    ScheduleTrace,
    load_trace,
    replay_trace,
    save_trace,
    shrink_trace,
)
from repro.verification.stat import (
    StatReport,
    StatStratum,
    clopper_pearson_lower,
    clopper_pearson_upper,
    verify_stat,
)
from repro.verification.store import FingerprintTable
from repro.verification.symmetry import (
    Permutation,
    canonical_fingerprint,
    canonical_state,
    ensure_prune_sound,
    prune_refusal,
    rotation_group,
    symmetric_group,
    symmetry_group,
)
from repro.verification.world import (
    Action,
    LockStepWorld,
    freeze_value,
    message_hash,
)

__all__ = [
    "Action",
    "DEFAULT_FAMILIES",
    "ExplorationReport",
    "FAULT_FAMILIES",
    "FingerprintTable",
    "FuzzReport",
    "FuzzViolation",
    "LockStepWorld",
    "MessageLossSchedule",
    "PCTSchedule",
    "Permutation",
    "ReplayOutcome",
    "ScheduleTrace",
    "SchedulePolicy",
    "StarveChannelSchedule",
    "StatReport",
    "StatStratum",
    "TargetedLossSchedule",
    "UniformSchedule",
    "WakeLastSchedule",
    "canonical_fingerprint",
    "canonical_state",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "count_unpruned_interleavings",
    "ensure_prune_sound",
    "explore_protocol",
    "freeze_value",
    "fuzz_protocol",
    "load_trace",
    "message_hash",
    "prune_refusal",
    "replay_trace",
    "rotation_group",
    "save_trace",
    "shrink_trace",
    "symmetric_group",
    "symmetry_group",
    "verify_stat",
]
