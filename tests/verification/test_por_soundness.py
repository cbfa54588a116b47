"""Cross-validation: reduced exploration loses no outcomes.

A reduction is only worth anything if it is *sound*: every verdict the
reduced search produces must be the verdict the unreduced search would
have produced.  These tests cross-validate each reduction layer against
its reference search for **every** registered protocol, asserting the
observable outcome sets are identical:

* the set of quiescent outcomes ``(leader_id, messages_sent)``,
* the set of possible leaders,
* the number of distinct quiescent configurations.

(The *state* and *transition* counts are exactly what a reduction is
allowed to change, and the companion assertion is that it only ever
shrinks them.)  The layers, each against the one below it:

* ``por=True`` vs ``por=False`` — sleep sets + stale-wake merging;
* ``compress=True`` vs ``compress=False`` — inert-delivery compression,
  whose stale-monotonicity assumption is exactly what this exhaustive
  per-protocol comparison validates;
* ``workers=K`` vs serial — the stratified parallel search (further
  covered in ``test_parallel_explore.py``).
"""

from __future__ import annotations

import pytest

import repro  # noqa: F401  (imports register every protocol)
from repro.core.protocol import registered_protocols
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.verification import explore_protocol
from tests.verification.conftest import deterministic_protocols

#: Smallest interesting instance per protocol: N=3, except the tournament
#: protocols B and C which require a power-of-two network.
_POWER_OF_TWO_ONLY = {"B", "C"}


def _instance(name, cls):
    n = 4 if name in _POWER_OF_TWO_ONLY else 3
    if cls.needs_sense_of_direction:
        return cls(), complete_with_sense_of_direction(n)
    return cls(), complete_without_sense(n, seed=0)


@pytest.mark.parametrize(
    "name", deterministic_protocols(), ids=str
)
def test_por_preserves_all_outcomes(name):
    protocol, topology = _instance(name, registered_protocols()[name])
    pruned = explore_protocol(protocol, topology, por=True)
    full = explore_protocol(protocol, topology, por=False)
    assert pruned.complete and full.complete
    assert pruned.quiescent_outcomes == full.quiescent_outcomes
    assert pruned.leaders_seen == full.leaders_seen
    assert pruned.terminal_states == full.terminal_states
    # the reduction may only ever shrink the search
    assert pruned.states_explored <= full.states_explored
    assert pruned.transitions <= full.transitions


@pytest.mark.parametrize(
    "name", deterministic_protocols(), ids=str
)
def test_compression_preserves_all_outcomes(name):
    """Inert-delivery compression vs the sleep-set-only reference.

    ``compress=False`` is the PR 1 search; equality here is the
    exhaustive validation of the stale-monotonicity assumption for this
    protocol (see the compression notes in ``explore.py``).
    """
    protocol, topology = _instance(name, registered_protocols()[name])
    compressed = explore_protocol(protocol, topology, compress=True)
    reference = explore_protocol(protocol, topology, compress=False)
    assert compressed.complete and reference.complete
    assert compressed.quiescent_outcomes == reference.quiescent_outcomes
    assert compressed.leaders_seen == reference.leaders_seen
    assert compressed.terminal_states == reference.terminal_states
    assert compressed.states_explored <= reference.states_explored
    # compression actually fired (every protocol here has inert traffic
    # or stale wake-ups at these sizes)
    assert compressed.compressed_steps > 0


@pytest.mark.parametrize(
    "name", deterministic_protocols(), ids=str
)
def test_parallel_strata_preserve_all_outcomes(name):
    protocol, topology = _instance(name, registered_protocols()[name])
    serial = explore_protocol(protocol, topology)
    parallel = explore_protocol(protocol, topology, workers=2)
    assert parallel.complete
    assert parallel.states_explored == serial.states_explored
    assert parallel.quiescent_outcomes == serial.quiescent_outcomes
    assert parallel.leaders_seen == serial.leaders_seen
    assert parallel.terminal_states == serial.terminal_states


def test_por_preserves_outcomes_with_partial_wakeups():
    # base-node subsets exercise the stale-wake compression differently:
    # passive nodes never have a pending wake to compress.
    from repro.protocols.nosense.protocol_g import ProtocolG

    topology = complete_without_sense(4, seed=0)
    pruned = explore_protocol(
        ProtocolG(k=2), topology, base_positions=(0, 1), por=True
    )
    full = explore_protocol(
        ProtocolG(k=2), topology, base_positions=(0, 1), por=False
    )
    assert pruned.quiescent_outcomes == full.quiescent_outcomes
    assert pruned.leaders_seen == full.leaders_seen
    assert pruned.terminal_states == full.terminal_states
