"""Tests for the named scenario library."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.errors import ConfigurationError
from repro.core.reliable import ReliableDelivery
from repro.harness.scenarios import SCENARIOS, run_scenario
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.random.protocol_rt import RandomizedTradeoff
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.network import Network


class TestCatalogue:
    def test_expected_scenarios_exist(self):
        assert set(SCENARIOS) == {
            "benign", "worst_case", "chain", "adversarial_ports",
            "congested", "frozen_middle", "lossy", "partitioned",
        }

    def test_every_scenario_has_a_description(self):
        for scenario in SCENARIOS.values():
            assert scenario.description


class TestRunScenario:
    # The (protocol × scenario) cross-product smoke coverage that used to
    # live here moved to tests/matrix/test_matrix_smoke.py, which drives
    # every legal cell of the curated slice (src/repro/matrix/curated.toml)
    # for all fourteen protocols and all eight scenarios.  These tests keep
    # the scenario-library behaviours the matrix does not assert.

    def test_sense_protocol_rejected_by_the_port_adversary(self):
        with pytest.raises(ConfigurationError, match="unlabeled"):
            run_scenario(ProtocolC(), "adversarial_ports", 16)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="choose from"):
            run_scenario(ProtocolE(), "nope", 16)

    def test_overrides_flow_through(self):
        result = run_scenario(
            ProtocolE(), "worst_case", 12, seed=2, wakeup={3: 0.0}
        )
        assert result.leader_position == 3

    def test_lossy_scenario_injects_faults_and_recovers(self):
        result = run_scenario(ProtocolE(), "lossy", 16, seed=3)
        result.verify()
        assert result.faults_injected
        assert result.messages_dropped > 0
        assert result.retransmissions > 0
        assert result.protocol.startswith("REL[")

    def test_lossy_rt_cell_of_the_sweep_benchmark_misses_liveness(self):
        # The sweep benchmark's RT@64 lossy cell at its seed 803 (cell seed
        # 801136785) is one of RS/RT's w.h.p. liveness misses: every
        # candidate stalls and the run quiesces with no leader.  The
        # overlay abandoned nothing, and the same seed elects without
        # faults, so the miss is the protocol's, not the retransmission's.
        seed = 801136785
        spec = SCENARIOS["lossy"]
        topology, kwargs = spec.build(64, seed, False)
        result = Network(
            ReliableDelivery(RandomizedTradeoff()), topology, seed=seed, **kwargs
        ).run(require_leader=False)
        assert result.leader_id is None
        assert result.packets_abandoned == 0
        roles = Counter(node["role"] for node in result.node_snapshots)
        assert roles == {"stalled": 10, "passive": 54}
        for scenario in ("benign", "worst_case"):
            assert run_scenario(
                RandomizedTradeoff(), scenario, 64, seed=seed
            ).leader_id == 34

    def test_partitioned_scenario_heals_and_elects_the_top_id(self):
        result = run_scenario(ProtocolG(k=4), "partitioned", 16, seed=1)
        result.verify()
        assert result.messages_dropped > 0

    def test_port_adversary_pins_e_to_linear_time(self):
        from repro.adversary.lower_bound import theorem_bound

        result = run_scenario(ProtocolE(), "adversarial_ports", 32, seed=1)
        assert result.election_time >= theorem_bound(32, result.messages_total)
        assert result.election_time >= 1.5 * 32
