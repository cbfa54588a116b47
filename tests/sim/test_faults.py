"""Tests for the fault-injection layer (`repro.sim.faults`).

Covers the plan's validation surface, the per-link RNG determinism
contract, the batched streams against a ``random.Random`` per link,
zero-rate equivalence (installing an all-quiet plan changes nothing, byte
for byte), partitions, jitter bounds, and the counter/trace plumbing
through the network.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SimulationError
from repro.core.reliable import ReliableDelivery
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.sim.delays import UniformDelay
from repro.sim.faults import (
    DROP_LOSS,
    DROP_PARTITION,
    FaultPlan,
    LinkFaults,
    Partition,
    isolate,
)
from repro.sim.network import Network, run_election
from repro.sim.rng import _BATCH
from repro.topology.complete import complete_without_sense
from tests.sim.determinism_cases import fingerprint_bytes


class TestValidation:
    def test_total_loss_is_rejected_as_a_partition_in_disguise(self):
        with pytest.raises(SimulationError, match="use a Partition"):
            FaultPlan(drop=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"drop": -0.1}, {"duplicate": 1.5}, {"jitter": -1.0},
    ])
    def test_rates_outside_the_model_are_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            FaultPlan(**kwargs)

    def test_per_link_overrides_are_validated_too(self):
        with pytest.raises(SimulationError):
            FaultPlan(per_link={(0, 1): LinkFaults(drop=1.0)})
        with pytest.raises(SimulationError, match="not \\(src, dst\\)"):
            FaultPlan(per_link={(0, 1, 2): LinkFaults()})

    def test_empty_or_negative_partition_windows_are_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            FaultPlan(partitions=(Partition(0, 1, 2.0, 2.0),))
        with pytest.raises(SimulationError):
            FaultPlan(partitions=(Partition(0, 1, -1.0, 2.0),))

    def test_negative_crash_times_are_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            FaultPlan(crashes={3: -0.5})

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf")])
    def test_non_finite_jitter_is_rejected(self, jitter):
        with pytest.raises(SimulationError, match="jitter must be a finite"):
            FaultPlan(jitter=jitter)
        with pytest.raises(SimulationError, match="jitter must be a finite"):
            FaultPlan(per_link={(0, 1): LinkFaults(jitter=jitter)})

    @pytest.mark.parametrize("rate", ["drop", "duplicate"])
    def test_nan_rates_are_rejected(self, rate):
        with pytest.raises(SimulationError, match=f"{rate} rate"):
            FaultPlan(**{rate: float("nan")})

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_crash_times_are_rejected(self, time):
        with pytest.raises(SimulationError, match="crash time .* not finite"):
            FaultPlan(crashes={3: time})

    @pytest.mark.parametrize("start, end", [
        (float("nan"), 2.0), (1.0, float("nan")), (float("inf"), float("inf")),
    ])
    def test_nan_or_unbounded_partition_starts_are_rejected(self, start, end):
        with pytest.raises(SimulationError, match="partition window"):
            FaultPlan(partitions=(Partition(0, 1, start, end),))

    def test_a_cut_that_never_heals_drops_everything_after_its_start(self):
        plan = FaultPlan(partitions=(Partition(0, 1, 1.0, float("inf")),))
        active = plan.bind()
        assert active.judge(0, 1, 0.5)[0] == 1
        assert active.judge(0, 1, 1e300) == (0, 0.0, 0.0, DROP_PARTITION)

    def test_quiet_spec_knows_it(self):
        assert LinkFaults().quiet
        assert not LinkFaults(jitter=0.1).quiet

    def test_describe_names_the_active_dials(self):
        plan = FaultPlan(seed=7, drop=0.1, crashes={1: 2.0})
        assert plan.describe() == "FaultPlan(seed=7, drop=0.1, crashes=1)"


class TestDeterminism:
    def test_two_binds_of_one_plan_judge_identically(self):
        plan = FaultPlan(seed=3, drop=0.3, duplicate=0.2, jitter=0.5)
        a, b = plan.bind(), plan.bind()
        verdicts_a = [a.judge(0, 1, t * 0.1) for t in range(200)]
        verdicts_b = [b.judge(0, 1, t * 0.1) for t in range(200)]
        assert verdicts_a == verdicts_b

    def test_links_own_independent_streams(self):
        plan = FaultPlan(seed=3, drop=0.3)
        interleaved = plan.bind()
        lone = plan.bind()
        # Consuming another link's stream must not perturb (0, 1).
        mixed = []
        for t in range(100):
            interleaved.judge(5, 6, float(t))
            mixed.append(interleaved.judge(0, 1, float(t)))
        assert mixed == [lone.judge(0, 1, float(t)) for t in range(100)]

    def test_same_plan_same_seed_same_run(self):
        plan = FaultPlan(seed=5, drop=0.15, duplicate=0.05, jitter=0.3)

        def run():
            from repro.core.reliable import ReliableDelivery

            return run_election(
                ReliableDelivery(ProtocolE()),
                complete_without_sense(16, seed=2),
                faults=plan,
                seed=2,
            )

        assert fingerprint_bytes(run()) == fingerprint_bytes(run())


class _ReferenceStreams:
    """``ActiveFaultPlan.judge`` as documented: one ``random.Random`` per
    directed link, seeded ``f"{seed}:{src}:{dst}"``, drawn in the order
    drop, duplicate, jitter, then the duplicate's jitter.  No partitions."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.streams: dict[tuple[int, int], random.Random] = {}

    def judge(self, src, dst, now):
        rng = self.streams.get((src, dst))
        if rng is None:
            rng = self.streams[src, dst] = random.Random(
                f"{self.plan.seed}:{src}:{dst}"
            )
        rates = self.plan.per_link.get((src, dst)) or self.plan
        dropped = rates.drop > 0.0 and rng.random() < rates.drop
        copies = 1
        if rates.duplicate > 0.0 and rng.random() < rates.duplicate:
            copies = 2
        jitter = dup_jitter = 0.0
        if rates.jitter > 0.0:
            jitter = rng.random() * rates.jitter
            if copies == 2:
                dup_jitter = rng.random() * rates.jitter
        if dropped:
            return 0, 0.0, 0.0, DROP_LOSS
        return copies, jitter, dup_jitter, None


_RATE = st.one_of(st.just(0.0), st.floats(0.01, 0.9))


class TestBatchedStreams:
    """Each link's draws are served in batches from one scratch generator;
    a verdict must not tell them from a ``random.Random`` per link."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        rates=st.tuples(_RATE, _RATE, _RATE).filter(any),
        override=st.tuples(_RATE, _RATE, _RATE).filter(any),
        sends=st.lists(st.integers(70, 120), min_size=2, max_size=4),
        order=st.randoms(use_true_random=False),
    )
    def test_judge_reads_each_links_stream_across_refills(
        self, seed, rates, override, sends, order
    ):
        links = [(i, (3 * i + 1) % 7) for i in range(len(sends))]
        plan = FaultPlan(
            seed, *rates, per_link={links[0]: LinkFaults(*override)}
        )
        # Interleave the links' sends: a refill re-seeds the shared
        # generator between another link's verdicts.
        schedule = [link for link, k in zip(links, sends) for _ in range(k)]
        order.shuffle(schedule)
        active = plan.bind()
        reference = _ReferenceStreams(plan)
        for t, (src, dst) in enumerate(schedule):
            assert active.judge(src, dst, float(t)) == reference.judge(
                src, dst, float(t)
            )
        for link in links:
            # At least one draw per verdict and 70 verdicts: two refills.
            assert len(active._links[link].draws) >= 4 * _BATCH

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_compiled_sends_read_each_links_stream_across_refills(self, seed):
        """A compiled faulty run equals its pipeline twin whose verdicts
        come from a ``random.Random`` per link."""
        plan = FaultPlan(seed=seed, drop=0.2, duplicate=0.1, jitter=0.3)

        def network(trace):
            return Network(
                ReliableDelivery(ProtocolE()),
                complete_without_sense(16, seed=2),
                faults=plan, seed=2, trace=trace,
            )

        compiled, pipeline = network(False), network(True)
        active = compiled._faults
        pipeline._faults = _ReferenceStreams(plan)
        result = compiled.run()
        assert fingerprint_bytes(result) == fingerprint_bytes(pipeline.run())
        assert result.messages_dropped and result.messages_duplicated
        assert max(
            state.skip + state.at for state in active._links.values()
        ) > _BATCH


class TestZeroRateEquivalence:
    def test_quiet_plan_is_byte_identical_to_no_plan(self):
        def run(faults):
            return run_election(
                ProtocolE(),
                complete_without_sense(24, seed=4),
                delays=UniformDelay(0.05, 1.0),
                faults=faults,
                seed=4,
                trace=True,
            )

        bare = run(None)
        quiet = run(FaultPlan(seed=99))
        assert fingerprint_bytes(bare) == fingerprint_bytes(quiet)
        assert bare.trace.events == quiet.trace.events
        assert not quiet.faults_injected


class TestJudge:
    def test_partition_windows_drop_without_consuming_randomness(self):
        plan = FaultPlan(
            seed=1, drop=0.5,
            partitions=(Partition(0, 1, 2.0, 4.0),),
        )
        active = plan.bind()
        reference = FaultPlan(seed=1, drop=0.5).bind()
        assert active.judge(0, 1, 3.0) == (0, 0.0, 0.0, DROP_PARTITION)
        # The partition verdict above consumed no draws: the streams agree.
        for t in range(50):
            assert active.judge(0, 1, 10.0 + t) == reference.judge(
                0, 1, 10.0 + t
            )

    def test_isolate_cuts_both_directions(self):
        active = FaultPlan(partitions=isolate(2, range(4), 0.0, 1.0)).bind()
        for peer in (0, 1, 3):
            assert active.judge(2, peer, 0.5)[3] == DROP_PARTITION
            assert active.judge(peer, 2, 0.5)[3] == DROP_PARTITION
        assert active.judge(0, 1, 0.5)[3] is None      # bystanders untouched
        assert active.judge(2, 0, 1.0)[3] is None      # window is half-open

    def test_loss_reason_and_copy_counts(self):
        active = FaultPlan(seed=2, drop=0.4, duplicate=0.4).bind()
        verdicts = [active.judge(0, 1, float(t)) for t in range(500)]
        reasons = {v[3] for v in verdicts}
        copies = {v[0] for v in verdicts}
        assert reasons == {None, DROP_LOSS}
        assert copies == {0, 1, 2}

    def test_jitter_stays_within_its_bound(self):
        bound = 0.75
        active = FaultPlan(seed=8, jitter=bound, duplicate=0.5).bind()
        for t in range(500):
            copies, jitter, dup_jitter, reason = active.judge(0, 1, float(t))
            assert reason is None
            assert 0.0 <= jitter < bound
            assert 0.0 <= dup_jitter < bound


class TestNetworkPlumbing:
    def test_counters_and_traces_flow_through_a_lossy_run(self):
        from repro.core.reliable import ReliableDelivery

        result = run_election(
            ReliableDelivery(ProtocolE()),
            complete_without_sense(16, seed=3),
            faults=FaultPlan(seed=3, drop=0.2, duplicate=0.1, jitter=0.3),
            seed=3,
            trace=True,
        )
        result.verify()
        assert result.faults_injected
        assert result.messages_dropped == len(list(result.trace.of_kind("drop")))
        assert result.messages_duplicated == len(
            list(result.trace.of_kind("duplicate"))
        )
        assert result.messages_jittered == len(
            list(result.trace.of_kind("jitter"))
        )
        drop_reasons = {e.get("reason") for e in result.trace.of_kind("drop")}
        assert drop_reasons == {DROP_LOSS}

    def test_plan_crashes_merge_with_the_crash_schedule(self):
        with pytest.raises(SimulationError, match="conflict"):
            run_election(
                ProtocolE(),
                complete_without_sense(8, seed=1),
                crash_schedule={2: 1.0},
                faults=FaultPlan(crashes={2: 3.0}),
                require_leader=False,
            )
