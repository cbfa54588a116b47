"""Per-link streams against the generators they stand for.

A fault link's draws must be those of ``random.Random(f"{seed}:{src}:{dst}")``
and a ``UniformDelay(min_latency=...)`` link's those of
``random.Random(link_stream_seed(stream_seed, sender, receiver))``, in the
first batch and after every refill; a link whose rates are all zero must
read none of them.
"""

from __future__ import annotations

import random

import pytest

from repro.core.messages import Wakeup
from repro.core.reliable import ReliableDelivery
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.sim.delays import UniformDelay
from repro.sim.faults import DROP_PARTITION, FaultPlan, LinkFaults, Partition
from repro.sim.network import Network
from repro.sim.rng import _BATCH, link_stream_seed
from repro.topology.complete import complete_without_sense


def _assert_batches_follow(seen, reference: random.Random) -> None:
    """``seen`` holds each batch a link loaded, as ``(skip, draws)``: the
    first three batches, of doubling size, each the reference's draws
    from ``skip`` on."""
    stream = [reference.random() for _ in range(8 * _BATCH)]
    assert [len(draws) for _, draws in seen] == [_BATCH, 2 * _BATCH, 4 * _BATCH]
    assert seen[0][0] == 0
    for skip, draws in seen:
        assert draws == stream[skip:skip + len(draws)]


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_fault_batches_are_the_links_random_draws(seed):
    plan = FaultPlan(seed=seed, drop=0.5)
    active = plan.bind()
    src, dst = 3, 11
    seen = []
    # One draw per verdict; a batch is refilled with fewer than four left.
    for t in range(_BATCH + 2 * _BATCH):
        active.judge(src, dst, float(t))
        state = active._links[src, dst]
        if not seen or list(state.draws) != seen[-1][1]:
            seen.append((state.skip, list(state.draws)))
    _assert_batches_follow(seen, random.Random(f"{seed}:{src}:{dst}"))


@pytest.mark.parametrize("stream_seed", [0, 9, 2**33])
def test_delay_batches_are_the_links_random_draws(stream_seed):
    model = UniformDelay(
        0.25, 0.75, min_latency=0.25, stream_seed=stream_seed
    ).bind()
    sender, receiver = 7, 2
    seen = []
    # One draw per latency; a batch is refilled once it is used up.
    for _ in range(_BATCH + 2 * _BATCH + 1):
        model.latency(sender, receiver, Wakeup(), 0.0, None)
        stream = model._streams[sender, receiver]
        if not seen or list(stream.draws) != seen[-1][1]:
            seen.append((stream.skip, list(stream.draws)))
    _assert_batches_follow(
        seen, random.Random(link_stream_seed(stream_seed, sender, receiver))
    )


class _Untouchable(random.Random):
    """A scratch generator that fails the test if a link draws from it."""

    def random(self):
        raise AssertionError("a zero-rate link drew")


class TestZeroRateLinks:
    def test_a_partition_only_link_reads_no_draw(self):
        plan = FaultPlan(seed=4, partitions=(Partition(0, 1, 2.0, 4.0),))
        active = plan.bind()
        for t in range(10 * _BATCH):
            verdict = active.judge(0, 1, t / 10)
            expected_drop = 2.0 <= t / 10 < 4.0
            assert (verdict[0] == 0) == expected_drop
            if expected_drop:
                assert verdict[3] == DROP_PARTITION
        state = active._links[0, 1]
        assert (state.at, state.skip) == (0, 0)

    def test_a_zero_rate_override_reads_no_draw(self):
        plan = FaultPlan(seed=6, drop=0.3, per_link={(2, 5): LinkFaults()})
        active = plan.bind()
        reference = random.Random("6:5:2")
        for t in range(3 * _BATCH):
            assert active.judge(2, 5, float(t)) == (1, 0.0, 0.0, None)
            dropped = reference.random() < 0.3
            assert (active.judge(5, 2, float(t))[0] == 0) == dropped
        quiet = active._links[2, 5]
        assert (quiet.at, quiet.skip) == (0, 0)

    def test_a_zero_rate_link_is_never_seeded(self):
        plan = FaultPlan(
            seed=2, per_link={(1, 0): LinkFaults()},
            partitions=(Partition(0, 1, 0.0, 1.0),),
        )
        active = plan.bind()
        active._scratch = _Untouchable()
        for t in range(3 * _BATCH):
            active.judge(0, 1, t / 10)
            active.judge(1, 0, t / 10)

    def test_compiled_sends_on_cut_links_read_no_draw(self):
        topology = complete_without_sense(12, seed=3)
        victim = max(topology.ids)
        cuts = tuple(
            cut
            for peer in topology.ids if peer != victim
            for cut in (
                Partition(victim, peer, 1.0, 6.0),
                Partition(peer, victim, 1.0, 6.0),
            )
        )
        network = Network(
            ReliableDelivery(ProtocolE()), topology,
            delays=UniformDelay(0.05, 1.0),
            faults=FaultPlan(seed=3, partitions=cuts), seed=3,
        )
        active = network._faults
        active._scratch = _Untouchable()
        result = network.run()
        assert result.leader_id is not None and result.messages_dropped
        links = active._links
        assert len(links) > 12
        assert all((s.at, s.skip) == (0, 0) for s in links.values())
