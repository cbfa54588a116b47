"""Delay model validation tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.messages import Wakeup
from repro.sim.delays import ConstantDelay, HookDelay, UniformDelay
from repro.sim.rng import _BATCH, link_stream_seed


class TestConstantDelay:
    def test_default_is_the_unit_worst_case(self):
        assert ConstantDelay().delay == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_delays_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ConstantDelay(bad)


class TestUniformDelay:
    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(0.5, 0.1)
        with pytest.raises(ConfigurationError):
            UniformDelay(0.0, 1.0)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_draws_stay_in_bounds(self, seed):
        model = UniformDelay(0.2, 0.8)
        rng = random.Random(seed)
        value = model.latency(0, 1, Wakeup(), 0.0, rng)
        assert 0.2 <= value <= 0.8


class TestPerLinkStreams:
    """``min_latency=`` draws each link's latencies from its own stream,
    served in batches from the model's one scratch generator."""

    @settings(max_examples=30, deadline=None)
    @given(
        stream_seed=st.integers(0, 2**32),
        ids=st.lists(
            st.integers(0, 2**30), min_size=3, max_size=3, unique=True
        ),
        bounds=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(
            sorted
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_latencies_read_each_links_stream_across_refills(
        self, stream_seed, ids, bounds, order
    ):
        low, high = bounds
        model = UniformDelay(
            low, high, min_latency=low, stream_seed=stream_seed
        ).bind()
        a, b, c = ids
        links = [(a, b), (b, a), (b, c)]
        # 24 + 48 + 96 draws fill the first three batches: the next read
        # is the third refill after the first fill.
        sends = 7 * _BATCH + 1
        schedule = [link for link in links for _ in range(sends)]
        order.shuffle(schedule)
        reference = {
            link: random.Random(link_stream_seed(stream_seed, *link))
            for link in links
        }
        for sender, receiver in schedule:
            expected = reference[sender, receiver].uniform(low, high)
            assert model.latency(
                sender, receiver, Wakeup(), 0.0, None
            ) == expected
        for link in links:
            assert len(model._streams[link].draws) == 8 * _BATCH

    @pytest.mark.parametrize(
        "first, second",
        [
            # 5 * 1_000_003 + 1_000_010 == 6 * 1_000_003 + 7
            ((0, 5, 1_000_010), (0, 6, 7)),
            # (1 << 40) ^ 7 == 1_099_508 * 1_000_003 + 329_259
            ((1, 0, 7), (0, 1_099_508, 329_259)),
        ],
        ids=["links", "stream-seeds"],
    )
    def test_distinct_links_draw_distinct_streams(self, first, second):
        """A packed-integer seed gave these pairs one stream."""

        def draws(stream_seed, sender, receiver):
            model = UniformDelay(
                0.1, 0.9, min_latency=0.1, stream_seed=stream_seed
            )
            return [
                model.latency(sender, receiver, Wakeup(), 0.0, None)
                for _ in range(5)
            ]

        assert draws(*first) != draws(*second)


class TestHookDelay:
    def test_latency_hook_is_consulted(self):
        model = HookDelay(lambda s, r, m, t: 0.25)
        assert model.latency(0, 1, Wakeup(), 0.0, random.Random(0)) == 0.25

    def test_latency_hook_outside_model_rejected(self):
        model = HookDelay(lambda s, r, m, t: 2.0)
        with pytest.raises(ConfigurationError):
            model.latency(0, 1, Wakeup(), 0.0, random.Random(0))

    def test_gap_defaults_to_zero(self):
        model = HookDelay(lambda s, r, m, t: 0.5)
        assert model.gap(0, 1, Wakeup(), 0.0, random.Random(0)) == 0.0

    def test_gap_hook_validated(self):
        model = HookDelay(lambda *a: 0.5, gap_fn=lambda *a: 1.5)
        with pytest.raises(ConfigurationError):
            model.gap(0, 1, Wakeup(), 0.0, random.Random(0))

    def test_hooks_see_sender_receiver_and_time(self):
        seen = []

        def latency(sender, receiver, message, send_time):
            seen.append((sender, receiver, send_time))
            return 0.5

        HookDelay(latency).latency(3, 9, Wakeup(), 2.5, random.Random(0))
        assert seen == [(3, 9, 2.5)]
