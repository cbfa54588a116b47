"""Tests for the port-assignment strategies (the unlabeled-model adversary)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.topology.ports import (
    HotspotPorts,
    IdOrderedPorts,
    RandomPorts,
    UpDownPorts,
    shuffle,
    validate_port_map,
)

STRATEGIES = [RandomPorts(), IdOrderedPorts(), UpDownPorts(3), HotspotPorts(0)]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
@given(n=st.integers(min_value=8, max_value=30),
       seed=st.integers(min_value=0, max_value=10**6))
def test_every_strategy_yields_permutations(strategy, n, seed):
    """Property: every port map is a permutation of the other positions."""
    ids = list(range(n))
    rng = random.Random(seed)
    for position in range(n):
        port_map = strategy.assign(n, position, ids, rng)
        validate_port_map(n, position, port_map)


class TestIdOrderedPorts:
    def test_orders_by_identity_not_position(self):
        ids = [30, 10, 20]
        port_map = IdOrderedPorts().assign(3, 0, ids, random.Random(0))
        assert port_map == [1, 2]  # id 10 first, then id 20


class TestUpDownPorts:
    def test_first_k_ports_are_up_neighbours_in_identity_space(self):
        n, k = 12, 3
        ids = list(range(n))
        for position in range(n):
            port_map = UpDownPorts(k).assign(n, position, ids, random.Random(0))
            ups = [ids[p] for p in port_map[:k]]
            assert ups == [(position + off) % n for off in range(1, k + 1)]

    def test_next_k_ports_are_down_neighbours(self):
        n, k = 12, 3
        ids = list(range(n))
        port_map = UpDownPorts(k).assign(n, 5, ids, random.Random(0))
        downs = [ids[p] for p in port_map[k:2 * k]]
        assert downs == [(5 - off) % n for off in range(1, k + 1)]

    def test_works_with_permuted_identities(self):
        n, k = 8, 2
        ids = [3, 7, 1, 5, 0, 6, 2, 4]
        port_map = UpDownPorts(k).assign(n, 0, ids, random.Random(0))
        validate_port_map(n, 0, port_map)
        # node 0 has id 3; Up = ids 4, 5 at positions 7 and 3
        assert port_map[:k] == [7, 3]

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            UpDownPorts(0)


class TestHotspotPorts:
    def test_everyone_points_at_the_victim_first(self):
        n = 10
        ids = list(range(n))
        strategy = HotspotPorts(victim_id=0)
        for position in range(1, n):
            port_map = strategy.assign(n, position, ids, random.Random(position))
            assert port_map[0] == 0

    def test_victim_gets_an_ordinary_map(self):
        port_map = HotspotPorts(victim_id=0).assign(
            6, 0, list(range(6)), random.Random(0)
        )
        validate_port_map(6, 0, port_map)


class TestRandomPorts:
    def test_same_rng_state_reproduces_wiring(self):
        ids = list(range(9))
        a = RandomPorts().assign(9, 2, ids, random.Random(42))
        b = RandomPorts().assign(9, 2, ids, random.Random(42))
        assert a == b


@pytest.mark.parametrize(
    "port_map",
    [[1, 1, 2, 3], [1, 2, 3, 5], [1, 2, 3, -1], [0, 1, 2, 3]],
    ids=["repeat", "too-high", "negative", "self"],
)
def test_bad_port_maps_are_named(port_map):
    validate_port_map(5, 0, [2, 3, 4, 1])
    with pytest.raises(ValueError) as caught:
        validate_port_map(5, 0, port_map)
    assert str(caught.value) == (
        "port map for position 0 is not a permutation of the remaining 4 "
        f"positions: {port_map!r}"
    )


def test_a_port_map_of_the_wrong_length_is_named():
    with pytest.raises(ValueError, match=r"has 3 entries, expected 4: \[1, 2, 3\]"):
        validate_port_map(5, 0, [1, 2, 3])


# The hidden-wiring build's inlined shuffle (in the perf_smoke slice: it
# is the build half of the lossy workload's fast path).


@pytest.mark.perf_smoke
@pytest.mark.parametrize("n", [2, 3, 17, 1024])
def test_inlined_shuffle_draws_exactly_like_random_shuffle(n):
    for seed in range(6):
        reference, inlined = random.Random(seed), random.Random(seed)
        expected, actual = list(range(n)), list(range(n))
        reference.shuffle(expected)
        shuffle(actual, inlined)
        assert actual == expected, seed
        assert inlined.getstate() == reference.getstate(), seed


@pytest.mark.perf_smoke
def test_shuffle_defers_to_an_rng_subclass():
    class Reversing(random.Random):
        def shuffle(self, x):
            x.reverse()

    items = list(range(5))
    shuffle(items, Reversing(1))
    assert items == [4, 3, 2, 1, 0]
