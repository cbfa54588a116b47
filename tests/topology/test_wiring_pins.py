"""Literal pins of the hidden wiring, and how a bad wiring is reported.

Every run without sense of direction starts from the rows
``complete_without_sense`` builds, so a change to how a row is drawn,
validated or stored must leave each row's positions exactly where they
were.  The digests below are sha256 over every row's neighbour positions
in port order (decimal, comma-joined, one ``;`` per row); the identities
are ``range(n)`` shuffled by ``random.Random(seed)``.
"""

from __future__ import annotations

import hashlib
import random
from itertools import repeat

import pytest

from repro.topology.complete import CompleteTopology, complete_without_sense
from repro.topology.ports import (
    HotspotPorts,
    IdOrderedPorts,
    PortStrategy,
    RandomPorts,
    UpDownPorts,
)

STRATEGIES = {
    "RandomPorts": RandomPorts(),
    "HotspotPorts": HotspotPorts(victim_id=0),
    "UpDownPorts": UpDownPorts(3),
    "IdOrderedPorts": IdOrderedPorts(),
}

PINS = [
    ("RandomPorts", 3, 0, "51b95ec90651454f9f818716fcaa5ae0467c13f8b76c8a7eee48533792a439c5"),
    ("RandomPorts", 3, 7, "640f1cfdf27d969523bc2efc28a335f3da82e2dcfc0f6936b6b35b527f4fdad8"),
    ("RandomPorts", 17, 0, "90bcfea9abc18345a94c0bd41f85ebb55dc1fe7bbe71833e74d5f909c3520da6"),
    ("RandomPorts", 17, 7, "ab885f3c95706f54f5244586a980a0c8e5f9ef61423c837575db20db354060b1"),
    ("RandomPorts", 1024, 0, "ddc7d25f43b7df9721f8f515c0be7d7f2692f5298ea1274d5d1566ac448a4c0c"),
    ("RandomPorts", 1024, 7, "261abbcd1e1ae73ac61021a1638d83559f350978e6106207d505e44e58e1aace"),
    ("HotspotPorts", 17, 0, "717f9c2d25db561be533a3b810616f82b393c60cb592c55b637cc869a9c9f700"),
    ("HotspotPorts", 17, 7, "ec1fe2a1d33a4a9dc216f41ca2ee0dc177dd94e04bc75553da1f22cd30c22852"),
    ("HotspotPorts", 1024, 0, "1de1d490b9c17d593328cb667b80a3a34adf270fecfe691792eb7ff4a7008a77"),
    ("HotspotPorts", 1024, 7, "4359a9c0842843500fcad61faea1aaf1a25566e7d72840437fddef39503ce83f"),
    ("UpDownPorts", 17, 0, "a18eda66ebe3eba17989defc3f4134acaca15ebe8102f257fe290f948f84a246"),
    ("UpDownPorts", 17, 7, "d807bba7a3df43026f86b933fbb0791396272e80d5ec2aa02090390460227bb9"),
    ("UpDownPorts", 256, 0, "0ce9c190a02611212d92ab533c4a403cf6c9b427a82d836cef0069cffca20ea2"),
    ("UpDownPorts", 256, 7, "bc7adb2f49a3e08d6ec69bdb6c16af1aee83bddf658fc4f27f8164b2d8c224c9"),
    ("IdOrderedPorts", 17, 0, "58186842212358d1963665a1fbbb4348b356916db92f2635442fa3c014ac40f1"),
    ("IdOrderedPorts", 17, 7, "e128ce6870c825ff54916b1ebb260b0fde47143604d4b2401ac149e941e05a42"),
    ("IdOrderedPorts", 1024, 0, "7dbb43762fbc0e6d5e448725d097747440d8c9b26cffce39516917eb94d2c0f7"),
    ("IdOrderedPorts", 1024, 7, "9726d013873dba4ad67ac8f12496ff05dbe3f6c042d7215c04fcc7c1ca4227a3"),
]


def _wiring_digest(topology: CompleteTopology) -> str:
    n = topology.n
    digest = hashlib.sha256()
    for position in range(n):
        row = map(topology.neighbor, repeat(position, n - 1), range(n - 1))
        digest.update(",".join(map(str, row)).encode() + b";")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "strategy, n, seed, expected", PINS,
    ids=[f"{name}-{n}-{seed}" for name, n, seed, _ in PINS],
)
def test_hidden_wiring_rows_are_pinned(strategy, n, seed, expected):
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    topology = complete_without_sense(
        n, ids=ids, port_strategy=STRATEGIES[strategy], seed=seed
    )
    assert _wiring_digest(topology) == expected


class _OneBadRow(PortStrategy):
    """Every position's other positions in order, except one bad row."""

    def __init__(self, position: int, row: list[int]) -> None:
        self.position = position
        self.row = row

    def assign(self, n, position, ids, rng):  # noqa: D102
        if position == self.position:
            return list(self.row)
        return [p for p in range(n) if p != position]


BAD_ROWS = {
    "duplicate": (
        [0, 0, 3, 4],
        "port map for position 2 is not a permutation of the remaining 4 "
        "positions",
    ),
    "own-position": (
        [0, 1, 2, 3],
        "port map for position 2 is not a permutation of the remaining 4 "
        "positions",
    ),
    "too-high": (
        [0, 1, 3, 5],
        "port map for position 2 is not a permutation of the remaining 4 "
        "positions",
    ),
    "negative": (
        [-1, 1, 3, 4],
        "port map for position 2 is not a permutation of the remaining 4 "
        "positions",
    ),
    "wrong-length": (
        [0, 1, 3],
        "port map for position 2 has 3 entries, expected 4",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_a_bad_strategy_is_named_the_same_way_through_both_builders(case):
    row, summary = BAD_ROWS[case]
    n = 5
    strategy = _OneBadRow(2, row)
    with pytest.raises(ValueError) as built:
        complete_without_sense(n, port_strategy=strategy)
    rows = [strategy.assign(n, p, range(n), None) for p in range(n)]
    with pytest.raises(ValueError) as given:
        CompleteTopology(n, range(n), rows, sense_of_direction=False)
    for caught in (built, given):
        # The text names the position and the fault, then shows the row.
        head, _, shown = str(caught.value).partition(": ")
        assert head == summary
        assert repr(row) in shown
