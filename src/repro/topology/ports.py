"""Port-assignment strategies for networks *without* sense of direction.

In the unlabeled model a node cannot distinguish its incident links: it only
sees anonymous ports 0..N-2.  Which neighbour hides behind which port is the
adversary's choice — the lower bound of Section 5 is driven entirely by this
power plus delay scheduling.  A :class:`PortStrategy` fixes, per node, the
order in which untraversed ports map to neighbours.

All the paper's unlabeled-network protocols probe fresh ports in index
order, so a static permutation chosen with full knowledge of the identities
is exactly as strong as the paper's "lazy" adversary that picks an edge at
the moment a node first uses it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence, Set
from functools import lru_cache


class PortStrategy(ABC):
    """Chooses the neighbour order behind each node's anonymous ports."""

    @abstractmethod
    def assign(
        self,
        n: int,
        position: int,
        ids: Sequence[int],
        rng: random.Random,
    ) -> list[int]:
        """Return the neighbour *positions* in port order for ``position``.

        Must be a permutation of all positions except ``position`` itself.
        """


@lru_cache(maxsize=4)
def _positions(n: int) -> tuple[int, ...]:
    """``tuple(range(n))``, built once per ``n``."""
    return tuple(range(n))


def _others(n: int, position: int) -> list[int]:
    """Every position but ``position``, in increasing order.

    A copy of one shared ``range(n)`` tuple: the n rows of a wiring hold
    the same int objects instead of n fresh ones each.
    """
    others = list(_positions(n))
    del others[position]
    return others


def shuffle(items: list, rng: random.Random) -> None:
    """``rng.shuffle(items)``, with the same draws, but faster.

    The hidden-wiring build shuffles n lists of n - 1 positions, and most
    of ``random.Random.shuffle``'s time there is its per-element
    ``_randbelow`` call.  This is the same Fisher–Yates with that call
    inlined: for ``i`` from the top down it draws ``j`` below ``i + 1``
    by ``getrandbits(k)`` rejection (``k = (i + 1).bit_length()``) and
    swaps — so the result and the generator state afterwards are those
    of ``rng.shuffle``.  The ``i`` sharing one ``k`` run as one inner
    loop.  Any rng that is not exactly ``random.Random`` (a subclass may
    draw differently) gets its own ``shuffle``.
    """
    if type(rng) is not random.Random:
        rng.shuffle(items)
        return
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        k = (top + 1).bit_length()
        # Below ``low`` the draws need fewer bits.
        low = (1 << (k - 1)) - 2
        for i in range(top, low, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        top = low


class RandomPorts(PortStrategy):
    """Uniformly random hidden wiring — the benign average case."""

    def assign(self, n, position, ids, rng):  # noqa: D102
        neighbours = _others(n, position)
        shuffle(neighbours, rng)
        return neighbours


class IdOrderedPorts(PortStrategy):
    """Ports ordered by increasing neighbour identity.

    A *friendly* wiring: sequential-probe protocols meet strong opponents
    early and die cheaply.  Useful as the optimistic end of the spectrum in
    benchmarks.
    """

    def assign(self, n, position, ids, rng):  # noqa: D102
        neighbours = _others(n, position)
        neighbours.sort(key=lambda p: ids[p])
        return neighbours


class UpDownPorts(PortStrategy):
    """The Section 5 adversary's wiring.

    For a node with identity ``i`` the first ``k`` fresh ports lead to
    ``Up_i`` (identities ``i+1 .. i+k`` mod N, increasing), the next ``k`` to
    ``Down_i`` (``i-1 .. i-k``), and the remainder alternate outward by
    cyclic identity offset.  While a message-optimal protocol touches at most
    ``k`` fresh ports per node, every node in the middle band communicates
    only inside a narrow identity window — the symmetry the lower-bound
    construction exploits.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def assign(self, n, position, ids, rng):  # noqa: D102
        position_of = {ids[p]: p for p in range(n)}
        my_id = ids[position]
        order: list[int] = []
        for offset in range(1, self.k + 1):  # Up_i, increasing identity
            order.append(position_of[(my_id + offset) % n])
        for offset in range(1, self.k + 1):  # Down_i, decreasing identity
            order.append(position_of[(my_id - offset) % n])
        offset = self.k + 1
        while len(order) < n - 1:
            up = position_of[(my_id + offset) % n]
            if up not in order and up != position:
                order.append(up)
            down = position_of[(my_id - offset) % n]
            if down not in order and down != position and len(order) < n - 1:
                order.append(down)
            offset += 1
        return order


class HotspotPorts(PortStrategy):
    """Every node's first fresh port leads to one popular victim.

    This wires the Section 4 congestion pathology that motivates ℰ: all
    base nodes claim the *same* node first, the first claimant captures it,
    and every later claim is forwarded to the owner over a single link.
    Under unit inter-message spacing AG85 serialises the whole burst
    (Θ(#candidates) time for one capture); ℰ keeps one claim in flight and
    rejects the rest immediately.  Remaining ports are wired randomly.
    """

    def __init__(self, victim_id: int = 0) -> None:
        self.victim_id = victim_id

    def assign(self, n, position, ids, rng):  # noqa: D102
        victim = ids.index(self.victim_id) if self.victim_id in ids else 0
        neighbours = _others(n, position)
        shuffle(neighbours, rng)
        if position != victim:
            neighbours.remove(victim)
            neighbours.insert(0, victim)
        return neighbours


def validate_port_map(
    n: int,
    position: int,
    port_map: Sequence[int],
    positions: Set[int] | None = None,
) -> None:
    """Assert that a port map is a permutation of the other positions.

    Runs in O(n) as one ``set`` over the row and a subset test against
    ``positions`` (``set(range(n))``, which a caller checking all n rows
    builds once and passes in): validation is on the topology-construction
    path, which the scaling benches hit with n in the thousands — n rows
    of n entries each.  A row still held as a list of ints is the cheap
    case; a packed ``array`` row boxes every entry again.
    """
    if len(port_map) != n - 1:
        raise ValueError(
            f"port map for position {position} has {len(port_map)} entries, "
            f"expected {n - 1}: {port_map!r}"
        )
    seen = set(port_map)
    if positions is None:
        positions = set(range(n))
    if len(seen) != n - 1 or position in seen or not seen <= positions:
        raise ValueError(
            f"port map for position {position} is not a permutation of "
            f"the remaining {n - 1} positions: {port_map!r}"
        )
