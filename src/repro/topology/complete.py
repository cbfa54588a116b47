"""Complete-network topologies.

A :class:`CompleteTopology` fixes everything static about a run:

* ``n`` node *positions* ``0..n-1`` arranged on the directed Hamiltonian
  cycle that defines sense of direction (positions are the simulator's
  ground truth; protocols never see them directly),
* an *identity assignment* ``ids[position]`` (unique, arbitrary ints), and
* per-node *port maps*: ``port_neighbor[p][q]`` is the position reached from
  position ``p`` via port ``q``.

With sense of direction, port ``d-1`` of every node carries label ``d`` and
leads to the node at cyclic distance ``d`` (Figure 1 of the paper).  Without
it, a :class:`~repro.topology.ports.PortStrategy` chooses the hidden wiring.

Storage is sized for the N≈10⁴ scaling benches:

* The canonical cyclic wiring (every sense-of-direction network) is pure
  arithmetic -- ``neighbor(p, q) = (p + q + 1) % n`` -- so no table is
  materialised at all and construction is O(n) instead of O(n²).
* Explicit wirings keep the forward table as compact ``array('i')`` rows
  (4 bytes/entry instead of a pointer to a boxed int) and build each node's
  inverse row (neighbour → port) lazily on first use, since most runs of a
  message-optimal protocol never look at most nodes' reverse wiring.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence

from repro.core.errors import ConfigurationError
from repro.topology.ports import PortStrategy, RandomPorts, validate_port_map


class CompleteTopology:
    """An immutable complete graph with identities and port maps."""

    def __init__(
        self,
        n: int,
        ids: Sequence[int],
        port_neighbor: Sequence[Sequence[int]] | None,
        *,
        sense_of_direction: bool,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"a complete network needs n >= 2, got {n}")
        if len(ids) != n or len(set(ids)) != n:
            raise ConfigurationError("ids must be n distinct integers")
        self.n = n
        self.ids = tuple(ids)
        self.sense_of_direction = sense_of_direction
        # ``port_neighbor=None`` selects the canonical cyclic wiring (port
        # d-1 leads to the node at cyclic distance d): no tables, O(1) math.
        self._cyclic = port_neighbor is None
        if self._cyclic:
            self._port_neighbor: tuple[array, ...] = ()
            self._inverse_rows: list[array | None] = []
        else:
            if len(port_neighbor) != n:
                raise ConfigurationError(
                    "port_neighbor must have one row per node"
                )
            for position, row in enumerate(port_neighbor):
                validate_port_map(n, position, row)
            self._port_neighbor = tuple(array("i", row) for row in port_neighbor)
            self._inverse_rows = [None] * n
        self._position_of_id = {identity: p for p, identity in enumerate(self.ids)}

    # -- structure ----------------------------------------------------------

    @property
    def num_ports(self) -> int:
        """Ports per node (= n - 1 in a complete graph)."""
        return self.n - 1

    def neighbor(self, position: int, port: int) -> int:
        """Position reached from ``position`` through ``port``."""
        if self._cyclic:
            return (position + port + 1) % self.n
        return self._port_neighbor[position][port]

    def _inverse_row(self, position: int) -> array:
        """Neighbour-position → port row, built on first use."""
        row = self._inverse_rows[position]
        if row is None:
            row = array("i", [0]) * self.n
            for port, far in enumerate(self._port_neighbor[position]):
                row[far] = port
            self._inverse_rows[position] = row
        return row

    def port_to(self, position: int, neighbor: int) -> int:
        """The port of ``position`` whose link leads to ``neighbor``."""
        if self._cyclic:
            distance = (neighbor - position) % self.n
            if distance == 0:
                raise KeyError(neighbor)
            return distance - 1
        if neighbor == position or not 0 <= neighbor < self.n:
            raise KeyError(neighbor)
        return self._inverse_row(position)[neighbor]

    def reverse_port(self, position: int, port: int) -> int:
        """The far end's port for the link ``(position, port)``.

        Needed to tell a receiver which of *its* ports a message arrived on.
        """
        if self._cyclic:
            # Far end sits at distance d = port + 1; the way back is the
            # complementary distance n - d, i.e. port n - d - 1.
            return self.n - 2 - port
        far = self._port_neighbor[position][port]
        return self._inverse_row(far)[position]

    # -- identities ---------------------------------------------------------

    def id_at(self, position: int) -> int:
        """Identity of the node at ``position``."""
        return self.ids[position]

    def position_of(self, identity: int) -> int:
        """Position of the node with ``identity``."""
        return self._position_of_id[identity]

    # -- sense of direction -------------------------------------------------

    def label(self, position: int, port: int) -> int | None:
        """Chord label (cyclic distance) of a port, or None if unlabeled."""
        if not self.sense_of_direction:
            return None
        return port + 1

    def port_with_label(self, position: int, distance: int) -> int:
        """Port carrying label ``distance`` (sense-of-direction networks)."""
        if not self.sense_of_direction:
            raise ConfigurationError(
                "port_with_label requires a network with sense of direction"
            )
        if not 1 <= distance <= self.n - 1:
            raise ConfigurationError(
                f"distance must be in 1..{self.n - 1}, got {distance}"
            )
        return distance - 1


def complete_with_sense_of_direction(
    n: int, *, ids: Sequence[int] | None = None
) -> CompleteTopology:
    """Build a complete network with sense of direction.

    Every node's port ``d-1`` leads to the node at distance ``d`` along the
    Hamiltonian cycle and is labeled ``d`` — the structure of the paper's
    Figure 1.  The wiring is represented arithmetically, so construction is
    O(n) and the topology stays light even at N in the tens of thousands.
    """
    if ids is None:
        ids = list(range(n))
    if n < 2:
        raise ConfigurationError(f"a complete network needs n >= 2, got {n}")
    return CompleteTopology(n, ids, None, sense_of_direction=True)


def complete_without_sense(
    n: int,
    *,
    ids: Sequence[int] | None = None,
    port_strategy: PortStrategy | None = None,
    seed: int = 0,
) -> CompleteTopology:
    """Build a complete network whose port wiring is hidden from nodes.

    ``port_strategy`` picks the hidden wiring (default: uniformly random,
    derived deterministically from ``seed``).
    """
    if ids is None:
        ids = list(range(n))
    strategy = port_strategy if port_strategy is not None else RandomPorts()
    rng = random.Random(seed)
    # Each row is packed as soon as it is drawn, so the n lists of boxed
    # ints (about 30 MB at n = 1024) never all exist at once.
    port_neighbor = [
        array("i", strategy.assign(n, position, ids, rng))
        for position in range(n)
    ]
    return CompleteTopology(n, ids, port_neighbor, sense_of_direction=False)
