"""Node-relabelling permutations and orbit canonicalisation.

The complete network is maximally symmetric *as a graph*: with sense of
direction the canonical cyclic wiring is invariant under the ``n``
rotations (port labels are cyclic distances, which rotation preserves);
with hidden wiring the adversary cannot distinguish any relabelling, so
all ``n!`` permutations are candidate symmetries once each node's ports
are renumbered to follow the moved wiring.  This module builds those
candidate groups and canonicalises world states to the lexicographically
least member of their orbit, using the permutation-apply primitive
:meth:`~repro.verification.world.LockStepWorld.state_tuple`.

Soundness boundary — read before trusting a quotient
----------------------------------------------------

A relabelling is a true automorphism of the *checked transition system*
only if the protocol treats identities as abstract tokens.  **None of the
paper's protocols do**: every contest is resolved by comparing identities
(or ``Strength`` pairs ending in an identity) with ``<`` — that is the
whole point of symmetry *breaking* — so a rotation maps reachable states
to states the protocol can never reach with the original identity order
(e.g. Protocol D's ``node_id > cand`` test flips under relabelling).
``tests/verification/test_symmetry.py`` pins a concrete refutation.
No-sense protocols additionally scan their ports in numeric order
(``_next_port``), breaking port-renumbering invariance the same way.

This boundary is no longer policed by hand: :func:`ensure_prune_sound`
refuses ``symmetry="prune"`` unless the ``repro.lint`` equivariance
analysis (RPL020/RPL021 site counts, derived live per protocol by
:func:`repro.lint.capabilities.capability_for`) proves the topology's
group is an automorphism group of the checked system.  For the paper's
protocols the gate always refuses; ``symmetry="prune-unsound"`` is the
explicit escape hatch.  Ungated orbit exploration is a **bug-hunting
and census mode**, not a verification mode: it only ever prunes — every state it visits is
concretely reachable, so any violation it raises is real — but a state
whose orbit representative was visited earlier is skipped even though
the protocol would behave differently there, so completeness of outcome
sets is *not* implied.  The honest
exhaustive speedups live in the compression, store and parallel layers of
:mod:`repro.verification.explore`; the orbit census (``canonical_states``)
quantifies how much redundancy id-symmetry *would* remove for an
id-oblivious protocol, which is exactly the gap the paper's lower-bound
argument (Section 5) attributes to symmetry breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.topology.complete import CompleteTopology
from repro.verification.world import LockStepWorld


@dataclass(frozen=True)
class Permutation:
    """One node relabelling: positions, identities, and port renumberings.

    ``positions[p]`` is the destination of position ``p``; ``id_map``
    relabels identity values consistently (``id_at(p) -> id_at(positions[p])``);
    ``port_maps[p]``, when present, renumbers node ``p``'s ports so that a
    port leading to ``q`` becomes the destination node's port leading to
    ``positions[q]`` — the identity for rotations of the cyclic wiring,
    which preserve ports exactly.
    """

    positions: tuple[int, ...]
    id_map_items: tuple[tuple[int, int], ...]
    port_maps: tuple[tuple[int, ...], ...] | None

    def apply(self, world: LockStepWorld):
        """The world's frozen state as seen through this relabelling."""
        return world.state_tuple(
            positions=self.positions,
            id_map=dict(self.id_map_items),
            port_maps=self.port_maps,
        )


def _permutation_for(
    topology: CompleteTopology, positions: Sequence[int]
) -> Permutation:
    """Build the full relabelling induced by a position permutation."""
    n = topology.n
    id_map = tuple(
        (topology.id_at(p), topology.id_at(positions[p])) for p in range(n)
    )
    if topology.sense_of_direction:
        # Rotations of the cyclic wiring preserve port numbers: the node at
        # distance d stays at distance d.  (Non-rotation permutations of a
        # sense-of-direction network are not wiring-preserving and are
        # never generated here.)
        port_maps = None
    else:
        port_maps = tuple(
            tuple(
                topology.port_to(
                    positions[p],
                    positions[topology.neighbor(p, port)],
                )
                for port in range(topology.num_ports)
            )
            for p in range(n)
        )
    return Permutation(tuple(positions), id_map, port_maps)


def rotation_group(topology: CompleteTopology) -> list[Permutation]:
    """The ``n`` rotations — the wiring automorphisms of a sense-of-direction
    network (PAPER.md Section 2: port ``d-1`` is the chord of length ``d``,
    and rotation preserves every chord length)."""
    n = topology.n
    return [
        _permutation_for(topology, [(p + r) % n for p in range(n)])
        for r in range(n)
    ]


def symmetric_group(topology: CompleteTopology) -> list[Permutation]:
    """All ``n!`` relabellings of a hidden-wiring network.

    Feasible only at the tiny ``n`` the exhaustive explorer reaches; the
    explorer refuses the mode past n=6 (720 permutations per state).
    """
    from itertools import permutations as _perms

    n = topology.n
    return [
        _permutation_for(topology, positions)
        for positions in _perms(range(n))
    ]


def symmetry_group(topology: CompleteTopology) -> list[Permutation]:
    """The candidate group the ISSUE assigns per topology family: rotations
    with sense of direction (protocols A/B/C), the full symmetric group
    without (D/E/F/G)."""
    if topology.sense_of_direction:
        return rotation_group(topology)
    return symmetric_group(topology)


def canonical_state(
    world: LockStepWorld, group: Sequence[Permutation]
):
    """The lexicographically least permuted state tuple over ``group``.

    Compared via ``repr`` because permuted tuples can place ``None`` and
    ``int`` in the same slot across group members (e.g. an unset
    ``owner_port`` against a set one), which Python's tuple ``<`` refuses
    to order.
    """
    return min(
        (g.apply(world) for g in group), key=repr
    )


def canonical_fingerprint(
    world: LockStepWorld, group: Sequence[Permutation]
) -> int:
    """64-bit hash of the orbit representative (the memo key for orbit
    exploration)."""
    return hash(canonical_state(world, group))


# -- the prune gate ---------------------------------------------------------------
#
# Which protocols may quotient which groups used to be a hand-maintained
# classification (the prose above, applied by the person typing
# ``--symmetry``).  It is now *derived*: ``repro.lint`` counts the
# id-ordering (RPL020) and port-scan (RPL021) sites in each protocol's
# implementation modules and the gate below refuses ``--symmetry prune``
# for any protocol whose counts say the group is not an automorphism
# group of the checked system.  The derivation runs live, once per
# protocol class (:func:`repro.lint.capabilities.capability_for` caches
# it), so the gate always reads the code as it is.  The matrix spec
# loader asks the same question at load time through
# :func:`prune_refusal`.  ``symmetry="prune-unsound"`` bypasses the gate
# for the census/bug-hunting workflows the prose describes.


def prune_refusal(
    protocol_cls: type, sense_of_direction: bool
) -> str | None:
    """Why ``symmetry="prune"`` is unsound for ``protocol_cls``, or None.

    Refuses protocols that import module-level entropy (``uses_rng``) or
    draw from the per-node coin stream (``uses_ctx_rng``), and protocols
    whose implementation contains id-ordering sites (RPL020) — or, without
    sense of direction, port-order scans (RPL021).
    """
    from repro.lint.capabilities import capability_for

    capability = capability_for(protocol_cls)
    if capability.uses_rng:
        return (
            f"symmetry='prune' is not sound for protocol "
            f"{capability.protocol!r}: the flow analysis found entropy "
            "imports (uses_rng), so states that look orbit-equivalent "
            "can diverge on private random choices. Use symmetry='census' "
            "or symmetry='prune-unsound'."
        )
    if capability.uses_ctx_rng:
        return (
            f"symmetry='prune' is not sound for protocol "
            f"{capability.protocol!r}: the flow analysis found draws from "
            "the per-node coin stream (uses_ctx_rng). The streams are "
            "seeded by node identity, so relabelling a state changes which "
            "coins its nodes will flip — orbit-equivalent states diverge. "
            "Randomized protocols are checked statistically instead: "
            "`python -m repro verify --stat` (see docs/randomized.md)."
        )
    if sense_of_direction:
        sound = capability.rotation_equivariant
        group_name = "rotation group"
    else:
        sound = capability.relabelling_equivariant
        group_name = "full relabelling group"
    if sound:
        return None
    return (
        f"symmetry='prune' is not outcome-sound for protocol "
        f"{capability.protocol!r}: the linter found "
        f"{capability.id_order_sites} id-ordering site(s) (RPL020) and "
        f"{capability.port_scan_sites} port-scan site(s) (RPL021) in "
        f"{', '.join(capability.modules)}, so the {group_name} is not "
        "an automorphism group of the checked system. Use "
        "symmetry='census' for a sound orbit count, or "
        "symmetry='prune-unsound' for the reachability-only "
        "bug-hunting mode (see docs/verification.md)."
    )


def ensure_prune_sound(protocol, topology: CompleteTopology) -> None:
    """Refuse ``symmetry="prune"`` unless the linter proves it sound.

    Raises :class:`~repro.core.errors.ConfigurationError` carrying the
    :func:`prune_refusal` reason for ``protocol`` on ``topology``.
    """
    reason = prune_refusal(type(protocol), topology.sense_of_direction)
    if reason is not None:
        from repro.core.errors import ConfigurationError

        raise ConfigurationError(reason)
