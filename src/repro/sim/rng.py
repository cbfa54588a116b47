"""Deterministic RNG streams: per node for randomized protocols, per link
for fault plans and per-link delays (:class:`LinkStream`).

The randomized family (:mod:`repro.protocols.random`) tosses coins, but
the repo's whole value proposition is byte-replayability: the same
``(protocol, topology, seed)`` triple must produce the same digest on
every kernel — serial, ``REPRO_PARALLEL`` delivery, and sharded.  That
rules out one shared run-RNG (draw *order* would depend on scheduler
internals) and module-level entropy (flagged ``uses_rng`` and refused by
the shard kernel outright).

Instead every node gets its own stream, derived as

    stream_seed = blake2b(run_seed || node_id)

so a node's coin flips depend only on the run seed, its identity and how
many times *it* has drawn — never on interleaving.  Both the serial
kernel and every shard derive streams through this one function, which
is what makes sharded runs of ctx-RNG protocols digest-identical to
serial runs (see ``_refuse_unshardable_protocol`` in
:mod:`repro.sim.shard` for the gating that relies on this).

Protocols reach their stream through :meth:`NodeContext.rng`; they must
never import entropy modules directly (the flow analyzer's ``uses_rng``
scan catches that).
"""

from __future__ import annotations

import hashlib
import random
from array import array
from itertools import islice, repeat, starmap

__all__ = ["LinkStream", "link_stream_seed", "node_stream", "node_stream_seed"]

#: Domain-separation tags, so no two stream families can share a seed
#: (per-link fault streams key by string, and stay apart anyway).
_DOMAIN = b"repro.node-stream.v1"
_LINK_DOMAIN = b"repro.link-delay.v1"


def _derived_seed(domain: bytes, *parts: int) -> int:
    """A 64-bit blake2b digest over ``domain`` and ``parts`` in a
    self-delimiting encoding, so ``(1, 23)`` and ``(12, 3)`` cannot
    alias.  Stable across platforms and Python versions — fixture
    digests depend on it."""
    payload = b"|".join([domain, *[b"%d" % part for part in parts]])
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def node_stream_seed(run_seed: int, node_id: int) -> int:
    """The seed of node ``node_id``'s private stream under ``run_seed``."""
    return _derived_seed(_DOMAIN, run_seed, node_id)


def link_stream_seed(stream_seed: int, sender: int, receiver: int) -> int:
    """The seed of the per-link delay stream of ``sender -> receiver``
    (:class:`~repro.sim.delays.UniformDelay` with ``min_latency=``)."""
    return _derived_seed(_LINK_DOMAIN, stream_seed, sender, receiver)


def node_stream(run_seed: int, node_id: int) -> random.Random:
    """A fresh, independently-seeded ``random.Random`` for one node."""
    return random.Random(node_stream_seed(run_seed, node_id))


#: Draws in a link's first batch; about 99% of the benchmark's lossy
#: links read at most 24 fault draws.
_BATCH = 24


class LinkStream:
    """One directed link's stream (fault verdicts, per-link delays), kept
    as a batch of its ``random()`` values rather than as a generator.

    ``draws[at:]`` are the stream's next values and ``skip`` of them came
    before ``draws[0]``; the owner derives the seed from ``key``.
    """

    __slots__ = ("key", "draws", "at", "skip")

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key
        self.draws = array("d")
        self.at = 0
        self.skip = 0

    def refill(self, scratch: random.Random, seed: int | str) -> array:
        """Load and return the next batch, twice the last (first
        :data:`_BATCH`): re-seed the shared ``scratch`` and discard the
        draws already used, so the values are ``random.Random(seed)``'s.
        """
        skip = self.skip + self.at
        size = 2 * len(self.draws) or _BATCH
        scratch.seed(seed)
        # ``starmap`` calls ``random()`` with no Python frame per draw.
        stream = starmap(scratch.random, repeat((), skip + size))
        self.draws = draws = array("d", list(islice(stream, skip, None)))
        self.at = 0
        self.skip = skip
        return draws
