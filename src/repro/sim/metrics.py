"""The counters a runtime writes through the node context.

The quantities the paper bounds — messages sent, payload bits, causal
depth and the leader's declaration instant — are tallied as plain
attributes on the send path itself (:class:`~repro.sim.network.SendPath`)
and folded into the :class:`~repro.core.results.ElectionResult` once, at
quiescence.  :class:`MetricsCollector` keeps only what the runtimes still
write through it: the wake window (the origin of ``election_time``) and
the counters overlays bump via :meth:`NodeContext.count`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MetricsCollector:
    """Mutable tallies updated by the network runtime during a run."""

    first_wake_time: float | None = None
    last_wake_time: float | None = None
    # -- reliable-delivery overlay (bumped via ``NodeContext.count``) -------
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    packets_abandoned: int = 0

    def on_wake(self, time: float) -> None:
        """Record a node waking (spontaneously or by message)."""
        if self.first_wake_time is None or time < self.first_wake_time:
            self.first_wake_time = time
        if self.last_wake_time is None or time > self.last_wake_time:
            self.last_wake_time = time

    def bump(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the integer counter ``name``.

        The generic hook behind :meth:`NodeContext.count`: overlays and apps
        account their bookkeeping (retransmissions, suppressed duplicates)
        without the collector having to know about them ahead of time.  The
        counter must be an existing integer field — a typo raises rather
        than minting untracked state.
        """
        value = getattr(self, name)
        if not isinstance(value, int):
            raise TypeError(f"metric {name!r} is not an integer counter")
        setattr(self, name, value + delta)
