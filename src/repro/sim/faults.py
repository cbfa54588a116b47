"""Deterministic link-fault injection.

The paper's model (Section 2) assumes reliable FIFO links; Section 4 relaxes
only *initial site failures*.  Everything beyond that — message loss,
duplication, reordering, transient partitions, mid-run crash-stop — is the
adversary this module lets you script.  A :class:`FaultPlan` is a pure,
seeded *specification*; the network binds it per run, so the same plan plus
the same seed reproduces the same faults byte for byte (the determinism
contract of ``docs/faults.md``).

Design constraints, in order:

* **Determinism.**  Each directed link owns a dedicated RNG stream seeded as
  ``f"{seed}:{src}:{dst}"`` (the same process-stable idiom the fuzzer uses),
  and the per-send draw order is fixed regardless of outcome.  Fault draws
  never touch the network's delay RNG, so installing a plan with all rates
  zero leaves an election byte-identical to a fault-free run.

* **Small per-link state.**  A link keeps its stream, not a generator: its
  state is a :class:`~repro.sim.rng.LinkStream`, a batch of the stream's
  ``random()`` values that the bound plan refills from its one scratch
  generator.  Each refill re-seeds that generator, through the C
  ``seed``, with the int ``random.Random`` derives from the link's string
  (:func:`~repro.sim.rng.str_seed`).  The per-link mode of
  :class:`~repro.sim.delays.UniformDelay` keeps its streams the same way.
  A verdict reads the batch through a cursor and refills it first when
  fewer draws are left than one verdict can read.  The values, and their
  order, are those of a per-link ``random.Random``.  A link whose rates
  are all zero (a partition-only plan, a quiet ``per_link`` entry) reads
  no draw, so it is never seeded: its batch is one that no verdict reads
  or refills.

* **Zero cost when off.**  With no plan installed the compiled send
  carries no verdict code at all, and the pipeline tests
  ``self._faults is not None`` once per send — the same discipline as
  tracing.  With a plan installed, the compiled send inlines
  :meth:`ActiveFaultPlan.judge` (same link state, same draws) from the
  source lines this module keeps next to it, :data:`COMPILED_VERDICT`.

* **FIFO stays the baseline.**  Drops and duplicates are decided *after* the
  FIFO arrival is computed, and jitter is added on top of it without
  advancing the channel's FIFO clock; so jitter yields *bounded* reordering
  (at most ``jitter`` time units past the in-order arrival), the only kind a
  retransmission overlay can mask with finite buffers.

Crash-stop scheduling (``FaultPlan.crashes``) generalises the network's
older ``crash_schedule`` argument: both feed the same mechanism, and the
plan's entries win on conflicts being rejected loudly.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.errors import SimulationError
from repro.sim.rng import LinkStream, str_seed

#: ``judge`` verdict reasons for a dropped message (trace detail).
DROP_LOSS = "loss"
DROP_PARTITION = "partition"


@dataclass(frozen=True, slots=True)
class LinkFaults:
    """Fault rates for one directed link (or the plan-wide default).

    * ``drop`` — probability a message vanishes in flight;
    * ``duplicate`` — probability the link delivers one extra copy;
    * ``jitter`` — maximum extra delay, uniform in ``[0, jitter]``, added
      *after* the FIFO arrival is fixed: messages may overtake each other by
      at most ``jitter`` time units (bounded reordering).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0

    def validate(self) -> None:
        """Reject rates outside the model; ``drop=1.0`` is disallowed
        because a link that loses everything is a partition — say so."""
        if not 0.0 <= self.drop < 1.0:
            raise SimulationError(
                f"drop rate must be in [0, 1), got {self.drop} "
                "(use a Partition for a dead link)"
            )
        if not 0.0 <= self.duplicate <= 1.0:
            raise SimulationError(
                f"duplicate rate must be in [0, 1], got {self.duplicate}"
            )
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise SimulationError(
                f"jitter must be a finite number >= 0, got {self.jitter}"
            )

    @property
    def quiet(self) -> bool:
        """True when this spec injects nothing."""
        return not (self.drop or self.duplicate or self.jitter)


@dataclass(frozen=True, slots=True)
class Partition:
    """A transient one-way cut: ``src -> dst`` drops everything sent during
    ``[start, end)``.  Keyed by node *identities* (like channels and delay
    models), not positions.  For a symmetric cut add both directions, or use
    :func:`isolate`.  ``end = float("inf")`` is a cut that never heals."""

    src: int
    dst: int
    start: float
    end: float

    def validate(self) -> None:
        """Reject empty, negative-time or NaN windows.

        ``end = inf`` is allowed: a cut that never heals.
        """
        if not math.isfinite(self.start) or math.isnan(self.end):
            raise SimulationError(
                f"partition window [{self.start}, {self.end}) needs a finite "
                "start and a non-NaN end"
            )
        if self.start < 0 or self.end <= self.start:
            raise SimulationError(
                f"partition window [{self.start}, {self.end}) is empty "
                "or starts before t=0"
            )


def isolate(
    victim: int, peers: Iterable[int], start: float, end: float
) -> tuple[Partition, ...]:
    """Partitions cutting ``victim`` off from ``peers`` in both directions."""
    cuts: list[Partition] = []
    for peer in peers:
        if peer == victim:
            continue
        cuts.append(Partition(victim, peer, start, end))
        cuts.append(Partition(peer, victim, start, end))
    return tuple(cuts)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, per-link specification of link faults and crashes.

    ``drop``/``duplicate``/``jitter`` are the plan-wide default rates;
    ``per_link`` overrides them for specific directed links (keyed by
    ``(src_id, dst_id)``).  ``partitions`` are transient one-way cuts and
    ``crashes`` maps node *positions* to crash-stop times (the generalised
    form of the network's ``crash_schedule``).

    The plan itself is immutable and reusable; each run binds it with
    :meth:`bind`, which owns the RNG streams, so two runs from one plan see
    identical fault sequences.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    per_link: Mapping[tuple[int, int], LinkFaults] = field(default_factory=dict)
    partitions: tuple[Partition, ...] = ()
    crashes: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.default_faults.validate()
        for key, faults in self.per_link.items():
            if len(key) != 2:
                raise SimulationError(f"per_link key {key!r} is not (src, dst)")
            faults.validate()
        for cut in self.partitions:
            cut.validate()
        for position, time in self.crashes.items():
            if not math.isfinite(time):
                raise SimulationError(
                    f"crash time for position {position} is not finite: {time}"
                )
            if time < 0:
                raise SimulationError(
                    f"crash time for position {position} is negative: {time}"
                )

    @property
    def default_faults(self) -> LinkFaults:
        """The plan-wide rates as a :class:`LinkFaults`."""
        return LinkFaults(self.drop, self.duplicate, self.jitter)

    def bind(self) -> "ActiveFaultPlan":
        """Fresh per-run runtime state (RNG streams start from scratch)."""
        return ActiveFaultPlan(self)

    def describe(self) -> str:
        """One-line summary naming only the active dials."""
        parts = [f"seed={self.seed}"]
        if self.drop:
            parts.append(f"drop={self.drop}")
        if self.duplicate:
            parts.append(f"dup={self.duplicate}")
        if self.jitter:
            parts.append(f"jitter={self.jitter}")
        if self.per_link:
            parts.append(f"links={len(self.per_link)}")
        if self.partitions:
            parts.append(f"cuts={len(self.partitions)}")
        if self.crashes:
            parts.append(f"crashes={len(self.crashes)}")
        return f"FaultPlan({', '.join(parts)})"


#: The most draws one verdict reads: drop, duplicate, jitter and the
#: duplicate's jitter.  A batch with fewer left is refilled first.
_VERDICT_DRAWS = 4

#: The batch of a link whose rates are all zero: a verdict on it reads
#: nothing, so its cursor stays at 0 and the refill test never fires.
_UNREAD = array("d", [0.0]) * _VERDICT_DRAWS


class _LinkState(LinkStream):
    """Runtime fault state for one directed link: its stream and rates."""

    __slots__ = ("drop", "duplicate", "jitter", "windows")

    def __init__(
        self,
        key: tuple[int, int],
        rates: LinkFaults | FaultPlan,
        windows: tuple[tuple[float, float], ...],
    ) -> None:
        super().__init__(key)
        self.drop = rates.drop
        self.duplicate = rates.duplicate
        self.jitter = rates.jitter
        self.windows = windows


class ActiveFaultPlan:
    """One run's view of a :class:`FaultPlan`: owns the per-link streams.

    The network calls :meth:`judge` once per send; the verdict says whether
    the message survives, how many duplicate copies to schedule, and how much
    jitter to add to each arrival.
    """

    __slots__ = ("plan", "_links", "_windows_by_link", "_scratch")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._links: dict[tuple[int, int], _LinkState] = {}
        windows: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for cut in plan.partitions:
            windows.setdefault((cut.src, cut.dst), []).append(
                (cut.start, cut.end)
            )
        self._windows_by_link = {
            key: tuple(sorted(spans)) for key, spans in windows.items()
        }
        #: The one generator every link's batches are drawn from; it is
        #: re-seeded for each batch, so its own seed is never read.
        self._scratch = random.Random()

    def _link(self, src: int, dst: int) -> _LinkState:
        key = (src, dst)
        state = self._links.get(key)
        if state is None:
            plan = self.plan
            rates = plan.per_link.get(key) or plan
            state = _LinkState(
                key, rates, self._windows_by_link.get(key, ())
            )
            if rates.drop or rates.duplicate or rates.jitter:
                self._refill(state)
            else:
                # A verdict on this link reads no draw: it is never seeded.
                state.draws = _UNREAD
            self._links[key] = state
        return state

    def _refill(self, state: _LinkState) -> array:
        """Give ``state`` the next batch of its stream and return it."""
        src, dst = state.key
        seed = str_seed(f"{self.plan.seed}:{src}:{dst}")
        return state.refill(self._scratch, seed)

    def judge(
        self, src: int, dst: int, now: float
    ) -> tuple[int, float, float, str | None]:
        """Decide the fate of one message on ``src -> dst`` sent at ``now``.

        Returns ``(copies, jitter, dup_jitter, reason)``:

        * ``copies`` — 0 (dropped), 1 (delivered) or 2 (duplicated);
        * ``jitter`` — extra delay for the primary copy;
        * ``dup_jitter`` — extra delay for the duplicate (when ``copies=2``);
        * ``reason`` — ``None`` unless dropped ("loss" or "partition").

        Partition checks are time-based and consume no randomness; the RNG
        draw order for the rates is fixed (drop, duplicate, jitter, then the
        duplicate's jitter) so every link stream is reproducible
        independently of outcomes.
        """
        state = self._link(src, dst)
        for start, end in state.windows:
            if start <= now < end:
                return 0, 0.0, 0.0, DROP_PARTITION
        draws = state.draws
        at = state.at
        if len(draws) - at < _VERDICT_DRAWS:
            draws = self._refill(state)
            at = 0
        dropped = False
        if state.drop > 0.0:
            dropped = draws[at] < state.drop
            at += 1
        copies = 1
        if state.duplicate > 0.0:
            if draws[at] < state.duplicate:
                copies = 2
            at += 1
        jitter = dup_jitter = 0.0
        if state.jitter > 0.0:
            jitter = draws[at] * state.jitter
            at += 1
            if copies == 2:
                dup_jitter = draws[at] * state.jitter
                at += 1
        state.at = at
        if dropped:
            return 0, 0.0, 0.0, DROP_LOSS
        return copies, jitter, dup_jitter, None


# The verdict of :meth:`ActiveFaultPlan.judge` as source lines for the
# compiled send (``repro.sim.network._compile_send``), kept here so one
# module owns the draw order and the link-state layout: a change to the
# fault model is made to ``judge`` and to these lines together.  The
# verdict runs after the FIFO ``arrival`` is computed, in a scope where
# ``self`` is the runtime's send path and ``position``, ``far``,
# ``far_port`` and ``m`` describe the send.  A drop returns; the primary
# copy leaves at ``arrival + jitter`` through the runtime's tail, and
# :data:`COMPILED_TWIN`, placed after the tail, sends a duplicate through
# ``_dispatch_send``.
COMPILED_VERDICT = (
    "        ids = self._ids",
    "        faults = self._faults",
    "        key = (ids[position], ids[far])",
    "        state = faults._links.get(key)",
    "        if state is None:",
    "            state = faults._link(*key)",
    "        for start, end in state.windows:",
    "            if start <= self.scheduler._now < end:",
    "                self._dropped += 1",
    "                return",
    "        draws = state.draws",
    "        at = state.at",
    f"        if len(draws) - at < {_VERDICT_DRAWS}:",
    "            draws = faults._refill(state)",
    "            at = 0",
    "        dropped = twin = False",
    "        rate = state.drop",
    "        if rate > 0.0:",
    "            dropped = draws[at] < rate",
    "            at += 1",
    "        rate = state.duplicate",
    "        if rate > 0.0:",
    "            twin = draws[at] < rate",
    "            at += 1",
    "        jitter = twin_jitter = 0.0",
    "        rate = state.jitter",
    "        if rate > 0.0:",
    "            jitter = draws[at] * rate",
    "            at += 1",
    "            if twin:",
    "                twin_jitter = draws[at] * rate",
    "                at += 1",
    "        state.at = at",
    "        if dropped:",
    "            self._dropped += 1",
    "            return",
    "        first = arrival",
    "        if jitter > 0.0:",
    "            self._jittered += 1",
    "            arrival = first + jitter",
)

COMPILED_TWIN = (
    "        if twin:",
    "            self._duplicated += 1",
    "            self._dispatch_send(",
    "                first + twin_jitter, far, far_port, m, ids[position]",
    "            )",
)
