"""Message-delay models.

Section 2 of the paper fixes the timing model used for all complexity
claims:

* a message takes *at most one time unit* to reach its destination, and
* the *inter-message delay* on a single link is at most one time unit
  (consecutive deliveries on one link may be spaced up to a unit apart).

A :class:`DelayModel` decides, per message, the transmission latency and the
extra FIFO spacing.  The asynchronous adversary of the proofs corresponds to
choosing these values maliciously; the benign benchmarks use constant or
random delays.  Models receive the *sender/receiver identities* and the send
time so adversarial models (Section 5's band-stretching construction) can
condition on them.
"""

from __future__ import annotations

import copy
import random
from abc import ABC, abstractmethod

from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.sim.rng import LinkStream, link_stream_seed


class DelayModel(ABC):
    """Chooses per-message latency (and per-link spacing) in ``(0, 1]``.

    Two class-level attributes describe the model to the sharded kernel
    (:mod:`repro.sim.shard`), which needs a *conservative lookahead* — a
    strictly positive lower bound on every latency the model can return —
    and a guarantee that the model never consumes the shared run RNG
    (per-shard execution cannot reproduce a global draw order):

    * ``min_latency`` — a float lower-bounding :meth:`latency` for every
      message, or ``None`` when no bound is declared.  Models with a
      ``None`` (or non-positive) bound cannot be sharded.
    * ``uses_run_rng`` — ``True`` when :meth:`latency`/:meth:`gap` may
      draw from the ``rng`` argument.  Subclasses that ignore it set this
      ``False`` to become shardable.
    """

    #: Lower bound on every latency the model returns (None: unbounded).
    min_latency: float | None = None
    #: Whether latency()/gap() may consume the shared run RNG.
    uses_run_rng: bool = True

    @abstractmethod
    def latency(
        self,
        sender: int,
        receiver: int,
        message: Message,
        send_time: float,
        rng: random.Random,
    ) -> float:
        """Transmission latency for this message, in ``(0, 1]``."""

    def gap(
        self,
        sender: int,
        receiver: int,
        message: Message,
        send_time: float,
        rng: random.Random,
    ) -> float:
        """Minimum spacing after the previous delivery on the same link.

        The paper allows up to one time unit; the default is zero (links as
        fast as FIFO permits).  Adversaries override this to stretch chains.
        """
        return 0.0

    def bind(self) -> "DelayModel":
        """The model one run uses (see :class:`~repro.sim.network.SendPath`).

        A model that keeps per-run state returns a copy with that state
        fresh, the way :meth:`~repro.sim.faults.FaultPlan.bind` does, so
        one model object gives every run the same delays.  Stateless
        models return themselves.
        """
        return self


def _check_unit_interval(value: float, what: str) -> float:
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(f"{what} must lie in (0, 1], got {value}")
    return value


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units.

    ``ConstantDelay(1.0)`` is the worst-case synchronous-looking schedule the
    paper's time-complexity definition measures against.
    """

    uses_run_rng = False

    def __init__(self, delay: float = 1.0) -> None:
        self._delay = _check_unit_interval(delay, "delay")
        self.min_latency = self._delay

    @property
    def delay(self) -> float:
        return self._delay

    def latency(self, sender, receiver, message, send_time, rng):  # noqa: D102
        return self._delay


class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high] ⊆ (0, 1]`` per message.

    By default each draw consumes the shared run RNG, which keeps the
    model serial-only: per-shard execution cannot reproduce a single
    global draw order.  Declaring ``min_latency=`` opts into sharded
    execution by switching the draws to *per-directed-link* streams, each
    lazily seeded with :func:`~repro.sim.rng.link_stream_seed`, a blake2b
    digest of ``(stream_seed, sender, receiver)``.  A link's draws then
    happen in that link's FIFO send order — an order the sharded kernel's
    digest contract already reproduces exactly — so serial and sharded
    runs see identical latencies no matter how links interleave globally;
    a link's stream is a :class:`~repro.sim.rng.LinkStream`.  The declared
    bound must satisfy ``0 < min_latency <= low`` (the kernel uses it as
    the conservative window lookahead, so it may not exceed any latency
    the model can actually return).

    Note the two modes are *different random processes*: the same
    ``(low, high)`` model produces different delays with and without
    ``min_latency=``, so frozen fixtures pin one mode or the other.  The
    streams are per-run state (:meth:`bind`): every run of one model
    object starts them afresh.
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 1.0,
        *,
        min_latency: float | None = None,
        stream_seed: int = 0,
    ) -> None:
        self._low = _check_unit_interval(low, "low")
        self._high = _check_unit_interval(high, "high")
        if low > high:
            raise ConfigurationError(f"low={low} exceeds high={high}")
        if min_latency is None:
            # The bound is declared for completeness, but the per-message
            # draw from the shared run RNG keeps this model serial-only.
            self.min_latency = self._low
        else:
            if not 0.0 < min_latency <= self._low:
                raise ConfigurationError(
                    f"min_latency must lie in (0, low={self._low}], "
                    f"got {min_latency}"
                )
            self.min_latency = min_latency
            self.uses_run_rng = False
            self._streams: dict[tuple[int, int], LinkStream] = {}
            self._scratch = random.Random()
            self._stream_seed = stream_seed

    @property
    def low(self) -> float:
        return self._low

    @property
    def high(self) -> float:
        return self._high

    def bind(self) -> "UniformDelay":
        """Per-link streams are per-run state: a run gets fresh ones."""
        if self.uses_run_rng:
            return self
        bound = copy.copy(self)
        bound._streams = {}
        bound._scratch = random.Random()
        return bound

    def latency(self, sender, receiver, message, send_time, rng):  # noqa: D102
        if self.uses_run_rng:
            return rng.uniform(self._low, self._high)
        key = (sender, receiver)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = LinkStream(key)
        draws, at = stream.draws, stream.at
        if at == len(draws):
            seed = link_stream_seed(self._stream_seed, sender, receiver)
            draws = stream.refill(self._scratch, seed)
            at = 0
        stream.at = at + 1
        return self._low + (self._high - self._low) * draws[at]


class HookDelay(DelayModel):
    """Delegates to caller-supplied callables.

    The Section 5 adversary is implemented as hooks so the lower-bound
    experiment can stretch delays for the moving band ``B_i`` while leaving
    the rest of the network fast.  ``latency_fn`` (and optional ``gap_fn``)
    receive ``(sender, receiver, message, send_time)`` and must return a
    value in ``(0, 1]`` (gap in ``[0, 1]``).

    Hooks never see the run RNG, so a hook model is shardable as soon as
    the caller declares ``min_latency`` — a positive lower bound on every
    value ``latency_fn`` can return (left ``None``, the model stays
    serial-only; the bound is a promise the caller makes, not something
    the kernel can derive from an opaque callable).
    """

    uses_run_rng = False

    def __init__(self, latency_fn, gap_fn=None, *, min_latency=None) -> None:
        self._latency_fn = latency_fn
        self._gap_fn = gap_fn
        if min_latency is not None and min_latency <= 0.0:
            raise ConfigurationError(
                f"min_latency must be positive, got {min_latency}"
            )
        self.min_latency = min_latency

    def latency(self, sender, receiver, message, send_time, rng):  # noqa: D102
        return _check_unit_interval(
            self._latency_fn(sender, receiver, message, send_time), "latency"
        )

    def gap(self, sender, receiver, message, send_time, rng):  # noqa: D102
        if self._gap_fn is None:
            return 0.0
        value = self._gap_fn(sender, receiver, message, send_time)
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"gap must lie in [0, 1], got {value}")
        return value
