"""Protocol C — O(N) messages *and* O(log N) time (Section 3).

The paper's headline result for networks with sense of direction, combining
the capture discipline of Protocol A with the doubling schedule of
Protocol B.  Requires ``N = 2^r``; uses ``k = N / 2^⌈log log N⌉`` (a power
of two, ``k = Θ(N / log N)``).

Nodes are partitioned, relative to any reference node, into ``k`` residue
classes ``R_j = {i[j+k], i[j+2k], ...}`` of size ``m = N/k = Θ(log N)``.

**Phase 1** — a base node captures its own class sequentially: targets
``i[k], i[2k], ..., i[N-k]``, contests on ``(lattice-level, id)`` with the
surrender/inheritance rule of Protocol A ("if i[xk] had already captured
i[(x+1)k] ... i[xk] surrenders it").  At most one candidate per class
survives, and each candidate raced only the ``m-1 = O(log N)`` members of
its class, so phase 1 costs O(N) messages and O(log N) time.

**Phase 2** — the class winner updates ``owner`` at every class member,
then claims the remaining distances ``1..k-1`` in ``log k`` doubling steps
(step ``s`` claims the ``2^(s-1)`` distances ``(2j-1)·k/2^s``).  A claim on
an owned node is forwarded to the owner — at most twice, when the owner was
itself captured — and the loser of the ``(step, id)`` comparison is killed.
At most ``k/2^(s-1)`` candidates reach step ``s``, giving O(N) messages and
O(log N) time overall.

Strengths are unified across phases as ``rank = lattice-level`` in phase 1
and ``rank = (m-1) + completed-steps`` in phase 2, so a cross-phase contest
(a still-capturing class member challenged by another class's winner) is
always decided in favour of the farther-along candidate, as the paper's
analysis assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.core.node import NodeContext
from repro.core.protocol import ElectionProtocol, register
from repro.core.strength import Strength
from repro.protocols.capture_base import Challenge, ChallengeVerdict, ContestNode
from repro.protocols.common import Role, leader_strength
from repro.protocols.sense.protocol_b import doubling_distances, exact_log2
from repro.topology.complete import CompleteTopology

# -- messages ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LatticeCapture(Message):
    """Phase-1 sequential claim on the next class member."""

    rank: int
    cand: int


@dataclass(frozen=True, slots=True)
class LatticeAccept(Message):
    """Phase-1 claim granted; ``surrendered`` class members change hands."""

    surrendered: int


@dataclass(frozen=True, slots=True)
class LatticeReject(Message):
    """Phase-1 claim lost its contest."""


@dataclass(frozen=True, slots=True)
class OwnerUpdate(Message):
    """Phase-2 entry: install the class winner as owner of its class."""

    rank: int
    cand: int


@dataclass(frozen=True, slots=True)
class OwnerUpdateAck(Message):
    """Ownership update acknowledged."""


@dataclass(frozen=True, slots=True)
class OwnerUpdateReject(Message):
    """Ownership update lost a forwarded contest."""


@dataclass(frozen=True, slots=True)
class Sweep(Message):
    """Phase-2 doubling-step claim on another class's territory."""

    rank: int
    cand: int


@dataclass(frozen=True, slots=True)
class SweepAccept(Message):
    """Sweep claim granted."""


@dataclass(frozen=True, slots=True)
class SweepReject(Message):
    """Sweep claim lost its contest."""


# -- node ----------------------------------------------------------------------


def protocol_c_k(n: int) -> int:
    """The paper's ``k = N / 2^⌈log₂ log₂ N⌉`` (defined for ``N = 2^r``)."""
    r = exact_log2(n, "N")
    if r == 0:
        raise ConfigurationError("protocol C needs N >= 2")
    ceil_log_r = max(0, (r - 1).bit_length())
    return max(1, n >> ceil_log_r)


class ProtocolCNode(ContestNode):
    """One node running Protocol C."""

    def __init__(self, ctx: NodeContext, k: int, total_steps: int) -> None:
        super().__init__(ctx)
        self.k = k
        self.class_size = ctx.n // k  # m = N/k
        self.lattice_level = 0  # class members captured (phase 1)
        self.steps_done = 0  # doubling steps completed (phase 2)
        self.phase = 1
        self._acks_outstanding = 0
        self._sweeps_outstanding = 0
        self._total_steps = total_steps  # log2(k)

    # -- strength ---------------------------------------------------------------

    def current_strength(self) -> Strength:
        if self.role is Role.LEADER:
            return leader_strength(self.ctx.n, self.ctx.node_id)
        if self.phase == 1:
            rank = self.lattice_level
        else:
            rank = (self.class_size - 1) + self.steps_done
        return Strength(rank, self.ctx.node_id)

    def make_reply(self, kind: str, won: bool) -> Message:
        if kind == "ownerupd":
            return OwnerUpdateAck() if won else OwnerUpdateReject()
        if kind == "sweep":
            return SweepAccept() if won else SweepReject()
        return super().make_reply(kind, won)

    # -- wake-up / phase 1 ---------------------------------------------------------

    def on_wake(self, spontaneous: bool) -> None:
        if not spontaneous:
            return
        self.role = Role.CANDIDATE
        self._advance_phase1()

    def _advance_phase1(self) -> None:
        if self.lattice_level >= self.class_size - 1:
            self._enter_phase2()
            return
        distance = (self.lattice_level + 1) * self.k
        self.ctx.send(
            self.ctx.port_with_label(distance),
            LatticeCapture(self.lattice_level, self.ctx.node_id),
        )

    # -- phase 2 ----------------------------------------------------------------------

    def _enter_phase2(self) -> None:
        self.phase = 2
        self.ctx.trace("phase2")
        lattice = [x * self.k for x in range(1, self.class_size)]
        self._acks_outstanding = len(lattice)
        if not lattice:
            self._start_sweep_step()
            return
        strength = self.current_strength()
        for distance in lattice:
            self.ctx.send(
                self.ctx.port_with_label(distance),
                OwnerUpdate(strength.rank, self.ctx.node_id),
            )

    def _start_sweep_step(self) -> None:
        if self.steps_done >= self._total_steps:
            if self.role is Role.CANDIDATE:
                self.role = Role.LEADER
                self.become_leader()
            return
        distances = doubling_distances(self.k, self.steps_done + 1)
        self._sweeps_outstanding = len(distances)
        strength = self.current_strength()
        for distance in distances:
            self.ctx.send(
                self.ctx.port_with_label(distance),
                Sweep(strength.rank, self.ctx.node_id),
            )

    # -- dispatch -----------------------------------------------------------------------

    def on_message(self, port: int, message: Message) -> None:
        match message:
            case LatticeCapture():
                self._handle_lattice_capture(port, message)
            case LatticeAccept():
                self._handle_lattice_accept(message)
            case LatticeReject():
                self._stall()
            case OwnerUpdate():
                self.claim(port, Strength(message.rank, message.cand), "ownerupd")
            case OwnerUpdateAck():
                self._handle_owner_ack()
            case OwnerUpdateReject():
                self._stall()
            case Sweep():
                self._handle_sweep(port, message)
            case SweepAccept():
                self._handle_sweep_accept()
            case SweepReject():
                self._stall()
            case Challenge():
                self.handle_challenge(port, message)
            case ChallengeVerdict():
                self.handle_verdict(port, message)
            case _:
                raise ConfigurationError(
                    f"protocol C cannot handle {message.type_name}"
                )

    # -- handlers ---------------------------------------------------------------------

    def _handle_lattice_capture(self, port: int, message: LatticeCapture) -> None:
        incoming = Strength(message.rank, message.cand)
        if self.role in (Role.PASSIVE, Role.CAPTURED):
            if self.role is Role.PASSIVE:
                self.role = Role.CAPTURED
            self.ctx.send(port, LatticeAccept(0))
            return
        if self.role is Role.LEADER:
            self.ctx.send(port, LatticeReject())
            return
        # repro: lint-ok[RPL020] (lattice level, id) contest per the paper
        if incoming.outranks(self.current_strength()):
            surrendered = self.lattice_level
            self.role = Role.CAPTURED
            self.ctx.trace("captured_by", cand=message.cand)
            self.ctx.send(port, LatticeAccept(surrendered))
        else:
            self.ctx.send(port, LatticeReject())

    def _handle_lattice_accept(self, message: LatticeAccept) -> None:
        if self.role is not Role.CANDIDATE or self.phase != 1:
            return
        self.lattice_level += message.surrendered + 1
        self.ctx.trace("lattice_level", level=self.lattice_level)
        self._advance_phase1()

    def _handle_owner_ack(self) -> None:
        if self.role is not Role.CANDIDATE or self.phase != 2:
            return
        self._acks_outstanding -= 1
        if self._acks_outstanding == 0:
            self._start_sweep_step()

    def _handle_sweep(self, port: int, message: Sweep) -> None:
        incoming = Strength(message.rank, message.cand)
        if self.role in (Role.CANDIDATE, Role.STALLED, Role.LEADER):
            # repro: lint-ok[RPL020] (rank, id) contest per the paper
            if incoming.outranks(self.current_strength()):
                self.role = Role.CAPTURED
                self.install_owner(port, incoming)
                self.ctx.send(port, SweepAccept())
            else:
                self.ctx.send(port, SweepReject())
            return
        self.claim(port, incoming, "sweep")

    def _handle_sweep_accept(self) -> None:
        if self.role is not Role.CANDIDATE or self.phase != 2:
            return
        self._sweeps_outstanding -= 1
        if self._sweeps_outstanding == 0:
            self.steps_done += 1
            self.ctx.trace("sweep_step", step=self.steps_done)
            self._start_sweep_step()

    def _stall(self) -> None:
        if self.role is Role.CANDIDATE:
            self.role = Role.STALLED
            self.ctx.trace("stalled")

    def snapshot(self) -> dict[str, Any]:
        base = super().snapshot()
        base.update(
            phase=self.phase,
            lattice_level=self.lattice_level,
            steps_done=self.steps_done,
        )
        return base


@register
class ProtocolC(ElectionProtocol):
    """Protocol C: O(N) messages and O(log N) time; needs N = 2^r."""

    name = "C"
    needs_sense_of_direction = True

    def __init__(self, k: int | None = None) -> None:
        self.k = k
        # ``(N, k, log2 k)`` of the last network built, so a run computes
        # its class width once rather than once per node.
        self._shape: tuple[int, int, int] | None = None

    def effective_k(self, n: int) -> int:
        """The class width in use: the explicit ``k`` or the paper's formula."""
        return self.k if self.k is not None else protocol_c_k(n)

    def validate(self, topology: CompleteTopology) -> None:
        super().validate(topology)
        n = topology.n
        exact_log2(n, "N")
        k = self.effective_k(n)
        exact_log2(k, "k")
        if not 1 <= k <= n or n % k:
            raise ConfigurationError(
                f"protocol C needs k to divide N with 1 <= k <= N; "
                f"got k={k}, N={n}"
            )

    def create_node(self, ctx: NodeContext) -> ProtocolCNode:
        shape = self._shape
        if shape is None or shape[0] != ctx.n:
            k = self.effective_k(ctx.n)
            shape = self._shape = (ctx.n, k, exact_log2(k, "k"))
        return ProtocolCNode(ctx, shape[1], shape[2])

    def describe(self) -> str:
        return "C" if self.k is None else f"C(k={self.k})"
