"""Kernel-throughput sanity check and fast-path tripwires that ride in tier-1.

Not a benchmark: the full perf tracking lives in
``benchmarks/test_kernel_speed.py`` (which writes ``BENCH_kernel.json``)
and ``benchmarks/e2e/``.  The throughput test is a tripwire — one small
fixed workload, a conservative floor far below what the kernel actually
sustains (a median of about 120k events/sec on this workload, against
90k before the serial kernel compiled its sends, both on a shared 2-vCPU
Xeon VM that ran a fixed reference loop 4-5 times slower than when
idle), so it only fires on a catastrophic regression (an accidental O(N)
scan per event, tracing left enabled on the hot path, per-event
allocation storms), never on machine noise.  Budget: well under 10
seconds wall clock including the floor.

The other tests pin the compiled per-class sends (``SendPath._send_fn``):
they must agree with the ``SendPath._transmit`` pipeline on every input,
edge values included, and the hot protocols must actually take them.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import pytest

from repro.core.errors import MessageSizeError, SimulationError
from repro.core.messages import MAX_INT_FIELDS, Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.core.reliable import Packet
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, SendPath
from repro.sim.shard import ShardedNetwork
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)

#: events/sec floor — the seed kernel already beat this comfortably.
MIN_EVENTS_PER_SEC = 25_000.0


@pytest.mark.perf_smoke
def test_kernel_sustains_minimum_throughput():
    topology = complete_with_sense_of_direction(512)
    net = Network(ProtocolC(), topology)
    start = time.perf_counter()
    result = net.run()
    dt = time.perf_counter() - start
    events = net.scheduler.events_processed
    assert result.leader_id is not None
    assert dt < 10.0, f"C@512 took {dt:.1f}s; the kernel is pathologically slow"
    assert events / dt >= MIN_EVENTS_PER_SEC, (
        f"kernel throughput collapsed: {events / dt:.0f} events/sec on "
        f"C@512 (floor {MIN_EVENTS_PER_SEC:.0f})"
    )


# ---------------------------------------------------------------------------
# Compiled sends against the pipeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Hop(Message):
    hops: int
    flag: bool
    extra: int


@dataclass(frozen=True, slots=True)
class _Wide(Message):
    """One int field more than the O(log N) model allows."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int


assert len(dataclasses.fields(_Wide)) == MAX_INT_FIELDS + 1

#: Chain messages that leave the compiled envelope (they must take the
#: pipeline and still deliver exactly as the pipeline would).
_EDGES = {
    "none_in_int": lambda h: _Hop(h, True, None),
    "true_in_int": lambda h: _Hop(h, False, True),
    "int_in_bool": lambda h: _Hop(h, 1, h),
    "wide_int": lambda h: _Hop(h, True, 2**62),
    "negative_int": lambda h: _Hop(h, False, -h - 1),
    "nested_packet": lambda h: Packet(h, _Hop(h, True, h)),
}


class _EdgeNode(Node):
    """Passes a hop counter through port 0 until it reaches ``2n``.

    Every third hop sends the protocol's edge message instead of a plain
    ``_Hop``; the error edges send an unauditable message or use a bad
    port on hop 3 instead.
    """

    def __init__(self, ctx, edge: str) -> None:
        super().__init__(ctx)
        self._edge = edge

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(0, _Hop(1, True, 0))

    def on_message(self, port, message):
        if type(message) is Packet:
            message = message.payload
        h = message.hops
        if h >= 2 * self.ctx.n:
            self.become_leader()
            return
        edge = self._edge
        if h == 3 and edge == "too_many_ints":
            self.ctx.send(0, _Wide(1, 2, 3, 4, 5, 6, 7))
        elif h == 3 and edge in ("bad_port", "negative_port"):
            self.ctx.send(self.ctx.num_ports if edge == "bad_port" else -1,
                          _Hop(h + 1, True, h))
        elif h % 3 == 0 and edge in _EDGES:
            self.ctx.send(0, _EDGES[edge](h + 1))
        else:
            self.ctx.send(0, _Hop(h + 1, h % 2 == 0, h))


class _EdgeProtocol(ElectionProtocol):
    name = "edge-send-test"

    def __init__(self, edge: str) -> None:
        self.edge = edge

    def create_node(self, ctx):
        return _EdgeNode(ctx, self.edge)


_TOPOLOGIES = {
    "cyclic": lambda: complete_with_sense_of_direction(12),
    "table": lambda: complete_without_sense(12, seed=5),
}


def _fields(result) -> dict:
    """Every ``ElectionResult`` field but the trace (snapshots included)."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "trace"
    }


def _networks(edge: str, wiring: str) -> dict:
    """The same run three ways: the reference pipeline (``trace=True``),
    the compiled serial sends, and two in-process shards."""
    wakeup = {0: 0.0}
    return {
        "pipeline": Network(
            _EdgeProtocol(edge), _TOPOLOGIES[wiring](), trace=True,
            wakeup=wakeup,
        ),
        "serial": Network(
            _EdgeProtocol(edge), _TOPOLOGIES[wiring](), wakeup=wakeup
        ),
        "sharded": ShardedNetwork(
            _EdgeProtocol(edge), _TOPOLOGIES[wiring](), shards=2, workers=0,
            wakeup=wakeup,
        ),
    }


@pytest.mark.perf_smoke
@pytest.mark.parametrize("wiring", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_compiled_and_pipeline_sends_agree(edge, wiring):
    networks = _networks(edge, wiring)
    outcomes = {
        name: _fields(network.run(require_leader=False))
        for name, network in networks.items()
    }
    assert networks["pipeline"]._send_fns[_Hop] is SendPath._transmit
    assert networks["serial"]._send_fns[_Hop] is not SendPath._transmit
    reference = outcomes["pipeline"]
    assert reference["leader_id"] is not None
    assert reference["messages_total"] == 2 * 12
    for name, fields in outcomes.items():
        assert fields == reference, name


@pytest.mark.perf_smoke
@pytest.mark.parametrize(
    "edge, error, text",
    [
        ("too_many_ints", MessageSizeError,
         f"_Wide carries {MAX_INT_FIELDS + 1} integer fields; the O(log N) "
         f"model allows at most {MAX_INT_FIELDS}"),
        ("bad_port", SimulationError, "used invalid port 11"),
        ("negative_port", SimulationError, "used invalid port -1"),
    ],
)
def test_compiled_and_pipeline_sends_fail_alike(edge, error, text):
    for wiring in sorted(_TOPOLOGIES):
        messages = set()
        for network in _networks(edge, wiring).values():
            with pytest.raises(error) as caught:
                network.run(require_leader=False)
            messages.add(str(caught.value))
        assert len(messages) == 1, (wiring, messages)
        assert text in messages.pop()


# ---------------------------------------------------------------------------
# Tripwires: the fast path is taken, and only when it may be.
# ---------------------------------------------------------------------------


def _send_fns(network: Network) -> dict:
    network.run()
    assert network._send_fns
    return network._send_fns


@pytest.mark.perf_smoke
@pytest.mark.parametrize(
    "build",
    [
        lambda: Network(ProtocolC(), complete_with_sense_of_direction(64)),
        lambda: Network(ProtocolB(), complete_with_sense_of_direction(64)),
        lambda: Network(ProtocolE(), complete_without_sense(64, seed=3)),
        lambda: Network(ProtocolG(), complete_without_sense(64, seed=3)),
    ],
    ids=["C", "B", "E-no-sense", "G"],
)
def test_hot_protocols_take_the_compiled_send(build):
    pipeline = {
        cls.__name__
        for cls, fn in _send_fns(build()).items()
        if fn is SendPath._transmit
    }
    assert not pipeline, f"classes left on the pipeline: {sorted(pipeline)}"


@pytest.mark.perf_smoke
@pytest.mark.parametrize(
    "kwargs",
    [
        {"trace": True},
        {"faults": FaultPlan(seed=1)},
    ],
    ids=["trace", "faults"],
)
def test_traced_and_faulty_runs_take_the_pipeline(kwargs):
    network = Network(ProtocolC(), complete_with_sense_of_direction(64), **kwargs)
    fns = _send_fns(network)
    assert all(fn is SendPath._transmit for fn in fns.values()), fns


@pytest.mark.perf_smoke
def test_networks_of_one_shape_share_compiled_sends():
    first, second = (
        _send_fns(Network(ProtocolC(), complete_with_sense_of_direction(64)))
        for _ in range(2)
    )
    assert first.keys() == second.keys()
    for cls, fn in first.items():
        assert fn is not SendPath._transmit
        assert second[cls] is fn, cls.__name__
