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
edge values, nested payloads, fault plans and run-RNG delays included;
the hot protocols, the lossy build and the sharded overlay must actually
take them; and a plain run must compile exactly the source it compiled
before.  Five pin the lean per-link state: a link's fault stream and its
per-link delay stream each cost under 1 KiB, a bound fault plan and a
bound per-link ``UniformDelay`` each hold one generator, and a constant
latency keeps no FIFO clock.  Two more pin the one dispatch loop: every sharded
event runs through ``Scheduler.run``, and a serial run's event queue
holds only bound handlers.  The last two pin the in-order lane: under a
constant latency a serial run pops only its wakes from the heap, and a
shard pops no delivery from its heap.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

from repro.core.errors import MessageSizeError, SimulationError
from repro.core.messages import MAX_INT_FIELDS, Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.core.reliable import Ack, Packet, ReliableDelivery
from repro.harness.scenarios import SCENARIOS
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.delays import UniformDelay
from repro.sim.faults import FaultPlan, isolate
from repro.sim.network import Network, SendPath
from repro.sim.scheduler import Scheduler
from repro.sim.shard import ShardedNetwork, _Shard
from repro.topology.chordal_ring import ChordalRingTopology
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

#: Chain messages at the edges of the compiled envelope, which must
#: deliver exactly as the pipeline would.  The ``_LEAVING`` ones leave it
#: and take the pipeline; an int of any width or sign stays in it.
_EDGES = {
    "none_in_int": lambda h: _Hop(h, True, None),
    "true_in_int": lambda h: _Hop(h, False, True),
    "int_in_bool": lambda h: _Hop(h, 1, h),
    "wide_int": lambda h: _Hop(h, True, 2**62),
    "negative_int": lambda h: _Hop(h, False, -h - 1),
    "nested_packet": lambda h: Packet(h, _Hop(h, True, h)),
}
_LEAVING = {"none_in_int", "true_in_int", "int_in_bool"}


class _EdgeNode(Node):
    """Passes a hop counter through port 0 until it reaches ``2n``.

    Every third hop sends the protocol's edge message instead of a plain
    ``_Hop``; the error edges send an unauditable message or use a bad
    port on hop 3 instead.  With ``wrap`` every message leaves inside a
    ``Packet`` envelope, so the edge values ride as a nested payload.
    """

    def __init__(self, ctx, edge: str, wrap: bool) -> None:
        super().__init__(ctx)
        self._edge = edge
        self._wrap = wrap

    def _send(self, port: int, message: Message) -> None:
        self.ctx.send(port, Packet(0, message) if self._wrap else message)

    def on_wake(self, spontaneous):
        if spontaneous:
            self._send(0, _Hop(1, True, 0))

    def on_message(self, port, message):
        while type(message) is Packet:
            message = message.payload
        h = message.hops
        if h >= 2 * self.ctx.n:
            self.become_leader()
            return
        edge = self._edge
        if h == 3 and edge == "too_many_ints":
            self._send(0, _Wide(1, 2, 3, 4, 5, 6, 7))
        elif h == 3 and edge in ("bad_port", "negative_port"):
            self._send(self.ctx.num_ports if edge == "bad_port" else -1,
                       _Hop(h + 1, True, h))
        elif h % 3 == 0 and edge in _EDGES:
            self._send(0, _EDGES[edge](h + 1))
        else:
            self._send(0, _Hop(h + 1, h % 2 == 0, h))


class _EdgeProtocol(ElectionProtocol):
    name = "edge-send-test"

    def __init__(self, edge: str, wrap: bool = False) -> None:
        self.edge = edge
        self.wrap = wrap

    def create_node(self, ctx):
        return _EdgeNode(ctx, self.edge, self.wrap)


_TOPOLOGIES = {
    "cyclic": lambda: complete_with_sense_of_direction(12),
    "table": lambda: complete_without_sense(12, seed=5),
}


def _faults() -> FaultPlan:
    """Every fault the compiled verdict inlines, one partition window
    included (node 5 cut off both ways for t in [1, 4))."""
    return FaultPlan(
        seed=3, drop=0.2, duplicate=0.2, jitter=0.5,
        partitions=isolate(5, range(12), 1.0, 4.0),
    )


#: Ways to run the edge chain: ``(wrap in a Packet, overlay + fault plan,
#: run-RNG UniformDelay)``.  The run-RNG delay model is serial-only.
_SETTINGS = {
    "plain": (False, False, False),
    "packet": (True, False, False),
    "faults": (False, True, False),
    "uniform": (False, False, True),
    "lossy": (False, True, True),
}


def _fields(result) -> dict:
    """Every ``ElectionResult`` field but the trace (snapshots included)."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "trace"
    }


def _networks(edge: str, wiring: str, setting: str = "plain") -> dict:
    """The same run three ways: the reference pipeline (``trace=True``),
    the compiled serial sends, and two in-process shards (unless the
    setting draws delays from the run RNG, which cannot shard)."""
    wrap, faulty, uniform = _SETTINGS[setting]

    def protocol():
        inner = _EdgeProtocol(edge, wrap)
        return ReliableDelivery(inner) if faulty else inner

    kwargs: dict = {"wakeup": {0: 0.0}}
    if faulty:
        kwargs["faults"] = _faults()
    if uniform:
        kwargs["delays"] = UniformDelay(0.05, 1.0)
    networks = {
        "pipeline": Network(
            protocol(), _TOPOLOGIES[wiring](), trace=True, **kwargs
        ),
        "serial": Network(protocol(), _TOPOLOGIES[wiring](), **kwargs),
    }
    if not uniform:
        networks["sharded"] = ShardedNetwork(
            protocol(), _TOPOLOGIES[wiring](), shards=2, workers=0, **kwargs
        )
    return networks


@pytest.mark.perf_smoke
@pytest.mark.parametrize("wiring", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_compiled_and_pipeline_sends_agree(edge, wiring):
    for setting, (wrap, faulty, _uniform) in _SETTINGS.items():
        networks = _networks(edge, wiring, setting)
        outcomes = {
            name: _fields(network.run(require_leader=False))
            for name, network in networks.items()
        }
        sent = Packet if wrap or faulty else _Hop
        assert networks["pipeline"]._send_fns[sent] is SendPath._transmit
        assert networks["serial"]._send_fns[sent] is not SendPath._transmit
        reference = outcomes["pipeline"]
        assert reference["leader_id"] is not None, setting
        if faulty:
            assert reference["messages_dropped"], setting
            assert reference["messages_duplicated"], setting
            assert reference["messages_jittered"], setting
        else:
            assert reference["messages_total"] == 2 * 12, setting
        for name, fields in outcomes.items():
            assert fields == reference, (setting, name)


@pytest.mark.perf_smoke
@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_only_mistyped_values_leave_the_compiled_send(edge):
    network = _networks(edge, "cyclic")["serial"]
    left = []
    transmit = network._transmit

    def recording_transmit(position, port, m):
        left.append(m)
        transmit(position, port, m)

    network._transmit = recording_transmit
    network.run()
    assert bool(left) == (edge in _LEAVING), left


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
    """The same error text in every runtime and setting: with ``packet``
    (and under the overlay) the oversized message is a nested payload."""
    for wiring in sorted(_TOPOLOGIES):
        for setting in _SETTINGS:
            messages = set()
            for network in _networks(edge, wiring, setting).values():
                with pytest.raises(error) as caught:
                    network.run(require_leader=False)
                messages.add(str(caught.value))
            assert len(messages) == 1, (wiring, setting, messages)
            assert text in messages.pop()


@pytest.mark.perf_smoke
def test_a_chordal_ring_refuses_a_port_past_its_degree():
    """The compiled port check bakes the topology's port count, not
    ``n - 1``: a chordal ring has fewer ports than a complete network."""
    ring = ChordalRingTopology(12)
    assert ring.num_ports < 11
    for trace in (True, False):
        network = Network(
            _EdgeProtocol("bad_port"), ChordalRingTopology(12), trace=trace,
            wakeup={0: 0.0},
        )
        with pytest.raises(
            SimulationError, match=f"used invalid port {ring.num_ports}$"
        ):
            network.run(require_leader=False)


# ---------------------------------------------------------------------------
# Tripwires: the fast path is taken, and only when it may be.
# ---------------------------------------------------------------------------


def _lossy_network(n: int, seed: int) -> Network:
    """The ``lossy`` benchmark's build: G(k=8) under the overlay, 10% loss,
    5% duplication, jitter and a run-RNG ``UniformDelay``."""
    topology, kwargs = SCENARIOS["lossy"].build(n, seed, False)
    return Network(
        ReliableDelivery(ProtocolG(k=8)), topology, seed=seed, **kwargs
    )


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
        lambda: _lossy_network(64, seed=3),
    ],
    ids=["C", "B", "E-no-sense", "G", "lossy"],
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
        {"faults": FaultPlan(seed=1, drop=0.1, duplicate=0.05, jitter=0.25)},
    ],
    ids=["trace", "faults"],
)
def test_traced_runs_take_the_pipeline_and_faulty_runs_compile(kwargs):
    """Tracing keeps every send on the pipeline; a fault plan compiles its
    verdict into the send instead."""
    network = Network(
        ReliableDelivery(ProtocolC()), complete_with_sense_of_direction(64),
        **kwargs,
    )
    fns = _send_fns(network)
    assert set(fns) == {Packet, Ack}
    traced = "trace" in kwargs
    assert all((fn is SendPath._transmit) is traced for fn in fns.values()), fns


@pytest.mark.perf_smoke
def test_sharded_overlay_sends_compile(monkeypatch):
    """Payloads cross shards as objects, so the overlay's ``Packet``, with
    its nested message, compiles into a shard send as ``Ack`` does."""
    shards = []
    real_init = _Shard.__init__

    def recording_init(self, cfg, index):
        real_init(self, cfg, index)
        shards.append(self)

    monkeypatch.setattr(_Shard, "__init__", recording_init)
    network = ShardedNetwork(
        ReliableDelivery(ProtocolC()), complete_with_sense_of_direction(64),
        shards=2, workers=0,
        faults=FaultPlan(seed=1, drop=0.1, duplicate=0.05, jitter=0.25),
    )
    network.run()
    assert len(shards) == 2
    for shard in shards:
        fns = shard._send_fns
        assert set(fns) == {Packet, Ack}
        assert all(fn is not SendPath._transmit for fn in fns.values()), fns


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


# ---------------------------------------------------------------------------
# Lean per-link state.
# ---------------------------------------------------------------------------


def _reachable(root) -> list:
    """Every object ``root`` holds, through any depth of containers."""
    seen: set[int] = set()
    stack, found = [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.perf_smoke
def test_a_links_fault_state_costs_under_a_kibibyte():
    active = FaultPlan(seed=7, drop=0.1, duplicate=0.05, jitter=0.5).bind()
    links = 2_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src in range(links):
            active.judge(src, src + 1, 0.0)
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(active._links) == links
    assert cost / links <= 1024, f"{cost / links:.0f} B per link"


@pytest.mark.perf_smoke
def test_a_links_delay_stream_costs_under_a_kibibyte():
    model = UniformDelay(0.05, 1.0, min_latency=0.05).bind()
    links = 2_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src in range(links):
            model.latency(src, src + 1, None, 0.0, None)
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(model._streams) == links
    assert cost / links <= 1024, f"{cost / links:.0f} B per link"


@pytest.mark.perf_smoke
def test_a_lossy_runs_fault_plan_holds_one_generator():
    network = _lossy_network(64, seed=3)
    active = network._faults
    result = network.run()
    assert result.messages_dropped and len(active._links) > 100
    # Not imported: a module importing ``random`` has its protocols (the
    # edge chain above) refused by the sharded runtime.
    generator = sys.modules["random"].Random
    assert sum(isinstance(obj, generator) for obj in _reachable(active)) == 1


@pytest.mark.perf_smoke
def test_a_runs_per_link_delay_model_holds_one_generator():
    network = Network(
        ProtocolE(), complete_without_sense(64, seed=3),
        delays=UniformDelay(0.05, 1.0, min_latency=0.05), seed=3,
    )
    bound = network.delays
    network.run()
    assert len(bound._streams) > 100
    generator = sys.modules["random"].Random
    assert sum(isinstance(obj, generator) for obj in _reachable(bound)) == 1


@pytest.mark.perf_smoke
def test_constant_latency_runs_keep_no_fifo_clock(monkeypatch):
    """A constant latency cannot reorder a link, so neither runtime
    records last arrivals; the link loads are still counted."""
    paths = []
    checked = 0
    real_run = Scheduler.run

    def checking_run(self, **kwargs):
        nonlocal checked
        real_run(self, **kwargs)
        for path in paths:
            assert not path._lasts
            checked += 1

    real_init = _Shard.__init__

    def recording_init(self, cfg, index):
        real_init(self, cfg, index)
        paths.append(self)

    monkeypatch.setattr(Scheduler, "run", checking_run)
    monkeypatch.setattr(_Shard, "__init__", recording_init)
    serial = Network(ProtocolC(), complete_with_sense_of_direction(64))
    paths.append(serial)
    assert serial.run().max_channel_load >= 1
    paths.clear()
    sharded = ShardedNetwork(
        ProtocolC(), complete_with_sense_of_direction(64), shards=2, workers=0
    )
    assert sharded.run().max_channel_load >= 1
    assert len(paths) == 2 and all(path._loads for path in paths)
    assert checked > 2


# ---------------------------------------------------------------------------
# One dispatch loop for both runtimes.
# ---------------------------------------------------------------------------


@pytest.mark.perf_smoke
def test_every_shard_event_passes_through_the_scheduler_loop(monkeypatch):
    """A shard's window is a ``Scheduler.run`` call, not a loop of its own."""
    assert not [
        name for name in ("_dispatch", "_wake_entry", "_crash_entry",
                          "_deliver_entry")
        if name in vars(_Shard)
    ]
    for name in ("pop_due", "advance_clock", "consume_budget"):
        assert not hasattr(Scheduler, name), name
    through_run = 0
    real_run = Scheduler.run

    def counting_run(self, **kwargs):
        nonlocal through_run
        before = self.events_processed
        try:
            real_run(self, **kwargs)
        finally:
            through_run += self.events_processed - before

    monkeypatch.setattr(Scheduler, "run", counting_run)
    network = ShardedNetwork(
        ProtocolC(), complete_with_sense_of_direction(256), shards=2, workers=0
    )
    network.run()
    assert network.stats["events_total"] > 0
    assert through_run == network.stats["events_total"]


@pytest.mark.perf_smoke
def test_a_serial_run_schedules_no_closure_entries(monkeypatch):
    """Every entry a serial run holds — wakes, crashes, deliveries,
    timers, on the heap or in the in-order lane — is dispatched by a
    bound handler of its network.  The lossy run's deliveries sit on the
    heap; the constant-latency run's in the lane."""
    actions = []
    real_run = Scheduler.run

    def entries(queue):
        return [*queue.heap, *queue.lane]

    def spying_run(self, **kwargs):
        actions.extend(entry[2] for entry in entries(self._queue))
        real_run(self, **kwargs)
        actions.extend(entry[2] for entry in entries(self._queue))

    monkeypatch.setattr(Scheduler, "run", spying_run)
    for faults in (FaultPlan(seed=1, drop=0.1), None):
        actions.clear()
        network = Network(
            ReliableDelivery(ProtocolC()),
            complete_with_sense_of_direction(64),
            crash_schedule={5: 1.0},
            faults=faults,
        )
        network.run(until=2.5, require_leader=False)
        kinds = {action.__func__.__name__ for action in actions}
        assert kinds >= {"_wake_entry", "_crash_entry", "_deliver_entry",
                         "_timer_entry"}, kinds
        assert all(action.__self__ is network for action in actions)
        lane = [entry[2].__func__.__name__ for entry in network._queue.lane]
        assert lane if faults is None else not lane
        assert set(lane) <= {"_deliver_entry"}


def _count_heap_pops(monkeypatch) -> list[str]:
    """Record the handler name of every entry popped from any heap."""
    popped = []
    real_heappop = heapq.heappop

    def counting_heappop(heap):
        entry = real_heappop(heap)
        popped.append(entry[2].__func__.__name__)
        return entry

    monkeypatch.setattr(heapq, "heappop", counting_heappop)
    return popped


@pytest.mark.perf_smoke
def test_constant_latency_deliveries_bypass_the_heap(monkeypatch):
    """Under a constant latency with no fault plan, a serial C@1024 pops
    only its N wakes from the heap; every delivery comes off the lane."""
    popped = _count_heap_pops(monkeypatch)
    network = Network(ProtocolC(), complete_with_sense_of_direction(1024))
    network.run()
    assert network.scheduler.events_processed > 2 * 1024
    assert popped == ["_wake_entry"] * 1024


@pytest.mark.perf_smoke
def test_shard_deliveries_bypass_the_shard_heaps(monkeypatch):
    """A shard sorts each window's deliveries into its lane: its heap
    pops only its wakes, crashes and timers."""
    popped = _count_heap_pops(monkeypatch)
    network = ShardedNetwork(
        ReliableDelivery(ProtocolC()), complete_with_sense_of_direction(256),
        shards=2, workers=0, crash_schedule={5: 1.5},
    )
    network.run(require_leader=False)
    assert network.stats["events_total"] > 2 * 256
    assert "_deliver_entry" not in popped
    assert {"_wake_entry", "_crash_entry", "_timer_entry"} <= set(popped)


#: Runs every registered protocol at N=64 with sense of direction (cyclic
#: wiring), no fault plan, no tracing and the default ``ConstantDelay``,
#: serially and on two in-process shards, and prints per runtime how many
#: sends were compiled and a sha256 of their generated source.  It runs in
#: a fresh interpreter, so its spy on ``compile`` and its emptying of the
#: send cache touch no other test.
_PLAIN_SOURCES_SCRIPT = r"""
import hashlib
import json

import repro.sim.network as network
from repro.core.protocol import registered_protocols
from repro.sim.shard import ShardedNetwork
from repro.topology.complete import complete_with_sense_of_direction

sources = {"serial": {}, "shard": {}}
runtime = "serial"


def spy(source, filename, mode):
    sources[runtime][filename] = source
    return compile(source, filename, mode)


network.compile = spy
for name, cls in sorted(registered_protocols().items()):
    for runtime in sources:
        network._SEND_CACHE.clear()
        topology = complete_with_sense_of_direction(64)
        if runtime == "serial":
            network.Network(cls(), topology, seed=1).run()
        else:
            ShardedNetwork(cls(), topology, shards=2, workers=0, seed=1).run()
print(json.dumps({
    runtime: [
        len(found),
        hashlib.sha256(
            "".join(f"{k}\n{v}\n" for k, v in sorted(found.items())).encode()
        ).hexdigest(),
    ]
    for runtime, found in sources.items()
}))
"""

#: The output of that script on the compiled send before fault verdicts,
#: nested payloads, run-RNG uniform delays and direct table reads joined
#: it: those must not change a single byte a plain cyclic run compiles.
#: The serial entry was re-pinned once, when a constant-latency serial
#: send began appending its delivery to the event queue's in-order lane
#: instead of pushing it onto the heap; the shard entry did not move.
_PLAIN_SOURCES = {
    "serial": [
        39, "1d20ad3eae88fd797ce94aef7236e2fa46cc20485ec561f9f8c67ed414972778"
    ],
    "shard": [
        39, "33a5f5580dd5c0e27bde7f536aea4ac0f9c1df883eff93fee19cd6ba6cfa8203"
    ],
}


@pytest.mark.perf_smoke
def test_plain_runs_compile_the_pinned_sources():
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, path)))}
    out = subprocess.run(
        [sys.executable, "-c", _PLAIN_SOURCES_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == _PLAIN_SOURCES
