"""Sharded-kernel tests: the digest contract, budgets, gating, transport.

The sharded kernel's one hard promise (docs/performance.md, "Sharded
execution") is **digest equality**: for any shardable configuration, a
sharded run must agree with the serial kernel on every deterministic
result field — the same fingerprint the determinism suite pins — at any
shard count, in-process or forked, faults included.  These tests enforce
that promise against the committed seed fixtures, plus the global
livelock budget, the configuration gates, and the object lanes that
carry sends between shards.

The ``shard_smoke`` marker is the CI smoke leg: small-N, two shards,
digest-checked against the frozen fixture file.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from repro.adversary import wakeup as adversary_wakeup
from repro.adversary.delays import congested_links, worst_case_unit
from repro.core.errors import (
    ConfigurationError,
    LivelockError,
    ProtocolViolation,
    SimulationError,
)
from repro.core.messages import Message
from repro.core.node import Node
from repro.core.protocol import ElectionProtocol
from repro.core.reliable import ReliableDelivery
from repro.protocols.nosense.protocol_d import ProtocolD
from repro.protocols.nosense.protocol_e import ProtocolE
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.nosense.protocol_r import ProtocolR
from repro.protocols.random import RandomizedSampling, RandomizedTradeoff
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim import shard as sim_shard
from repro.sim.delays import ConstantDelay, HookDelay, UniformDelay
from repro.sim.faults import FaultPlan, isolate
from repro.sim.network import run_election
from repro.sim.scheduler import Scheduler
from repro.sim.shard import ShardedNetwork, run_sharded_election
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from tests.sim.determinism_cases import FIXTURE_PATH, fingerprint

# ---------------------------------------------------------------------------
# Shardable mirrors of the determinism cases: same configuration as
# tests/sim/determinism_cases.CASES, parameterised by the runner, so the
# sharded fingerprints can be compared against the frozen seed fixtures.
# E@64-uniform is deliberately absent: UniformDelay consumes the shared
# run RNG and is serial-only (see test_uniform_delay_is_refused).
# ---------------------------------------------------------------------------


def _g32_partition_config():
    topology = complete_without_sense(32, seed=4)
    return {
        "protocol": ReliableDelivery(ProtocolG(k=4)),
        "topology": topology,
        "faults": FaultPlan(
            seed=4, drop=0.05,
            partitions=isolate(max(topology.ids), topology.ids, 1.0, 4.0),
        ),
        "seed": 4,
    }


SHARDABLE_CASES = {
    "C@64": lambda: {
        "protocol": ProtocolC(),
        "topology": complete_with_sense_of_direction(64),
    },
    "B@32-unit": lambda: {
        "protocol": ProtocolB(),
        "topology": complete_with_sense_of_direction(32),
        "delays": worst_case_unit(),
    },
    "C@32-chain": lambda: {
        "protocol": ProtocolC(),
        "topology": complete_with_sense_of_direction(32),
        "delays": worst_case_unit(),
        "wakeup": adversary_wakeup.staggered_chain(),
    },
    "D@32": lambda: {
        "protocol": ProtocolD(),
        "topology": complete_without_sense(32, seed=1),
        "seed": 1,
    },
    "G@64-k8": lambda: {
        "protocol": ProtocolG(k=8),
        "topology": complete_without_sense(64, seed=3),
        "delays": worst_case_unit(),
        "seed": 3,
    },
    "R@64-lone-base": lambda: {
        "protocol": ProtocolR(),
        "topology": complete_without_sense(64, seed=5),
        "wakeup": {0: 0.0},
        "seed": 5,
    },
    "E@32-congested": lambda: {
        "protocol": ProtocolE(),
        "topology": complete_without_sense(32, seed=7),
        "delays": congested_links(),
        "seed": 7,
    },
    "E@32-lossy-rel": lambda: {
        "protocol": ReliableDelivery(ProtocolE()),
        "topology": complete_without_sense(32, seed=9),
        "faults": FaultPlan(seed=9, drop=0.10, duplicate=0.05, jitter=0.25),
        "seed": 9,
    },
    "G@32-partition-rel": _g32_partition_config,
    "E@16-crash": lambda: {
        "protocol": ProtocolE(),
        "topology": complete_without_sense(16, seed=6),
        "faults": FaultPlan(seed=6, crashes={3: 1.0, 11: 2.5}),
        "seed": 6,
        "require_leader": False,
    },
    # Randomized protocols shard cleanly by construction: each node's coin
    # stream is derived from (run seed, node id) alone, so draws are
    # identical regardless of which shard hosts the node.
    "RS@64": lambda: {
        "protocol": RandomizedSampling(),
        "topology": complete_without_sense(64, seed=11),
        "seed": 11,
    },
    "RT@64-unit": lambda: {
        "protocol": RandomizedTradeoff(),
        "topology": complete_without_sense(64, seed=12),
        "delays": worst_case_unit(),
        "seed": 12,
    },
    "RS@32-lossy-rel": lambda: {
        "protocol": ReliableDelivery(RandomizedSampling()),
        "topology": complete_without_sense(32, seed=13),
        "faults": FaultPlan(seed=13, drop=0.10, duplicate=0.05, jitter=0.25),
        "seed": 13,
    },
}

#: The exhaustive digest matrix (fixture equality at two shard counts);
#: the smoke slice runs a subset at shards=2 only.
FULL_MATRIX_CASES = sorted(SHARDABLE_CASES)
SMOKE_CASES = ("C@64", "B@32-unit", "G@64-k8", "E@32-lossy-rel", "RS@64")


def _run_sharded(name: str, shards: int, workers: int | None = 0):
    config = SHARDABLE_CASES[name]()
    protocol = config.pop("protocol")
    topology = config.pop("topology")
    return run_sharded_election(
        protocol, topology, shards=shards, workers=workers, **config
    )


def _fixture(name: str) -> dict:
    return json.loads(FIXTURE_PATH.read_text())[name]


# ---------------------------------------------------------------------------
# The digest contract (satellite: fixtures at two shard counts + lossy).
# ---------------------------------------------------------------------------


@pytest.mark.shard_smoke
@pytest.mark.parametrize("name", SMOKE_CASES)
def test_sharded_digest_matches_seed_fixture_smoke(name):
    """The CI smoke leg: 2 shards, digest-checked against the fixture."""
    assert fingerprint(_run_sharded(name, shards=2)) == _fixture(name)


@pytest.mark.parametrize("name", FULL_MATRIX_CASES)
@pytest.mark.parametrize("shards", (2, 3))
def test_sharded_digest_matches_seed_fixture(name, shards):
    actual = fingerprint(_run_sharded(name, shards=shards))
    assert actual == _fixture(name), (
        f"{name} at {shards} shards diverged from the serial seed "
        "fixture: the sharded kernel broke the digest contract"
    )


def test_lossy_overlay_case_is_exact_under_sharding():
    """The full fault stack (drop/dup/jitter + retransmission overlay)
    reproduces every overlay counter, not just the election outcome."""
    sharded = fingerprint(_run_sharded("E@32-lossy-rel", shards=3))
    fixture = _fixture("E@32-lossy-rel")
    for key in (
        "messages_dropped", "messages_duplicated", "messages_jittered",
        "retransmissions", "duplicates_suppressed",
    ):
        assert sharded[key] == fixture[key], key


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: (ProtocolC(), complete_with_sense_of_direction(64), {}),
        lambda: (
            ProtocolG(k=8),
            complete_without_sense(64, seed=3),
            {"delays": worst_case_unit(), "seed": 3},
        ),
        lambda: (
            ReliableDelivery(ProtocolE()),
            complete_without_sense(32, seed=9),
            {
                "faults": FaultPlan(
                    seed=9, drop=0.10, duplicate=0.05, jitter=0.25
                ),
                "seed": 9,
            },
        ),
    ],
    ids=["C@64", "G@64-k8", "E@32-lossy-rel"],
)
def test_resharding_never_changes_leader_or_message_counts(make_config):
    """Re-sharding property: 1, 2 and 4 shards agree on every field."""
    prints = []
    for shards in (1, 2, 4):
        protocol, topology, kwargs = make_config()
        prints.append(
            fingerprint(
                run_sharded_election(
                    protocol, topology, shards=shards, workers=0, **kwargs
                )
            )
        )
    assert prints[0] == prints[1] == prints[2]
    serial_protocol, serial_topology, serial_kwargs = make_config()
    serial = fingerprint(
        run_election(serial_protocol, serial_topology, **serial_kwargs)
    )
    assert prints[0] == serial


@pytest.mark.shard_smoke
def test_forked_workers_match_in_process_shards():
    """The fork transport is a pure transport: same digest either way."""
    in_process = fingerprint(_run_sharded("C@64", shards=2, workers=0))
    forked = fingerprint(_run_sharded("C@64", shards=2, workers=2))
    assert in_process == forked == _fixture("C@64")


def _transport_of(name: str, shards: int, workers: int) -> str:
    config = SHARDABLE_CASES[name]()
    protocol = config.pop("protocol")
    topology = config.pop("topology")
    net = ShardedNetwork(
        protocol, topology, shards=shards, workers=workers, **config
    )
    net.run()
    return net.stats["transport"]


@pytest.mark.shard_smoke
def test_forked_lossy_cell_matches_fixture():
    """The heaviest fault cell (drop/dup/jitter + retransmission overlay)
    over forked workers: overlay packets cross the pipes as payload
    objects on the remote and timer lanes, and the digest equals the
    serial fixture."""
    forked = fingerprint(_run_sharded("E@32-lossy-rel", shards=2, workers=2))
    assert forked == _fixture("E@32-lossy-rel")


def test_transport_stat_reports_the_exchange_in_use():
    assert _transport_of("C@64", shards=2, workers=0) == "local"
    assert _transport_of("C@64", shards=2, workers=2) == "pipes"


def test_worker_exceptions_are_relayed_with_their_type():
    with pytest.raises(LivelockError):
        run_sharded_election(
            ProtocolC(),
            complete_with_sense_of_direction(64),
            shards=2,
            workers=2,
            max_events=50,
        )


def test_sharded_run_needs_no_numpy():
    """The kernel never imports numpy: in an interpreter where ``import
    numpy`` fails, a 2-shard C@64 election (in-process and forked) still
    reproduces the serial fixture."""
    root = Path(__file__).resolve().parents[2]
    script = "\n".join(
        [
            "import json, sys",
            "sys.modules['numpy'] = None",
            "from repro.protocols.sense.protocol_c import ProtocolC",
            "from repro.sim.shard import run_sharded_election",
            "from repro.topology.complete import "
            "complete_with_sense_of_direction",
            "from tests.sim.determinism_cases import fingerprint",
            "print(json.dumps([fingerprint(run_sharded_election(",
            "    ProtocolC(), complete_with_sense_of_direction(64),",
            "    shards=2, workers=w)) for w in (0, 2)]))",
        ]
    )
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    in_process, forked = json.loads(proc.stdout)
    assert in_process == forked == _fixture("C@64")


# ---------------------------------------------------------------------------
# Failure paths: what a broken worker looks like from the coordinator.
# ---------------------------------------------------------------------------

#: The test process; forked shard workers see a different pid.
_TEST_PID = os.getpid()


class _FailingChainNode(Node):
    """Chains a :class:`_Census` through port 0 and fails (``fail``) at
    hop ``fail_at``, after several windows have already run.

    On :func:`_run_failing_chain`'s wiring the chain visits positions 3,
    7, 0, 3, 7, 0, ...: hop 7 lands on position 3, which is shard 1 of
    2.  A forked run forks shard 1 and runs shard 0 in this process, so
    the failing hop runs in a real worker.
    """

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(0, _Census(1, 0))

    def on_message(self, port, message):
        if message.hops == self.fail_at:
            self.fail()
        self.ctx.send(0, _Census(message.hops + 1, 0))


class _RaisingNode(_FailingChainNode):
    def fail(self):
        raise ValueError(f"boom at hop {self.fail_at}")


class _SelfKillingNode(_FailingChainNode):
    def fail(self):
        # Only ever inside a forked worker: never take the test run down.
        if os.getpid() != _TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)


class _BlockingNode(_FailingChainNode):
    def fail(self):
        # Only ever inside a forked worker: the coordinator keeps waiting.
        if os.getpid() != _TEST_PID:
            time.sleep(60)


class _FailingChainProtocol(ElectionProtocol):
    name = "failing-chain-test"
    fail_at = 7

    def __init__(self, node_cls):
        self.node_cls = node_cls

    def create_node(self, ctx):
        node = self.node_cls(ctx)
        node.fail_at = self.fail_at
        return node


def _run_failing_chain(node_cls, workers: int):
    return run_sharded_election(
        _FailingChainProtocol(node_cls),
        complete_without_sense(12, seed=4),
        shards=2, workers=workers, wakeup={0: 0.0}, seed=4,
        require_leader=False,
    )


@pytest.mark.parametrize("workers", (0, 2))
def test_protocol_errors_keep_their_builtin_type_across_transports(workers):
    """A handler's ``ValueError`` surfaces as ``ValueError`` whether the
    shard ran in-process or in a forked worker."""
    with pytest.raises(ValueError, match="boom at hop 7"):
        _run_failing_chain(_RaisingNode, workers)


def _shm_entries() -> set[str]:
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def test_killed_worker_fails_fast_and_leaks_nothing():
    """SIGKILL a forked worker mid-run: the coordinator raises within a
    bounded time, naming the shard and the window it died in, and no
    segment or child process outlives the run."""
    before = _shm_entries()

    def hung(signum, frame):
        raise TimeoutError("the coordinator hung on a killed worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        # Hop 7 is delivered at t=7, in the window [7, 8): the eighth.
        with pytest.raises(
            SimulationError,
            match=r"^shard 1 worker exited unexpectedly \(killed or crashed "
            r"hard\) in window 8 \(start t=7\.0\)$",
        ):
            _run_failing_chain(_SelfKillingNode, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _shm_entries() - before == set()
    assert multiprocessing.active_children() == []


def test_ctrl_c_during_drive_cleans_up():
    """Ctrl-C while the coordinator waits on a blocked worker: the
    ``KeyboardInterrupt`` propagates within a bounded time, and no segment
    or child process outlives the run."""
    before = _shm_entries()
    fired = []

    def interrupt(signum, frame):
        if fired:
            raise TimeoutError("the coordinator hung after Ctrl-C")
        fired.append(time.perf_counter())
        signal.alarm(29)  # the outer guard, 30 s from the start
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(KeyboardInterrupt):
            _run_failing_chain(_BlockingNode, workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert fired, "the run finished before the interrupt"
    assert time.perf_counter() - start < 30
    assert _shm_entries() - before == set()
    assert multiprocessing.active_children() == []


def test_a_worker_that_fails_to_start_leaks_no_started_peer(monkeypatch):
    """The second forked worker (shard 2 of 3; shard 0 runs in this
    process) fails to start: the error propagates and the first worker,
    already running, does not outlive the run."""
    real_init = sim_shard._ForkHandle.__init__
    started = []

    def failing_init(self, context, cfg, index):
        if index == 2:
            raise OSError("no process for shard worker 2")
        real_init(self, context, cfg, index)
        started.append(index)

    monkeypatch.setattr(sim_shard._ForkHandle, "__init__", failing_init)
    with pytest.raises(OSError, match="no process for shard worker 2"):
        run_sharded_election(
            ProtocolC(), complete_with_sense_of_direction(64),
            shards=3, workers=3,
        )
    assert started == [1]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# The global livelock budget (satellite: multi-scheduler accounting).
# ---------------------------------------------------------------------------


class TestGlobalBudget:
    def test_budget_is_global_across_shards_not_per_shard(self):
        """A budget the serial kernel exhausts must also trip sharded —
        k shards may not spend k× the serial allowance."""
        with pytest.raises(LivelockError):
            run_election(
                ProtocolC(), complete_with_sense_of_direction(64),
                max_events=100,
            )
        for shards in (1, 2, 4):
            # Whichever trips, a shard (alone at shards=1) or the
            # coordinator, the message names the run's budget, as the
            # serial one does.
            with pytest.raises(LivelockError, match="event budget of 100 "):
                run_sharded_election(
                    ProtocolC(), complete_with_sense_of_direction(64),
                    shards=shards, workers=0, max_events=100,
                )

    def test_budget_sufficient_for_serial_is_sufficient_sharded(self):
        serial_net_events = 0
        from repro.sim.network import Network

        net = Network(ProtocolC(), complete_with_sense_of_direction(32))
        net.run()
        serial_net_events = net.scheduler.events_processed
        result = run_sharded_election(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=4, workers=0, max_events=serial_net_events,
        )
        assert result.leader_id is not None

    def test_scheduler_set_max_events_rejects_past_budgets(self):
        scheduler = Scheduler(max_events=10)
        scheduler.schedule_payload(1.0, lambda entry: None, 0, ())
        scheduler.run()
        assert scheduler.events_processed == 1
        with pytest.raises(Exception, match="below the 1 events"):
            scheduler.set_max_events(0)
        scheduler.set_max_events(1)
        assert scheduler.max_events == 1


# ---------------------------------------------------------------------------
# Configuration gating: what the sharded kernel refuses, loudly.
# ---------------------------------------------------------------------------


class TestGating:
    def test_uniform_delay_is_refused(self):
        with pytest.raises(ConfigurationError, match="run RNG"):
            ShardedNetwork(
                ProtocolE(), complete_without_sense(16, seed=0),
                shards=2, delays=UniformDelay(0.1, 1.0),
            )

    def test_undeclared_uniform_delay_refusal_message_is_exact(self):
        """The refusal must say *why* and name every way out; callers are
        pointed at the refusal text by docs/matrix.md, so it is pinned
        verbatim."""
        with pytest.raises(ConfigurationError) as exc:
            ShardedNetwork(
                ProtocolE(), complete_without_sense(16, seed=0),
                shards=2, delays=UniformDelay(0.1, 1.0),
            )
        assert str(exc.value) == (
            "UniformDelay consumes the shared run RNG; sharded execution "
            "cannot reproduce a global draw order (use ConstantDelay, a "
            "HookDelay with min_latency, or UniformDelay(min_latency=...) "
            "for per-link streams)"
        )

    def test_uniform_delay_with_declared_bound_is_accepted(self):
        result = run_sharded_election(
            ProtocolE(), complete_without_sense(16, seed=0),
            shards=2, workers=0,
            delays=UniformDelay(0.1, 1.0, min_latency=0.1),
        )
        assert result.leader_id is not None

    @pytest.mark.parametrize("shards", (2, 3))
    def test_uniform_delay_streams_match_serial_exactly(self, shards):
        """Per-link streams draw in per-link FIFO order, which the digest
        contract fixes — so serial and sharded runs agree on every delay."""
        def make():
            return (
                ProtocolE(),
                complete_without_sense(32, seed=5),
                UniformDelay(0.05, 1.0, min_latency=0.05, stream_seed=5),
            )

        protocol, topology, delays = make()
        serial = fingerprint(
            run_election(protocol, topology, delays=delays, seed=5)
        )
        protocol, topology, delays = make()
        sharded = fingerprint(
            run_sharded_election(
                protocol, topology, shards=shards, workers=0,
                delays=delays, seed=5,
            )
        )
        assert serial == sharded

    def test_one_uniform_delay_object_gives_every_run_the_same_delays(self):
        """The per-link streams are per-run state: reusing one model object
        across serial, in-process and forked sharded runs changes nothing."""
        delays = UniformDelay(0.05, 1.0, min_latency=0.05)

        def inputs():
            return ProtocolG(k=4), complete_without_sense(40, seed=4)

        runs = [
            run_election(*inputs(), delays=delays, seed=4),
            run_election(*inputs(), delays=delays, seed=4),
            run_sharded_election(
                *inputs(), shards=2, workers=0, delays=delays, seed=4
            ),
            run_sharded_election(
                *inputs(), shards=2, workers=2, delays=delays, seed=4
            ),
        ]
        first = fingerprint(runs[0])
        assert all(fingerprint(result) == first for result in runs[1:])
        assert runs[0].leader_id is not None

    def test_uniform_delay_min_latency_must_not_exceed_low(self):
        with pytest.raises(ConfigurationError, match="min_latency"):
            UniformDelay(0.1, 1.0, min_latency=0.2)
        with pytest.raises(ConfigurationError, match="min_latency"):
            UniformDelay(0.1, 1.0, min_latency=0.0)

    def test_hook_delay_without_min_latency_is_refused(self):
        with pytest.raises(ConfigurationError, match="min_latency"):
            ShardedNetwork(
                ProtocolE(), complete_without_sense(16, seed=0),
                shards=2, delays=HookDelay(lambda *a: 0.5),
            )

    def test_hook_delay_with_declared_bound_is_accepted(self):
        result = run_sharded_election(
            ProtocolE(), complete_without_sense(16, seed=0),
            shards=2, workers=0,
            delays=HookDelay(lambda *a: 0.5, min_latency=0.5),
        )
        assert result.leader_id is not None

    def test_hook_delay_rejects_non_positive_bound_at_construction(self):
        with pytest.raises(ConfigurationError, match="positive"):
            HookDelay(lambda *a: 0.5, min_latency=0.0)

    def test_shard_count_must_be_in_range(self):
        topology = complete_without_sense(16, seed=0)
        for bad in (0, -1, 17):
            with pytest.raises(ConfigurationError, match="shards"):
                ShardedNetwork(ProtocolE(), topology, shards=bad)

    @pytest.mark.parametrize("flag", (True, False))
    def test_shard_count_must_not_be_a_bool(self, flag):
        """``bool`` is an ``int``: ``shards=True`` once ran one shard."""
        topology = complete_without_sense(16, seed=0)
        with pytest.raises(
            ConfigurationError,
            match=r"shards must be an integer in \[1, n=16\], "
            f"got {flag!r}",
        ):
            ShardedNetwork(ProtocolE(), topology, shards=flag)

    @pytest.mark.parametrize("workers", [-1, True, 2.5, "2"])
    def test_worker_count_must_be_none_or_a_non_negative_int(self, workers):
        with pytest.raises(
            ConfigurationError,
            match=rf"workers must be None or an integer >= 0, got {workers!r}",
        ):
            ShardedNetwork(
                ProtocolC(), complete_with_sense_of_direction(8),
                shards=2, workers=workers,
            )

    def test_cli_rejects_a_negative_worker_count(self):
        from repro.__main__ import main

        with pytest.raises(ConfigurationError, match="got -3"):
            main([
                "run", "--protocol", "C", "--n", "8",
                "--shards", "2", "--shard-workers", "-3",
            ])

    def test_lookahead_is_the_delay_models_min_latency(self):
        network = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=2, delays=ConstantDelay(0.25),
        )
        assert network.lookahead == 0.25

    def test_a_sharded_network_runs_once(self):
        from repro.core.errors import SimulationError

        network = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=2, workers=0,
        )
        network.run()
        with pytest.raises(SimulationError, match="once"):
            network.run()


# ---------------------------------------------------------------------------
# Sends crossing shards as objects.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Nudge(Message):
    """A field-less message."""


@dataclass(frozen=True, slots=True)
class _Census(Message):
    hops: int
    tally: int


@dataclass(frozen=True, slots=True)
class _Blob(Message):
    """A tuple field keeps the class off the compiled send."""

    hops: tuple


class _MixedLaneNode(Node):
    """Chains through port 0, mixing compiled and pipeline sends.

    Every third hop the chained :class:`_Census` carries a wide tally
    (``2**62``), which the compiled send takes as it takes any int;
    every fourth hop adds a tuple-carrying :class:`_Blob`, which takes
    the pipeline; every remaining hop adds a field-less :class:`_Nudge`.
    One window therefore mixes compiled sends, empty payloads, wide ints
    and tuple fields on the same links, all crossing shards as objects.
    """

    _BIG = 1 << 62
    _PORT = 0

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(self._PORT, _Census(1, 0))

    def on_message(self, port, message):
        if not isinstance(message, _Census):
            return
        h = message.hops
        if h >= 2 * self.ctx.n:
            self.become_leader()
            return
        if h % 4 == 0:
            self.ctx.send(self._PORT, _Blob((h,)))
        elif h % 3 != 0:
            self.ctx.send(self._PORT, _Nudge())
        tally = self._BIG if h % 3 == 0 else h
        self.ctx.send(self._PORT, _Census(h + 1, tally))


class _MixedLaneProtocol(ElectionProtocol):
    name = "mixed-lane-test"

    def create_node(self, ctx):
        return _MixedLaneNode(ctx)


class TestObjectLane:
    """Sends of every shape cross shards, and pipes, as payload objects."""

    @pytest.mark.parametrize("shards", (2, 3))
    def test_mixed_fast_and_slow_windows_round_trip(self, shards):
        """End-to-end lane mixing: over-limit ints, tuple fields and empty
        payloads interleave with compiled sends inside single windows, and
        the sharded digest still equals the serial one."""
        serial = fingerprint(
            run_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                wakeup={0: 0.0},
                seed=4,
                require_leader=False,
            )
        )
        sharded = fingerprint(
            run_sharded_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                shards=shards,
                workers=0,
                wakeup={0: 0.0},
                seed=4,
                require_leader=False,
            )
        )
        assert serial == sharded

    def test_mixed_lane_windows_round_trip_over_forked_workers(self):
        """Same mixing, but across the fork transport: every remote
        payload, ``_Blob`` and ``2**62`` included, is pickled through the
        worker pipes."""
        in_process = fingerprint(
            run_sharded_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                shards=2, workers=0, wakeup={0: 0.0}, seed=4,
                require_leader=False,
            )
        )
        forked = fingerprint(
            run_sharded_election(
                _MixedLaneProtocol(),
                complete_without_sense(12, seed=4),
                shards=2, workers=2, wakeup={0: 0.0}, seed=4,
                require_leader=False,
            )
        )
        assert in_process == forked


class _SameShardNode(_MixedLaneNode):
    """:class:`_MixedLaneNode`'s chain through port 1 instead of port 0.

    On the sense-of-direction wiring port 1 reaches ``position + 2``, so a
    chain started at position 0 never leaves the even positions: at two
    strided shards every send is same-shard, the ``_Blob`` and ``2**62``
    payloads included.
    """

    _PORT = 1


class _SameShardProtocol(ElectionProtocol):
    name = "same-shard-test"

    def create_node(self, ctx):
        return _SameShardNode(ctx)


def _lane_run(protocol, topology, shards, workers, **kwargs):
    network = ShardedNetwork(
        protocol, topology, shards=shards, workers=workers, **kwargs
    )
    result = network.run(require_leader=False)
    return result, network.stats["records"]


class TestLanes:
    """Every send takes exactly one lane: local (same shard, delivery- or
    wake-ranked), remote (another shard, delivery- or wake-ranked) or
    timer (every timer-ranked send)."""

    def test_every_lane_is_exercised_and_exact(self):
        mixed = {"wakeup": {0: 0.0}, "seed": 4}
        cases = [
            (
                lambda: {
                    "protocol": _MixedLaneProtocol(),
                    "topology": complete_without_sense(12, seed=4),
                    **mixed,
                },
                fingerprint(
                    run_election(
                        _MixedLaneProtocol(),
                        complete_without_sense(12, seed=4),
                        require_leader=False, **mixed,
                    )
                ),
            ),
            (SHARDABLE_CASES["C@64"], _fixture("C@64")),
            # The overlay's retransmission timers send under timer ranks.
            (SHARDABLE_CASES["E@32-lossy-rel"], _fixture("E@32-lossy-rel")),
        ]
        seen = {"local": 0, "remote": 0, "timer": 0}
        for shards in (2, 3):
            for workers in (0, shards):
                for make_config, expected in cases:
                    config = make_config()
                    result, records = _lane_run(
                        config.pop("protocol"), config.pop("topology"),
                        shards, workers, **config,
                    )
                    # One record per copy put on the wire: a dropped send
                    # has none, a duplicated one two.
                    assert sum(records.values()) == (
                        result.messages_total - result.messages_dropped
                        + result.messages_duplicated
                    )
                    assert fingerprint(result) == expected
                    for lane, count in records.items():
                        seen[lane] += count
        assert all(seen.values()), seen

    @pytest.mark.parametrize("workers", (0, 2))
    def test_own_shard_timer_payloads_never_leave_their_shard(
        self, workers, monkeypatch
    ):
        """A timer-ranked send to the sender's own shard keeps its payload
        in the shard, as a local-lane send does: the coordinator routes
        only its rank, so no routed batch carries a timer payload back to
        the shard that sent it.  The overlay's retransmissions resend on
        their own links, so E@32-lossy-rel makes such sends.  The spy sees
        the shards that run in this process: all of them in-process, shard
        0 of a forked run."""
        real_decode = sim_shard._Shard._decode_incoming
        real_run_window = sim_shard._Shard.run_window
        #: Shards handed a routed batch from themselves.
        echoed = []
        #: Each window's local lane, as the shards return it.
        lanes = []

        def decode(shard, incoming, local_keys):
            if incoming[shard.index] is not None:
                echoed.append(shard.index)
            real_decode(shard, incoming, local_keys)

        def run_window(shard, *args):
            reply = real_run_window(shard, *args)
            lanes.append(reply[1])
            return reply

        monkeypatch.setattr(sim_shard._Shard, "_decode_incoming", decode)
        monkeypatch.setattr(sim_shard._Shard, "run_window", run_window)
        config = SHARDABLE_CASES["E@32-lossy-rel"]()
        result, records = _lane_run(
            config.pop("protocol"), config.pop("topology"), 2, workers,
            **config,
        )
        assert echoed == []
        # The local lane's timer ranks: own-shard timer sends were made.
        assert sum(len(lane[2]) for lane in lanes if lane is not None) > 0
        assert fingerprint(result) == _fixture("E@32-lossy-rel")

    @pytest.mark.parametrize("workers", (0, 2))
    def test_unpackable_and_wide_same_shard_sends_take_the_local_lane(
        self, workers
    ):
        serial = fingerprint(
            run_election(
                _SameShardProtocol(), complete_with_sense_of_direction(12),
                wakeup={0: 0.0}, require_leader=False,
            )
        )
        result, records = _lane_run(
            _SameShardProtocol(), complete_with_sense_of_direction(12),
            2, workers, wakeup={0: 0.0},
        )
        assert {"_Blob", "_Census", "_Nudge"} <= set(result.messages_by_type)
        assert records == {
            "local": result.messages_total, "remote": 0, "timer": 0,
        }
        assert fingerprint(result) == serial

    def test_strided_shards_balance_protocol_c(self):
        network = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(4096),
            shards=2, workers=0, collect_snapshots=False,
        )
        network.run()
        events = network.stats["events_per_shard"]
        assert max(events) / (sum(events) / len(events)) <= 1.05


# ---------------------------------------------------------------------------
# A generated differential slice: sharded == serial beyond the fixtures.
# ---------------------------------------------------------------------------


@st.composite
def _differential_configs(draw):
    name = draw(st.sampled_from("BCEG"))
    if name in "BC":  # Protocols B and C need N to be a power of two.
        n = draw(st.sampled_from((8, 16, 32)))
    else:
        n = draw(st.integers(min_value=8, max_value=48))
    shards = draw(st.integers(min_value=1, max_value=min(n, 4)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # ``(drop, duplicate, jitter)`` of an optional fault plan, whether the
    # retransmission overlay wraps the protocol, and whether the delays
    # come from per-link UniformDelay streams.
    faults = draw(st.none() | st.tuples(
        st.sampled_from((0.0, 0.1)),
        st.sampled_from((0.0, 0.05)),
        st.sampled_from((0.0, 0.25)),
    ))
    reliable = draw(st.booleans())
    streams = draw(st.booleans())
    # Wakes and crashes share each shard's heap with the deliveries.
    wake = draw(
        st.just(("simultaneous",))
        | st.tuples(
            st.just("single_base"), st.integers(min_value=0, max_value=n - 1)
        )
        | st.just(("staggered_chain",))
        | st.tuples(
            st.just("random_subset"),
            st.integers(min_value=1, max_value=n),
            st.sampled_from((0.0, 0.5, 3.0)),
        )
    )
    # Crashes on integer instants tie with ``ConstantDelay(1)`` arrivals
    # (and with wakes at t=0), exercising crash < wake < delivery < timer.
    crashes = draw(st.none() | st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=4).map(float),
        min_size=1, max_size=3,
    ))
    return name, n, shards, seed, faults, reliable, streams, wake, crashes


def _differential_inputs(
    name, n, seed, faults, reliable, streams, wake, crashes
):
    """``(protocol, topology, kwargs)`` for one drawn configuration; every
    call builds fresh objects (the delay model included)."""
    protocol = {
        "B": ProtocolB, "C": ProtocolC, "E": ProtocolE, "G": ProtocolG,
    }[name]()
    if reliable:
        protocol = ReliableDelivery(protocol)
    if name in "BC":
        topology = complete_with_sense_of_direction(n)
    else:
        topology = complete_without_sense(n, seed=seed)
    kind, *args = wake
    if kind == "random_subset":
        count, window = args
        wakeup = adversary_wakeup.random_subset(count, window=window)
    else:
        wakeup = getattr(adversary_wakeup, kind)(*args)
    kwargs: dict = {"seed": seed, "wakeup": wakeup}
    if faults is not None:
        drop, duplicate, jitter = faults
        kwargs["faults"] = FaultPlan(
            seed=seed, drop=drop, duplicate=duplicate, jitter=jitter
        )
        # Without the overlay the faults may leave no leader.
        kwargs["require_leader"] = reliable
    if crashes is not None:
        kwargs["crash_schedule"] = crashes
        # A crashed candidate may leave no leader.
        kwargs["require_leader"] = False
    if streams:
        kwargs["delays"] = UniformDelay(0.05, 1.0, min_latency=0.05)
    return protocol, topology, kwargs


def _assert_shards_exactly(config, workers: int) -> None:
    name, n, shards, seed, faults, reliable, streams, wake, crashes = config
    # Faults without the overlay, or crashes, may break a protocol's
    # assumptions (a duplicated verdict, a candidate that never answers);
    # the violation must then read the same in both runtimes.  Every other
    # configuration elects a verified leader and raises nothing.
    unmasked = (faults is not None and not reliable) or crashes is not None
    tolerated = (ProtocolViolation, SimulationError) if unmasked else ()

    def outcome(run, **extra):
        protocol, topology, kwargs = _differential_inputs(
            name, n, seed, faults, reliable, streams, wake, crashes
        )
        try:
            return fingerprint(run(protocol, topology, **kwargs, **extra))
        except tolerated as error:
            return type(error).__name__, str(error)

    serial = outcome(run_election)
    sharded = outcome(run_sharded_election, shards=shards, workers=workers)
    assert sharded == serial


@pytest.mark.shard_smoke
@settings(max_examples=60, deadline=None)
@given(_differential_configs())
# Two shards fail in one window; the earlier-ranked failure must win.
@example((
    "E", 23, 2, 998, (0.0, 0.05, 0.25), False, False, ("simultaneous",), None
))
def test_generated_configs_shard_exactly(config):
    """Sharded equals serial on drawn (protocol, N, shard count, seed, wake
    schedule), with or without a fault plan, crashes, the overlay and
    per-link delay streams."""
    _assert_shards_exactly(config, workers=0)


@st.composite
def _forked_differential_configs(draw):
    name, n, _shards, *rest = draw(_differential_configs())
    return (name, n, draw(st.sampled_from((2, 3))), *rest)


@pytest.mark.shard_smoke
@settings(max_examples=6, deadline=None)
@given(_forked_differential_configs())
# The overlay's timers send under timer ranks, to their own shard and to
# others: the timer lane crosses a pipe at both shard counts.
@example((
    "E", 32, 2, 9, (0.1, 0.05, 0.25), True, False, ("simultaneous",), None
))
@example((
    "G", 24, 3, 5, (0.1, 0.0, 0.25), True, True, ("simultaneous",), None
))
def test_generated_configs_shard_exactly_over_forked_workers(config):
    """The same differential check with every shard but shard 0 in a
    forked worker (k ∈ {2, 3}: at most two workers per example), so that
    every lane, the overlay's timer lane included, crosses a pipe."""
    _assert_shards_exactly(config, workers=config[2])


# ---------------------------------------------------------------------------
# Odd shard geometries and runtime stats.
# ---------------------------------------------------------------------------


class TestGeometryAndStats:
    def test_shards_equal_to_n_still_agree_with_serial(self):
        topology = complete_without_sense(8, seed=0)
        sharded = fingerprint(
            run_sharded_election(
                ProtocolE(), topology, shards=8, workers=0, seed=0
            )
        )
        serial = fingerprint(
            run_election(ProtocolE(), complete_without_sense(8, seed=0), seed=0)
        )
        assert sharded == serial

    def test_uneven_shard_sizes_agree_with_serial(self):
        """n=50 over 7 shards: strided shards of 8 and 7 nodes."""
        topology = complete_without_sense(50, seed=2)
        sharded = fingerprint(
            run_sharded_election(
                ProtocolE(), topology, shards=7, workers=0, seed=2
            )
        )
        serial = fingerprint(
            run_election(
                ProtocolE(), complete_without_sense(50, seed=2), seed=2
            )
        )
        assert sharded == serial

    def test_run_stats_account_every_event(self):
        from repro.sim.network import Network

        net = Network(ProtocolC(), complete_with_sense_of_direction(64))
        net.run()
        sharded = ShardedNetwork(
            ProtocolC(), complete_with_sense_of_direction(64),
            shards=4, workers=0,
        )
        sharded.run()
        stats = sharded.stats
        assert stats["events_total"] == net.scheduler.events_processed
        assert sum(stats["events_per_shard"]) == stats["events_total"]
        assert stats["shards"] == 4
        assert stats["windows"] > 0
        assert 0.0 < stats["route_seconds"] < stats["wall_seconds"]
        assert sharded.aggregate_events_per_sec > 0

    def test_a_run_restores_the_callers_collector_thresholds(self):
        """A run raises the collector's young threshold for its own
        duration only: the caller's thresholds come back on success and on
        failure alike."""
        original = gc.get_threshold()
        gc.set_threshold(1234, 5, 6)
        try:
            for workers in (0, 2):
                run_sharded_election(
                    ProtocolC(), complete_with_sense_of_direction(32),
                    shards=2, workers=workers,
                )
                assert gc.get_threshold() == (1234, 5, 6)
                with pytest.raises(LivelockError):
                    run_sharded_election(
                        ProtocolC(), complete_with_sense_of_direction(64),
                        shards=2, workers=workers, max_events=50,
                    )
                assert gc.get_threshold() == (1234, 5, 6)
        finally:
            gc.set_threshold(*original)

    def test_snapshots_can_be_skipped_for_scale_runs(self):
        result = run_sharded_election(
            ProtocolC(), complete_with_sense_of_direction(32),
            shards=2, workers=0, collect_snapshots=False,
        )
        assert result.leader_id is not None
        assert result.node_snapshots == ()


# ---------------------------------------------------------------------------
# Safety: a second leader reads the same wherever it is caught.
# ---------------------------------------------------------------------------


class _TwoLeaderNode(Node):
    """Relays a chain through port 0; the nodes the chain reaches at hops
    3 and 5 both declare, two time units apart.  On the sense-of-direction
    wiring hop ``h`` lands on position ``h``, so with strided ownership
    (``p % k``) the two declarers share a shard at 2 shards of 8 nodes and
    sit in different shards at 3."""

    def on_wake(self, spontaneous):
        if spontaneous:
            self.ctx.send(0, _Census(1, 0))

    def on_message(self, port, message):
        if message.hops in (3, 5):
            self.become_leader()
        if message.hops < self.ctx.n:
            self.ctx.send(0, _Census(message.hops + 1, 0))


class _TwoLeaderProtocol(ElectionProtocol):
    name = "two-leader-test"

    def create_node(self, ctx):
        return _TwoLeaderNode(ctx)


@pytest.mark.shard_smoke
def test_leader_conflict_reads_the_same_in_every_runtime():
    """Serial, same-shard, cross-shard in-process and cross-shard forked
    runs all raise the one violation message, naming the same two nodes
    and the second declaration's instant."""

    def violation(run) -> str:
        with pytest.raises(ProtocolViolation) as caught:
            run(_TwoLeaderProtocol(), complete_with_sense_of_direction(8))
        return str(caught.value)

    def sharded(shards, workers):
        return lambda protocol, topology: run_sharded_election(
            protocol, topology, shards=shards, workers=workers,
            wakeup={0: 0.0},
        )

    serial = violation(
        lambda protocol, topology: run_election(
            protocol, topology, wakeup={0: 0.0}
        )
    )
    topology = complete_with_sense_of_direction(8)
    assert serial == (
        f"two-leader-test: node {topology.id_at(5)} declared leader at "
        f"t=5.0 but node {topology.id_at(3)} already had"
    )
    assert violation(sharded(2, 0)) == serial  # same shard
    assert violation(sharded(3, 0)) == serial  # cross-shard, in-process
    assert violation(sharded(3, 3)) == serial  # cross-shard, forked


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


@pytest.mark.shard_smoke
def test_cli_run_with_shards_matches_serial_summary(capsys):
    from repro.__main__ import main

    assert main(["run", "--protocol", "C", "--n", "64"]) == 0
    serial_out = capsys.readouterr().out
    assert (
        main(
            ["run", "--protocol", "C", "--n", "64", "--shards", "2",
             "--shard-workers", "0"]
        )
        == 0
    )
    sharded_out = capsys.readouterr().out
    assert sharded_out == serial_out
