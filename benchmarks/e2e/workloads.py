"""The five benchmark workloads, and the process that measures one of them.

``bench.py`` runs this file in a fresh interpreter per workload::

    python3 benchmarks/e2e/workloads.py WORKLOAD --seed S --seconds T \
        --trace 0|1 [--scale full|smoke]

Untraced (``--trace 0``), it runs one untimed warm-up at smoke scale, then
repeats the workload's unit until the next unit would overrun ``--seconds``
(at least three units at full scale), calling ``gc.collect()`` between
units, and reports medians of the unit times divided by the host slowdown
measured around each unit (see "host speed" below).  Traced (``--trace
1``), it runs the warm-up, untraced units (the baseline for
``trace.overhead``; two for sweep, and for elect_sharded two alternating
with elect_serial units), then one unit with the span wrappers of
:mod:`spans` installed, and writes the trace to ``.bench_out/`` at the
repository root.

The last stdout line is one JSON object: ``workload``, ``seed``, ``scale``,
``trace``, ``correct``, ``attempted``, ``failed``, ``failures``, ``digest``,
``units``, ``unit_walls_s``, ``unit_slowdowns``, ``metrics``,
``raw_metrics`` (the untraced metrics without the slowdown division) and
``meta``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import spans

from repro.core.protocol import protocol_class
from repro.core.reliable import ReliableDelivery
from repro.harness import parallel, scenarios
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.sense.protocol_a import ProtocolA
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim import network as sim_network
from repro.sim import shard as sim_shard
from repro.topology import complete
from repro.verification import explore
from repro.verification.world import LockStepWorld

ROOT = Path(__file__).resolve().parents[2]

#: Input sizes.  ``smoke`` is the self-test scale and every run's warm-up.
SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "elect_n": 32768,
        "explore_n": 6,
        "sweep_ns": (64, 128),
        "sweep_scenarios": ("benign", "worst_case", "lossy"),
        "sweep_seeds": 2,
        "lossy_n": 1024,
        "min_units": 3,
    },
    "smoke": {
        "elect_n": 512,
        "explore_n": 4,
        "sweep_ns": (32,),
        "sweep_scenarios": ("benign",),
        "sweep_seeds": 1,
        "lossy_n": 128,
        "min_units": 1,
    },
}

#: The registered protocols the sweep runs, pinned by name so a protocol
#: added later does not silently change the workload.
SWEEP_PROTOCOLS = (
    "A", "A'", "AG85", "B", "C", "CR", "D", "E",
    "F", "FT", "G", "HS", "LMW86", "R", "RS", "RT",
)

#: Rank order of the explore identities around the ring.  The seed draws
#: the identity values; Protocol A only compares them, so pinning their
#: order gives every seed an isomorphic state graph (91,312 states at N=6).
EXPLORE_RANKS = {6: (2, 5, 0, 3, 1, 4), 4: (1, 3, 0, 2)}


@dataclass
class Unit:
    """One timed repetition of a workload."""

    wall_s: float
    setup_s: float
    cpu_s: float
    #: Simulator events, explored states or elections completed.
    ops: int
    #: ``ElectionResult``s or ``ExplorationReport``s, for checks and digests.
    outputs: list
    #: Sweep-pool timings (sweep only).
    pool: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    #: Host slowdown measured around the unit (see :func:`_slowdown`).
    slowdown: float = 1.0


def _clock() -> tuple[float, float]:
    """Wall seconds and CPU seconds of this process and its reaped children."""
    cpu = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        cpu += usage.ru_utime + usage.ru_stime
    return time.perf_counter(), cpu


# -- host speed ----------------------------------------------------------------
#
# Other tenants of a shared host slow this process down by 10-60% for minutes
# at a time, and raw unit times follow: the wall_s medians of ten
# fresh-process runs had quartiles 8-23% apart.  So every unit is bracketed
# by a fixed reference loop, and its times are divided by the slowdown that
# loop shows around it, which brought that spread to 4-18% (calibration.json
# keeps both).  On an idle host the slowdown is about 1; the raw times are
# reported as well.

#: One reference pass on the calibration host (2-vCPU Intel Xeon VM) when idle.
REFERENCE_NOMINAL_S = 0.026


def _reference_passes() -> list[float]:
    """Three timings of a fixed pure-Python loop, the host-speed probe."""
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        passes.append(time.perf_counter() - start)
    return passes


def _slowdown(passes: list[float]) -> float:
    """How much slower than nominal the host ran the reference loop."""
    return statistics.median(passes) / REFERENCE_NOMINAL_S


# -- inputs ------------------------------------------------------------------


def _election_inputs(seed: int, scale: dict[str, Any]) -> SimpleNamespace:
    n = scale["elect_n"]
    return SimpleNamespace(n=n, ids=random.Random(seed).sample(range(2**30), n))


def _explore_inputs(seed: int, scale: dict[str, Any]) -> SimpleNamespace:
    n = scale["explore_n"]
    values = sorted(random.Random(seed).sample(range(2**30), n))
    return SimpleNamespace(n=n, ids=[values[rank] for rank in EXPLORE_RANKS[n]])


def _sweep_inputs(seed: int, scale: dict[str, Any]) -> SimpleNamespace:
    seeds = random.Random(seed).sample(range(2**31), scale["sweep_seeds"])
    cells = [
        (name, n, scenario, run_seed)
        for name in SWEEP_PROTOCOLS
        for n in scale["sweep_ns"]
        for scenario in scale["sweep_scenarios"]
        for run_seed in seeds
    ]
    return SimpleNamespace(cells=cells)


def _lossy_inputs(seed: int, scale: dict[str, Any]) -> SimpleNamespace:
    return SimpleNamespace(n=scale["lossy_n"], seed=seed)


# -- units -------------------------------------------------------------------


def _elect_serial(cfg: SimpleNamespace, tracer: spans.Tracer | None) -> Unit:
    wall0, cpu0 = _clock()
    topology = complete.complete_with_sense_of_direction(cfg.n, ids=cfg.ids)
    network = sim_network.Network(ProtocolC(), topology)
    ready = time.perf_counter()
    result = network.run()
    wall1, cpu1 = _clock()
    return Unit(
        wall1 - wall0, ready - wall0, cpu1 - cpu0,
        network.scheduler.events_processed, [result],
    )


def _elect_sharded(cfg: SimpleNamespace, tracer: spans.Tracer | None) -> Unit:
    wall0, cpu0 = _clock()
    topology = complete.complete_with_sense_of_direction(cfg.n, ids=cfg.ids)
    network = sim_shard.ShardedNetwork(ProtocolC(), topology, shards=2)
    ready = time.perf_counter()
    result = network.run()
    wall1, cpu1 = _clock()
    stats = network.stats
    return Unit(
        wall1 - wall0, ready - wall0, cpu1 - cpu0, stats["events_total"], [result],
        meta={"shard_transport": stats["transport"], "shard_forked": stats["forked"]},
    )


def _elect_sharded_setup(cfg: SimpleNamespace) -> float:
    """One elect_sharded set-up on its own (nothing forks before ``run``)."""
    start = time.perf_counter()
    topology = complete.complete_with_sense_of_direction(cfg.n, ids=cfg.ids)
    sim_shard.ShardedNetwork(ProtocolC(), topology, shards=2)
    return time.perf_counter() - start


def _explore(cfg: SimpleNamespace, tracer: spans.Tracer | None) -> Unit:
    wall0, cpu0 = _clock()
    topology = complete.complete_with_sense_of_direction(cfg.n, ids=cfg.ids)
    ready = time.perf_counter()
    report = explore.explore_protocol(ProtocolA(), topology, max_states=500_000)
    wall1, cpu1 = _clock()
    if not report.complete:
        raise RuntimeError("exploration truncated at max_states")
    return Unit(
        wall1 - wall0, ready - wall0, cpu1 - cpu0, report.states_explored, [report]
    )


def _explore_setup(cfg: SimpleNamespace) -> float:
    """What ``explore_protocol`` builds before its search: topology, root world."""
    start = time.perf_counter()
    topology = complete.complete_with_sense_of_direction(cfg.n, ids=cfg.ids)
    LockStepWorld(ProtocolA(), topology, tuple(range(cfg.n)))
    return time.perf_counter() - start


def _sweep_task(
    name: str, n: int, scenario: str, seed: int, tracer: spans.Tracer | None
) -> Callable[[], tuple]:
    def task() -> tuple:
        shipping = tracer is not None and tracer.reset_in_worker()
        start = time.perf_counter_ns()
        result = scenarios.run_scenario(protocol_class(name)(), scenario, n, seed=seed)
        end = time.perf_counter_ns()
        return result, start, end, os.getpid(), tracer.export() if shipping else None

    return task


def _sweep(cfg: SimpleNamespace, tracer: spans.Tracer | None) -> Unit:
    wall0, cpu0 = _clock()
    start_ns = time.perf_counter_ns()
    tasks = [_sweep_task(*cell, tracer) for cell in cfg.cells]
    call_ns = time.perf_counter_ns()
    records = parallel.run_sweep(tasks)
    end_ns = time.perf_counter_ns()
    wall1, cpu1 = _clock()
    last_end: dict[int, int] = {}
    for _result, _start, end, pid, exported in records:
        last_end[pid] = max(end, last_end.get(pid, 0))
        if exported is not None:
            tracer.absorb(exported)
    first_start = min(record[1] for record in records)
    busy_s = sum(end - start for _r, start, end, _p, _e in records) / 1e9
    sweep_s = (end_ns - call_ns) / 1e9
    pool = {
        "harness.parallel.sweep_s": sweep_s,
        "harness.parallel.startup_s": (first_start - call_ns) / 1e9,
        "harness.parallel.busy_s": busy_s,
        "harness.parallel.util": busy_s / (sweep_s * len(last_end)),
        "harness.parallel.drain_s": (end_ns - min(last_end.values())) / 1e9,
        "latencies_ms": [(end - start) / 1e6 for _r, start, end, _p, _e in records],
    }
    return Unit(
        wall1 - wall0, (first_start - start_ns) / 1e9, cpu1 - cpu0, len(records),
        [record[0] for record in records], pool=pool,
    )


def _lossy(cfg: SimpleNamespace, tracer: spans.Tracer | None) -> Unit:
    wall0, cpu0 = _clock()
    protocol = ProtocolG(k=8)
    topology, kwargs = scenarios.SCENARIOS["lossy"].build(
        cfg.n, cfg.seed, protocol.needs_sense_of_direction
    )
    network = sim_network.Network(
        ReliableDelivery(protocol), topology, seed=cfg.seed, **kwargs
    )
    ready = time.perf_counter()
    result = network.run()
    wall1, cpu1 = _clock()
    return Unit(
        wall1 - wall0, ready - wall0, cpu1 - cpu0,
        network.scheduler.events_processed, [result],
    )


# -- correctness ---------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """``value`` with dicts and sets in sorted order, for a stable ``repr``."""
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(_canonical(v)) for v in value))
    if type(value) in (list, tuple):
        return tuple(_canonical(v) for v in value)
    return value


def election_fields(result: Any) -> tuple:
    """The deterministic ``ElectionResult`` fields, node snapshots included.

    The field set the determinism fixtures pin; serial and sharded runs of
    one configuration owe equality on all of it.
    """
    return (
        result.n,
        result.leader_id,
        result.leader_position,
        result.elected_at,
        result.election_time,
        result.election_depth,
        result.messages_total,
        result.bits_total,
        tuple(sorted(result.messages_by_type.items())),
        result.max_depth,
        result.quiescent_at,
        result.first_wake_time,
        result.last_wake_time,
        result.base_positions,
        result.max_channel_load,
        result.messages_dropped,
        result.messages_duplicated,
        result.messages_jittered,
        result.retransmissions,
        result.duplicates_suppressed,
        result.packets_abandoned,
        result.crashed_positions,
        _canonical(result.node_snapshots),
    )


def _election_digest(results: list) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(election_fields(result)).encode())
    return digest.hexdigest()


def _explore_digest(reports: list) -> str:
    digest = hashlib.sha256()
    for report in reports:
        fields = (
            report.states_explored,
            report.transitions,
            report.terminal_states,
            sorted(report.leaders_seen),
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def _election_check(results: list) -> str | None:
    for result in results:
        if result.leader_id is None:
            return f"{result.protocol} at N={result.n}: no leader"
    return None


def _explore_check(reports: list) -> str | None:
    for report in reports:
        if not report.leaders_seen:
            return "exploration saw no leader"
    return None


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    inputs: Callable[[int, dict[str, Any]], SimpleNamespace]
    unit: Callable[[SimpleNamespace, spans.Tracer | None], Unit]
    #: True when the unit's outputs are ExplorationReports, not elections.
    explores: bool = False
    #: Times one set-up on its own, for set-ups too short to time once per
    #: unit: ``setup_s`` is then the median of ``setup_reps`` probes.
    setup_probe: Callable[[SimpleNamespace], float] | None = None
    setup_reps: int = 0

    def digest(self, outputs: list) -> str:
        return (_explore_digest if self.explores else _election_digest)(outputs)

    def check(self, outputs: list) -> str | None:
        return (_explore_check if self.explores else _election_check)(outputs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("elect_serial", _election_inputs, _elect_serial),
        Workload(
            "elect_sharded", _election_inputs, _elect_sharded,
            setup_probe=_elect_sharded_setup, setup_reps=20,
        ),
        Workload(
            "explore", _explore_inputs, _explore, explores=True,
            setup_probe=_explore_setup, setup_reps=200,
        ),
        Workload("sweep", _sweep_inputs, _sweep),
        Workload("lossy", _lossy_inputs, _lossy),
    )
}

#: End-to-end metrics and their units (the untraced run's output).
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}


# -- measuring -------------------------------------------------------------------


class Run:
    """Attempted units, failures and the reference digest of one run."""

    def __init__(self, workload: Workload, cfg: SimpleNamespace) -> None:
        self.workload = workload
        self.cfg = cfg
        self.units: list[Unit] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def attempt(
        self, tracer: spans.Tracer | None = None, *, cfg=None, keep: bool = False
    ) -> Unit | None:
        """Run one unit; count it as failed if it raises or checks wrong.

        ``cfg`` overrides the run's inputs for a warm-up, which is checked
        but neither digested nor kept.  The unit's outputs are released
        after the checks unless ``keep``, so later units do not run (and
        collect garbage) next to earlier units' results.
        """
        workload = self.workload
        self.attempted += 1
        gc.collect()
        try:
            unit = workload.unit(cfg or self.cfg, tracer)
        except Exception as exc:  # a raising unit is a counted failure
            return self.fail(f"raised {type(exc).__name__}: {exc}")
        cause = workload.check(unit.outputs)
        if cause is not None:
            return self.fail(cause)
        if cfg is None:
            digest = workload.digest(unit.outputs)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                return self.fail(f"digest {digest[:12]} != {self.digest[:12]}")
            self.units.append(unit)
        if not keep:
            unit.outputs = []
        return unit

    def fail(self, cause: str) -> None:
        self.failures.append(cause)
        print(f"{self.workload.name}: unit failed: {cause}", file=sys.stderr)
        return None


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: float, min_units: int) -> tuple[dict, dict]:
    """Repeat units for ``seconds``.

    Returns the end-to-end metrics with times divided by each unit's host
    slowdown, and the same metrics unscaled.
    """
    start = time.perf_counter()
    attempts = 0
    before = _reference_passes()
    while True:
        unit = run.attempt()
        after = _reference_passes()
        if unit is not None:
            unit.slowdown = _slowdown(before + after)
        before = after
        attempts += 1
        walls = [unit.wall_s for unit in run.units]
        elapsed = time.perf_counter() - start
        if attempts >= min_units and (
            not walls or elapsed + statistics.median(walls) > seconds
        ):
            break
    units = run.units
    if not units:
        zeros = {name: _metric(0.0, unit) for name, unit in END_TO_END.items()}
        return zeros, zeros
    workload = run.workload
    if workload.setup_probe is not None:
        before = _reference_passes()
        setups = [workload.setup_probe(run.cfg) for _ in range(workload.setup_reps)]
        slowdown = _slowdown(before + _reference_passes())
        setup_pairs = [(setup, slowdown) for setup in setups]
    else:
        setup_pairs = [(unit.setup_s, unit.slowdown) for unit in units]
    rss = _peak_rss_mb()

    def values(scaled: bool) -> dict[str, Any]:
        def per_unit(seconds: float, slowdown: float) -> float:
            return seconds / slowdown if scaled else seconds

        figures = {
            "wall_s": statistics.median(per_unit(u.wall_s, u.slowdown) for u in units),
            "setup_s": statistics.median(per_unit(*pair) for pair in setup_pairs),
            "cpu_s": statistics.median(per_unit(u.cpu_s, u.slowdown) for u in units),
            "peak_rss_mb": rss,
            "ops_per_s": statistics.median(
                u.ops / per_unit(u.wall_s, u.slowdown) for u in units
            ),
        }
        return {name: _metric(figures[name], unit) for name, unit in END_TO_END.items()}

    return values(True), values(False)


def _pool_metrics(units: list[Unit]) -> dict[str, float]:
    """Sweep-pool timings and election percentiles from untraced passes."""
    pools = [unit.pool for unit in units if unit.pool]
    if not pools:
        return {}
    values = {
        name: statistics.median(pool[name] for pool in pools)
        for name in pools[0]
        if name != "latencies_ms"
    }
    latencies = [ms for pool in pools for ms in pool["latencies_ms"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    values["harness.scenarios.election_p50_ms"] = statistics.median(latencies)
    values["harness.scenarios.election_p95_ms"] = cuts[94]
    return values


def measure_traced(run: Run, seed: int, scale_name: str) -> dict[str, Any]:
    """Untraced baseline units, then one traced unit; per-layer metrics."""
    # Two sweep passes give the election percentiles 384 samples; on
    # elect_sharded, sharded and serial units alternate so that
    # sim.shard.speedup_vs_serial compares medians taken side by side.
    serial = (
        Run(WORKLOADS["elect_serial"], run.cfg)
        if run.workload.name == "elect_sharded"
        else None
    )
    for _ in range(2 if run.workload.name in ("sweep", "elect_sharded") else 1):
        run.attempt()
        if serial is not None:
            serial.attempt()
    speedup = 0.0
    if serial is not None:
        # The serial-equals-sharded check counts as one more attempt.
        run.attempted += serial.attempted + 1
        run.failures += serial.failures
        if serial.digest != run.digest:
            run.fail("elect_sharded digest differs from elect_serial")
        if serial.units and run.units:
            speedup = statistics.median(u.wall_s for u in serial.units) / (
                statistics.median(u.wall_s for u in run.units)
            )
    untraced = list(run.units)
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        traced = run.attempt(tracer, keep=True)
    finally:
        installation.uninstall()
    if traced is None or not untraced:
        return {
            name: _metric(0.0, unit) for name, unit in spans.LAYER_METRICS.items()
        }
    values = spans.layer_metrics(
        tracer,
        traced_wall_s=traced.wall_s,
        untraced_wall_s=statistics.median(unit.wall_s for unit in untraced),
        results=[] if run.workload.explores else traced.outputs,
        reports=traced.outputs if run.workload.explores else [],
        pool=_pool_metrics(untraced),
        speedup_vs_serial=speedup,
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{run.workload.name}-{scale_name}-seed{seed}.json"
    payload = {
        "workload": run.workload.name,
        "seed": seed,
        "scale": scale_name,
        "traced_wall_s": traced.wall_s,
        "metrics": values,
        **tracer.to_json(),
    }
    path.write_text(json.dumps(payload))
    print(f"{run.workload.name}: trace written to {path}", file=sys.stderr)
    return {
        name: _metric(values[name], unit) for name, unit in spans.LAYER_METRICS.items()
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared-memory segments start."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _meta(run: Run) -> dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    meta: dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "shard_transport": None,
        "shard_forked": None,
    }
    for unit in run.units:
        meta.update(unit.meta)
    return meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    run = Run(workload, workload.inputs(args.seed, scale))
    try:
        run.attempt(cfg=workload.inputs(args.seed, SCALES["smoke"]))  # warm-up
        if args.trace:
            metrics, raw_metrics = measure_traced(run, args.seed, args.scale), {}
        else:
            metrics, raw_metrics = measure(run, args.seconds, scale["min_units"])
    finally:
        _stop_resource_tracker()
    failed = len(run.failures)
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "scale": args.scale,
                "trace": args.trace,
                "correct": failed == 0 and bool(run.units),
                "attempted": run.attempted,
                "failed": failed,
                "failures": run.failures,
                "digest": run.digest,
                "units": len(run.units),
                "unit_walls_s": [unit.wall_s for unit in run.units],
                "unit_slowdowns": [unit.slowdown for unit in run.units],
                "metrics": metrics,
                "raw_metrics": raw_metrics,
                "meta": _meta(run),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
