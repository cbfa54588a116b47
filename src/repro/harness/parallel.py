"""Parallel sweep execution: fan independent runs across worker processes.

Every experiment in :mod:`repro.harness.experiments` is a *sweep*: a list of
independent ``(protocol, n, seed, adversary)`` elections whose results are
aggregated afterwards.  Sweeps are embarrassingly parallel — each run owns
its private RNG, scheduler, and topology — so this module provides one
primitive, :func:`run_sweep`, that executes a list of zero-argument tasks
and returns their results **in task order**, either serially or on a
``multiprocessing`` pool.

Determinism contract
--------------------

``run_sweep(tasks, parallel=True) == run_sweep(tasks, parallel=False)`` for
any tasks that are themselves deterministic (as every simulation run here
is: a run is a pure function of its configuration).  Three properties make
this hold:

* results are collected with ``pool.map``, which returns them indexed by
  task, not by completion time — aggregation order is therefore independent
  of worker scheduling;
* each task builds its own ``random.Random(seed)`` from its configuration,
  so worker-process RNG state can't leak into results; and
* workers are started with the ``fork`` start method and receive only a
  task *index*; the task closures themselves are inherited through the
  forked address space, never pickled.  (This is also what lets sweeps
  capture protocol factories, adversarial wake-up closures, and delay hooks
  without any of them having to be picklable.)

On platforms without ``fork`` — or when the pool cannot be created, e.g. in
restricted sandboxes — :func:`run_sweep` silently degrades to serial
execution, which is always correct, just slower.

The sharded kernel (:mod:`repro.sim.shard`) reuses :func:`configured_processes`
and :func:`fork_context` for its own forked, pipe-connected shard workers;
this module holds only the sweep pool.

Configuration: the ``REPRO_PARALLEL`` environment variable.  Unset, sweeps
parallelise when the machine has >1 CPU and the sweep is big enough to
amortise pool start-up.  ``REPRO_PARALLEL=0`` (or ``off``) forces serial;
any positive integer forces a pool of that many workers.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

T = TypeVar("T")

#: Below this many tasks a pool's start-up cost dominates; run serially.
MIN_PARALLEL_TASKS = 4

#: The task list the forked workers read (inherited via fork, not pickled).
_TASKS: Sequence[Callable[[], Any]] | None = None


def _run_indexed_task(index: int) -> Any:
    """Worker entry point: run one inherited task by index."""
    assert _TASKS is not None, "worker forked without a task list"
    return _TASKS[index]()


def configured_processes() -> int | None:
    """Worker count from ``REPRO_PARALLEL``, or None when unset/invalid.

    Public: the sharded kernel (:mod:`repro.sim.shard`) honours the same
    variable for its shard worker pool, so one knob governs every form of
    process-level parallelism in the repo.
    """
    raw = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if not raw:
        return None
    if raw in ("off", "false", "no"):
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return None


def fork_context() -> multiprocessing.context.BaseContext | None:
    """The ``fork`` multiprocessing context, or None where unavailable.

    Fork-only by design: tasks and shard configurations are inherited
    through the forked address space, never pickled.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def run_sweep(
    tasks: Sequence[Callable[[], T]],
    *,
    parallel: bool | None = None,
    processes: int | None = None,
) -> list[T]:
    """Run every task and return the results in task order.

    ``parallel=None`` (the default) auto-decides: parallel when allowed by
    ``REPRO_PARALLEL``, the host has more than one CPU, ``fork`` is
    available, and the sweep has at least :data:`MIN_PARALLEL_TASKS` tasks.
    ``parallel=True``/``False`` force the choice (``True`` still degrades
    to serial when no pool can be created).  ``processes`` caps the worker
    count; it defaults to ``min(len(tasks), cpu_count, REPRO_PARALLEL)``.

    Results are deterministic and order-independent: the returned list is
    indexed like ``tasks`` regardless of which worker finished first.
    """
    tasks = list(tasks)
    if not tasks:
        return []

    env_processes = configured_processes()
    if env_processes == 0:
        parallel = False
    if parallel is None:
        parallel = (
            len(tasks) >= MIN_PARALLEL_TASKS
            and (env_processes or os.cpu_count() or 1) > 1
        )
    if parallel:
        if processes is None:
            processes = env_processes or os.cpu_count() or 1
        processes = max(1, min(processes, len(tasks)))
        if processes > 1:
            results = _run_pool(tasks, processes)
            if results is not None:
                return results
    return [task() for task in tasks]


def _run_pool(
    tasks: Sequence[Callable[[], T]], processes: int
) -> list[T] | None:
    """Map the tasks over a fork pool; None when no pool can be made."""
    global _TASKS
    context = fork_context()
    if context is None:
        return None
    if _TASKS is not None:
        # A worker (or a nested sweep) is already mid-flight; nested pools
        # deadlock daemonic workers, so degrade to serial.
        return None
    _TASKS = tasks
    try:
        with context.Pool(processes) as pool:
            return pool.map(_run_indexed_task, range(len(tasks)), chunksize=1)
    except OSError:
        # Restricted environments (sandboxes, containers without /dev/shm)
        # can refuse pools; the sweep still runs, just serially.
        return None
    finally:
        _TASKS = None
