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

Configuration: the ``REPRO_PARALLEL`` environment variable.  Unset, sweeps
parallelise when the machine has >1 CPU and the sweep is big enough to
amortise pool start-up.  ``REPRO_PARALLEL=0`` (or ``off``) forces serial;
any positive integer forces a pool of that many workers.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
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


#: Default per-segment record capacity for the shared-memory exchange.
#: One "record" is one fast-lane message crossing a shard boundary in one
#: window; batches that exceed the capacity simply ride the pipes instead.
DEFAULT_SHM_RECORDS = 2048

#: Default packed-int words budgeted per record (header 9 + fields).
DEFAULT_SHM_INTS_PER_RECORD = 16


def shm_records_config() -> int:
    """Per-segment record capacity from ``REPRO_SHM_RECORDS`` (>= 1)."""
    raw = os.environ.get("REPRO_SHM_RECORDS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_SHM_RECORDS


def shm_enabled() -> bool:
    """Whether the shared-memory exchange is allowed (``REPRO_SHM`` knob).

    Unset or any truthy value enables it; ``0``/``off``/``false``/``no``
    force the pipe-only transport (useful for A/B digest checks and for
    containers with a tiny ``/dev/shm``).
    """
    raw = os.environ.get("REPRO_SHM", "").strip().lower()
    return raw not in ("0", "off", "false", "no")


class ShmExchange:
    """Double-buffered shared-memory segments for sharded window exchange.

    The sharded kernel's fork transport moves one batch of packed fast-lane
    arrays (``times``/``ints``/``offs`` plus coordinator-assigned merge
    keys) per directed shard pair per window.  Pickling those arrays
    through the worker pipes copies every byte twice; this class instead
    backs each directed pair with one ``multiprocessing.shared_memory``
    segment that the source worker writes, the coordinator stamps merge
    keys into, and the destination worker reads -- zero pickling for the
    fast lane.  Slow-lane records (arbitrary pickled messages) and any
    batch that exceeds a segment's fixed capacity keep riding the pipes,
    so capacity is purely a performance knob, never a correctness one.

    Segments are double-buffered by window parity: while window ``w``
    writes parity ``w & 1``, the destination is still decoding window
    ``w - 1`` from the other half, and the coordinator barrier guarantees
    no concurrent access to either half.

    Lifecycle is coordinator-owned: the coordinator creates every segment
    *before* forking workers (so the mappings are inherited through the
    forked address space -- workers never attach by name and never touch
    the resource tracker), and it alone closes and unlinks them.  Creation
    runs under :meth:`create`, which returns ``None`` -- pipes-only
    fallback -- when shared memory is unavailable, too small, or disabled
    via ``REPRO_SHM=0``.
    """

    _HDR_BYTES = 16  # two little-endian int64s: n_fast, ints_len

    def __init__(
        self,
        shards: int,
        records: int,
        ints_words: int,
        segments: list[Any],
    ) -> None:
        self.shards = shards
        self.records = records
        self.ints_words = ints_words
        self._segments = segments
        hdr = self._HDR_BYTES
        self._off_offs = hdr
        self._off_keys = hdr + 8 * records
        self._off_times = hdr + 16 * records
        self._off_ints = hdr + 32 * records
        self._parity_bytes = hdr + 32 * records + 8 * ints_words

    @classmethod
    def create(
        cls,
        shards: int,
        *,
        records: int | None = None,
        ints_words: int | None = None,
    ) -> "ShmExchange | None":
        """Create one segment per directed shard pair, or None on failure."""
        if not shm_enabled():
            return None
        try:
            from multiprocessing import shared_memory
        except ImportError:
            return None
        if records is None:
            records = shm_records_config()
        if ints_words is None:
            ints_words = records * DEFAULT_SHM_INTS_PER_RECORD
        size = 2 * (cls._HDR_BYTES + 32 * records + 8 * ints_words)
        segments: list[Any] = []
        try:
            for _ in range(shards * shards):
                segments.append(
                    shared_memory.SharedMemory(create=True, size=size)
                )
        except (OSError, ValueError):
            # /dev/shm missing, full, or too small; degrade to pipes.
            for segment in segments:
                try:
                    segment.close()
                    segment.unlink()
                except OSError:
                    pass
            return None
        return cls(shards, records, ints_words, segments)

    def _base(self, src: int, dest: int, parity: int) -> tuple[Any, int]:
        segment = self._segments[src * self.shards + dest]
        return segment.buf, (parity & 1) * self._parity_bytes

    def try_write(
        self, src: int, dest: int, parity: int, times: Any, ints: Any,
        offs: Any,
    ) -> bool:
        """Write one fast batch into the pair's segment; False on overflow."""
        n_fast = len(offs)
        ints_len = len(ints)
        if n_fast > self.records or ints_len > self.ints_words:
            return False
        buf, base = self._base(src, dest, parity)
        header = buf[base : base + self._HDR_BYTES].cast("q")
        header[0] = n_fast
        header[1] = ints_len
        if n_fast:
            off = base + self._off_offs
            buf[off : off + 8 * n_fast] = memoryview(offs).cast("B")
            off = base + self._off_times
            buf[off : off + 16 * n_fast] = memoryview(times).cast("B")
        if ints_len:
            off = base + self._off_ints
            buf[off : off + 8 * ints_len] = memoryview(ints).cast("B")
        return True

    def header(self, src: int, dest: int, parity: int) -> tuple[int, int]:
        """The pair's ``(n_fast, ints_len)`` counts for ``parity``."""
        buf, base = self._base(src, dest, parity)
        header = buf[base : base + self._HDR_BYTES].cast("q")
        return header[0], header[1]

    def fast_views(
        self, src: int, dest: int, parity: int, n_fast: int, ints_len: int
    ) -> tuple[Any, Any, Any]:
        """``(times, ints, offs)`` typed memoryviews over the stored batch."""
        buf, base = self._base(src, dest, parity)
        off = base + self._off_times
        times = buf[off : off + 16 * n_fast].cast("d")
        off = base + self._off_ints
        ints = buf[off : off + 8 * ints_len].cast("q")
        off = base + self._off_offs
        offs = buf[off : off + 8 * n_fast].cast("q")
        return times, ints, offs

    def keys_view(self, src: int, dest: int, parity: int, n_fast: int) -> Any:
        """Int64 memoryview over the batch's merge-key region."""
        buf, base = self._base(src, dest, parity)
        off = base + self._off_keys
        return buf[off : off + 8 * n_fast].cast("q")

    def write_keys(
        self, src: int, dest: int, parity: int, fast_keys: Sequence[int]
    ) -> None:
        """Stamp the coordinator-assigned merge keys into the segment."""
        self.keys_view(src, dest, parity, len(fast_keys))[:] = array(
            "q", fast_keys
        )

    def close(self) -> None:
        """Release and unlink every segment (coordinator side only)."""
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                # A stray exported view keeps the mapping alive; unlinking
                # below still reclaims the name, and the mapping dies with
                # the process.
                pass
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass


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
