"""Process-pool fan-out for campaigns, sweeps and experiment batteries.

The simulator is deterministic and CPU-bound pure Python, so the way to
"run as fast as the hardware allows" is to fan independent simulation
points — campaign seeds, experiment sweep points, failure cases — out
across processes.  This module is the one place that owns that policy:

* :func:`resolve_jobs` — turn a CLI ``--jobs`` value into a worker
  count (``None``/1 = serial, 0 = all cores);
* :func:`parallel_map` — order-preserving map over a process pool that
  degrades to a plain loop when one worker (or one item) makes a pool
  pointless;
* :class:`WorkerPool` — a *persistent* pool reused across fan-out
  calls (one process spawn per CLI invocation instead of one per
  sweep), optionally exporting film content to every worker through
  ``multiprocessing.shared_memory`` so payload generation happens once
  per machine.

Results are returned **in submission order** no matter which worker
finishes first, so callers get order-independent merging for free — a
parallel run is indistinguishable from the serial one provided the
work function is deterministic.  Every fan-out entry point in this
repo derives per-item randomness from
:class:`numpy.random.SeedSequence` children (never from shared global
state), which is what makes that guarantee hold bit-for-bit; see
``docs/performance.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .obs import default_registry

__all__ = ["resolve_jobs", "parallel_map", "WorkerPool"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int | None) -> int:
    """Worker count for a ``--jobs`` value.

    ``None`` or ``1`` mean serial; ``0`` means "use every core";
    anything else is taken literally.  Negative counts are rejected.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be 0 (all cores) or a process count, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int = 1,
    pool: "WorkerPool | None" = None,
    on_result: Callable[[R], None] | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, fanned out across processes.

    ``fn`` and every item must be picklable (module-level functions and
    plain data).  With ``jobs`` resolving to 1 — or fewer than two
    items — no pool is created and the map runs inline, which keeps
    tracebacks readable and makes serial-vs-parallel comparisons a pure
    scheduling experiment.

    Passing ``pool`` (a :class:`WorkerPool`) reuses its long-lived
    workers instead of spawning a fresh executor for this one call;
    ``jobs`` is then ignored — the pool's size governs.

    ``on_result`` is invoked in the parent, in submission order, as
    each result becomes available — this is how campaign sweeps merge
    worker metrics snapshots mid-flight (for the live ``/metrics``
    endpoint) instead of at the end.  Because results are consumed in
    submission order, the callback sees the exact sequence a serial
    run would produce, so deterministic merges stay deterministic.

    Results always come back in item order; a worker raising propagates
    the exception to the caller after the pool shuts down.
    """
    if pool is not None:
        return pool.map(fn, items, chunksize=chunksize, on_result=on_result)
    work: Sequence[T] = list(items)
    n_workers = min(resolve_jobs(jobs), len(work))
    if n_workers <= 1 or len(work) <= 1:
        return _observed_map(
            lambda: _collect(map(fn, work), on_result), "serial", len(work)
        )
    with ProcessPoolExecutor(max_workers=n_workers) as pool_:
        return _observed_map(
            lambda: _collect(
                pool_.map(fn, work, chunksize=chunksize), on_result
            ),
            "ephemeral",
            len(work),
        )


def _collect(results: Iterable[R], on_result: Callable[[R], None] | None) -> list[R]:
    """Drain a result iterator, surfacing each item as it completes."""
    if on_result is None:
        return list(results)
    out: list[R] = []
    for result in results:
        out.append(result)
        on_result(result)
    return out


def _observed_map(run: Callable[[], list], mode: str, n_items: int) -> list:
    """Run one fan-out call, recording wall time and item count.

    One registry lookup per *fan-out call* (never per item), and a
    straight tail call when observability is off.
    """
    reg = default_registry()
    if not reg.enabled:
        return run()
    t0 = time.perf_counter()
    results = run()
    reg.histogram(
        "pool.map_wall_s", "wall-clock seconds per fan-out call"
    ).labels(mode=mode).observe(time.perf_counter() - t0)
    reg.counter("pool.items", "items mapped across fan-out calls").labels(
        mode=mode
    ).inc(n_items)
    return results


def _attach_films(specs: tuple) -> None:
    """Pool initializer: map the parent's shared film blocks read-only."""
    from .workloads.film import attach_shared_film

    for seed, payload_bytes, name, shape in specs:
        attach_shared_film(seed, payload_bytes, name, shape)


class WorkerPool:
    """A persistent process pool spanning many fan-out calls.

    ``parallel_map`` spawns (and tears down) a fresh
    :class:`~concurrent.futures.ProcessPoolExecutor` per call; across a
    campaign sweep or an experiment battery that re-pays worker startup
    and module import once per sweep.  A ``WorkerPool`` pays it once:
    the executor is created lazily on the first real fan-out and reused
    until :meth:`close` (it is also a context manager).

    :meth:`share_film` additionally materialises a film's payloads into
    a ``multiprocessing.shared_memory`` block exported to every worker
    through the pool initializer, where it becomes that film's store —
    the bytes are the ones every process computes itself, preserving
    bit-identity between pooled, per-call-parallel and serial runs.

    Like :func:`parallel_map`, a pool sized 1 (or a single-item map)
    runs inline — a ``WorkerPool(jobs=1)`` is a zero-cost stand-in.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.n_workers = resolve_jobs(jobs)
        self._executor: ProcessPoolExecutor | None = None
        self._films: list[tuple[int, int, str, tuple]] = []
        self._shm: list = []
        self._closed = False
        default_registry().gauge(
            "pool.n_workers", "size of the most recently created worker pool"
        ).labels().set(self.n_workers)

    # ------------------------------------------------------------------
    def share_film(
        self,
        seed: int,
        payload_bytes: int,
        n_stripes: int,
        n_i: int,
        n_j: int,
    ) -> None:
        """Materialise one film block and export it to every worker.

        The parent process also serves lookups from the block (see
        :func:`repro.workloads.film.register_shared_film`).  Calling
        this after workers have started recycles the executor so new
        workers attach the block at spawn.
        """
        from multiprocessing import shared_memory

        import numpy as np

        from .workloads import film as film_mod

        shape = (n_stripes, n_i, n_j, payload_bytes)
        size = int(np.prod(shape))
        if size <= 0:
            return
        shm = shared_memory.SharedMemory(create=True, size=size)
        default_registry().counter(
            "pool.shared_film_bytes", "bytes exported to workers via shared memory"
        ).labels().inc(size)
        block = np.ndarray(shape, dtype=np.uint8, buffer=shm.buf)
        film_mod.build_film_block(seed, payload_bytes, n_stripes, n_i, n_j, out=block)
        film_mod.register_shared_film(seed, payload_bytes, block)
        self._shm.append((seed, payload_bytes, shm))
        self._films.append((seed, payload_bytes, shm.name, shape))
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        chunksize: int = 1,
        on_result: Callable[[R], None] | None = None,
    ) -> list[R]:
        """Order-preserving map on the persistent workers.

        Same contract as :func:`parallel_map` (including the
        ``on_result`` mid-flight callback); the pool stays warm
        afterwards for the next call.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        work: Sequence[T] = list(items)
        if self.n_workers <= 1 or len(work) <= 1:
            return _observed_map(
                lambda: _collect(map(fn, work), on_result), "pooled", len(work)
            )
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_attach_films if self._films else None,
                initargs=(tuple(self._films),) if self._films else (),
            )
        executor = self._executor
        return _observed_map(
            lambda: _collect(
                executor.map(fn, work, chunksize=chunksize), on_result
            ),
            "pooled",
            len(work),
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and release the shared-memory blocks."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        from .workloads import film as film_mod

        for seed, payload_bytes, shm in self._shm:
            film_mod.unregister_shared_film(seed, payload_bytes)
            shm.close()
            shm.unlink()
        self._shm.clear()
        self._films.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
