"""Parallel experiment sweeps.

Every figure is a grid of *independent* simulation points — fig02's
systems x C_ACK grid, fig09's QP x ODP-mode grid, fig12's trials,
tab13's cells.  Each point builds its own :class:`Simulator` from its
own seed, so points can fan out across worker processes with no shared
state and **bit-identical** results: :func:`sweep` preserves input
order and the per-point seeds make a worker's run byte-for-byte the
run the serial loop would have produced.

Environment knobs:

* ``REPRO_SERIAL=1`` forces serial execution regardless of arguments
  (useful for debugging and for deterministic timing baselines);
* ``REPRO_JOBS=N`` sets the default worker count (otherwise the number
  of usable cores).

Workers must be module-level functions and points picklable tuples —
``ProcessPoolExecutor`` ships both to the pool.  Nested sweeps (a sweep
inside a worker) automatically degrade to serial, so a fleet point
runs its QP groups in its own worker instead of forking a pool there.
Sweeps also stay serial while a :attr:`Cluster.instrument` hook is
armed, because pool workers would not inherit it.

Entry points that run several sweeps back to back (the figure CLIs, the
shard benchmarks) wrap them in :func:`sweep_session` so one worker pool
is spawned once and reused — results are bit-identical either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import (Callable, Iterable, Iterator, List, Optional,
                    Sequence, TypeVar)

from repro.host.cluster import Cluster

Point = TypeVar("Point")
Result = TypeVar("Result")

#: Set inside pool workers so nested sweep() calls stay serial.
_IN_WORKER_ENV = "REPRO_IN_SWEEP_WORKER"

#: The innermost active :func:`sweep_session`, or None.
_SESSION: Optional["_SweepSession"] = None


def serial_forced() -> bool:
    """True when sweeps must run serially in this process: under
    ``REPRO_SERIAL``, inside a pool worker, or while a
    :attr:`Cluster.instrument` hook is armed (pool workers do not
    inherit it, so a pooled sweep would run its points unobserved)."""
    if os.environ.get("REPRO_SERIAL", "") not in ("", "0"):
        return True
    if os.environ.get(_IN_WORKER_ENV, "") == "1":
        return True
    return Cluster.instrument is not None


def default_jobs() -> int:
    """Worker count used when ``processes`` is not given.

    Raises :class:`ValueError` when ``REPRO_JOBS`` is set but is not an
    integer, rather than silently using every core.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS={env!r} is not an integer "
                             "worker count") from None
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _mark_worker() -> None:
    """Pool initializer: tag the process so nested sweeps go serial."""
    os.environ[_IN_WORKER_ENV] = "1"


def _make_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max(1, workers),
                               initializer=_mark_worker)


class _SweepSession:
    """A lazily created worker pool shared by consecutive sweeps.

    The pool is spawned on the first parallel sweep inside the session
    (a session whose sweeps all short-circuit to serial never forks) and
    shut down when the session exits.  It is never replaced: its width
    is the session's ``processes`` when pinned, otherwise the first
    pooled sweep's job count, and a later sweep that asks for more jobs
    runs at that width.  Results are unchanged either way — pool width
    only moves work between processes.
    """

    def __init__(self, processes: Optional[int] = None):
        self.processes = processes
        self.pool: Optional[ProcessPoolExecutor] = None
        #: sweeps that went through the pooled path (tests/diagnostics).
        self.pooled_sweeps = 0

    def executor(self, jobs: int) -> ProcessPoolExecutor:
        """The session pool, created on first use with ``processes``
        workers if pinned, else ``jobs``."""
        if self.pool is None:
            workers = self.processes if self.processes is not None else jobs
            self.pool = _make_pool(workers)
        return self.pool

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None


@contextmanager
def sweep_session(processes: Optional[int] = None
                  ) -> Iterator[_SweepSession]:
    """Reuse one worker pool across every :func:`sweep` in the block.

    Figure CLIs and shard benchmarks run several sweeps back to back;
    without a session each pays pool spawn plus a fresh interpreter
    import per worker.  Inside a session the first parallel sweep forks
    the pool and later sweeps reuse it.  Results are bit-identical with
    and without a session (a test enforces this): the pool only changes
    *where* points execute, never their seeds or ordering, and workers
    hold no state between map calls that a point could observe — every
    point builds its own simulator from its own seed.

    Sessions nest by reusing the innermost active session's pool, so a
    helper that opens its own session composes with a caller that
    already did.  ``processes`` pins the pool's worker count; by default
    the first parallel sweep's job count decides, and the width never
    changes for the rest of the session.
    """
    global _SESSION
    if _SESSION is not None:
        yield _SESSION
        return
    session = _SweepSession(processes)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None
        session.close()


def sweep(fn: Callable[[Point], Result], points: Iterable[Point],
          processes: Optional[int] = None,
          weights: Optional[Sequence[float]] = None) -> List[Result]:
    """Run ``fn`` over every point, in order, possibly across processes.

    Results come back in input order whatever the completion order, and
    each point must carry its own seed, so ``sweep(fn, pts, processes=N)``
    returns exactly ``[fn(p) for p in pts]`` for every ``N`` — a test
    enforces this bit-for-bit.

    ``processes=None`` uses :func:`default_jobs`; ``processes<=1``, a
    single point, or :func:`serial_forced` short-circuit to the plain
    serial loop (no pool, no pickling).  Otherwise every point is
    submitted to the session pool (or a fresh one) heaviest first by
    ``weights`` — a relative cost per point, QP count being the usual
    choice — with ties broken by input order, so the points most likely
    to straggle start first and light ones backfill.  Weights only move
    wall-clock, never results.
    """
    todo = list(points)
    jobs = default_jobs() if processes is None else max(1, int(processes))
    jobs = min(jobs, len(todo))
    if jobs <= 1 or serial_forced():
        return [fn(point) for point in todo]
    order = range(len(todo))
    if weights is not None:
        order = sorted(order, key=lambda i: (-weights[i], i))
    if _SESSION is not None:
        _SESSION.pooled_sweeps += 1
        return _submit(_SESSION.executor(jobs), fn, todo, order)
    with _make_pool(jobs) as pool:
        return _submit(pool, fn, todo, order)


def _submit(pool: ProcessPoolExecutor, fn, todo: List,
            order: Iterable[int]) -> List:
    """Submit ``todo`` in ``order``; collect results in input order."""
    futures = [None] * len(todo)
    for index in order:
        futures[index] = pool.submit(fn, todo[index])
    return [future.result() for future in futures]
