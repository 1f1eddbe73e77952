"""A CPU clock in reference seconds, for timings that repeat on a shared host.

On a shared VM the same pure-Python loop can take twice as long from one
second to the next, in CPU time and not only in wall time: the host's
other tenants slow the core, its caches and its memory.  ``RefClock``
runs a fixed probe every ``INTERVAL_S`` of process CPU time, from a
``SIGPROF`` timer, and divides the CPU time of the work done since the
previous probe by the probe's slowdown against its nominal cost.  The
probe is four small pure-Python kernels -- dict and heap updates, method
calls on objects, and pointer chases over 20k and 200k list slots -- and
its slowdown is the geometric mean of theirs.

The clock reads in *reference seconds*: the CPU seconds the work would
have taken on a host where every kernel costs its ``NOMINAL_S``.  The
probe's own time is left out.  The probe is the benchmark's code, not
the program's, so a faster program still reads faster.

A forked pool worker inherits the clock; :func:`arm_workers` starts it
there and :func:`read_workers` collects every worker's reading.
"""

from __future__ import annotations

import atexit
import gc
import heapq
import math
import multiprocessing
import os
import random
import signal
import time
from typing import Dict, List, Optional, Tuple

#: Process CPU seconds between probes.
INTERVAL_S = 0.05
#: Nominal seconds of each probe kernel: their medians on a shared
#: 2-vCPU Xeon VM.  They fix the unit only; any constants would do.
NOMINAL_S = {
    "dict_heap": 0.0009,
    "calls": 0.0005,
    "chase_20k": 0.0006,
    "chase_200k": 0.0011,
}
#: How long a pool worker waits for its siblings at the barrier.
BARRIER_TIMEOUT_S = 60.0


class _Obj:
    __slots__ = ("psn", "state")

    def __init__(self) -> None:
        self.psn = 0
        self.state: Dict[int, int] = {}

    def step(self, value: int) -> None:
        self.psn += 1
        self.state[self.psn & 15] = value


def _ring(size: int, seed: int) -> List[int]:
    """A random cyclic permutation: ``ring[i]`` is the slot after ``i``."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    ring = [0] * size
    for here, there in zip(order, order[1:] + order[:1]):
        ring[here] = there
    return ring


class RefClock:
    """Work CPU time of this thread, raw and in reference seconds."""

    def __init__(self) -> None:
        self._objs = [_Obj() for _ in range(512)]
        # Rings of ints, not of objects: nothing for the program's
        # garbage collector to scan.
        self._rings = [_ring(20_000, 1), _ring(200_000, 2)]
        self._cursors = [0, 0]
        self._kernels = (("dict_heap", self._dict_heap),
                         ("calls", self._calls),
                         ("chase_20k", self._chase_20k),
                         ("chase_200k", self._chase_200k))
        self._slowdown = 1.0
        self._mark = 0.0
        self._busy = False
        self._old_handler = None
        self.running = False
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self.slowdowns: List[float] = []

    # -- the probe kernels ---------------------------------------------

    @staticmethod
    def _dict_heap(n: int = 1000) -> None:
        table: Dict[int, int] = {}
        heap: List[int] = []
        for i in range(n):
            table[i & 1023] = table.get(i & 1023, 0) + i
            heapq.heappush(heap, (i * 7919) % 10007)
            if len(heap) > 64:
                heapq.heappop(heap)

    def _calls(self, n: int = 1500) -> None:
        objs = self._objs
        for i in range(n):
            objs[(i * 37) & 511].step(i)

    def _chase(self, which: int, n: int) -> None:
        ring = self._rings[which]
        slot = self._cursors[which]
        for _ in range(n):
            slot = ring[slot]
        self._cursors[which] = slot

    def _chase_20k(self) -> None:
        self._chase(0, 2500)

    def _chase_200k(self) -> None:
        self._chase(1, 2500)

    def probe(self) -> float:
        """Run the probe once; its slowdown against the nominal costs."""
        logs = 0.0
        for name, kernel in self._kernels:
            start = time.thread_time()
            kernel()
            took = max(time.thread_time() - start, 1e-9)
            logs += math.log(took / NOMINAL_S[name])
        return math.exp(logs / len(self._kernels))

    # -- the clock -----------------------------------------------------

    def _tick(self, _signum=None, _frame=None) -> None:
        if self._busy:  # a late signal while probing: skip it
            return
        self._busy = True
        start = time.thread_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            slowdown = self.probe()
        finally:
            if collecting:
                gc.enable()
        end = time.thread_time()
        # The probe just run measures the interval it closes.
        work = start - self._mark
        self.raw_s += work
        self.ref_s += work / slowdown
        self.probe_s += end - start
        self.slowdowns.append(slowdown)
        self._slowdown = slowdown
        self._mark = end
        self.probes += 1
        self._busy = False

    def start(self) -> None:
        """Reset, probe once and start the timer in this process."""
        self.raw_s = self.ref_s = self.probe_s = 0.0
        self.probes = 0
        self.slowdowns = []
        self._busy = False
        self._mark = time.thread_time()
        self._tick()
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)
        self.running = False

    def read(self) -> Tuple[float, float]:
        """(raw CPU s, reference s) of the work so far; the interval
        still open is scaled by the latest probe."""
        while True:
            probes = self.probes
            open_s = time.thread_time() - self._mark
            raw = self.raw_s + open_s
            ref = self.ref_s + open_s / self._slowdown
            if probes == self.probes and open_s >= 0:
                return raw, ref


#: This process's clock, set by :func:`start`.  Module state because a
#: forked pool worker finds the clock, and the barrier, it inherited
#: here.
CLOCK: Optional[RefClock] = None
_BARRIER = None


def start() -> RefClock:
    """Build and start this process's clock.

    It is stopped at exit: interpreter shutdown puts ``SIGPROF`` back to
    its default action, which would kill the process at the next tick.
    """
    global CLOCK
    CLOCK = RefClock()
    CLOCK.start()
    atexit.register(_stop_at_exit)
    return CLOCK


def _stop_at_exit() -> None:
    if CLOCK is not None and CLOCK.running:
        CLOCK.stop()


def fork_barrier(workers: int) -> None:
    """Make the barrier the pool's workers meet at; call it before the
    pool forks them, so they inherit it."""
    global _BARRIER
    _BARRIER = multiprocessing.get_context("fork").Barrier(workers)


def _arm(_index: int) -> int:
    # Waiting for every sibling makes each worker take exactly one task.
    _BARRIER.wait(BARRIER_TIMEOUT_S)
    CLOCK.start()
    return os.getpid()


def _reading(_index: int) -> Tuple[int, float, float, float]:
    _BARRIER.wait(BARRIER_TIMEOUT_S)
    raw, ref = CLOCK.read()
    return os.getpid(), raw, ref, CLOCK.probe_s


def arm_workers(pool, workers: int) -> List[int]:
    """Start the clock in each of the pool's ``workers``; their pids.

    The pool must have been forked after :func:`start` and
    :func:`fork_barrier`, so that each worker holds both."""
    return sorted(pool.map(_arm, range(workers)))


def read_workers(pool, workers: int) -> Tuple[float, float, float]:
    """(raw CPU s, reference s, probe s) summed over the pool's workers."""
    readings = list(pool.map(_reading, range(workers)))
    if len({pid for pid, *_ in readings}) != workers:
        raise RuntimeError("a pool worker answered twice at the barrier")
    return (sum(r[1] for r in readings), sum(r[2] for r in readings),
            sum(r[3] for r in readings))
