"""The seed event engine, kept verbatim as a test oracle.

``test_engine_fastpath`` replays random schedule/cancel scripts on this
engine and on :class:`repro.sim.engine.Simulator` and requires the same
firing order: an object-comparison heap with lazy cancellation and no
timer wheel, as the engine was before any fast path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List


class _SeedEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_SeedEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class SeedSimulator:
    """The seed engine, kept verbatim as the firing-order oracle."""

    def __init__(self, seed: int = 0):
        self._now = 0
        self._seq = 0
        self._queue: List[_SeedEvent] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, delay: int, fn: Callable[..., Any],
                 *args: Any) -> _SeedEvent:
        self._seq += 1
        event = _SeedEvent(self._now + int(delay), self._seq, fn, args)
        heapq.heappush(self._queue, event)
        return event

    # The seed engine had no separate timer class; timers went on the heap.
    schedule_timer = schedule

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            fn, args = event.fn, event.args
            event.fn = None
            event.args = ()
            fn(*args)
            return True
        return False

    def run_until_idle(self) -> int:
        while self.step():
            pass
        return self._now
