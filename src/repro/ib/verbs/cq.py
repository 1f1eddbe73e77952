"""Completion queues.

``poll`` mirrors ``ibv_poll_cq``; ``wait(n)`` returns a
:class:`~repro.sim.future.Future` usable from simulation processes (the
moral equivalent of busy-polling the CQ as the paper's micro-benchmark
``wait()`` does, without burning simulated cycles).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.ib.verbs.wr import WorkCompletion
from repro.sim.engine import Simulator
from repro.sim.future import Future


class CompletionQueue:
    """FIFO of work completions with future-based waiting."""

    def __init__(self, sim: Simulator, cqn: int, capacity: int = 65536):
        self.sim = sim
        self.cqn = cqn
        self.capacity = capacity
        self._entries: Deque[WorkCompletion] = deque()
        self._waiters: List[Tuple[int, Future]] = []
        self.total_completions = 0
        self.overflows = 0
        self.on_completion: Optional[Callable[[WorkCompletion], None]] = None
        #: passive observers called as ``hook(cq, wc)`` on every push
        #: (invariant monitor); guarded so an empty list costs nothing,
        #: and separate from ``on_completion`` which workloads own.
        self.push_hooks: List[Callable[["CompletionQueue",
                                        WorkCompletion], None]] = []

    def push(self, wc: WorkCompletion) -> None:
        """Insert a completion (called by the transport)."""
        if len(self._entries) >= self.capacity:
            self.overflows += 1
            return
        self._entries.append(wc)
        self.total_completions += 1
        if self.push_hooks:
            for hook in self.push_hooks:
                hook(self, wc)
        if self.on_completion is not None:
            self.on_completion(wc)
        self._satisfy_waiters()

    def release(self) -> None:
        """Drop the stored callbacks (end of run); the queued
        completions and the tallies stay readable."""
        self.on_completion = None
        self.push_hooks.clear()

    def poll(self, max_entries: int = 1) -> List[WorkCompletion]:
        """Drain up to ``max_entries`` completions (``ibv_poll_cq``)."""
        out: List[WorkCompletion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        return out

    def wait(self, n: int = 1) -> Future:
        """Future resolving with ``n`` completions once available.

        Completions handed to a waiter are consumed from the queue.
        """
        future = Future(label=f"cq{self.cqn}.wait({n})")
        self._waiters.append((n, future))
        self._satisfy_waiters()
        return future

    def _satisfy_waiters(self) -> None:
        while self._waiters:
            n, future = self._waiters[0]
            if len(self._entries) < n:
                return
            self._waiters.pop(0)
            batch = [self._entries.popleft() for _ in range(n)]
            future.resolve(batch)

    @property
    def depth(self) -> int:
        """Entries currently queued."""
        return len(self._entries)
