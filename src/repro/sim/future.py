"""One-shot synchronisation primitive for simulator code.

A :class:`Future` is resolved exactly once with a value (or an exception)
and then invokes its registered callbacks.  Processes created with
:mod:`repro.sim.process` may ``yield`` a future to suspend until it
resolves.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence


class FutureError(RuntimeError):
    """Raised on double-resolution or result access before resolution."""


class Future:
    """A one-shot container for a value produced later in simulated time."""

    __slots__ = ("_done", "_result", "_exception", "_callbacks", "label")

    def __init__(self, label: str = ""):
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self.label = label

    @property
    def done(self) -> bool:
        """True once the future has been resolved or failed."""
        return self._done

    @property
    def result(self) -> Any:
        """The resolved value.  Raises if not yet done or if failed."""
        if not self._done:
            raise FutureError(f"future {self.label!r} not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        """The stored exception, if the future failed."""
        return self._exception

    def resolve(self, value: Any = None) -> None:
        """Resolve with ``value`` and run callbacks immediately."""
        if self._done:
            raise FutureError(f"future {self.label!r} resolved twice")
        self._done = True
        self._result = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Resolve the future with an exception."""
        if self._done:
            raise FutureError(f"future {self.label!r} resolved twice")
        self._done = True
        self._exception = exc
        self._fire()

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` on resolution (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Future {self.label!r} {state}>"


def all_of(futures: Sequence[Future], label: str = "all_of") -> Future:
    """Return a future that resolves (with a list of results, in input
    order) once every input future has resolved.  An empty sequence
    resolves immediately.

    If any input fails, the aggregate fails with the exception of the
    first child to fail: first in resolution order, or first in list
    order when children have already failed at call time.  Later
    failures or successes change nothing.  Each resolution costs O(1):
    only the child that just resolved is inspected.
    """
    aggregate = Future(label)
    remaining = len(futures)
    if remaining == 0:
        aggregate.resolve([])
        return aggregate

    def on_done(child: Future) -> None:
        nonlocal remaining
        if aggregate.done:
            return
        exc = child.exception
        if exc is not None:
            aggregate.fail(exc)
            return
        remaining -= 1
        if remaining == 0:
            aggregate.resolve([f.result for f in futures])

    for future in futures:
        future.add_callback(on_done)
    return aggregate
