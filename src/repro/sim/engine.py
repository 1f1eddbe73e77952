"""The discrete-event engine.

A :class:`Simulator` owns a priority queue of scheduled callbacks, an
integer-nanosecond clock, and a seeded random number generator.  Events
scheduled for the same timestamp fire in scheduling order, which makes
every run bit-for-bit reproducible for a given seed.

Hot-path design (the flood experiments push tens of millions of events
through this loop):

* fire-and-forget callbacks (:meth:`Simulator.schedule`,
  :meth:`~Simulator.at`, :meth:`~Simulator.call_soon`) enter the heap
  as bare ``(time, seq, fn, args)`` tuples — no per-event object, no
  handle; ``seq`` is unique, so every push/pop comparison is a C-level
  tuple compare that never reaches ``fn``;
* cancellation lives only in the timer class: transport timeouts, RNR
  waits, blind-retransmit ticks and chaos-tracked link deliveries are
  armed with :meth:`~Simulator.schedule_timer` / :meth:`~Simulator.timer_at`
  and get a cancellable :class:`Event` in a hierarchical timer wheel
  (:mod:`repro.sim.timerwheel`) with O(1) arm/cancel.  Just before
  coming due a timer is promoted into the heap as
  ``(time, seq, None, event)`` — firing order stays exactly
  ``(time, seq)`` — and only those entries are checked for
  cancellation when popped;
* :meth:`Simulator.run` folds its ``until``/``max_events`` limits into
  integer bounds once and keeps the clock in a plain attribute.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple
from typing import Any, Callable, Dict, List, Optional

from repro.sim.timerwheel import TimerWheel

_heappush = heapq.heappush

#: ``run`` bound standing in for "no ``until``" / "no ``max_events``".
_UNBOUNDED = 1 << 62

#: Read-only view of a plain heap entry, as the probes hand it out: the
#: same ``.time/.seq/.fn/.args`` surface a timer :class:`Event` has.
PlainEvent = namedtuple("PlainEvent", "time seq fn args")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. negative delays)."""


class Event:
    """A cancellable scheduled callback: a *timer*.

    Created by :meth:`Simulator.schedule_timer` / :meth:`Simulator.timer_at`.
    A cancelled timer is skipped rather than fired.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_home")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple, home: Any = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Simulator (heap-resident) or TimerWheel (wheel-resident); the
        #: owner keeps the live-event accounting when we are cancelled.
        self._home = home

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled or self.fn is None:
            return  # already cancelled or already fired
        self.cancelled = True
        home = self._home
        if home is not None:
            home._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} {name} {state}>"


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All model
        components draw randomness from :attr:`rng` so a run is fully
        determined by its seed.
    """

    def __init__(self, seed: int = 0):
        #: Current simulation time in nanoseconds.
        self.now: int = 0
        self._seq: int = 0
        #: ``(time, seq, fn, args)`` plain entries and
        #: ``(time, seq, None, event)`` promoted timers.
        self._queue: List[tuple] = []
        self._fired: int = 0
        self._pending: int = 0    # live events, heap + wheel
        self._wheel = TimerWheel(self)
        self.rng = random.Random(seed)
        self.seed = seed
        #: Macro-event accounting (storm coalescing): per-packet events
        #: that were *not* executed because a steady-state round was
        #: applied in closed form, and the simulated span they covered.
        #: Kept separate from :attr:`events_fired` so ``run(max_events)``
        #: and :meth:`pending_events` semantics are unchanged.
        self.events_coalesced: int = 0
        self.coalesced_ns: int = 0
        #: ``jitter`` draw bit-widths keyed by sample width (see there).
        self._jitter_specs: Dict[int, int] = {}

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (a cheap progress metric).

        Cancelled timers are skipped silently and never counted, by
        ``step`` and ``run`` alike.
        """
        return self._fired

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now.

        Fire-and-forget: there is no handle to cancel.  Use
        :meth:`schedule_timer` for anything that may need cancelling.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if type(delay) is not int:
            delay = int(delay)
        self._seq = seq = self._seq + 1
        self._pending += 1
        _heappush(self._queue, (self.now + delay, seq, fn, args))

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute timestamp
        (fire-and-forget, like :meth:`schedule`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        if type(time) is not int:
            time = int(time)
        self._seq = seq = self._seq + 1
        self._pending += 1
        _heappush(self._queue, (time, seq, fn, args))

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current timestamp (after the
        currently-executing event completes)."""
        self._seq = seq = self._seq + 1
        self._pending += 1
        _heappush(self._queue, (self.now, seq, fn, args))

    def schedule_timer(self, delay: int, fn: Callable[..., Any],
                       *args: Any) -> Event:
        """Schedule a cancellable *timer*: an event that will very likely
        be cancelled and re-armed before it fires (transport timeouts,
        RNR waits, retransmit ticks).

        Timers live in the hierarchical timer wheel — O(1) to arm and
        cancel — instead of the main heap, but fire at exactly the same
        ``(time, seq)`` position a :meth:`schedule` call would have.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        event = Event(self.now + int(delay), self._seq, fn, args)
        self._pending += 1
        self._wheel.insert(event)
        return event

    def timer_at(self, time: int, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Arm a timer at an absolute timestamp (:meth:`at`'s contract,
        :meth:`schedule_timer`'s wheel residency and handle).

        A link under chaos arms each tracked in-flight delivery this way,
        so that taking the link down can cancel it.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        self._seq += 1
        event = Event(int(time), self._seq, fn, args)
        self._pending += 1
        self._wheel.insert(event)
        return event

    # ------------------------------------------------------------------
    # Timer bookkeeping
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        """A heap-resident timer was cancelled (called by Event.cancel);
        its dead entry is dropped when it surfaces."""
        self._pending -= 1

    def _promote_due(self) -> None:
        """Pull wheel timers that may fire at or before the heap head
        into the heap, so the pop order is globally ``(time, seq)``."""
        queue = self._queue
        wheel = self._wheel

        def push(entry, _push=heapq.heappush, _queue=queue):
            _push(_queue, entry)

        while wheel._live:
            if queue:
                limit = queue[0][0]
            else:
                limit = wheel.next_deadline()
                if limit is None:
                    return
            wheel.promote_until(limit, push)
            if queue and queue[0][0] < wheel._next:
                return

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when no live events remain.  Cancelled timers
        are discarded silently and do not count as a step.
        """
        queue = self._queue
        wheel = self._wheel
        pop = heapq.heappop
        while True:
            if wheel._live and (not queue or queue[0][0] >= wheel._next):
                self._promote_due()
            if not queue:
                return False
            time, _seq, fn, args = pop(queue)
            if fn is None:  # a promoted timer
                event = args
                if event.cancelled:
                    continue
                fn, args = event.fn, event.args
                event.fn = None  # mark fired, release references
                event.args = ()
                event._home = None
            self.now = time
            self._fired += 1
            self._pending -= 1
            fn(*args)
            return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have *fired*.  Returns the final clock value.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if the last event fires earlier (mirroring "run for this
        long").  ``max_events`` counts executed events only — silently
        skipped cancelled timers do not consume budget, keeping the
        accounting consistent with :meth:`step` and :attr:`events_fired`.
        """
        queue = self._queue
        wheel = self._wheel
        pop = heapq.heappop
        limit = _UNBOUNDED if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        fired = 0
        while fired < budget:
            if wheel._live and (not queue or queue[0][0] >= wheel._next):
                self._promote_due()
            if not queue or queue[0][0] > limit:
                break
            time, _seq, fn, args = pop(queue)
            if fn is None:  # a promoted timer
                event = args
                if event.cancelled:
                    continue
                fn, args = event.fn, event.args
                event.fn = None  # mark fired, release references
                event.args = ()
                event._home = None
            self.now = time
            fired += 1
            self._pending -= 1
            fn(*args)
        self._fired += fired
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain.  ``max_events`` is a runaway guard."""
        self.run(max_events=max_events)
        if self._pending:
            raise SimulationError(
                f"simulation did not converge after {max_events} events"
            )
        return self.now

    def release(self) -> None:
        """Drop whatever the heap and the timer wheel still hold.

        Called once a run's outputs have been read (see
        :meth:`repro.host.cluster.Cluster.release`): leftover entries
        are cancelled timers whose callbacks point back into the cell.
        The clock and every counter stay readable.
        """
        self._queue.clear()
        self._wheel.release()

    def pending_events(self) -> int:
        """Number of live (scheduled, not yet fired or cancelled) events.

        O(1): a counter maintained on schedule/fire/cancel, not a queue
        scan — it sits on progress paths like the micro-benchmark's.
        """
        return self._pending

    # ------------------------------------------------------------------
    # Macro-events (storm coalescing)
    # ------------------------------------------------------------------

    def quiet_until(self, limit: int) -> bool:
        """True iff no live event (heap or wheel) fires at or before
        ``limit``.

        This is the global eligibility gate for applying a steady-state
        storm round as a single macro-event: any pending completion,
        timer, packet hop, or posting step that could interleave with the
        round is a live event inside the window, so a quiet window
        guarantees the closed-form synthesis replays exactly what the
        per-event cascade would have done.  Cancelled timers at the heap
        head are popped in passing (same bookkeeping as the run loop).
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is None and head[3].cancelled:
                heapq.heappop(queue)
                continue
            if head[0] <= limit:
                return False
            break
        wheel = self._wheel
        if wheel._live and wheel._next <= limit:
            # The cached bound is conservative (never above the true
            # earliest slot start); resolve it with an exact probe.
            return wheel.earliest_until(limit) is None
        return True

    def live_events_until(self, limit: int) -> List[Any]:
        """Every live event (heap or wheel) firing at or before ``limit``.

        The storm coalescer's refined eligibility gate: a round whose
        span is not fully quiet may still be synthesised exactly when
        every event inside the span is provably non-interacting (e.g.
        another stale QP's blind tick landing after the round's last
        shared-resource touch).  The caller inspects each event's
        ``.time/.seq/.fn/.args`` to decide.  Timers come back as their
        :class:`Event` handles, plain entries as :class:`PlainEvent`
        views.  Unordered; cancelled timers are skipped (heap entries
        are left in place — this is a read-only probe).
        """
        events: List[Any] = []
        for entry in self._queue:
            if entry[0] <= limit:
                if entry[2] is not None:
                    events.append(PlainEvent._make(entry))
                elif not entry[3].cancelled:
                    events.append(entry[3])
        wheel = self._wheel
        if wheel._live and wheel._next <= limit:
            events.extend(wheel.events_until(limit))
        return events

    def note_coalesced(self, events: int, span_ns: int) -> None:
        """Record that a macro-event stood in for ``events`` per-packet
        events spanning ``span_ns`` of simulated time."""
        self.events_coalesced += events
        self.coalesced_ns += span_ns

    # ------------------------------------------------------------------
    # Randomness helpers
    # ------------------------------------------------------------------

    def uniform_ns(self, lo: int, hi: int) -> int:
        """Sample an integer-ns duration uniformly from ``[lo, hi]``."""
        if hi < lo:
            raise SimulationError(f"empty uniform range [{lo}, {hi}]")
        return self.rng.randint(int(lo), int(hi))

    def jitter(self, base: int, fraction: float) -> int:
        """Sample ``base`` +/- ``fraction`` relative jitter (clamped >= 0).

        The draw is ``rng.randint(-spread, spread)`` with the three
        layers of ``random.Random`` argument handling peeled off: both
        resolve to the same rejection loop over ``getrandbits(k)`` with
        ``k = (2*spread + 1).bit_length()``, so the shared Mersenne
        stream advances identically either way (a test pins this).
        This runs once per storm tick — tens of thousands of draws per
        flood run.
        """
        spread = int(base * fraction)
        if spread <= 0:
            return base
        width = 2 * spread + 1
        bits = self._jitter_specs.get(width)
        if bits is None:
            bits = width.bit_length()
            self._jitter_specs[width] = bits
        getrandbits = self.rng.getrandbits
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        value = base - spread + r
        return value if value > 0 else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now}ns queue={len(self._queue)}"
                f" wheel={self._wheel._live}>")
