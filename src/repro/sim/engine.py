"""The discrete-event engine.

A :class:`Simulator` owns a priority queue of :class:`Event` objects, an
integer-nanosecond clock, and a seeded random number generator.  Events
scheduled for the same timestamp fire in scheduling order, which makes
every run bit-for-bit reproducible for a given seed.

Hot-path design (the flood experiments push tens of millions of events
through this loop):

* heap entries are ``(time, seq, event)`` tuples so every push/pop
  comparison is a C-level tuple compare, never a Python ``__lt__`` call;
* cancellation is lazy but *bounded*: a counter tracks dead entries and
  the heap is compacted in place once they outnumber the live ones, so
  cancel-heavy transport workloads cannot bloat the queue;
* the high-churn schedule-then-cancel timer class (transport timeouts,
  RNR waits, blind-retransmit ticks) lives in a hierarchical timer
  wheel (:mod:`repro.sim.timerwheel`) with O(1) arm/cancel, and is
  promoted into the heap just before coming due — firing order stays
  exactly ``(time, seq)``;
* :meth:`Simulator.run` uses a batched inner loop with attribute
  lookups hoisted into locals and skips trace-hook dispatch entirely
  when no hooks are registered.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.timerwheel import TimerWheel

#: Dead heap entries tolerated before an in-place compaction.
COMPACT_MIN = 64

_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. negative delays)."""


class Event:
    """A single scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.at` / :meth:`Simulator.schedule_timer` and support
    cancellation: a cancelled event is skipped (and its storage
    reclaimed in bulk) rather than fired.
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
        #: owner keeps the live/dead accounting when we are cancelled.
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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

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
        self._now: int = 0
        self._seq: int = 0
        self._queue: List[Tuple[int, int, Event]] = []
        self._fired: int = 0
        self._cancelled: int = 0  # dead entries still in the heap
        self._pending: int = 0    # live events, heap + wheel
        self._wheel = TimerWheel(self)
        self.rng = random.Random(seed)
        self.seed = seed
        self.trace_hooks: List[Callable[[int, Event], None]] = []
        #: Macro-event accounting (storm coalescing): per-packet events
        #: that were *not* executed because a steady-state round was
        #: applied in closed form, and the simulated span they covered.
        #: Kept separate from :attr:`events_fired` so ``run(max_events)``
        #: and :meth:`pending_events` semantics are unchanged.
        self.events_coalesced: int = 0
        self.coalesced_ns: int = 0
        #: ``jitter`` draw bit-widths keyed by sample width (see there).
        self._jitter_specs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (a cheap progress metric).

        Cancelled events are skipped silently and never counted, by
        ``step`` and ``run`` alike.
        """
        return self._fired

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if type(delay) is not int:
            delay = int(delay)
        # ``at`` inlined: the most frequent call in every workload.
        self._seq = seq = self._seq + 1
        time = self._now + delay
        event = Event(time, seq, fn, args, self)
        self._pending += 1
        _heappush(self._queue, (time, seq, event))
        return event

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute timestamp."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        if type(time) is not int:
            time = int(time)
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        self._pending += 1
        _heappush(self._queue, (time, seq, event))
        return event

    def schedule_timer(self, delay: int, fn: Callable[..., Any],
                       *args: Any) -> Event:
        """Schedule a *timer*: an event that will very likely be
        cancelled and re-armed before it fires (transport timeouts, RNR
        waits, retransmit ticks).

        Timers live in the hierarchical timer wheel — O(1) to arm and
        cancel — instead of the main heap, but fire at exactly the same
        ``(time, seq)`` position a :meth:`schedule` call would have:
        the two are behaviourally interchangeable.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        event = Event(self._now + int(delay), self._seq, fn, args)
        self._pending += 1
        self._wheel.insert(event)
        return event

    def timer_at(self, time: int, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Arm a timer at an absolute timestamp (:meth:`at`'s contract,
        :meth:`schedule_timer`'s wheel residency).

        The batched-delivery fast-forward re-arms absorbed storm ticks
        from the batch's own instant: the replacement timer must carry
        the next fresh sequence number (the position the absorbed
        tick's own re-arm would have drawn — nothing else schedules in
        a proven-quiet window) and must live in the wheel so
        steady-state floods keep the main heap small.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        self._seq += 1
        event = Event(int(time), self._seq, fn, args)
        self._pending += 1
        self._wheel.insert(event)
        return event

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current timestamp (after the
        currently-executing event completes)."""
        return self.schedule(0, fn, *args)

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        """A heap-resident event was cancelled (called by Event.cancel)."""
        self._pending -= 1
        self._cancelled += 1
        if self._cancelled > COMPACT_MIN \
                and self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its dead entries, in place (callers
        in the run loop hold a reference to the same list object)."""
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

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

        Returns ``False`` when no live events remain.  Cancelled events
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
            time, _seq, event = pop(queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            self._fired += 1
            self._pending -= 1
            fn, args = event.fn, event.args
            event.fn = None  # mark fired, release references
            event.args = ()
            event._home = None
            if self.trace_hooks:
                for hook in self.trace_hooks:
                    hook(time, event)
            fn(*args)
            return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have *fired*.  Returns the final clock value.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if the last event fires earlier (mirroring "run for this
        long").  ``max_events`` counts executed events only — silently
        skipped cancelled entries do not consume budget, keeping the
        accounting consistent with :meth:`step` and :attr:`events_fired`.
        """
        queue = self._queue
        wheel = self._wheel
        pop = heapq.heappop
        hooks = self.trace_hooks
        fired = 0
        while True:
            if wheel._live and (not queue or queue[0][0] >= wheel._next):
                self._promote_due()
            if not queue:
                break
            time, _seq, event = queue[0]
            if event.cancelled:
                pop(queue)
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                break
            if max_events is not None and fired >= max_events:
                break
            pop(queue)
            self._now = time
            fired += 1
            self._pending -= 1
            fn, args = event.fn, event.args
            event.fn = None  # mark fired, release references
            event.args = ()
            event._home = None
            if hooks:
                for hook in hooks:
                    hook(time, event)
            fn(*args)
        self._fired += fired
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain.  ``max_events`` is a runaway guard."""
        self.run(max_events=max_events)
        if self._pending:
            raise SimulationError(
                f"simulation did not converge after {max_events} events"
            )
        return self._now

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
        per-event cascade would have done.  Cancelled heap heads are
        popped in passing (same bookkeeping as the run loop).
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time, _seq, event = queue[0]
            if event.cancelled:
                pop(queue)
                self._cancelled -= 1
                continue
            if time <= limit:
                return False
            break
        wheel = self._wheel
        if wheel._live and wheel._next <= limit:
            # The cached bound is conservative (never above the true
            # earliest slot start); resolve it with an exact probe.
            return wheel.earliest_until(limit) is None
        return True

    def live_events_until(self, limit: int) -> List[Event]:
        """Every live event (heap or wheel) firing at or before ``limit``.

        The storm coalescer's refined eligibility gate: a round whose
        span is not fully quiet may still be synthesised exactly when
        every event inside the span is provably non-interacting (e.g.
        another stale QP's blind tick landing after the round's last
        shared-resource touch).  The caller inspects each event's
        callback and timestamp to decide.  Unordered; cancelled entries
        are skipped (heap entries are left in place — this is a read-only
        probe).
        """
        events = [event for time, _seq, event in self._queue
                  if time <= limit and not event.cancelled]
        wheel = self._wheel
        if wheel._live and wheel._next <= limit:
            events.extend(wheel.events_until(limit))
        return events

    def ready_batch(self, limit: int) -> List[Event]:
        """Live events firing at or before ``limit`` in exact firing
        order (``(time, seq)``).

        The batch-delivery consumers (the array core's joint-round
        recruitment, bulk observers) need the events of a horizon *in
        the order the run loop would fire them*, not the heap/wheel's
        internal layout; this wraps :meth:`live_events_until` with that
        ordering guarantee.  Read-only, like the probes it builds on.
        """
        events = self.live_events_until(limit)
        events.sort(key=lambda event: (event.time, event.seq))
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
        return (f"<Simulator t={self._now}ns queue={len(self._queue)}"
                f" wheel={self._wheel._live}>")
