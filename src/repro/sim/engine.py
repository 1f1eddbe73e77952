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
* cancellation lives only in the timer class (transport timeouts, RNR
  waits, blind ticks, chaos-tracked link deliveries): a cancellable
  :class:`Event` filed in the same heap as ``(time, seq, None, event)``;
* :meth:`~Simulator.rearm` moves a timer's deadline in place, with the
  ``seq`` a cancel-then-arm would allocate.  A deadline no earlier than
  the event's heap entry leaves the entry be: when it surfaces early it
  is pushed again at the real ``(time, seq)``, moving no clock and
  counting no event.  An earlier one pushes a fresh entry and leaves
  the old one dead;
* dead entries are dropped as they surface; once more than
  :data:`COMPACT_MIN` make up over half the heap it is rebuilt;
* :meth:`Simulator.run` folds its ``until``/``max_events`` limits into
  integer bounds once and keeps the clock in a plain attribute.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

_heappush = heapq.heappush

#: ``run`` bound standing in for "no ``until``" / "no ``max_events``".
_UNBOUNDED = 1 << 62

#: Dead heap entries tolerated before the heap is rebuilt without them
#: (and only once they are more than half of it: amortised O(1)).
COMPACT_MIN = 64

#: Read-only view of a plain heap entry, as the probes hand it out: the
#: same ``.time/.seq/.fn/.args`` surface a timer :class:`Event` has.
PlainEvent = namedtuple("PlainEvent", "time seq fn args")

_time_seq = attrgetter("time", "seq")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. negative delays)."""


class Event:
    """A cancellable, re-armable scheduled callback: a *timer*.

    ``time``/``seq`` are its real deadline.  Its one live heap entry is
    keyed ``(_htime, _hseq)``, never later than that; any other entry
    that points at the event is dead.
    """

    __slots__ = ("time", "seq", "fn", "args", "_sim", "_htime", "_hseq")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple, sim: "Simulator"):
        self.time = self._htime = time
        self.seq = self._hseq = seq
        self.fn = fn
        self.args = args
        #: The owning simulator while pending; None once fired or
        #: cancelled.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op once
        the event has fired.  Drops the callback and its arguments."""
        sim = self._sim
        if sim is None:
            return  # already cancelled or already fired
        self._sim = None
        self._hseq = 0  # its heap entry is dead now
        self.fn = None
        self.args = ()
        sim._pending -= 1
        sim._bury()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self._sim is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._sim is not None else "done"
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
        #: ``(time, seq, None, event)`` timer entries.
        self._queue: List[tuple] = []
        self._fired: int = 0
        self._pending: int = 0    # live events
        self._dead: int = 0       # dead timer entries still in the heap
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

        Dead and re-filed timer entries are never counted, by ``step``
        and ``run`` alike.
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
        be cancelled or re-armed before it fires (transport timeouts,
        RNR waits, retransmit ticks).

        The timer is a ``(time, seq, None, event)`` heap entry and fires
        at exactly the ``(time, seq)`` position a :meth:`schedule` call
        would have.  Its handle can be re-armed with :meth:`rearm`.
        """
        return self.rearm(None, delay, fn, *args)

    def timer_at(self, time: int, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Arm a timer at an absolute timestamp (:meth:`at`'s contract,
        :meth:`schedule_timer`'s handle, re-armable by :meth:`rearm`).

        A link under chaos arms each tracked in-flight delivery this way,
        so that taking the link down can cancel it.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        return self.rearm(None, int(time) - self.now, fn, *args)

    def rearm(self, timer: Optional[Event], delay: int,
              fn: Callable[..., Any], *args: Any) -> Event:
        """Re-arm ``timer`` (pending, fired or cancelled; None for a new
        handle) to run ``fn(*args)`` ``delay`` ns from now; returns it.

        Exactly ``timer.cancel()`` then ``schedule_timer(delay, fn,
        *args)``, the same ``seq`` included, with the handle reused.  A
        deadline no earlier than the timer's heap entry keeps that entry
        (re-filed when it surfaces); an earlier one leaves it dead.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        time = self.now + int(delay)
        if timer is None:
            timer = Event(time, seq, fn, args, self)
            self._pending += 1
            _heappush(self._queue, (time, seq, None, timer))
            return timer
        timer.time = time
        timer.seq = seq
        timer.fn = fn
        timer.args = args
        pending = timer._sim is not None
        if pending and time >= timer._htime:
            return timer  # the entry surfaces first and is re-filed
        timer._htime = time
        timer._hseq = seq
        _heappush(self._queue, (time, seq, None, timer))
        if pending:
            self._bury()  # the old entry is superseded
        else:  # fired or cancelled: armed afresh
            timer._sim = self
            self._pending += 1
        return timer

    # ------------------------------------------------------------------
    # Timer bookkeeping
    # ------------------------------------------------------------------

    def _bury(self) -> None:
        """Count one more dead timer entry; rebuild the heap without
        them once more than :data:`COMPACT_MIN` make up over half of
        it."""
        self._dead = dead = self._dead + 1
        queue = self._queue
        if dead > COMPACT_MIN and 2 * dead > len(queue):
            # In place: ``run`` holds the list.  Pop order depends only
            # on the unique ``(time, seq)`` keys, so any valid heap of
            # the same entries fires identically.
            queue[:] = [entry for entry in queue
                        if entry[2] is not None or entry[1] == entry[3]._hseq]
            heapq.heapify(queue)
            self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when no live events remain.  Dead timer
        entries are discarded and re-armed ones re-filed silently; they
        do not count as a step.
        """
        fired = self._fired
        self.run(max_events=1)
        return self._fired != fired

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have *fired*.  Returns the final clock value.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if the last event fires earlier (mirroring "run for this
        long").  ``max_events`` counts executed events only — dead and
        re-filed timer entries consume no budget, keeping the accounting
        consistent with :meth:`step` and :attr:`events_fired`.
        """
        queue = self._queue
        pop = heapq.heappop
        push = _heappush
        limit = _UNBOUNDED if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        fired = 0
        while fired < budget:
            if not queue or queue[0][0] > limit:
                break
            time, seq, fn, args = pop(queue)
            if fn is None:  # a timer entry
                event = args
                if seq != event._hseq:  # dead
                    self._dead -= 1
                    continue
                if seq != event.seq:  # re-armed later: re-file
                    event._htime = event.time
                    event._hseq = event.seq
                    push(queue, (event.time, event.seq, None, event))
                    continue
                fn, args = event.fn, event.args
                event.fn = None  # mark fired, release references
                event.args = ()
                event._sim = None
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
        """Drop whatever the heap still holds.

        Called once a run's outputs have been read (see
        :meth:`repro.host.cluster.Cluster.release`): leftover entries
        are dead or unfired timers whose callbacks point back into the
        cell.  The clock and every counter stay readable.
        """
        self._queue.clear()
        self._dead = 0

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
        """True iff no live event fires at or before ``limit``.

        This is the global eligibility gate for applying a steady-state
        storm round as a single macro-event: any pending completion,
        timer, packet hop, or posting step that could interleave with the
        round is a live event inside the window, so a quiet window
        guarantees the closed-form synthesis replays exactly what the
        per-event cascade would have done.  Like the run loop, it drops
        dead entries at the heap head and re-files re-armed ones.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is None:
                event = head[3]
                seq = head[1]
                if seq != event._hseq:  # dead
                    heapq.heappop(queue)
                    self._dead -= 1
                    continue
                if seq != event.seq:  # re-armed later: re-file
                    event._htime = event.time
                    event._hseq = event.seq
                    heapq.heapreplace(queue,
                                      (event.time, event.seq, None, event))
                    continue
            return head[0] > limit
        return True

    def live_events_until(self, limit: int) -> List[Any]:
        """Every live event firing at or before ``limit``, in firing
        ``(time, seq)`` order.

        The storm coalescer's refined eligibility gate: a round whose
        span is not fully quiet may still be synthesised exactly when
        every event inside the span is provably non-interacting (e.g.
        another stale QP's blind tick landing after the round's last
        shared-resource touch).  The caller inspects each event's
        ``.time/.seq/.fn/.args`` to decide: timers as their
        :class:`Event` handles, plain entries as :class:`PlainEvent`
        views.  Read-only; it visits only heap nodes keyed at or before
        ``limit``, since no subtree is earlier than its root.
        """
        queue = self._queue
        events: List[Any] = []
        if not queue or queue[0][0] > limit:
            return events
        size = len(queue)
        stack = [0]
        while stack:
            index = stack.pop()
            entry = queue[index]
            if entry[2] is not None:
                events.append(PlainEvent._make(entry))
            else:
                event = entry[3]
                if entry[1] == event._hseq and event.time <= limit:
                    events.append(event)
            child = 2 * index + 1
            if child < size and queue[child][0] <= limit:
                stack.append(child)
            child += 1
            if child < size and queue[child][0] <= limit:
                stack.append(child)
        events.sort(key=_time_seq)
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
                f" dead={self._dead}>")
