"""A hierarchical timer wheel for high-churn schedule-then-cancel timers.

The RC transport arms a retransmission timeout on nearly every posted
request and cancels it on nearly every ACK; RNR waits and blind
retransmit ticks behave the same way.  Keeping those timers in the main
event heap means every cancelled timer stays behind as a dead entry
until its (far-future) expiry bubbles to the top — in flood runs the
heap fills with hundreds of thousands of corpses and every push/pop
pays ``O(log n)`` on garbage.

This wheel gives the schedule/cancel cycle ``O(1)`` cost:

* timers are hashed into per-level slots keyed by ``expiry >> shift``;
  level 0 slots are ~65 us wide, each further level 256x coarser;
* cancellation just flags the :class:`~repro.sim.engine.Event`; slots
  are swept in bulk once dead entries outnumber the live ones;
* shortly before a slot comes due its live timers are *promoted* into
  the simulator's main heap as ``(time, seq, None, event)`` entries
  (cascading through finer levels first), so events fire in exact
  ``(time, seq)`` order — the wheel is an index, never a source of
  timing slop.  Timers and plain heap events are therefore bit-for-bit
  interchangeable in firing order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Event, Simulator

#: Slot-width shifts per level: ~65 us, ~16.8 ms, ~4.3 s, ~18 min.
LEVEL_SHIFTS = (16, 24, 32, 40)

#: Slots a level can cover before the next (256x coarser) level is used.
#: Must equal ``1 << (shift gap)`` so cascading strictly descends levels.
LEVEL_SPAN = 256

#: Dead entries tolerated before a bulk sweep (amortised O(1) cancels).
SWEEP_MIN = 64

#: "No occupied slot" sentinel for the cached next-deadline bound.
FAR_FUTURE = 1 << 62

#: ``enumerate(LEVEL_SHIFTS)`` materialised once: ``insert`` runs for
#: every armed timer, and the enumerate object per call is measurable
#: in deep floods.
_LEVELS = tuple(enumerate(LEVEL_SHIFTS))


class TimerWheel:
    """Per-:class:`Simulator` timer index; see the module docstring."""

    __slots__ = ("sim", "_slots", "_key_heaps", "_live", "_cancelled",
                 "_next")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: per level: slot key -> events in insertion (seq) order
        self._slots: Tuple[Dict[int, List["Event"]], ...] = tuple(
            {} for _ in LEVEL_SHIFTS)
        #: per level: min-heap of occupied slot keys (lazily cleaned)
        self._key_heaps: Tuple[List[int], ...] = tuple(
            [] for _ in LEVEL_SHIFTS)
        self._live = 0
        self._cancelled = 0
        #: cached lower bound on the earliest occupied slot start; may
        #: lag below the true value (a wasted promotion check refreshes
        #: it) but never above, so the engine's one-compare fast path
        #: cannot fire a timer late.
        self._next = FAR_FUTURE

    # ------------------------------------------------------------------
    # Insertion / cancellation
    # ------------------------------------------------------------------

    def insert(self, event: "Event", now: Optional[int] = None) -> None:
        """File ``event`` under the finest level that can hold it."""
        if now is None:
            now = self.sim.now
        time = event.time
        for level, shift in _LEVELS:
            if (time >> shift) - (now >> shift) < LEVEL_SPAN:
                key = time >> shift
                slots = self._slots[level]
                bucket = slots.get(key)
                if bucket is None:
                    slots[key] = [event]
                    heappush(self._key_heaps[level], key)
                    start = key << shift
                    if start < self._next:
                        self._next = start
                else:
                    bucket.append(event)
                event._home = self
                self._live += 1
                return
        # Expiry beyond the top level's horizon (~years): the heap is fine.
        event._home = self.sim
        heappush(self.sim._queue, (time, event.seq, None, event))

    def _note_cancel(self) -> None:
        """A wheel-resident event was cancelled (called by Event.cancel)."""
        self.sim._pending -= 1
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > SWEEP_MIN and self._cancelled > self._live:
            self._sweep()

    def _sweep(self) -> None:
        """Drop every cancelled entry from every slot, in place."""
        for slots in self._slots:
            for key in list(slots):
                bucket = slots[key]
                alive = [e for e in bucket if not e.cancelled]
                if alive:
                    bucket[:] = alive
                else:
                    # Stale keys left in the key heap are skipped lazily.
                    del slots[key]
        self._cancelled = 0

    def release(self) -> None:
        """Forget every filed timer and the simulator (end of a run).

        Each live or cancelled event a slot still holds keeps its
        callback, which points back into the cell that armed it; the
        wheel's own ``sim`` closes a simulator <-> wheel cycle.
        """
        for slots in self._slots:
            slots.clear()
        self.sim = None

    # ------------------------------------------------------------------
    # Promotion into the main heap
    # ------------------------------------------------------------------

    def _earliest(self) -> Optional[Tuple[int, int, int]]:
        """(slot start time, level, key) of the earliest occupied slot."""
        best = None
        for level, shift in enumerate(LEVEL_SHIFTS):
            keys = self._key_heaps[level]
            slots = self._slots[level]
            while keys and keys[0] not in slots:
                heappop(keys)  # key emptied by a sweep or a promotion
            if keys:
                start = keys[0] << shift
                if best is None or start < best[0]:
                    best = (start, level, keys[0])
        return best

    def next_deadline(self) -> Optional[int]:
        """Lower bound on the earliest live timer's expiry (slot start)."""
        if not self._live:
            return None
        best = self._earliest()
        return None if best is None else best[0]

    def earliest_until(self, limit: int) -> Optional[int]:
        """Exact earliest live expiry at or before ``limit``, or None.

        :meth:`next_deadline` only bounds expiries by slot *start* (a
        level-0 slot is ~65 us wide), which is far too coarse to gate
        storm coalescing windows of comparable size.  This probe visits
        only the slots whose key range could hold a timer expiring at or
        before ``limit`` and compares actual expiries.  Read-only: no
        promotion, no cache refresh, no slot mutation.
        """
        if not self._live:
            return None
        now = self.sim.now
        best: Optional[int] = None
        for level, shift in enumerate(LEVEL_SHIFTS):
            slots = self._slots[level]
            if not slots:
                continue
            # Every live timer expires after ``now`` (earlier ones were
            # promoted before the engine advanced the clock), so keys
            # below ``now >> shift`` cannot occur.
            lo = now >> shift
            hi = limit >> shift
            if hi - lo + 1 >= len(slots):
                keys = [key for key in slots if key <= hi]
            else:
                keys = [key for key in range(lo, hi + 1) if key in slots]
            for key in keys:
                for event in slots[key]:
                    if event.cancelled or event.time > limit:
                        continue
                    if best is None or event.time < best:
                        best = event.time
        return best

    def events_until(self, limit: int) -> List["Event"]:
        """Every live timer expiring at or before ``limit``, unordered.

        Same read-only slot walk as :meth:`earliest_until`, collecting
        the events instead of the minimum — the storm coalescer inspects
        them to decide whether a non-quiet span is still synthesisable.
        """
        found: List["Event"] = []
        if not self._live:
            return found
        now = self.sim.now
        for level, shift in enumerate(LEVEL_SHIFTS):
            slots = self._slots[level]
            if not slots:
                continue
            lo = now >> shift
            hi = limit >> shift
            if hi - lo + 1 >= len(slots):
                keys = [key for key in slots if key <= hi]
            else:
                keys = [key for key in range(lo, hi + 1) if key in slots]
            for key in keys:
                for event in slots[key]:
                    if not event.cancelled and event.time <= limit:
                        found.append(event)
        return found

    def promote_until(self, limit: int,
                      push: Callable[[Tuple[int, int, None, "Event"]], None]
                      ) -> None:
        """Move every timer that may expire at or before ``limit`` into
        the main heap (via ``push``), cascading coarse slots through
        finer levels.  After this returns, any timer still in the wheel
        expires strictly after ``limit``."""
        while True:
            best = self._earliest()
            if best is None:
                self._next = FAR_FUTURE
                return
            if best[0] > limit:
                self._next = best[0]
                return
            start, level, key = best
            bucket = self._slots[level].pop(key)
            heappop(self._key_heaps[level])
            sim = self.sim
            for event in bucket:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if level == 0 or event.time <= limit:
                    # Within one fine slot of due: the heap orders exactly.
                    event._home = sim
                    self._live -= 1
                    push((event.time, event.seq, None, event))
                else:
                    # Re-file relative to ``limit``; lands on a strictly
                    # finer level because slot width < LEVEL_SPAN slots
                    # of the level below.
                    self._live -= 1
                    self.insert(event, now=limit)
