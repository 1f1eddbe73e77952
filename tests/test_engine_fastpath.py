"""Engine semantics under the bare-tuple heap fast path and the
re-armable timer.

The contract being pinned down: ``schedule_timer`` (cancellable,
re-armable handle) and ``schedule`` (fire-and-forget) are bit-for-bit
interchangeable in firing order — same ``(time, seq)`` positions, same
counters — and heap hygiene (dead entries, re-filed re-armed entries,
compaction) never changes observable behaviour.
"""

import heapq
import random

import pytest

from repro.sim.engine import COMPACT_MIN, Event, SimulationError, Simulator
from tests.seed_engine import SeedSimulator

#: A deadline minutes out, far beyond any transport timer.
FAR = 1 << 50


class TestFastPathSemantics:
    def test_same_timestamp_fifo_across_heap_and_wheel(self):
        """Plain events and timers at one timestamp interleave in
        scheduling (seq) order."""
        sim = Simulator()
        order = []
        for tag in range(8):
            if tag % 2:
                sim.schedule_timer(1000, order.append, tag)
            else:
                sim.schedule(1000, order.append, tag)
        sim.run_until_idle()
        assert order == list(range(8))

    def test_schedule_timer_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_timer(-5, lambda: None)

    def test_at_in_the_past_rejected_after_wheel_run(self):
        """A run that only fired timers still advanced the clock."""
        sim = Simulator()
        sim.schedule_timer(100, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(10_000_000, fired.append, 1)
        assert timer.pending
        timer.cancel()
        assert not timer.pending
        sim.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent_in_counters(self):
        sim = Simulator()
        event = sim.schedule_timer(FAR, lambda: None)
        timer = sim.schedule_timer(10, lambda: None)
        sim.rearm(timer, 20, lambda: None)  # a re-filed entry
        for _ in range(3):
            event.cancel()
            timer.cancel()
        assert sim.pending_events() == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        event = sim.schedule_timer(10, lambda: None)
        sim.run_until_idle()
        event.cancel()  # must not corrupt the pending counter
        assert sim.pending_events() == 0
        assert sim.events_fired == 1


class TestCompaction:
    #: A live timer plus the dead entries compaction tolerates beside it.
    BOUND = 2 * (COMPACT_MIN + 1)

    @pytest.mark.parametrize("churn", ["cancel", "earlier", "later"])
    def test_churn_leaves_bounded_heap(self, churn):
        """1,000 cancel or re-arm cycles leave a bounded heap, and the
        surviving timer still fires once, on time."""
        sim = Simulator()
        fired = []
        timer = None
        for step in range(1_000):
            delay = 500_000_000 + (1_000 - step if churn == "earlier"
                                   else step)
            if churn == "cancel":
                if timer is not None:
                    timer.cancel()
                timer = sim.schedule_timer(delay, fired.append, "late")
            else:
                timer = sim.rearm(timer, delay, fired.append, "late")
            assert len(sim._queue) <= self.BOUND
        if churn == "later":
            assert len(sim._queue) == 1  # one entry, re-filed in place
        assert sim.pending_events() == 1
        sim.run_until_idle()
        assert fired == ["late"]
        assert sim.now == delay
        assert sim.events_fired == 1


class TestAccounting:
    def test_pending_events_is_live_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(10 + i, lambda: None)
        events = [sim.schedule_timer(FAR + i, lambda: None)
                  for i in range(5)]
        timers = [sim.schedule_timer(10_000_000, lambda: None)
                  for _ in range(5)]
        assert sim.pending_events() == 15
        events[0].cancel()
        timers[0].cancel()
        assert sim.pending_events() == 13
        sim.run_until_idle()
        assert sim.pending_events() == 0

    def test_run_max_events_skips_cancelled_silently(self):
        """``max_events`` counts fired events only — cancelled entries
        consume no budget (run/step/events_fired agree)."""
        sim = Simulator()
        fired = []
        events = [sim.schedule_timer(10 + i, fired.append, i)
                  for i in range(10)]
        for event in events[:5]:
            event.cancel()
        sim.run(max_events=3)
        assert fired == [5, 6, 7]
        assert sim.events_fired == 3
        sim.run(max_events=50)
        assert fired == [5, 6, 7, 8, 9]
        assert sim.events_fired == 5

    def test_step_and_run_agree_on_events_fired(self):
        def build():
            sim = Simulator()
            events = [sim.schedule_timer(10 + i, lambda: None)
                      for i in range(8)]
            for event in events[::2]:
                event.cancel()
            return sim

        stepped = build()
        while stepped.step():
            pass
        ran = build()
        ran.run()
        assert stepped.events_fired == ran.events_fired == 4

    def test_run_until_idle_guard_counts_only_fired(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)


class _Oracle(SeedSimulator):
    """The seed engine plus the two calls the script makes, in its own
    terms: a re-arm is cancel-then-arm, and ``run(until)`` steps while
    the earliest live event is due."""

    def rearm(self, timer, delay, fn, *args):
        if timer is not None:
            timer.cancel()
        return self.schedule_timer(delay, fn, *args)

    def run(self, until):
        queue = self._queue
        while queue:
            if queue[0].cancelled:
                heapq.heappop(queue)
            elif queue[0].time > until:
                break
            else:
                self.step()
        self._now = max(self._now, until)
        return self._now


def _random_script(seed: int, sim):
    """Drive ``sim`` with a seeded schedule/cancel/re-arm/nest script —
    plain events via ``schedule``, cancellable "timers" via
    ``schedule_timer`` and ``rearm`` — and log the firings.  Only timer
    handles are ever cancelled or re-armed; a re-arm may move a pending
    timer later or earlier, or revive a cancelled or fired handle.
    The run stops at seeded ``until`` bounds on its way, one of them
    between a re-armed timer's first entry and its real deadline.

    The script's randomness is consumed in firing order, so two runs
    diverge immediately if ordering differs at all.
    """
    rng = random.Random(seed)
    arm = sim.schedule_timer
    fired = []
    handles = []

    def rearm_some(count):
        for _ in range(count):
            index = rng.randrange(len(handles))
            handle = handles[index]
            left = max(1, handle.time - sim.now)
            if rng.random() < 0.5:
                delay = rng.randrange(0, left)  # earlier (or revived)
            else:
                delay = left + rng.randrange(0, 1 << 22)  # later
            handles[index] = sim.rearm(handle, delay, fire,
                                       rng.randrange(5_000, 6_000))

    def fire(tag):
        fired.append((sim.now, tag))
        if rng.random() < 0.45 and len(fired) < 600:
            delay = rng.randrange(0, 1 << 34)
            handles.append(arm(delay, fire, tag + 1_000))
        if handles and rng.random() < 0.5:
            handles[rng.randrange(len(handles))].cancel()
        if handles and rng.random() < 0.4 and len(fired) < 900:
            # bursts of earlier re-arms pile up dead entries: compaction
            rearm_some(rng.choice((1, 1, 2, 40)))

    deferred = arm(1 << 20, fire, -1)
    handles.append(sim.rearm(deferred, 1 << 21, fire, -2))
    for tag in range(150):
        delay = rng.randrange(0, 1 << 30)
        if rng.random() < 0.5:
            handles.append(arm(delay, fire, tag))
        else:
            sim.schedule(delay, fire, tag)
    # Stops between the deferred entry (2^20) and its deadline (2^21).
    fired.append(("stop", sim.run(until=3 << 19)))
    for _ in range(4):
        until = sim.now + rng.randrange(0, 1 << 31)
        fired.append(("stop", sim.run(until=until)))
    sim.run_until_idle()
    return fired


@pytest.mark.parametrize("seed", range(8))
def test_timerwheel_heap_equivalence(seed):
    """Property-style: a random schedule/cancel/re-arm/nest script fires
    the identical sequence on the engine (timers re-armed in place,
    plain events as bare heap tuples) and on the seed engine's single
    object heap, where a re-arm is a cancel and a fresh timer."""
    assert _random_script(seed, Simulator(seed=0)) == \
        _random_script(seed, _Oracle(seed=0))


def test_plain_events_are_bare_heap_entries():
    """``schedule``/``at``/``call_soon`` hand back no handle and push the
    callable itself; a timer is a ``(time, seq, None, event)`` entry.  A
    plain event, a timer and a cancelled timer sharing one timestamp
    still fire in ``seq`` order with exact counters."""
    sim = Simulator()
    fired = []
    log = fired.append
    assert sim.schedule(1_000, log, "plain") is None       # seq 1
    timer = sim.timer_at(1_000, log, "timer")               # seq 2
    doomed = sim.schedule_timer(1_000, log, "doomed")       # seq 3
    assert sim.at(1_000, log, "at") is None                 # seq 4
    assert sim.call_soon(log, "soon") is None               # seq 5, t=0
    assert sorted(entry[:3] for entry in sim._queue) == [
        (0, 5, log), (1_000, 1, log), (1_000, 2, None), (1_000, 3, None),
        (1_000, 4, log)]
    assert [entry[3] for entry in sim._queue if entry[2] is None] \
        in ([timer, doomed], [doomed, timer])
    assert not any(isinstance(item, Event)
                   for entry in sim._queue if entry[2] is not None
                   for item in entry)
    assert sim.pending_events() == 5

    assert sim.step()  # fires "soon"
    assert fired == ["soon"]
    doomed.cancel()
    doomed.cancel()
    assert sim.pending_events() == 3

    sim.run()
    assert fired == ["soon", "plain", "timer", "at"]
    assert sim.events_fired == 4
    assert sim.pending_events() == 0
    assert sim.now == 1_000
    assert not timer.pending and not doomed.pending
    assert sim._queue == []


def test_wheel_promotion_is_exact_far_future():
    """A timer minutes out still fires at its exact time, ordered
    against plain neighbours."""
    sim = Simulator()
    order = []
    sim.schedule_timer(FAR, order.append, "wheel")
    sim.schedule(FAR, order.append, "heap")
    sim.schedule(FAR - 1, order.append, "before")
    sim.run_until_idle()
    assert order == ["before", "wheel", "heap"]
    assert sim.now == FAR


def test_wheel_only_simulation_advances_clock():
    """With only timers armed the engine fires them in deadline
    order."""
    sim = Simulator()
    stamps = []
    for delay in (2_000_000_000, 1_000, 70_000_000):
        sim.schedule_timer(delay, lambda: stamps.append(sim.now))
    sim.run_until_idle()
    assert stamps == [1_000, 70_000_000, 2_000_000_000]
