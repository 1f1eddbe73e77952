"""Engine semantics under the bare-tuple heap fast path and the timer
wheel.

The contract being pinned down: ``schedule_timer`` (hierarchical wheel,
cancellable handle) and ``schedule`` (main heap, fire-and-forget) are
bit-for-bit interchangeable in firing order — same ``(time, seq)``
positions, same counters — and cancellation hygiene (wheel sweeps,
dead promoted timers) never changes observable behaviour.
"""

import random

import pytest

from repro.bench.enginebench import SeedSimulator
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.timerwheel import LEVEL_SHIFTS

#: Beyond every wheel level's horizon: a timer this far out is armed
#: straight into the main heap (heap-resident from the start).
BEYOND_WHEEL = 1 << (LEVEL_SHIFTS[-1] + 10)


class TestFastPathSemantics:
    def test_same_timestamp_fifo_across_heap_and_wheel(self):
        """Heap events and wheel timers at one timestamp interleave in
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
        event = sim.schedule_timer(BEYOND_WHEEL, lambda: None)  # heap
        timer = sim.schedule_timer(10, lambda: None)  # wheel
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
    def test_wheel_sweep_drops_corpses(self):
        """Churned-and-cancelled timers are reclaimed in bulk and the
        surviving timer still fires on time."""
        sim = Simulator()
        fired = []
        pending = None
        for _ in range(1_000):
            if pending is not None:
                pending.cancel()
            pending = sim.schedule_timer(500_000_000, fired.append, "late")
        wheel = sim._wheel
        assert wheel._live == 1
        assert wheel._cancelled <= wheel._live + 64 + 1
        sim.run_until_idle()
        assert fired == ["late"]
        assert sim.now == 500_000_000


class TestAccounting:
    def test_pending_events_is_live_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(10 + i, lambda: None)
        events = [sim.schedule_timer(BEYOND_WHEEL + i, lambda: None)
                  for i in range(5)]  # heap-resident timers
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


def _random_script(seed: int, sim):
    """Drive ``sim`` with a seeded schedule/cancel/nest script — plain
    events via ``schedule``, cancellable "timers" via ``schedule_timer``
    — and log the firings.  Only timer handles are ever cancelled.

    The script's randomness is consumed in firing order, so two runs
    diverge immediately if ordering differs at all.
    """
    rng = random.Random(seed)
    arm = sim.schedule_timer
    fired = []
    handles = []

    def fire(tag):
        fired.append((sim.now, tag))
        if rng.random() < 0.45 and len(fired) < 600:
            # nested re-arm, spanning several wheel levels
            delay = rng.randrange(0, 1 << (LEVEL_SHIFTS[2] + 2))
            handles.append(arm(delay, fire, tag + 1_000))
        if handles and rng.random() < 0.5:
            handles[rng.randrange(len(handles))].cancel()

    for tag in range(150):
        delay = rng.randrange(0, 1 << (LEVEL_SHIFTS[1] + 6))
        if rng.random() < 0.5:
            handles.append(arm(delay, fire, tag))
        else:
            sim.schedule(delay, fire, tag)
    sim.run_until_idle()
    return fired


@pytest.mark.parametrize("seed", range(8))
def test_timerwheel_heap_equivalence(seed):
    """Property-style: a random schedule/cancel/nest script fires the
    identical sequence on the engine (timers in the wheel, plain events
    as bare heap tuples) and on the seed engine's single object heap."""
    assert _random_script(seed, Simulator(seed=0)) == \
        _random_script(seed, SeedSimulator(seed=0))


def test_plain_events_are_bare_heap_entries():
    """``schedule``/``at``/``call_soon`` hand back no handle and push the
    callable itself; a plain event, a promoted timer and a promoted-then-
    cancelled timer sharing one timestamp still fire in ``seq`` order
    with exact counters."""
    sim = Simulator()
    fired = []
    log = fired.append
    assert sim.schedule(1_000, log, "plain") is None       # seq 1
    timer = sim.timer_at(1_000, log, "timer")               # seq 2
    doomed = sim.schedule_timer(1_000, log, "doomed")       # seq 3
    assert sim.at(1_000, log, "at") is None                 # seq 4
    assert sim.call_soon(log, "soon") is None               # seq 5, t=0
    assert sorted(entry[:3] for entry in sim._queue) == [
        (0, 5, log), (1_000, 1, log), (1_000, 4, log)]
    assert not any(isinstance(item, Event)
                   for entry in sim._queue for item in entry)
    assert sim.pending_events() == 5

    assert sim.step()  # fires "soon"; both timers are promoted with it
    assert fired == ["soon"]
    promoted = [entry[3] for entry in sim._queue if entry[2] is None]
    assert len(promoted) == 2
    assert timer in promoted and doomed in promoted
    doomed.cancel()
    doomed.cancel()
    assert sim.pending_events() == 3

    sim.run()
    assert fired == ["soon", "plain", "timer", "at"]
    assert sim.events_fired == 4
    assert sim.pending_events() == 0
    assert sim.now == 1_000
    assert not timer.pending and not doomed.pending


def test_wheel_promotion_is_exact_far_future():
    """A timer beyond every wheel level still fires at its exact time,
    ordered against heap neighbours."""
    sim = Simulator()
    far = 1 << (LEVEL_SHIFTS[-1] + 10)  # beyond the top level's horizon
    order = []
    sim.schedule_timer(far, order.append, "wheel")
    sim.schedule(far, order.append, "heap")
    sim.schedule(far - 1, order.append, "before")
    sim.run_until_idle()
    assert order == ["before", "wheel", "heap"]
    assert sim.now == far


def test_wheel_only_simulation_advances_clock():
    """With an empty heap the engine promotes and fires wheel timers."""
    sim = Simulator()
    stamps = []
    for delay in (2_000_000_000, 1_000, 70_000_000):
        sim.schedule_timer(delay, lambda: stamps.append(sim.now))
    sim.run_until_idle()
    assert stamps == [1_000, 70_000_000, 2_000_000_000]
