"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.future import Future, FutureError, all_of
from repro.sim.process import Process, ProcessError
from repro.sim.timebase import MS, US, ns_to_ms, ns_to_s, ns_to_us


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(10, order.append, tag)
        sim.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_timer(10, fired.append, 1)
        event.cancel()
        sim.run_until_idle()
        assert fired == []
        assert not event.pending

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1000, fired.append, 1)
        sim.run(until=500)
        assert fired == []
        sim.run_until_idle()
        assert fired == [1]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(5, inner)

        def inner():
            seen.append(sim.now)

        sim.schedule(10, outer)
        sim.run_until_idle()
        assert seen == [10, 15]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        stamps = []
        sim.schedule(7, lambda: sim.call_soon(lambda: stamps.append(sim.now)))
        sim.run_until_idle()
        assert stamps == [7]

    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1, lambda: None)
        sim.run_until_idle()
        assert sim.events_fired == 4

    def test_runaway_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            for _ in range(10):
                sim.schedule(sim.uniform_ns(1, 100),
                             lambda: values.append(sim.now))
            sim.run_until_idle()
            return values

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestRandomHelpers:
    def test_uniform_bounds(self):
        sim = Simulator(seed=1)
        for _ in range(100):
            value = sim.uniform_ns(10, 20)
            assert 10 <= value <= 20

    def test_uniform_empty_range_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.uniform_ns(20, 10)

    def test_jitter_stays_positive_and_near_base(self):
        sim = Simulator(seed=2)
        for _ in range(100):
            value = sim.jitter(1000, 0.1)
            assert 900 <= value <= 1100

    def test_jitter_zero_fraction_identity(self):
        sim = Simulator()
        assert sim.jitter(1234, 0.0) == 1234


class TestTimebase:
    def test_conversions(self):
        assert ns_to_us(1500) == 1.5
        assert ns_to_ms(2 * MS) == 2.0
        assert ns_to_s(3_000 * MS) == 3.0
        assert 5 * US == 5_000


class TestFuture:
    def test_resolve_and_result(self):
        future = Future("x")
        future.resolve(42)
        assert future.done
        assert future.result == 42

    def test_result_before_resolution_raises(self):
        future = Future()
        with pytest.raises(FutureError):
            _ = future.result

    def test_double_resolution_raises(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(FutureError):
            future.resolve(2)

    def test_callback_after_resolution_runs_immediately(self):
        future = Future()
        future.resolve("v")
        seen = []
        future.add_callback(lambda f: seen.append(f.result))
        assert seen == ["v"]

    def test_fail_propagates_exception(self):
        future = Future()
        future.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            _ = future.result

    def test_all_of_waits_for_everything(self):
        futures = [Future(str(i)) for i in range(3)]
        agg = all_of(futures)
        futures[0].resolve(0)
        futures[2].resolve(2)
        assert not agg.done
        futures[1].resolve(1)
        assert agg.done
        assert agg.result == [0, 1, 2]

    def test_all_of_empty_resolves_immediately(self):
        agg = all_of([])
        assert agg.done
        assert agg.result == []

    def test_all_of_failure(self):
        futures = [Future(), Future()]
        agg = all_of(futures)
        futures[0].fail(RuntimeError("x"))
        futures[1].resolve(1)
        assert agg.done
        assert isinstance(agg.exception, RuntimeError)

    def test_all_of_work_is_linear_in_children(self):
        """Each resolution inspects only the child that resolved: N
        children cost O(N) reads of ``done``/``exception`` in total,
        not a rescan of every sibling per completion (O(N^2))."""
        reads = [0]

        class CountingFuture(Future):
            __slots__ = ()

            @property
            def done(self):
                reads[0] += 1
                return Future.done.fget(self)

            @property
            def exception(self):
                reads[0] += 1
                return Future.exception.fget(self)

        n = 2000
        futures = [CountingFuture(str(i)) for i in range(n)]
        agg = all_of(futures)
        for i, future in enumerate(futures):
            future.resolve(i)
        assert agg.result == list(range(n))
        assert reads[0] <= 4 * n

    def test_all_of_results_in_input_order(self):
        futures = [Future(str(i)) for i in range(5)]
        agg = all_of(futures)
        for i in reversed(range(5)):
            futures[i].resolve(i * 10)
        assert agg.result == [0, 10, 20, 30, 40]

    def test_all_of_fails_with_first_child_to_fail(self):
        futures = [Future(), Future(), Future()]
        agg = all_of(futures)
        second = ValueError("second")
        futures[2].fail(second)
        assert agg.exception is second
        futures[0].fail(KeyError("later"))
        assert agg.exception is second

    def test_all_of_already_failed_children_use_list_order(self):
        """Children that failed before the call: the first failed one
        in list order wins, whatever order they failed in."""
        done_ok, pending, early, first = Future(), Future(), Future(), \
            Future()
        done_ok.resolve("v")
        early_exc, first_exc = KeyError("early"), ValueError("first")
        early.fail(early_exc)
        first.fail(first_exc)
        agg = all_of([done_ok, pending, first, early])
        assert agg.done
        assert agg.exception is first_exc

    def test_all_of_ignores_resolutions_after_failure(self):
        futures = [Future(), Future(), Future()]
        agg = all_of(futures)
        boom = RuntimeError("boom")
        futures[1].fail(boom)
        futures[0].fail(RuntimeError("second failure"))
        futures[2].resolve("late success")
        assert agg.exception is boom
        with pytest.raises(RuntimeError, match="boom"):
            _ = agg.result


class TestProcess:
    def test_sleep_and_return(self):
        sim = Simulator()

        def worker():
            yield 100
            yield 200
            return "done"

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.done
        assert proc.result == "done"
        assert sim.now == 300

    def test_wait_on_future_receives_value(self):
        sim = Simulator()
        gate = Future()

        def worker():
            value = yield gate
            return value * 2

        proc = Process(sim, worker())
        sim.schedule(50, gate.resolve, 21)
        sim.run_until_idle()
        assert proc.result == 42

    def test_wait_on_other_process(self):
        sim = Simulator()

        def child():
            yield 10
            return "child-done"

        def parent():
            result = yield Process(sim, child())
            return result

        proc = Process(sim, parent())
        sim.run_until_idle()
        assert proc.result == "child-done"

    def test_exception_captured(self):
        sim = Simulator()

        def worker():
            yield 10
            raise ValueError("inner")

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.done
        with pytest.raises(ValueError):
            _ = proc.result

    def test_bad_yield_raises_process_error(self):
        sim = Simulator()

        def worker():
            yield "not-a-delay"

        proc = Process(sim, worker())
        sim.run_until_idle()
        with pytest.raises(ProcessError):
            _ = proc.result

    def test_failed_future_propagates_into_generator(self):
        sim = Simulator()
        gate = Future()
        caught = []

        def worker():
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))
            return "recovered"

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("bad"))
        sim.run_until_idle()
        assert proc.result == "recovered"
        assert caught == ["bad"]

    def test_failed_future_uncaught_fails_process(self):
        sim = Simulator()
        gate = Future()

        def worker():
            yield gate  # no try/except: the failure must surface

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("unhandled"))
        sim.run_until_idle()
        assert proc.done
        assert isinstance(proc.finished.exception, RuntimeError)
        with pytest.raises(RuntimeError, match="unhandled"):
            _ = proc.result

    def test_failed_child_process_propagates_to_parent(self):
        sim = Simulator()

        def child():
            yield 10
            raise ValueError("child blew up")

        def parent():
            yield Process(sim, child())
            return "unreachable"

        proc = Process(sim, parent())
        sim.run_until_idle()
        assert proc.done
        with pytest.raises(ValueError, match="child blew up"):
            _ = proc.result

    def test_negative_sleep_throws_process_error(self):
        sim = Simulator()
        caught = []

        def worker():
            try:
                yield -5
            except ProcessError as exc:
                caught.append(str(exc))
                return "caught"

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.result == "caught"
        assert "negative sleep" in caught[0]

    def test_negative_sleep_uncaught_fails_process(self):
        sim = Simulator()

        def worker():
            yield -1

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.done
        with pytest.raises(ProcessError):
            _ = proc.result

    def test_throw_handler_raising_new_exception_fails_process(self):
        sim = Simulator()
        gate = Future()

        def worker():
            try:
                yield gate
            except RuntimeError:
                raise KeyError("translated")

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("original"))
        sim.run_until_idle()
        assert proc.done
        assert isinstance(proc.finished.exception, KeyError)

    def test_recovered_process_can_keep_yielding(self):
        sim = Simulator()
        gate = Future()

        def worker():
            try:
                yield gate
            except RuntimeError:
                pass
            yield 100  # the throw path must re-dispatch this sleep
            return sim.now

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("transient"))
        sim.run_until_idle()
        assert proc.result == 105


class TestTimerWheelBoundaries:
    """Deadlines on the slot edges (``k << 16`` ns) and beyond the
    256-slot span of the hierarchical timer wheel the engine kept before
    timers moved onto the one heap.

    Those were the points where a bucketed structure could report a
    timer one slot early or late; the heap probes (``quiet_until`` /
    ``live_events_until``) must answer there by exact deadline, as
    anywhere else.
    """

    SLOT = 1 << 16
    LEVEL_SPAN = 256

    @staticmethod
    def times(sim, limit):
        return [event.time for event in sim.live_events_until(limit)]

    def test_exact_slot_boundary(self):
        """A timer at exactly ``k << 16`` is reported by its expiry
        time, to the nanosecond."""
        sim = Simulator()
        expiry = 4 * self.SLOT
        sim.schedule_timer(expiry, lambda: None)
        assert sim.quiet_until(expiry - 1)
        assert not sim.quiet_until(expiry)
        assert sim.live_events_until(expiry - 1) == []
        assert self.times(sim, expiry) == [expiry]

    def test_adjacent_slots(self):
        """Timers one tick apart across a slot edge resolve
        independently."""
        sim = Simulator()
        below = 7 * self.SLOT - 1
        above = 7 * self.SLOT
        sim.schedule_timer(below, lambda: None)
        sim.schedule_timer(above, lambda: None)
        assert sim.quiet_until(below - 1)
        assert not sim.quiet_until(below)
        assert self.times(sim, below) == [below]
        assert self.times(sim, above) == [below, above]
        assert self.times(sim, 1 << 40) == [below, above]

    def test_limit_inside_occupied_slot(self):
        """A limit that lands mid-slot, one nanosecond short of a timer
        in that slot, does not surface it."""
        sim = Simulator()
        expiry = 9 * self.SLOT + 1000
        sim.schedule_timer(expiry, lambda: None)
        assert sim.quiet_until(expiry - 1)
        assert sim.live_events_until(9 * self.SLOT + 999) == []
        assert not sim.quiet_until(expiry)
        assert self.times(sim, expiry) == [expiry]

    def test_coarse_level_reports_exact_expiry(self):
        """A deadline far beyond one slot span (the ~0.5 s transport
        timeout, minutes) is reported and fired at its exact expiry,
        never rounded to a coarser grain."""
        sim = Simulator()
        for expiry in ((self.LEVEL_SPAN + 10) * self.SLOT + 12345,
                       400_000_000 + 12345, 700_000_000, 1 << 41):
            sim.timer_at(expiry, lambda: None)
            assert sim.quiet_until(expiry - 1), expiry
            assert self.times(sim, expiry - 1) == []
            assert self.times(sim, expiry) == [expiry]
            sim.run_until_idle()
            assert sim.now == expiry


class TestTimerProbes:
    """The read-only probes (``quiet_until`` / ``live_events_until``)
    report timers by their real deadline, whatever their heap entries
    say.

    The storm coalescer trusts these probes to classify a quiet window
    exactly: an event reported one nanosecond early or late would let a
    round absorb a tick that should have interrupted it.
    """

    @staticmethod
    def times(sim, limit):
        return [event.time for event in sim.live_events_until(limit)]

    def test_rearmed_later_invisible_at_old_deadline(self):
        """Re-armed later, a timer keeps its old heap entry, yet neither
        probe sees it before its new deadline."""
        sim = Simulator()
        old, new = 1_000, 5_000
        fired = []
        timer = sim.schedule_timer(old, fired.append, "old")
        assert sim.rearm(timer, new, fired.append, "new") is timer
        # The read-only probe first, while the stale entry heads the heap.
        assert sim.live_events_until(old) == []
        assert self.times(sim, new) == [new]
        assert sim.quiet_until(old)
        assert sim.quiet_until(new - 1)
        assert not sim.quiet_until(new)
        assert sim.pending_events() == 1
        sim.run_until_idle()
        assert fired == ["new"]
        assert sim.now == new
        assert sim.events_fired == 1

    def test_rearm_allocates_the_seq_of_a_fresh_timer(self):
        """A re-arm to the same deadline fires after everything
        scheduled between the arm and the re-arm, as cancel-then-arm
        would."""
        sim = Simulator()
        order = []
        timer = sim.schedule_timer(100, order.append, "timer")
        sim.schedule(100, order.append, "plain")
        sim.rearm(timer, 100, order.append, "timer")
        sim.run_until_idle()
        assert order == ["plain", "timer"]

    def test_rearmed_earlier_fires_at_new_deadline(self):
        """Re-armed earlier, a timer fires once, at the new deadline;
        the entry it left behind is dropped without firing."""
        sim = Simulator()
        old, new = 5_000, 1_000
        fired = []
        timer = sim.schedule_timer(old, fired.append, "old")
        sim.rearm(timer, new, fired.append, "new")
        assert self.times(sim, old) == [new]
        assert not sim.quiet_until(new)
        assert sim.pending_events() == 1
        sim.run_until_idle()
        assert fired == ["new"]
        assert sim.now == new
        assert sim.events_fired == 1
        assert sim._queue == []

    def test_run_until_stops_between_entry_and_deadline(self):
        """``run(until)`` between a re-armed timer's old entry and its
        real deadline neither fires it nor stops the clock early."""
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(1_000, fired.append, "timer")
        sim.rearm(timer, 9_000, fired.append, "timer")
        assert sim.run(until=5_000) == 5_000
        assert fired == [] and sim.events_fired == 0
        assert timer.pending and sim.pending_events() == 1
        assert self.times(sim, 9_000) == [9_000]
        sim.run_until_idle()
        assert fired == ["timer"] and sim.now == 9_000

    def test_rearm_of_fired_or_cancelled_handle_arms_afresh(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(10, fired.append, 1)
        sim.run_until_idle()
        assert not timer.pending
        sim.rearm(timer, 10, fired.append, 2)
        assert timer.pending and sim.pending_events() == 1
        timer.cancel()
        assert sim.quiet_until(1 << 40)
        sim.rearm(timer, 30, fired.append, 3)
        assert self.times(sim, 1 << 40) == [40]
        sim.run_until_idle()
        assert fired == [1, 3]
        assert sim.now == 40 and sim.pending_events() == 0

    def test_live_surface_exact_while_clock_advances(self):
        """The combined ``live_events_until`` surface (what the storm
        coalescer's quiet-window proofs read) stays exact through every
        stride of the clock, and through a re-arm."""
        sim = Simulator()
        expiry = 266 * (1 << 16) + 777
        fired = []
        sim.schedule_timer(expiry, lambda: fired.append(sim.now))
        stride = 255 * (1 << 16)
        now = 0
        while now + stride < expiry:
            now += stride
            sim.run(until=now)
            assert sim.live_events_until(expiry - 1) == []
            assert [e.time for e in sim.live_events_until(expiry)] \
                == [expiry]
        sim.run_until_idle()
        assert fired == [expiry]

    def test_cancelled_timer_invisible(self):
        """A cancelled timer is invisible to both probes, whether its
        entry is current, left behind by a later re-arm, or doubled by
        an earlier one; a live neighbour is untouched."""
        sim = Simulator()
        fired = []
        plain = sim.schedule_timer(1_000, fired.append, "plain")
        later = sim.schedule_timer(1_000, fired.append, "later")
        sim.rearm(later, 3_000, fired.append, "later")
        earlier = sim.schedule_timer(5_000, fired.append, "earlier")
        sim.rearm(earlier, 2_000, fired.append, "earlier")
        keep = sim.schedule_timer(4_000, fired.append, "keep")
        for timer in (plain, later, earlier):
            timer.cancel()
            assert not timer.pending
        assert self.times(sim, 1 << 40) == [4_000]
        assert sim.quiet_until(3_999)
        assert not sim.quiet_until(4_000)
        assert keep.pending and sim.pending_events() == 1
        sim.run_until_idle()
        assert fired == ["keep"]
        assert sim.events_fired == 1


class TestJitterStreamIdentity:
    """``Simulator.jitter`` inlines ``random.randint``'s rejection loop;
    both must consume the shared Mersenne stream identically (its
    docstring promises ``rng.randint(-spread, spread)``'s stream)."""

    @pytest.mark.parametrize("seed", [0, 3, 7, 50],
                             ids=lambda seed: f"seed{seed}")
    def test_jitter_matches_randint_stream(self, seed):
        sim = Simulator(seed=seed)
        reference = random.Random(seed)
        for base in (1000, 12345, 54321, 999_983, 3, 10):
            spread = int(base * 0.1)
            if spread <= 0:
                expect = base
            else:
                expect = max(0, base + reference.randint(-spread, spread))
            assert sim.jitter(base, 0.1) == expect
