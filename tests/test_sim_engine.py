"""Discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(delay, lambda: None)
        assert sim.pending == 0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0


class TestSuspendResume:
    def test_suspended_event_does_not_fire_until_resumed(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.suspend(event)
        assert not event.cancelled
        sim.run_until(5.0)
        assert fired == []
        assert sim.resume(event, 0.5) is event
        sim.run()
        assert fired == [5.5]

    def test_resume_re_keys_in_place(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(0.0, lambda: None)
        sim.suspend(event)
        assert event.sequence == -1  # suspension negates the sequence
        assert sim.resume(event, 2.0) is event
        # The due key reads back at once; the heap entry is re-keyed
        # only when it reaches the top.
        assert (event.time, event.sequence) == (2.0, 3)
        assert sim.pending == 2
        assert sim.events_scheduled == 3

    def test_resume_below_queued_key_uses_a_fresh_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.suspend(event)
        resumed = sim.resume(event, 0.5)
        assert resumed is not event
        assert event.cancelled and not resumed.cancelled
        assert (resumed.time, resumed.sequence) == (0.5, 2)
        assert sim.events_cancelled == 1
        sim.run()
        assert fired == [0.5]

    def test_resumed_event_fires_in_schedule_order(self):
        """Re-keyed, the event fires exactly where a cancel + schedule at
        the moment of resumption would have put it."""
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("resumed"))
        sim.suspend(event)
        sim.schedule(1.5, lambda: fired.append("before"))
        sim.resume(event, 1.5)
        sim.schedule(1.5, lambda: fired.append("after"))
        sim.run()
        assert fired == ["before", "resumed", "after"]

    def test_cancel_of_parked_event_counts_no_dead_entry(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.suspend(event)
        assert sim.peek_time() is None  # the entry surfaced: parked
        assert sim.pending == 0 and event.owner is None
        event.cancel()
        assert event.cancelled
        assert sim._cancelled_in_heap == 0
        assert sim.events_cancelled == 0

    def test_cancel_of_queued_suspended_event_counts_a_dead_entry(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.suspend(event)
        event.cancel()
        assert sim._cancelled_in_heap == 1
        sim.run()
        assert sim.pending == 0 and sim._cancelled_in_heap == 0
        assert sim.events_processed == 0

    def test_invalid_suspend_and_resume_rejected(self):
        sim = Simulator()
        fired = sim.schedule(0.0, lambda: None)
        sim.run()
        live = sim.schedule(1.0, lambda: None)
        other = Simulator().schedule(1.0, lambda: None)
        for event in (fired, other):
            with pytest.raises(SimulationError, match="suspend a live event"):
                sim.suspend(event)
        with pytest.raises(SimulationError, match="resume a suspended event"):
            sim.resume(live, 1.0)
        sim.suspend(live)
        with pytest.raises(SimulationError, match="suspend a live event"):
            sim.suspend(live)

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_resume_rejects_bad_delay(self, delay):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.suspend(event)
        with pytest.raises(SimulationError, match="finite"):
            sim.resume(event, delay)
        assert event.sequence == -1 and sim.events_scheduled == 1


class TestHeapCompaction:
    @staticmethod
    def churn(sim, rounds=2000, keep_every=10):
        """Schedule a storm of events, cancelling all but every k-th."""
        fired = []
        for i in range(rounds):
            event = sim.schedule(
                1.0 + (i % 7) * 0.25, lambda i=i: fired.append((sim.now, i))
            )
            if i % keep_every:
                event.cancel()
        return fired

    def test_compaction_bounds_dead_entries(self, monkeypatch):
        sim = Simulator()
        monkeypatch.setattr(Simulator, "COMPACT_MIN_SIZE", 64)
        self.churn(sim)
        # 90% of the 2000 events were cancelled; lazy deletion alone would
        # leave them all queued.
        assert sim.heap_compactions > 0
        assert sim.pending < 500

    def test_compaction_preserves_firing_order(self, monkeypatch):
        lazy = Simulator()
        monkeypatch.setattr(lazy, "COMPACT_MIN_SIZE", 10**9)  # never compact
        lazy_fired = self.churn(lazy)
        lazy.run()

        compacting = Simulator()
        monkeypatch.setattr(compacting, "COMPACT_MIN_SIZE", 32)
        compacting_fired = self.churn(compacting)
        compacting.run()

        assert compacting.heap_compactions > 0
        assert compacting_fired == lazy_fired
        assert compacting.now == lazy.now
        assert compacting.events_processed == lazy.events_processed

    def test_cancel_is_idempotent_in_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim._cancelled_in_heap == 1

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None).cancel()
        assert sim.heap_compactions == 0
        sim.run()
        assert sim.events_processed == 0


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run_until(6.0)
        assert fired == [1, 5]

    def test_cannot_run_to_the_past(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_event_budget_enforced(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until(1e9, max_events=100)

    def test_budget_equal_to_drained_events_does_not_raise(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            sim.run(max_events=1)

    @pytest.mark.parametrize("until", ["run_until", "run_until_condition"])
    def test_budget_fires_at_most_max_events(self, until):
        sim = Simulator()
        fired = []

        def reschedule():
            fired.append(sim.now)
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        run = getattr(sim, until)
        args = (1e9,) if until == "run_until" else (1e9, lambda: False)
        with pytest.raises(SimulationError):
            run(*args, max_events=5)
        assert len(fired) == 5

    @pytest.mark.parametrize("until", ["run_until", "run_until_condition"])
    def test_budget_equal_to_window_events_does_not_raise(self, until):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        run = getattr(sim, until)
        args = (5.0,) if until == "run_until" else (5.0, lambda: False)
        run(*args, max_events=3)
        assert sim.events_processed == 3
        assert sim.now == 5.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_empty_run_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0
        assert not sim.step()
