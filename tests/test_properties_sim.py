"""Property-based tests on the simulation substrate (hypothesis).

The load-bearing invariants of the DES:

* the engine fires events in (time, schedule-order) — never backwards;
* a serial resource conserves work exactly across any interleaving of
  priorities and preemptions (total busy time == total submitted
  durations once drained, regardless of arrival pattern);
* a resource never runs two things at once (busy time <= elapsed time);
* under any interleaving of submits, preemptions, rate changes and a
  halt, observed window by window: busy plus idle time is elapsed time,
  per-kind time sums to busy time, every accepted item fires once unless
  the halt dropped it, and a halted resource fires nothing.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource

# (arrival_delay, duration, priority) triples.
task_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=40,
)


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=50))
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired: list[float] = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2,
                    max_size=30))
    @settings(max_examples=40)
    def test_equal_times_fire_in_schedule_order(self, delays):
        sim = Simulator()
        order: list[int] = []
        common = 1.0
        for index, _ in enumerate(delays):
            sim.schedule(common, lambda i=index: order.append(i))
        sim.run()
        assert order == list(range(len(delays)))


class TestResourceProperties:
    @given(task_lists)
    @settings(max_examples=80, deadline=None)
    def test_work_conservation(self, tasks):
        """Total busy time equals total submitted work, for any arrival
        pattern, priority mix, and number of preemptions."""
        sim = Simulator()
        resource = SerialResource(sim, "node")
        done = []
        for arrival, duration, priority in tasks:
            sim.schedule(
                arrival,
                lambda d=duration, p=priority: resource.submit(
                    d, "compute", lambda: done.append(d), priority=p
                ),
            )
        sim.run()
        assert len(done) == len(tasks)
        total = sum(duration for _, duration, _ in tasks)
        assert abs(resource.busy_time - total) < 1e-9 * max(1.0, total)
        assert resource.tasks_done == len(tasks)

    @given(task_lists)
    @settings(max_examples=60, deadline=None)
    def test_no_time_travel_and_no_overcommit(self, tasks):
        sim = Simulator()
        resource = SerialResource(sim, "node")
        for arrival, duration, priority in tasks:
            sim.schedule(
                arrival,
                lambda d=duration, p=priority: resource.submit(
                    d, "compute", priority=p
                ),
            )
        sim.run()
        # A serial resource can never have been busy longer than the
        # clock has advanced.
        assert resource.busy_time <= sim.now + 1e-9

    @given(task_lists)
    @settings(max_examples=60, deadline=None)
    def test_every_task_completes_exactly_once(self, tasks):
        """No interleaving of priorities/preemptions loses or duplicates a
        completion callback."""
        sim = Simulator()
        resource = SerialResource(sim, "node")
        completions: list[int] = []

        for index, (arrival, duration, priority) in enumerate(tasks):
            sim.schedule(
                arrival,
                lambda i=index, d=duration, p=priority: resource.submit(
                    d, "compute", lambda: completions.append(i), priority=p
                ),
            )
        sim.run()
        assert sorted(completions) == list(range(len(tasks)))

    @given(task_lists)
    @settings(max_examples=60, deadline=None)
    def test_high_priority_latency_bounded_by_high_work(self, tasks):
        """A priority-0 item submitted at time t finishes by
        t + (all high-priority work in the system) + (one in-progress
        low item's remainder is preempted, so only its zero-length tail
        matters) — i.e. high work never waits behind *queued* low work."""
        sim = Simulator()
        resource = SerialResource(sim, "node")
        # Saturate with low-priority work first.
        low_total = 0.0
        for _, duration, _ in tasks:
            resource.submit(duration, "compute", priority=1)
            low_total += duration
        finish = []
        high = 0.5
        resource.submit(high, "compute", lambda: finish.append(sim.now))
        sim.run()
        # The high item preempts immediately: done at ~high, not after
        # the queued low backlog.
        assert finish[0] <= high + 1e-9

    @given(task_lists)
    @settings(max_examples=40, deadline=None)
    def test_kind_accounting_sums_to_busy_time(self, tasks):
        sim = Simulator()
        resource = SerialResource(sim, "node")
        kinds = ("send", "recv", "compute")
        for index, (arrival, duration, priority) in enumerate(tasks):
            kind = kinds[index % 3]
            sim.schedule(
                arrival,
                lambda d=duration, k=kind, p=priority: resource.submit(
                    d, k, priority=p
                ),
            )
        sim.run()
        by_kind = sum(resource.kind_time(kind) for kind in kinds)
        assert abs(by_kind - resource.busy_time) < 1e-9


# Resource programs: submits, rate changes and halts are scheduled at an
# offset into the next ``run_until`` window, so preemptions and re-rates
# land mid-window as well as on window edges.
offsets = st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.7])
submits = st.tuples(
    st.just("submit"),
    offsets,
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from(("send", "recv", "compute")),
    st.integers(min_value=0, max_value=1),
)
resource_ops = st.one_of(
    submits,
    submits,
    submits,
    st.tuples(st.just("rate"), offsets, st.sampled_from([0.25, 0.5, 1.0, 2.0])),
    st.tuples(st.just("halt"), offsets),
    st.tuples(st.just("window"), st.floats(min_value=0.0, max_value=3.0)),
)


class ResourceHarness:
    """Drives one resource and keeps its own idle-time account.

    The resource only turns busy inside :meth:`SerialResource.submit` and
    only turns idle on a completion (its ``on_done`` runs after the state
    update) or a halt, so watching ``is_busy`` around those calls times
    every idle interval exactly — independently of the resource's own
    busy-time bookkeeping.  ``simulator`` and ``resource`` select the
    implementations under test; ``log`` records ``(item, now)`` per
    completion.
    """

    def __init__(self, simulator=Simulator, resource=SerialResource):
        self.sim = simulator()
        self.resource = resource(self.sim, "node")
        self.accepted = 0
        self.log: list[tuple[int, float]] = []
        self.fired_while_halted = 0
        self.dropped = 0
        self.idle = 0.0
        self.idle_since = 0.0

    def submit(self, duration, kind, priority):
        resource = self.resource
        if resource.is_halted:
            resource.submit(duration, kind, self.done(-1), priority)
            return
        was_busy = resource.is_busy
        resource.submit(duration, kind, self.done(self.accepted), priority)
        self.accepted += 1
        if not was_busy:
            self.idle += self.sim.now - self.idle_since

    def done(self, item):
        def on_done():
            if self.resource.is_halted:
                self.fired_while_halted += 1
            self.log.append((item, self.sim.now))
            if not self.resource.is_busy:
                self.idle_since = self.sim.now

        return on_done

    def set_rate(self, rate):
        if not self.resource.is_halted:
            self.resource.set_rate(rate)

    def halt(self):
        if self.resource.is_halted:
            return
        if self.resource.is_busy:
            self.idle_since = self.sim.now
        self.dropped = self.resource.halt()

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind == "window":
            sim.run_until(sim.now + op[1])
            self.check()
        elif kind == "submit":
            _, offset, duration, task, priority = op
            sim.schedule(offset, lambda: self.submit(duration, task, priority))
        elif kind == "rate":
            sim.schedule(op[1], lambda rate=op[2]: self.set_rate(rate))
        else:
            sim.schedule(op[1], self.halt)

    def check(self):
        resource = self.resource
        now = self.sim.now
        idle = self.idle + (0.0 if resource.is_busy else now - self.idle_since)
        assert math.isclose(
            resource.busy_seconds() + idle, now, rel_tol=1e-9, abs_tol=1e-9
        )
        by_kind = sum(resource.kind_time(k) for k in ("send", "recv", "compute"))
        assert math.isclose(by_kind, resource.busy_time, rel_tol=1e-9, abs_tol=1e-9)
        assert self.fired_while_halted == 0


class TestResourceInterleavings:
    @given(st.lists(resource_ops, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_accounting_under_any_interleaving(self, program):
        harness = ResourceHarness()
        for op in program:
            harness.apply(op)
        harness.sim.run()
        harness.check()
        fired = [item for item, _ in harness.log]
        # Work fired == work submitted less what the halt dropped; items
        # offered to a halted resource never fire.
        assert -1 not in fired
        assert len(set(fired)) == len(fired)
        assert set(fired) <= set(range(harness.accepted))
        assert len(fired) + harness.dropped == harness.accepted
        if not harness.resource.is_halted:
            assert harness.dropped == 0
            assert harness.resource.tasks_done == harness.accepted
