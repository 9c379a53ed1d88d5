"""Differential test: the event engine against a frozen reference.

``engine_ref.py`` is the engine as it was before its hot path was
rewritten around tuple heap entries and a fused fire loop: an orderable
``Event`` dataclass on the heap, ``peek_time()`` + ``step()`` per event.
Hypothesis generates random programs — schedules with equal and zero
delays, callbacks that schedule or cancel other events (themselves
included), cancels of fired events, heaps deep enough to compact, and
interleaved ``run`` / ``run_until`` / ``run_until_condition`` calls with
and without event budgets — and both engines must agree on every firing,
every clock reading, every counter and every exception.

Programs also suspend and resume events.  The reference has neither, so
it emulates ``suspend`` as ``cancel()`` and ``resume`` as scheduling the
same callback anew — exactly the cancel + schedule that a serial
resource's preemption used to do.  Once a program has suspended
anything, the two heaps legitimately differ in size (a suspended or
re-keyed entry stays queued), so ``pending`` and ``heap_compactions``
are then left out of the comparison.  The same holds once time has gone
backwards: the event that check drops stays cancellable, and the
reference counts its cancel as a dead heap entry, which brings its next
compaction forward; the engine knows the event left the heap.
"""

from __future__ import annotations

import engine_ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import engine

#: Children stop being scheduled past this many events per program, so
#: self-perpetuating callback chains terminate.
MAX_SCHEDULED = 3000
N_BEHAVIOURS = 8

# Mostly grid values, so event times tie with each other and with run
# deadlines; sometimes arbitrary floats.
GRID = [0.0, 0.25, 0.5, 1.0, 2.0]
delays = st.one_of(
    st.sampled_from(GRID), st.floats(min_value=0.0, max_value=10.0)
)
horizons = st.sampled_from(GRID + [3.0, -1.0])  # -1: a run into the past
budgets = st.one_of(st.none(), st.integers(min_value=-1, max_value=30))
targets = st.integers(min_value=0, max_value=10**6)
bad_delays = st.sampled_from([-1.0, float("nan"), float("inf")])
# Resume delays: mostly valid, so the event really resumes.
resume_delays = st.one_of(delays, delays, delays, bad_delays)
behaviour_ids = st.integers(min_value=0, max_value=N_BEHAVIOURS - 1)

# What a firing callback does, in order.
actions = st.one_of(
    st.tuples(st.just("child"), delays, behaviour_ids),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("cancel_self")),
    st.tuples(
        st.just("cancel_range"), targets, st.integers(min_value=1, max_value=400)
    ),
    st.tuples(st.just("bad_child"), bad_delays),
    st.tuples(st.just("suspend"), targets),
    st.tuples(st.just("resume"), targets, resume_delays),
    st.tuples(st.just("resume_rest"), targets, delays),
)
behaviours = st.lists(
    st.lists(actions, max_size=3), min_size=N_BEHAVIOURS, max_size=N_BEHAVIOURS
)

# What the harness does between runs.
schedules = st.tuples(st.just("schedule"), delays, behaviour_ids)
operations = st.one_of(
    schedules,
    schedules,
    schedules,
    st.tuples(
        st.just("bulk"),
        st.integers(min_value=520, max_value=700),
        delays,
        st.integers(min_value=2, max_value=5),
        behaviour_ids,
    ),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("suspend"), targets),
    st.tuples(
        st.just("suspend_range"), targets, st.integers(min_value=1, max_value=400)
    ),
    st.tuples(st.just("resume"), targets, resume_delays),
    st.tuples(st.just("resume_rest"), targets, delays),
    st.tuples(st.just("resume_rest"), targets, delays),
    st.tuples(st.just("cycle"), targets, st.lists(delays, min_size=1, max_size=4)),
    st.tuples(st.just("cancel_suspended"), targets),
    st.tuples(st.just("run"), budgets),
    st.tuples(st.just("run_until"), horizons, budgets),
    st.tuples(
        st.just("run_until_condition"),
        horizons,
        st.integers(min_value=0, max_value=20),
        budgets,
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("warp"), delays),
)


class EngineRun:
    """Runs one program on one engine module and records what happens."""

    def __init__(self, module, behaviours):
        self.sim = module.Simulator()
        self.reference = module is engine_ref
        self.behaviours = behaviours
        self.handles: list = []
        self.callbacks: list = []
        self.log: list[tuple[int, float]] = []
        # Labels whose current handle is suspended (on the reference:
        # cancelled, waiting to be scheduled again).
        self.suspended: set[int] = set()
        # Set once the heap sizes may legitimately differ (see above).
        self.heaps_differ = False

    def schedule(self, delay: float, behaviour: int) -> None:
        label = len(self.handles)

        def callback():
            self.fire(label, behaviour)

        self.handles.append(self.sim.schedule(delay, callback))
        self.callbacks.append(callback)

    def cancel(self, target: int) -> None:
        if self.handles:
            label = target % len(self.handles)
            self.handles[label].cancel()
            self.suspended.discard(label)

    def suspend(self, target: int) -> None:
        """Suspend the target's handle if it is live (pending, not
        suspended); otherwise do nothing, on both engines alike."""
        if not self.handles:
            return
        label = target % len(self.handles)
        handle = self.handles[label]
        if label in self.suspended or handle.cancelled:
            return
        if self.reference:
            handle.cancel()
        else:
            self.sim.suspend(handle)
        self.suspended.add(label)
        self.heaps_differ = True

    def pick_suspended(self, index: int) -> int:
        labels = sorted(self.suspended)
        return labels[index % len(labels)]

    def resume(self, index: int, delay: float) -> None:
        """Resume one of the suspended labels, chosen by ``index``."""
        if self.suspended:
            self.resume_label(self.pick_suspended(index), delay)

    def resume_rest(self, index: int, pause: float) -> None:
        """Resume a suspended label ``pause`` seconds later than it was
        due, as a preempted item does; the delay is computed from the
        clock, so float rounding can put the new key below the old."""
        if not self.suspended:
            return
        label = self.pick_suspended(index)
        rest = self.handles[label].time - self.sim.now
        self.resume_label(label, (rest if rest > 0.0 else 0.0) + pause)

    def resume_label(self, label: int, delay: float) -> None:
        if self.reference:
            handle = self.sim.schedule(delay, self.callbacks[label])
        else:
            handle = self.sim.resume(self.handles[label], delay)
        self.handles[label] = handle
        self.suspended.discard(label)

    def fire(self, label: int, behaviour: int) -> None:
        self.log.append((label, self.sim.now))
        for action in self.behaviours[behaviour]:
            kind = action[0]
            if kind == "child":
                if len(self.handles) < MAX_SCHEDULED:
                    self.schedule(action[1], action[2])
            elif kind == "cancel":
                self.cancel(action[1])
            elif kind == "cancel_self":
                self.handles[label].cancel()
            elif kind == "cancel_range":
                for offset in range(action[2]):
                    self.cancel(action[1] + offset)
            elif kind == "suspend":
                self.suspend(action[1])
            elif kind == "resume":  # a bad delay's error escapes the run
                self.resume(action[1], action[2])
            elif kind == "resume_rest":
                self.resume_rest(action[1], action[2])
            else:  # bad_child: the schedule error escapes the run
                self.sim.schedule(action[1], lambda: None)

    def apply(self, op):
        """Run one operation; returns its result or the exception raised."""
        kind = op[0]
        sim = self.sim
        try:
            if kind == "schedule":
                return self.schedule(op[1], op[2])
            if kind == "bulk":
                _, count, delay, keep_every, behaviour = op
                first = len(self.handles)
                for index in range(count):
                    self.schedule(delay + (index % 7) * 0.25, behaviour)
                for index in range(count):
                    if index % keep_every:
                        self.handles[first + index].cancel()
                return None
            if kind == "cancel":
                return self.cancel(op[1])
            if kind == "suspend":
                return self.suspend(op[1])
            if kind == "suspend_range":
                for offset in range(op[2]):
                    self.suspend(op[1] + offset)
                return None
            if kind == "resume":
                return self.resume(op[1], op[2])
            if kind == "resume_rest":
                return self.resume_rest(op[1], op[2])
            if kind == "cycle":  # suspend and resume one handle repeatedly
                if self.handles:
                    label = op[1] % len(self.handles)
                    for delay in op[2]:
                        self.suspend(label)
                        if label not in self.suspended:
                            break
                        self.resume_label(label, delay)
                return None
            if kind == "cancel_suspended":
                if self.suspended:
                    self.cancel(self.pick_suspended(op[1]))
                return None
            if kind == "run":
                return sim.run(max_events=op[1])
            if kind == "run_until":
                return sim.run_until(sim.now + op[1], max_events=op[2])
            if kind == "run_until_condition":
                _, horizon, wanted, budget = op
                goal = len(self.log) + wanted
                return sim.run_until_condition(
                    sim.now + horizon,
                    lambda: len(self.log) >= goal,
                    max_events=budget,
                )
            if kind == "step":
                return sim.step()
            if kind == "peek":
                return sim.peek_time()
            sim.now += op[1]  # warp: later pops may find time going backwards
            return None
        except SimulationError as error:  # compared across engines
            if str(error).startswith("time went backwards"):
                self.heaps_differ = True
            return (type(error), str(error))

    def state(self):
        """Clock, counters and every handle's due key and liveness.

        A suspended handle reads its last due key (the fast engine
        negates its sequence) and counts as not pending, like the
        reference's cancelled one.
        """
        sim = self.sim
        sequence = sim._sequence if self.reference else sim.events_scheduled
        heap = () if self.heaps_differ else (sim.pending, sim.heap_compactions)
        return (
            sim.now,
            sim.events_processed,
            sequence,
            heap,
            len(self.log),
            sorted(self.suspended),
            [
                (h.time, abs(h.sequence), h.cancelled or label in self.suspended)
                for label, h in enumerate(self.handles)
            ],
        )


@given(behaviours, st.lists(operations, min_size=4, max_size=30))
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference(program_behaviours, program):
    fast = EngineRun(engine, program_behaviours)
    ref = EngineRun(engine_ref, program_behaviours)
    for op in program:
        assert fast.apply(op) == ref.apply(op), op
        assert fast.log == ref.log, op
        assert fast.state() == ref.state(), op
    # Drain what is left under a budget, so the final heaps agree too.
    final = ("run", 10 * MAX_SCHEDULED)
    assert fast.apply(final) == ref.apply(final)
    assert fast.log == ref.log
    assert fast.state() == ref.state()


def test_program_exercises_compaction_during_a_run():
    """A fixed program whose callbacks cancel enough of a deep heap to
    compact it mid-run: the fire loop must keep seeing the live heap."""
    program_behaviours = [[("cancel_range", 0, 400)]] + [[]] * (N_BEHAVIOURS - 1)
    program = [
        ("bulk", 600, 1.0, 10**6, 1),  # 600 live events, none cancelled
        ("schedule", 0.5, 0),  # fires first and cancels 400 of them
        ("run_until", 1.5, None),
        ("run", None),
    ]
    fast = EngineRun(engine, program_behaviours)
    ref = EngineRun(engine_ref, program_behaviours)
    for op in program:
        assert fast.apply(op) == ref.apply(op), op
    assert fast.sim.heap_compactions > 0
    assert fast.log == ref.log
    assert fast.state() == ref.state()


@pytest.mark.parametrize(
    "surface",
    [
        ("run_until", 1.5, None),
        ("run_until_condition", 3.0, 1, None),
        ("step",),
        ("peek",),
        ("run", 1),
    ],
    ids=lambda op: op[0],
)
@pytest.mark.parametrize("then", ["resume", "resume_rest", "cancel_suspended"])
def test_suspended_entry_surfaces(surface, then):
    """A suspended entry reaches the heap top — behind a stale one — in
    each of the engine's entry points; the parked event is then resumed
    or cancelled."""
    program_behaviours = [[]] * N_BEHAVIOURS
    program = [
        ("schedule", 1.0, 0),  # 0: suspended; its entry surfaces
        ("schedule", 2.0, 0),  # 1
        ("schedule", 1.0, 0),  # 2: resumed twice
        ("suspend", 0),
        # The first resume sorts below the queued entry (a fresh event);
        # the second re-keys that event's entry, which goes stale.
        ("cycle", 2, [0.5, 1.5]),
        surface,
    ]
    fast = EngineRun(engine, program_behaviours)
    ref = EngineRun(engine_ref, program_behaviours)
    for op in program:
        assert fast.apply(op) == ref.apply(op), op
        assert fast.log == ref.log, op
        assert fast.state() == ref.state(), op
    assert fast.handles[0].owner is None  # parked: its entry left the heap
    dead = fast.sim._cancelled_in_heap
    follow = ("cancel_suspended", 0) if then == "cancel_suspended" else (then, 0, 0.25)
    for op in (follow, ("run", None)):
        assert fast.apply(op) == ref.apply(op), op
        assert fast.log == ref.log, op
        assert fast.state() == ref.state(), op
        if op is follow:
            # Cancelling a parked event leaves no dead entry to count.
            assert fast.sim._cancelled_in_heap == dead


def test_event_dropped_by_the_backwards_check_can_be_resumed():
    """Time went backwards: the event that check popped never fires,
    but a suspend + resume queues it again, as cancel + schedule does."""
    program_behaviours = [[]] * N_BEHAVIOURS
    program = [
        ("schedule", 0.0, 0),
        ("warp", 0.25),
        ("step",),
        ("suspend", 0),
        ("resume", 0, 0.0),
        ("run", None),
    ]
    fast = EngineRun(engine, program_behaviours)
    ref = EngineRun(engine_ref, program_behaviours)
    for op in program:
        assert fast.apply(op) == ref.apply(op), op
        assert fast.log == ref.log, op
        assert fast.state() == ref.state(), op
    assert fast.log == [(0, 0.25)]
