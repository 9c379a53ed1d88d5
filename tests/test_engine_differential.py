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
"""

from __future__ import annotations

import engine_ref
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
behaviour_ids = st.integers(min_value=0, max_value=N_BEHAVIOURS - 1)

# What a firing callback does, in order.
actions = st.one_of(
    st.tuples(st.just("child"), delays, behaviour_ids),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("cancel_self")),
    st.tuples(
        st.just("cancel_range"), targets, st.integers(min_value=1, max_value=400)
    ),
    st.tuples(
        st.just("bad_child"), st.sampled_from([-1.0, float("nan"), float("inf")])
    ),
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
        self.behaviours = behaviours
        self.handles: list = []
        self.log: list[tuple[int, float]] = []

    def schedule(self, delay: float, behaviour: int) -> None:
        label = len(self.handles)
        self.handles.append(
            self.sim.schedule(delay, lambda: self.fire(label, behaviour))
        )

    def cancel(self, target: int) -> None:
        if self.handles:
            self.handles[target % len(self.handles)].cancel()

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
            return (type(error), str(error))

    def state(self):
        sim = self.sim
        return (
            sim.now,
            sim.events_processed,
            sim.pending,
            sim.heap_compactions,
            len(self.log),
            [(h.time, h.sequence, h.cancelled) for h in self.handles],
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
