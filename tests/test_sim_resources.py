"""M(r,s,w) serial resource with priority preemption."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def res(sim) -> SerialResource:
    return SerialResource(sim, "node")


class TestSerialExecution:
    def test_tasks_run_back_to_back(self, sim, res):
        done = []
        res.submit(1.0, "compute", lambda: done.append(sim.now))
        res.submit(2.0, "compute", lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 3.0]

    def test_no_internal_parallelism(self, sim, res):
        # send + recv + compute serialize: the model's core assumption.
        done = []
        res.submit(1.0, "send", lambda: done.append(sim.now))
        res.submit(1.0, "recv", lambda: done.append(sim.now))
        res.submit(1.0, "compute", lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0, 3.0]

    def test_zero_duration_task(self, sim, res):
        done = []
        res.submit(0.0, "send", lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_callback_optional(self, sim, res):
        res.submit(1.0, "compute")
        sim.run()
        assert res.tasks_done == 1

    def test_rejects_bad_inputs(self, res):
        with pytest.raises(SimulationError):
            res.submit(-1.0, "compute")
        with pytest.raises(SimulationError):
            res.submit(1.0, "think")
        with pytest.raises(SimulationError):
            res.submit(1.0, "compute", priority=2)


class TestAccounting:
    def test_busy_time_accumulates(self, sim, res):
        res.submit(1.5, "compute")
        res.submit(0.5, "send")
        sim.run()
        assert res.busy_time == pytest.approx(2.0)
        assert res.kind_time("compute") == pytest.approx(1.5)
        assert res.kind_time("send") == pytest.approx(0.5)

    def test_utilization(self, sim, res):
        res.submit(2.0, "compute")
        sim.run()
        sim.run_until(4.0)
        assert res.utilization() == pytest.approx(0.5)

    def test_backlog_and_queue_length(self, sim, res):
        res.submit(1.0, "compute")
        res.submit(2.0, "compute")
        res.submit(3.0, "compute", priority=1)
        # First task started immediately; two queued.
        assert res.queue_length == 2
        assert res.backlog == pytest.approx(5.0)
        sim.run()
        assert res.queue_length == 0

    def test_unknown_kind_time_rejected(self, res):
        with pytest.raises(SimulationError):
            res.kind_time("nap")


class TestPriorityPreemption:
    def test_high_priority_preempts_low(self, sim, res):
        order = []
        res.submit(10.0, "compute", lambda: order.append(("low", sim.now)),
                   priority=1)
        sim.schedule(2.0, lambda: res.submit(
            1.0, "compute", lambda: order.append(("high", sim.now))))
        sim.run()
        # High runs 2->3; low resumes and finishes at 11 (work conserved).
        assert order == [("high", 3.0), ("low", 11.0)]
        assert res.preemptions == 1

    def test_work_is_conserved_across_preemption(self, sim, res):
        res.submit(4.0, "compute", priority=1)
        sim.schedule(1.0, lambda: res.submit(0.5, "send"))
        sim.schedule(2.0, lambda: res.submit(0.5, "send"))
        sim.run()
        assert res.busy_time == pytest.approx(5.0)
        assert res.kind_time("compute") == pytest.approx(4.0)

    def test_high_does_not_preempt_high(self, sim, res):
        order = []
        res.submit(2.0, "compute", lambda: order.append(("a", sim.now)))
        sim.schedule(1.0, lambda: res.submit(
            0.1, "compute", lambda: order.append(("b", sim.now))))
        sim.run()
        assert order == [("a", 2.0), ("b", 2.1)]
        assert res.preemptions == 0

    def test_resumed_task_runs_before_later_low_work(self, sim, res):
        order = []
        res.submit(4.0, "compute", lambda: order.append("first-low"), priority=1)
        sim.schedule(1.0, lambda: res.submit(1.0, "compute", lambda: order.append("high")))
        sim.schedule(1.5, lambda: res.submit(1.0, "compute", lambda: order.append("second-low"), priority=1))
        sim.run()
        assert order == ["high", "first-low", "second-low"]

    def test_low_priority_runs_when_idle(self, sim, res):
        done = []
        res.submit(1.0, "compute", lambda: done.append(sim.now), priority=1)
        sim.run()
        assert done == [1.0]

    def test_preemption_suspends_the_completion(self, sim, res):
        res.submit(4.0, "compute", priority=1)
        completion = res._completion
        sim.schedule(1.0, lambda: res.submit(0.5, "send"))
        sim.schedule(2.0, lambda: res.submit(0.5, "send"))
        sim.run()
        # Both preemptions suspended the one completion event and resumed
        # it; nothing was cancelled, and it fired at the conserved time.
        assert res.preemptions == 2
        assert sim.events_cancelled == 0
        assert completion.cancelled and completion.time == 5.0
        assert res.tasks_done == 3

    def test_halt_cancels_suspended_completions(self, sim, res):
        done = []
        res.submit(4.0, "compute", lambda: done.append("low"), priority=1)
        sim.schedule(1.0, lambda: res.submit(2.0, "send"))
        sim.run_until(2.0)
        assert res.queue_length == 1  # the preempted item, suspended
        assert res.halt() == 2
        # The running item's completion and the suspended one.
        assert sim.events_cancelled == 2
        sim.run()
        assert done == [] and sim.pending == 0


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), float("-inf")]
    )
    def test_submit_rejects_non_finite_duration(self, sim, res, duration):
        with pytest.raises(SimulationError, match="node"):
            res.submit(duration, "compute")
        assert res.queue_length == 0
        assert not res.is_busy
        assert sim.pending == 0

    def test_non_finite_duration_rejected_while_busy(self, sim, res):
        # Queued behind a running item, the bad duration used to wait
        # and fail later inside the engine, without naming the resource.
        res.submit(1.0, "compute", priority=1)
        with pytest.raises(SimulationError, match="node"):
            res.submit(float("nan"), "compute")
        assert res.queue_length == 0
        sim.run()
        assert res.tasks_done == 1

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_set_rate_rejects_non_finite_or_non_positive(self, sim, res, rate):
        res.submit(1.0, "compute", priority=1)
        with pytest.raises(SimulationError, match="node"):
            res.set_rate(rate)
        assert res.rate == 1.0
        sim.run()
        # The in-progress item kept its nominal timing.
        assert sim.now == 1.0
        assert res.busy_time == 1.0
