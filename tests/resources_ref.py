"""The M(r,s,w) single-port serial resource model.

The paper adopts the computation/communication capability model
``M(r, s, w)`` of [Chouhan, PhD 2006]: a node has *no internal
parallelism* — at any instant it either receives a message, sends a
message, or computes, through a single port, serially.

:class:`SerialResource` realizes that model on the event engine with two
priority classes:

* priority 0 — scheduling-phase work (request forwarding, predictions,
  reply merging);
* priority 1 — service-phase work (application execution and its
  transfers).

Priority-0 work *preempts* priority-1 work: a DIET SeD answers scheduling
predictions from its communication thread within microseconds even while
an application call is running, and the OS scheduler briefly time-slices
the worker to allow it.  Preemption is work-conserving — the interrupted
item resumes with its remaining duration — so the node's total capacity
accounting, which is all the paper's throughput model relies on, is
unchanged.  Only latency behaviour (and therefore the load-balancing
feedback loop) becomes realistic.

Per-kind busy-time accounting feeds utilization reports, which is how
experiment harnesses identify the bottleneck node — the simulated
analogue of the paper's mathematical bottleneck analysis.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.errors import SimulationError
from engine_ref import Event, Simulator

__all__ = ["SerialResource"]

_KINDS = ("send", "recv", "compute")
_INF = float("inf")


class SerialResource:
    """A priority-preemptive serial execution resource.

    Parameters
    ----------
    sim:
        The event engine.
    name:
        Identifier used in traces and error messages.
    """

    __slots__ = (
        "sim",
        "name",
        "_queue",
        "_low_queue",
        "_current",
        "_completion",
        "busy_time",
        "tasks_done",
        "preemptions",
        "_busy_since",
        "_kind_time",
        "_rate",
        "_halted",
    )

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        # Items: (remaining_duration, kind, on_done) — durations are
        # *nominal* (rate-1) seconds; the rate applies when work starts.
        self._queue: deque[tuple[float, str, Callable[[], None] | None]] = deque()
        self._low_queue: deque[
            tuple[float, str, Callable[[], None] | None]
        ] = deque()
        # The in-progress item, (wall, kind, on_done, priority); None
        # while idle, so it doubles as the busy flag.
        self._current: tuple[float, str, Callable[[], None] | None, int] | None = None
        self._completion: Event | None = None
        self.busy_time = 0.0
        self.tasks_done = 0
        self.preemptions = 0
        self._busy_since = 0.0
        self._kind_time = {kind: 0.0 for kind in _KINDS}
        # Speed multiplier (fault injection's straggler model): wall
        # duration = nominal / rate.  1.0 is the nominal, bit-exact path.
        self._rate = 1.0
        # A halted resource (crashed node) silently drops all work.
        self._halted = False

    # ------------------------------------------------------------------ #

    def submit(
        self,
        duration: float,
        kind: str,
        on_done: Callable[[], None] | None = None,
        priority: int = 0,
    ) -> None:
        """Queue a work item of ``duration`` seconds.

        ``kind`` must be one of ``send``, ``recv``, ``compute`` (the three
        exclusive activities of the M(r,s,w) model).  ``on_done`` fires
        when the item completes.  Priority-0 items preempt a priority-1
        item in progress (work-conserving).
        """
        if self._halted:
            # A crashed node is a black hole: work vanishes, callbacks
            # never fire.  Failure surfacing is the middleware's job
            # (dead-letter + resubmit), not the resource's.
            return
        # One chained comparison rejects negative, NaN and infinite
        # durations alike (every comparison with NaN is false).
        if not 0.0 <= duration < _INF:
            raise SimulationError(
                f"{self.name}: task duration must be finite and >= 0, "
                f"got {duration}"
            )
        if kind not in _KINDS:
            raise SimulationError(
                f"{self.name}: unknown task kind {kind!r}; expected {_KINDS}"
            )
        if priority == 0:
            self._queue.append((duration, kind, on_done))
            if self._current is None:
                self._start_next()
            elif self._current[3] == 1:
                self._preempt()
        elif priority == 1:
            self._low_queue.append((duration, kind, on_done))
            if self._current is None:
                self._start_next()
        else:
            raise SimulationError(
                f"{self.name}: priority must be 0 or 1, got {priority}"
            )

    # ------------------------------------------------------------------ #

    @property
    def is_busy(self) -> bool:
        return self._current is not None

    @property
    def rate(self) -> float:
        """Current speed multiplier (1.0 = nominal)."""
        return self._rate

    @property
    def is_halted(self) -> bool:
        return self._halted

    def set_rate(self, rate: float) -> None:
        """Change the speed multiplier mid-run (straggler injection).

        The in-progress item (if any) is re-timed work-conservingly: its
        elapsed wall time is banked into the busy accounting, the
        remaining nominal work is rescheduled at the new rate.  Queued
        items hold nominal durations, so they pick up the new rate when
        they start.  ``set_rate(1.0)`` on an idle, never-degraded
        resource is a bit-exact no-op.
        """
        if not 0.0 < rate < _INF:
            raise SimulationError(
                f"{self.name}: rate must be finite and > 0, got {rate} "
                "(use halt() to stop the resource)"
            )
        if self._halted:
            raise SimulationError(f"{self.name}: cannot re-rate a halted resource")
        if rate == self._rate:
            return
        if self._current is not None:
            assert self._current is not None and self._completion is not None
            wall, kind, on_done, priority = self._current
            elapsed = self.sim.now - self._busy_since
            remaining_wall = max(0.0, wall - elapsed)
            self.busy_time += elapsed
            self._kind_time[kind] += elapsed
            self._completion.cancel()
            new_wall = remaining_wall * self._rate / rate
            self._busy_since = self.sim.now
            self._current = (new_wall, kind, on_done, priority)
            self._completion = self.sim.schedule(new_wall, self._complete)
        self._rate = rate

    def halt(self) -> int:
        """Stop the resource permanently (crash injection).

        The in-progress item's elapsed time is banked (the node really
        did burn those cycles), its completion is cancelled, and every
        queued item is dropped; subsequent :meth:`submit` calls are
        silently ignored.  Returns the number of work items discarded.
        """
        if self._halted:
            return 0
        dropped = len(self._queue) + len(self._low_queue)
        if self._current is not None:
            assert self._current is not None and self._completion is not None
            _, kind, _, _ = self._current
            elapsed = self.sim.now - self._busy_since
            self.busy_time += elapsed
            self._kind_time[kind] += elapsed
            self._completion.cancel()
            dropped += 1
        self._queue.clear()
        self._low_queue.clear()
        self._current = None
        self._completion = None
        self._halted = True
        return dropped

    @property
    def queue_length(self) -> int:
        """Work items waiting (excluding the one in progress)."""
        return len(self._queue) + len(self._low_queue)

    @property
    def backlog(self) -> float:
        """Total queued work in seconds (excluding the one in progress)."""
        return sum(item[0] for item in self._queue) + sum(
            item[0] for item in self._low_queue
        )

    def busy_seconds(self, horizon: float | None = None) -> float:
        """Cumulative busy seconds, including the in-progress item's elapsed
        part (up to ``horizon`` or now).

        ``horizon`` clamps only the in-progress item — completed work is
        always counted in full, so this is an as-of-now accounting, not a
        rewind: past horizons are meaningful only back to the start of
        the current item.  Windowed observers (the control plane's
        monitor) should snapshot at both window edges and diff, which is
        exactly what per-window utilization needs and the cumulative
        :meth:`utilization` cannot provide.
        """
        end = self.sim.now if horizon is None else horizon
        busy = self.busy_time
        if self._current is not None:
            busy += max(0.0, min(end, self.sim.now) - self._busy_since)
        return busy

    def utilization(self, horizon: float | None = None) -> float:
        """Fraction of time busy since t=0 (up to ``horizon`` or now)."""
        end = self.sim.now if horizon is None else horizon
        if end <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds(end) / end)

    def kind_time(self, kind: str) -> float:
        """Cumulative busy seconds spent on one task kind."""
        if kind not in _KINDS:
            raise SimulationError(f"unknown task kind {kind!r}")
        return self._kind_time[kind]

    # ------------------------------------------------------------------ #

    def _start_next(self) -> None:
        if self._queue:
            duration, kind, on_done = self._queue.popleft()
            priority = 0
        elif self._low_queue:
            duration, kind, on_done = self._low_queue.popleft()
            priority = 1
        else:
            return
        sim = self.sim
        self._busy_since = sim.now
        # Queued durations are nominal; _current holds *wall* duration.
        # At rate 1.0 the division is bit-exact identity.
        wall = duration / self._rate
        self._current = (wall, kind, on_done, priority)
        self._completion = sim.schedule(wall, self._complete)

    def _preempt(self) -> None:
        """Pause the in-progress priority-1 item; requeue its remainder.

        Only called with a priority-0 item queued, so the resource stays
        busy: :meth:`_start_next` overwrites the current-item state.
        """
        assert self._current is not None and self._completion is not None
        duration, kind, on_done, _ = self._current
        elapsed = self.sim.now - self._busy_since
        remaining = duration - elapsed
        self._completion.cancel()
        self.busy_time += elapsed
        self._kind_time[kind] += elapsed
        self.preemptions += 1
        # Front of the low queue: the item resumes before later service
        # work.  Requeued as nominal work (wall remainder * rate), so a
        # later rate change re-times it correctly; exact identity at 1.0.
        # The conditional clamps like max(0.0, remaining), NaN included.
        self._low_queue.appendleft(
            ((remaining if remaining > 0.0 else 0.0) * self._rate, kind, on_done)
        )
        self._start_next()

    def _complete(self) -> None:
        assert self._current is not None
        duration, kind, on_done, _ = self._current
        self.busy_time += duration
        self._kind_time[kind] += duration
        self.tasks_done += 1
        if self._queue or self._low_queue:
            self._start_next()
        else:
            self._current = None
            self._completion = None
        if on_done is not None:
            on_done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self._current is not None else "idle"
        return (
            f"SerialResource({self.name!r}, {state}, "
            f"queued={self.queue_length}, done={self.tasks_done})"
        )
