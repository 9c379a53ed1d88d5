"""Event-heap discrete-event simulation engine.

Deliberately minimal and fast: events are ``(time, sequence, callback)``
entries on a binary heap; the sequence number makes simultaneous events
fire in scheduling order, which keeps every run bit-reproducible.  The
engine knows nothing about resources or middleware — those layers schedule
callbacks on it.

Cancellation is lazy — :meth:`Event.cancel` just clears the callback — but
not unbounded: the simulator counts dead entries and compacts the heap once
they exceed half of it, so churn-heavy runs (retries, preemption storms,
timeout ladders) hold memory proportional to the *live* event count.
Compaction preserves the (time, sequence) total order, so firing order and
results are bit-identical with or without it.

Design notes (per the HPC guides): the hot loop avoids attribute lookups
and allocation where it matters, supports millions of events per run, and
exposes ``run_until`` / ``run`` with event and time budgets so harnesses
can bound simulations deterministically.  ``run_until_condition`` adds a
state-predicate stop on top of the deadline — the primitive that lets a
live migration drain a subtree for exactly as long as it stays busy,
with entities added and removed mid-run and determinism intact.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]

_INF = float("inf")


@dataclass(order=True)
class Event:
    """A scheduled callback.  Comparable by (time, sequence)."""

    time: float
    sequence: int
    callback: Callable[[], None] | None = field(compare=False)
    #: Owning simulator, so cancellation can be counted for heap
    #: compaction.  ``None`` for events constructed outside a simulator.
    owner: "Simulator | None" = field(compare=False, default=None, repr=False)

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event in place (lazy deletion from the heap)."""
        if self.callback is None:
            return
        self.callback = None
        if self.owner is not None:
            self.owner._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    #: Compaction triggers only above this heap size — tiny heaps are
    #: cheaper to drain lazily than to rebuild.
    COMPACT_MIN_SIZE = 512

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._sequence: int = 0
        self._events_processed: int = 0
        self._cancelled_in_heap: int = 0
        self._compactions: int = 0

    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a NaN time would
        enter the heap and silently break its ordering.
        """
        # One chained comparison rejects negative, NaN and infinite
        # delays alike (every comparison with NaN is false).
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got delay={delay}"
            )
        self._sequence += 1
        event = Event(self.now + delay, self._sequence, callback, self)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback)

    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far."""
        return self._events_processed

    @property
    def heap_compactions(self) -> int:
        """Number of times the event heap has been compacted."""
        return self._compactions

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the heap is drained."""
        heap = self._heap
        while heap and heap[0].callback is None:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return heap[0].time if heap else None

    # ------------------------------------------------------------------ #

    def _note_cancelled(self) -> None:
        """Bookkeeping hook for :meth:`Event.cancel`; may compact the heap.

        Compaction drops dead entries and re-heapifies.  Heap order is a
        total order here — sequence numbers are unique — so the surviving
        events pop in exactly the order they would have anyway: lazily and
        eagerly deleted runs are bit-identical.
        """
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= self.COMPACT_MIN_SIZE
            and 2 * self._cancelled_in_heap > len(heap)
        ):
            self._heap = [event for event in heap if event.callback is not None]
            heapq.heapify(self._heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Fire the next live event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.callback is None:
                self._cancelled_in_heap -= 1
                continue
            if event.time < self.now:
                raise SimulationError(
                    f"time went backwards: {event.time} < {self.now}"
                )
            self.now = event.time
            callback = event.callback
            event.callback = None
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Run until the heap drains.

        With ``max_events``, at most that many callbacks fire; running
        out of budget while live events remain raises
        :class:`~repro.errors.SimulationError`.
        """
        if max_events is None:
            while self.step():
                pass
            return
        for _ in range(max_events):
            if not self.step():
                return
        if self.peek_time() is not None:
            raise SimulationError(
                f"event budget of {max_events} exhausted at t={self.now:.6f}"
            )

    def run_until(self, time: float, max_events: int | None = None) -> None:
        """Run events with ``event.time <= time``; clock ends at ``time``.

        Events scheduled beyond the horizon stay queued, so simulations can
        be advanced window by window.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run to the past: {time} < now={self.now}"
            )
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > time:
                break
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self.now:.6f}"
                )
            self.step()
            fired += 1
        self.now = time

    def run_until_condition(
        self,
        deadline: float,
        condition: Callable[[], bool],
        max_events: int | None = None,
    ) -> bool:
        """Run events until ``condition()`` holds or ``deadline`` passes.

        The mid-run entity hook: live-migration drains use this to wait
        until a detached subtree has gone quiet without committing to a
        fixed-length outage window.  ``condition`` is evaluated against
        simulation state only (never wall clock), and events fire in
        exactly the order :meth:`run_until` would fire them, so adding
        the condition cannot perturb determinism — it can only stop the
        clock earlier.

        Returns ``True`` if the condition was met (the clock rests at
        the event that satisfied it, or at ``now`` if it held already);
        ``False`` if the deadline was reached first (the clock then
        rests exactly at ``deadline``, like :meth:`run_until`).
        """
        if deadline < self.now:
            raise SimulationError(
                f"cannot run to the past: {deadline} < now={self.now}"
            )
        if condition():
            return True
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at "
                    f"t={self.now:.6f}"
                )
            self.step()
            fired += 1
            if condition():
                return True
        self.now = deadline
        return False
