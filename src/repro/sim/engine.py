"""Event-heap discrete-event simulation engine.

The heap holds ``(time, sequence, event)`` tuples.  ``sequence`` is a
per-simulator counter, unique per scheduled event, so simultaneous events
fire in scheduling order and every run is bit-reproducible.  Tuples are
used rather than orderable event objects because tuple comparison runs in
C: since ``(time, sequence)`` is unique, no comparison ever reaches the
third field, and the heap never calls back into Python to order entries.
The :class:`Event` in the third slot is the caller's handle (for
cancellation); it is *not* orderable.  The engine knows nothing about
resources or middleware — those layers schedule callbacks on it.

Cancellation is lazy — :meth:`Event.cancel` just clears the callback — but
not unbounded: the simulator counts dead entries and compacts the heap once
they exceed half of it, so churn-heavy runs (retries, preemption storms,
timeout ladders) hold memory proportional to the *live* event count.
Compaction preserves the (time, sequence) total order, so firing order and
results are bit-identical with or without it.

Suspension is lazier still.  :meth:`Simulator.suspend` takes a live event
off the timeline without touching its heap entry (it negates the event's
``sequence``), and :meth:`Simulator.resume` gives it a new due key
``(now + delay, next sequence)`` without pushing a new entry.  The heap
fixes an entry only when it reaches the top: a suspended top is popped
and *parked* (``owner`` becomes None, so a later resume pushes a fresh
entry and a later cancel counts no dead entry), and a stale top — an
entry whose key is older than its event's due key — is replaced by the
due key and sifted down.  This is what preemption on a
:class:`~repro.sim.resources.SerialResource` uses instead of cancelling
and rescheduling a completion, and it fires events in exactly the order
cancel + schedule would:

* *Invariant:* every live (pending, not suspended) event has exactly one
  heap entry, and its key is never above the event's due key.
  ``schedule`` pushes the due key itself.  ``resume`` pushes a fresh
  entry for a parked event; it re-keys a queued entry in place only when
  the new key is not below the old due key (it takes a fresh, larger
  sequence number, so that is ``new time >= old time``), and otherwise
  cancels the event and pushes a fresh one with the same callback.
  Fixing a stale top sets the entry to the due key.
* *Order:* the fire loop repairs dead, suspended and stale tops before
  it looks at the deadline or the budget.  Once the top entry's key is
  its event's due key, every other entry's key is at least that key, and
  by the invariant so is every live event's due key.  The top is thus
  the minimum due key over all live events — the event an eagerly
  updated heap would pop — and because keys are unique the popping
  order is fully determined.  Clock arithmetic is unchanged too: the new
  due time is computed as ``now + delay``, exactly as ``schedule`` does.

``run``, ``run_until`` and ``run_until_condition`` share one fire loop
that peeks the heap top, drops dead entries, settles suspended and stale
ones, checks the deadline and the event budget, then pops and fires —
one pass per event, no per-event
method calls beyond the callback itself.  Budgets make harnesses bound
simulations deterministically.  ``run_until_condition`` adds a
state-predicate stop on top of the deadline — the primitive that lets a
live migration drain a subtree for exactly as long as it stays busy,
with entities added and removed mid-run and determinism intact.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from heapq import heapify, heappop, heappush, heapreplace

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]

_INF = float("inf")


class Event:
    """A scheduled callback: the handle :meth:`Simulator.schedule` returns.

    Holds ``time``, ``sequence``, ``callback`` and ``owner`` (the
    simulator that queued the event, so cancellation can be counted for
    heap compaction; ``None`` for events constructed outside a
    simulator, and for a suspended event whose entry has left the heap).
    ``(time, sequence)`` is the due key; after :meth:`Simulator.resume`
    it is the new one.  While the event is suspended, ``sequence`` is
    negated.

    Events are not orderable and compare by identity: the heap orders
    its ``(time, sequence, event)`` entries by the first two fields.
    This is a public-API change from the ordered ``Event`` dataclass of
    earlier versions; sort by ``(event.time, event.sequence)`` where an
    order is needed.
    """

    __slots__ = ("time", "sequence", "callback", "owner")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None] | None,
        owner: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.owner = owner

    @property
    def cancelled(self) -> bool:
        """True once the event was cancelled or has fired."""
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event in place (lazy deletion from the heap)."""
        if self.callback is None:
            return
        self.callback = None
        if self.owner is not None:
            self.owner._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.callback is None:
            state = "cancelled"
        else:
            state = "suspended" if self.sequence < 0 else "live"
        return f"Event(time={self.time!r}, sequence={self.sequence}, {state})"


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
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence: int = 0
        self._events_processed: int = 0
        self._cancelled: int = 0
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
        self._sequence = sequence = self._sequence + 1
        time = self.now + delay
        event = Event(time, sequence, callback, self)
        heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback)

    # ------------------------------------------------------------------ #

    def suspend(self, event: Event) -> None:
        """Take a live event off the timeline until :meth:`resume`.

        The event keeps its callback and its heap entry; it just cannot
        fire.  Like :meth:`Event.cancel`, this takes no sequence number.
        Suspension is marked by negating ``event.sequence``.  An event
        with no owner (one the time-backwards check dropped) has no entry
        and is parked at once.
        """
        sequence = event.sequence
        owner = event.owner
        if (
            (owner is not self and owner is not None)
            or event.callback is None
            or sequence < 0
        ):
            raise SimulationError(
                f"can only suspend a live event, got {event!r}"
            )
        event.sequence = -sequence

    def resume(self, event: Event, delay: float) -> Event:
        """Re-arm a suspended event to fire ``delay`` seconds from now.

        Equivalent to cancelling the event and scheduling its callback
        anew: it takes the next sequence number and the due time
        ``now + delay``, exactly as :meth:`schedule` would.  The event's
        heap entry is re-keyed lazily, when it reaches the top.  Returns
        the handle of the resumed event — ``event`` itself, unless the new
        key sorts below the queued entry's (float rounding on a
        zero-length suspension, or a shorter delay after a rate change);
        then ``event`` is cancelled and a fresh event carries the callback.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got delay={delay}"
            )
        callback = event.callback
        if callback is None or event.sequence >= 0:
            raise SimulationError(
                f"can only resume a suspended event, got {event!r}"
            )
        self._sequence = sequence = self._sequence + 1
        time = self.now + delay
        owner = event.owner
        if owner is not None and time >= event.time:
            # The queued entry's key is at most the old due key, which
            # the new key cannot sort below: re-key lazily.
            event.time = time
            event.sequence = sequence
            return event
        if owner is None:
            # Parked: the entry has left the heap, so queue a fresh one.
            event.owner = self
            event.time = time
            event.sequence = sequence
        else:
            # The queued entry would sort above the new key and could
            # surface too late: retire it with the event.
            event.cancel()
            event = Event(time, sequence, callback, self)
        heappush(self._heap, (time, sequence, event))
        return event

    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of heap entries: live, cancelled, suspended or stale."""
        return len(self._heap)

    @property
    def events_scheduled(self) -> int:
        """Number of events scheduled so far, resumptions included (each
        takes a fresh sequence number)."""
        return self._sequence

    @property
    def events_cancelled(self) -> int:
        """Number of queued events cancelled so far (suspensions and
        cancels of fired or parked events do not count)."""
        return self._cancelled

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
        while heap:
            _, sequence, event = heap[0]
            if event.callback is None:
                heappop(heap)
                self._cancelled_in_heap -= 1
            elif sequence != event.sequence:
                self._settle_top(event)
            else:
                return heap[0][0]
        return None

    # ------------------------------------------------------------------ #

    def _note_cancelled(self) -> None:
        """Bookkeeping hook for :meth:`Event.cancel`; may compact the heap.

        Compaction drops dead entries and re-heapifies, in place, so a
        fire loop holding the heap list keeps seeing the live one.  Heap
        order is a total order here — sequence numbers are unique — so
        the surviving events pop in exactly the order they would have
        anyway: lazily and eagerly deleted runs are bit-identical.
        """
        self._cancelled += 1
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= self.COMPACT_MIN_SIZE
            and 2 * self._cancelled_in_heap > len(heap)
        ):
            heap[:] = [entry for entry in heap if entry[2].callback is not None]
            heapify(heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    def _settle_top(self, event: Event) -> None:
        """Fix the heap top, a suspended or stale entry of ``event``.

        A suspended event's entry is popped and the event parked; a stale
        entry is replaced by the due key and sifts down to its place.
        """
        heap = self._heap
        sequence = event.sequence
        if sequence < 0:
            heappop(heap)
            event.owner = None
        else:
            heapreplace(heap, (event.time, sequence, event))

    # ------------------------------------------------------------------ #

    def _fire(
        self,
        deadline: float,
        max_events: int | None,
        condition: Callable[[], bool] | None = None,
    ) -> bool:
        """Fire live events with ``time <= deadline``, in heap order.

        Stops when the heap has no live event left within the deadline
        (returns False) or, after an event fires, when ``condition()``
        holds (returns True).  Raises once ``max_events`` have fired here
        and another live event is due.  Leaves the clock at the last
        fired event; callers move it to the deadline.
        """
        heap = self._heap
        budget = sys.maxsize if max_events is None else max_events
        fired = 0
        # ``while True`` rather than ``while heap``: CPython 3.11 compiles
        # the latter's back-edge as a conditional jump, which does not
        # count towards warming the code up for specialization, so one
        # long ``run()`` call would execute unspecialized throughout (1.8x
        # slower on a one-event ping-pong).
        while True:
            if not heap:
                return False
            time, sequence, event = heap[0]
            callback = event.callback
            if callback is None:
                heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if sequence != event.sequence:
                # Suspended or re-keyed since this entry was queued:
                # park it, or re-queue it under its due key.
                sequence = event.sequence
                if sequence < 0:
                    heappop(heap)
                    event.owner = None
                else:
                    heapreplace(heap, (event.time, sequence, event))
                continue
            if time > deadline:
                return False
            if fired >= budget:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self.now:.6f}"
                )
            heappop(heap)
            if time < self.now:
                # The event left the heap unfired: like a parked one, it
                # has no owner, so a cancel counts no dead entry and a
                # suspend + resume queues it afresh.
                event.owner = None
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}"
                )
            self.now = time
            event.callback = None
            self._events_processed += 1
            fired += 1
            callback()
            if condition is not None and condition():
                return True

    def step(self) -> bool:
        """Fire the next live event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, sequence, event = heap[0]
            callback = event.callback
            if callback is None:
                heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if sequence != event.sequence:
                self._settle_top(event)
                continue
            heappop(heap)
            if time < self.now:
                # The event left the heap unfired: like a parked one, it
                # has no owner, so a cancel counts no dead entry and a
                # suspend + resume queues it afresh.
                event.owner = None
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}"
                )
            self.now = time
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
        self._fire(_INF, max_events)

    def run_until(self, time: float, max_events: int | None = None) -> None:
        """Run events with ``event.time <= time``; clock ends at ``time``.

        Events scheduled beyond the horizon stay queued, so simulations can
        be advanced window by window.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run to the past: {time} < now={self.now}"
            )
        self._fire(time, max_events)
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
        if condition() or self._fire(deadline, max_events, condition):
            return True
        self.now = deadline
        return False
