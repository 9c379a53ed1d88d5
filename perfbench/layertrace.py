"""Per-layer timing wrappers, installed from outside the program.

:class:`LayerTracer` patches the public entry points of each layer of the
``repro`` package for the length of one traced run and attributes host
time to layers with a span stack: a span's *self* time is its duration
minus the durations of the spans it encloses.  Nothing under ``src/`` is
modified; :meth:`LayerTracer.remove` restores every patched attribute, and
:meth:`LayerTracer.installed` reports any that are not restored.

Layers (the keys of :attr:`LayerTracer.self_s`):

``engine``
    ``Simulator.run_until`` / ``run_until_condition`` / ``schedule`` and
    ``Event.cancel``.
``resources``
    ``SerialResource.submit`` and every engine callback that is a
    ``SerialResource`` bound method.
``middleware``
    Every other engine callback, the ``on_done`` callbacks resources run
    on completion, and ``DetectionState.note_timeout``.
``control.observe`` / ``control.decide``
    ``SLOMonitor.observe`` and the policy's ``decide``.
``protocol``
    The act-stage executor's ``execute`` (in-process and pool executors).
``planner``
    ``PlanningSession.plan`` and ``PlannerRegistry.plan``.

The engine fires millions of callbacks per control run, so those spans
are folded into per-layer totals as they close; only the coarse spans
(engine runs, observe, decide, execute, plan) are kept as records.  Time
spent in the wrappers' own bookkeeping lands in the enclosing span, which
is why the traced run is never used for end-to-end numbers.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from repro.api import PlanningSession
from repro.control.monitor import SLOMonitor
from repro.control.protocol import InProcessExecutor, ProcessExecutor
from repro.core.kernels import HierarchyEvaluator
from repro.core.registry import PlannerRegistry
from repro.middleware.detection import DetectionState
from repro.sim.engine import Event, Simulator
from repro.sim.resources import SerialResource

LAYERS = (
    "engine",
    "resources",
    "middleware",
    "control.observe",
    "control.decide",
    "protocol",
    "planner",
)

_MISSING = object()


class LayerTracer:
    """Span-stack self-time attribution over patched layer entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter()
        #: Coarse span records ``(name, layer, start, end, parent)``;
        #: ``parent`` is the index of the enclosing coarse span or -1.
        self.spans: list[tuple[str, str, float, float, int]] = []
        #: Duration of every ``plan`` span, keyed by pool size.
        self.plan_ms: dict[int, list[float]] = {}
        self.peak_heap = 0
        self.simulators: dict[int, Simulator] = {}
        self.resources: dict[int, SerialResource] = {}
        self.evaluators: list[HierarchyEvaluator] = []
        # Total duration of spans closed at or below the current depth;
        # a span's child time is the growth of this cell while it is open.
        self._inner = [0.0]
        self._open: list[int] = []
        #: Every ``(owner, attribute, previous value, wrapper)`` patched.
        self._patches: list[tuple[object, str, object, object]] = []
        self._active = False

    # ------------------------------------------------------------------ #
    # span bookkeeping

    def _leaf(self, layer: str, fn):
        """Wrap ``fn`` as a span of ``layer`` that keeps no record."""
        inner = self._inner
        self_s = self.self_s

        def span(*args, **kwargs):
            before = inner[0]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - (inner[0] - before)
                inner[0] = before + elapsed

        return span

    def _coarse(self, name: str, layer: str, fn, on_close=None):
        """Wrap ``fn`` as a span of ``layer`` that is kept as a record."""
        inner = self._inner
        self_s = self.self_s
        spans = self.spans
        open_spans = self._open

        def span(*args, **kwargs):
            before = inner[0]
            parent = open_spans[-1] if open_spans else -1
            index = len(spans)
            spans.append((name, layer, 0.0, 0.0, parent))
            open_spans.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                self_s[layer] += elapsed - (inner[0] - before)
                inner[0] = before + elapsed
                open_spans.pop()
                spans[index] = (name, layer, start, end, parent)
                if on_close is not None:
                    on_close(args, elapsed)

        return span

    def _callbacks(self, layer: str, key: str):
        """A function wrapping zero-argument callbacks as counted leaf spans.

        Specialised for the engine's callbacks, the hottest path in a
        traced control run: no argument forwarding, one counter bump.
        """
        inner = self._inner
        self_s = self.self_s
        counts = self.counts

        def wrap(callback):
            def fire():
                counts[key] += 1
                before = inner[0]
                start = perf_counter()
                try:
                    callback()
                finally:
                    elapsed = perf_counter() - start
                    self_s[layer] += elapsed - (inner[0] - before)
                    inner[0] = before + elapsed

            return fire

        return wrap

    # ------------------------------------------------------------------ #
    # install / remove

    def _patch(self, owner, attr: str, wrapper) -> None:
        previous = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, previous, wrapper))

    def install(self, policy=None) -> None:
        """Patch every layer entry point; ``policy`` adds its ``decide``."""
        if self._patches:
            raise RuntimeError("a tracer is installed once")
        self._active = True
        counts = self.counts
        leaf = self._leaf

        def count(key: str, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        # Engine.  Callbacks are wrapped as they are scheduled, so every
        # callback the engine fires runs inside a span of its owner.
        schedule = Simulator.schedule
        timed_schedule = leaf("engine", schedule)
        sims = self.simulators
        resource_cb = self._callbacks("resources", "fired.resources")
        middleware_cb = self._callbacks("middleware", "fired.middleware")

        def traced_schedule(sim, delay, callback):
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, SerialResource):
                callback = resource_cb(callback)
            else:
                callback = middleware_cb(callback)
            event = timed_schedule(sim, delay, callback)
            counts["scheduled"] += 1
            depth = sim.pending
            if depth > self.peak_heap:
                self.peak_heap = depth
            sims[id(sim)] = sim
            return event

        self._patch(Simulator, "schedule", traced_schedule)
        for name in ("run_until", "run_until_condition"):
            self._patch(
                Simulator,
                name,
                self._coarse(name, "engine", getattr(Simulator, name)),
            )
        cancel = leaf("engine", Event.cancel)

        def traced_cancel(event):
            if event.callback is not None:
                counts["cancelled"] += 1
            cancel(event)

        self._patch(Event, "cancel", traced_cancel)

        # Resources: submit, plus the completion callback it will run.
        submit = leaf("resources", SerialResource.submit)
        resources = self.resources
        done_cb = self._callbacks("middleware", "on_done")

        def traced_submit(resource, duration, kind, on_done=None, priority=0):
            counts["submits"] += 1
            resources[id(resource)] = resource
            if on_done is not None:
                on_done = done_cb(on_done)
            return submit(resource, duration, kind, on_done, priority)

        self._patch(SerialResource, "submit", traced_submit)
        self._patch(
            DetectionState,
            "note_timeout",
            count(
                "watchdog_timeouts",
                leaf("middleware", DetectionState.note_timeout),
            ),
        )

        # Control, protocol and planner: coarse spans.
        self._patch(
            SLOMonitor,
            "observe",
            self._coarse("observe", "control.observe", SLOMonitor.observe),
        )
        if policy is not None:
            cls = type(policy)
            self._patch(
                cls,
                "decide",
                self._coarse("decide", "control.decide", cls.decide),
            )

        def note_commands(args, elapsed):
            counts["commands"] += len(args[2])

        for cls in (InProcessExecutor, ProcessExecutor):
            self._patch(
                cls,
                "execute",
                self._coarse(
                    "execute", "protocol", cls.execute, on_close=note_commands
                ),
            )
        plan_ms = self.plan_ms

        def note_plan(args, elapsed):
            request = args[1] if len(args) > 1 else None
            pool = getattr(request, "pool", None)
            if pool is not None:
                plan_ms.setdefault(len(pool), []).append(elapsed * 1e3)

        self._patch(
            PlanningSession,
            "plan",
            self._coarse(
                "session.plan", "planner", PlanningSession.plan, note_plan
            ),
        )
        self._patch(
            PlannerRegistry,
            "plan",
            count(
                "planner_calls",
                self._coarse("registry.plan", "planner", PlannerRegistry.plan),
            ),
        )
        evaluator_init = HierarchyEvaluator.__init__
        evaluators = self.evaluators

        def traced_evaluator_init(evaluator, *args, **kwargs):
            evaluator_init(evaluator, *args, **kwargs)
            evaluators.append(evaluator)

        self._patch(HierarchyEvaluator, "__init__", traced_evaluator_init)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        if not self._active:
            return
        self._active = False
        for owner, attr, previous, _ in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def installed(self) -> list[str]:
        """Wrappers still in place (empty once removed)."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, _, wrapper in self._patches
            if owner.__dict__.get(attr) is wrapper
        ]

    # ------------------------------------------------------------------ #
    # results

    @property
    def attributed_s(self) -> float:
        """Host seconds inside any span (the sum of all self times)."""
        return sum(self.self_s.values())

    def write_spans(self, path: str) -> None:
        """Write the coarse span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for name, layer, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
