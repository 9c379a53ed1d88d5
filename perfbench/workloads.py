"""Seeded inputs, runners and correctness checks of the benchmark workloads.

Three workloads, each one single-threaded process:

``surge_live``
    The ``black_friday`` flash crowd through the reactive controller with
    live migration and the inline act stage: the default user path, where
    the event engine and the serial resources do almost all the work.
``crash_detect``
    The same pool and trace with concurrent migration, the in-process
    command-protocol executor, a silent crash of the root's busiest child
    at t = 18 s and timeout-based failure detection: deep heaps of
    watchdog timers, dead-lettering, the protocol and repair planning.
``plan_sweep``
    Algorithm 1 alone over heterogeneous pools of 64 to 2048 nodes and
    application sizes from agent-bound to server-bound: the paper's own
    use, with no simulation at all.

The seed is the only input the benchmark takes; it fixes the node pools
and the controller's seed.  Pools are *stratified* uniform draws: node
``i`` of ``n`` gets a power drawn uniformly from the ``i``-th of ``n``
equal slices of ``[low, high]``, and the powers are then shuffled.  Every
pool is still a uniform heterogeneous draw, but pool capacity varies far
less between seeds than with independent draws, so one seed's run is
representative of the workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from time import perf_counter

from repro.api import PlanningSession, PlanRequest
from repro.control import ControlLoop, fixture
from repro.core.throughput import hierarchy_throughput
from repro.errors import HierarchyError, ReproError
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

#: Seed used when none is given.
DEFAULT_SEED = 1
#: Seed kept out of development runs, for confirming a claimed gain on
#: inputs the change was not tuned against.
HELDOUT_SEED = 5

WORKLOADS = ("surge_live", "crash_detect", "plan_sweep")
CONTROL_WORKLOADS = ("surge_live", "crash_detect")

#: Pool sizes of the plan sweep; each has a ``planner.ms_n<size>`` metric.
SWEEP_SIZES = (64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class ControlShape:
    """Geometry of a control workload."""

    pool_size: int = 16
    low: float = 80.0
    high: float = 400.0
    dgemm: int = 200
    epochs: int = 30
    epoch_duration: float = 4.0
    initial_fraction: float = 0.4
    crash_at: float = 18.0
    timeout: float = 0.5
    threshold: int = 3


@dataclass(frozen=True)
class SweepShape:
    """Grid of the plan sweep: sizes x application sizes x pool draws."""

    sizes: tuple[int, ...] = SWEEP_SIZES
    dgemms: tuple[int, ...] = (10, 30, 100, 300, 1000)
    draws: int = 2
    low: float = 80.0
    high: float = 400.0


FULL_CONTROL = ControlShape()
#: Seconds-long variants for the self-test; same code paths, and the crash
#: still lands, is detected and is repaired.
TINY_CONTROL = ControlShape(epochs=3, crash_at=6.0)
FULL_SWEEP = SweepShape()
TINY_SWEEP = SweepShape(sizes=(64, 128), dgemms=(10, 1000), draws=1)


def stratified_powers(
    rng: random.Random, count: int, low: float, high: float
) -> list[float]:
    """``count`` node powers, one uniform draw per equal slice, shuffled."""
    width = (high - low) / count
    powers = [low + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(powers)
    return powers


def timeline_digest(timeline) -> str:
    """sha256 of the canonical JSON of a ``ControlTimeline``."""
    payload = json.dumps(
        dataclasses.asdict(timeline), sort_keys=True, default=repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def geometric_mean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------- #
# control workloads


@dataclass
class ControlRun:
    """One untraced or traced run of a control workload."""

    wall_s: float
    timeline: object
    overhead_s: float
    generations: int

    @property
    def ops(self) -> int:
        """Conversations completed."""
        return self.timeline.total_served

    @property
    def failed(self) -> int:
        """Conversations lost."""
        return self.timeline.lost_conversations

    @property
    def digest(self) -> str:
        return timeline_digest(self.timeline)

    @property
    def rho(self) -> float:
        """Geometric mean of the model capacity that served each epoch."""
        return geometric_mean(record.capacity for record in self.timeline.records)


class ControlWorkload:
    """``surge_live`` or ``crash_detect`` for one seed."""

    def __init__(self, name: str, seed: int, shape: ControlShape = FULL_CONTROL):
        self.name = name
        self.seed = seed
        self.shape = shape
        rng = random.Random(seed)
        self.powers = stratified_powers(
            rng, shape.pool_size, shape.low, shape.high
        )
        self.loop_seed = rng.randrange(1 << 31)
        options = dict(
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=shape.epochs,
            epoch_duration=shape.epoch_duration,
            initial_fraction=shape.initial_fraction,
            seed=self.loop_seed,
        )
        if name == "surge_live":
            options.update(migration="live", executor="inline")
        else:
            options.update(
                migration="concurrent",
                executor="local",
                faults=(
                    "crash:target=busiest-child,"
                    f"at={shape.crash_at:g}"
                ),
                detection=(
                    f"timeout={shape.timeout:g},retries=1,"
                    f"threshold={shape.threshold},grace=2,reserve=0.2"
                ),
            )
        self.loop = ControlLoop(
            NodePool.heterogeneous(self.powers),
            dgemm_mflop(shape.dgemm),
            fixture("black_friday"),
            **options,
        )

    @property
    def policy(self):
        """The control policy, whose ``decide`` the traced run times."""
        return self.loop.policy

    def run(self) -> ControlRun:
        loop = self.loop
        start = perf_counter()
        timeline = loop.run()
        wall = perf_counter() - start
        return ControlRun(
            wall_s=wall,
            timeline=timeline,
            overhead_s=loop.overhead_seconds,
            generations=len(loop.deployment_registry),
        )

    def check(self, run: ControlRun) -> list[str]:
        """Correctness failures of one run (empty when it is correct)."""
        timeline = run.timeline
        failures = []
        if timeline.lost_conversations != 0:
            failures.append(
                f"{timeline.lost_conversations} conversations lost"
            )
        if timeline.total_served <= 0:
            failures.append("no conversation completed")
        if min(record.capacity for record in timeline.records) <= 0.0:
            failures.append("an epoch ran on a deployment of capacity 0")
        if self.name == "crash_detect":
            bound = (
                self.shape.threshold * self.shape.timeout
                + self.shape.epoch_duration
            )
            latency = timeline.mean_detection_latency
            if timeline.detection_count != 1:
                failures.append(
                    f"{timeline.detection_count} detections confirmed, "
                    "expected exactly 1"
                )
            elif not 0.0 < latency <= bound:
                failures.append(
                    f"detection latency {latency:.3f} s outside (0, {bound:g}]"
                )
        elif timeline.fault_count or timeline.detection_count:
            failures.append("a fault-free run injected or detected a fault")
        return failures


# ---------------------------------------------------------------------- #
# plan sweep


@dataclass
class SweepRun:
    """One pass over the plan grid."""

    wall_s: float
    deployments: list
    failed: int

    @property
    def ops(self) -> int:
        """Plans made."""
        return len(self.deployments) - self.failed

    @property
    def rho(self) -> float:
        """Geometric mean of the planned model throughput."""
        return geometric_mean(
            d.throughput for d in self.deployments if d is not None
        )

    @property
    def digest(self) -> str:
        rows = [
            (d.throughput, d.hierarchy.shape_signature())
            if d is not None
            else None
            for d in self.deployments
        ]
        return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


class SweepWorkload:
    """``plan_sweep`` for one seed."""

    name = "plan_sweep"
    policy = None

    def __init__(self, seed: int, shape: SweepShape = FULL_SWEEP):
        self.seed = seed
        self.shape = shape
        rng = random.Random(seed)
        self.requests: list[PlanRequest] = []
        for size in shape.sizes:
            for _ in range(shape.draws):
                pool = NodePool.heterogeneous(
                    stratified_powers(rng, size, shape.low, shape.high)
                )
                for dgemm in shape.dgemms:
                    self.requests.append(
                        PlanRequest(
                            pool=pool,
                            app_work=dgemm_mflop(dgemm),
                            method="heuristic",
                        )
                    )
        self.session = PlanningSession(cache=False)
        # Warm-up: the first plan of a process pays one-off costs (lazy
        # imports, first kernel calls) that a planning service pays once.
        smallest = min(shape.sizes)
        for request in self.requests:
            if len(request.pool) == smallest:
                self.session.plan(request)

    def run(self) -> SweepRun:
        plan = self.session.plan
        deployments = []
        failed = 0
        start = perf_counter()
        for request in self.requests:
            try:
                deployments.append(plan(request))
            except ReproError:  # a failed plan is a failed operation
                deployments.append(None)
                failed += 1
        wall = perf_counter() - start
        return SweepRun(
            wall_s=wall,
            deployments=deployments,
            failed=failed,
        )

    def check(self, run: SweepRun) -> list[str]:
        """Every plan validates and re-evaluates to its own throughput."""
        failures = []
        for request, deployment in zip(self.requests, run.deployments):
            if deployment is None:
                continue
            label = f"n={len(request.pool)} Wapp={request.app_work:g}"
            try:
                deployment.hierarchy.validate(strict=True)
            except HierarchyError as exc:
                failures.append(f"{label}: invalid hierarchy: {exc}")
                continue
            report = hierarchy_throughput(
                deployment.hierarchy, deployment.params, request.app_work
            )
            if report.throughput != deployment.throughput:
                failures.append(
                    f"{label}: re-evaluated {report.throughput!r} != "
                    f"planned {deployment.throughput!r}"
                )
        return failures


def make_workload(name: str, seed: int, tiny: bool = False):
    """Inputs and constructed objects of workload ``name`` for ``seed``."""
    if name == "plan_sweep":
        return SweepWorkload(seed, TINY_SWEEP if tiny else FULL_SWEEP)
    if name in CONTROL_WORKLOADS:
        return ControlWorkload(
            name, seed, TINY_CONTROL if tiny else FULL_CONTROL
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
