#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload surge_live --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``surge_live``, ``crash_detect`` or ``plan_sweep``
(see ``perfbench/README.md``).  ``--seed`` fixes every input; ``default``
and ``heldout`` name the two documented seeds.  ``--seconds`` is how long
the run measures.  With ``--trace 0`` the workload repeats untraced and
the end-to-end metrics are reported; with ``--trace 1`` each repeat is an
untraced run followed by a run under the per-layer wrappers of
``layertrace.py``, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host (CPU count, Python and NumPy versions, the seconds a fixed
pure-Python calibration loop takes) and each repeat.  The program exits 2
without a result when the ``repro`` sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "plan_rho_rps": "req/s",
}

#: Per-layer metrics (traced runs): name -> unit.  ``s`` and ``ms`` are
#: host time; ``sim_s`` is simulated time.
PER_LAYER = {
    "engine.self_s": "s",
    "engine.scheduled": "count",
    "engine.fired": "count",
    "engine.cancelled": "count",
    "engine.compactions": "count",
    "engine.peak_heap": "count",
    "engine.scheduled_per_conv": "events/conv",
    "engine.fired_ratio": "ratio",
    "resources.self_s": "s",
    "resources.submits": "count",
    "resources.tasks_done": "count",
    "resources.preemptions": "count",
    "resources.preemptions_per_conv": "preempts/conv",
    "middleware.self_s": "s",
    "middleware.conversations": "count",
    "middleware.dead_letters": "count",
    "middleware.resubmissions": "count",
    "middleware.lost": "count",
    "middleware.watchdog_timeouts": "count",
    "control.overhead_s": "s",
    "control.overhead_ms_per_epoch": "ms",
    "control.observe_s": "s",
    "control.decide_s": "s",
    "control.redeploys": "count",
    "protocol.execute_s": "s",
    "protocol.commands": "count",
    "registry.generations": "count",
    "migration.steps": "count",
    "migration.window_s": "sim_s",
    "planner.self_s": "s",
    "planner.calls": "count",
    "planner.ms_n64": "ms",
    "planner.ms_n128": "ms",
    "planner.ms_n256": "ms",
    "planner.ms_n512": "ms",
    "planner.ms_n1024": "ms",
    "planner.ms_n2048": "ms",
    "evaluator.hit_ratio": "ratio",
    "outcome.served_rate_rps": "req/s",
    "outcome.downtime_s": "sim_s",
    "outcome.detections": "count",
    "outcome.detect_latency_s": "sim_s",
    "trace.wall_s": "s",
    "trace.overhead_x": "x",
    "trace.unattributed_s": "s",
}

#: Untraced repeats a run always makes, whatever ``--seconds`` says: the
#: determinism check compares repeats.
MIN_REPEATS = 2
#: Fresh-interpreter set-ups measured per ``--trace 0`` run (this process
#: counts as one); ``setup_s`` is their median.
SETUP_SAMPLES = 7
CALIBRATION_LOOPS = 1_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="default")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-long inputs (self-test)"
    )
    parser.add_argument(
        "--spans-out",
        metavar="FILE",
        help="with --trace 1, write the last traced run's coarse spans here",
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def resolve_seed(text: str, workloads) -> int:
    if text == "default":
        return workloads.DEFAULT_SEED
    if text == "heldout":
        return workloads.HELDOUT_SEED
    return int(text)


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS):
            x = (x * 31 + i) & 0xFFFF
        best = min(best, perf_counter() - start)
    return best


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "calibration_s": calibrate(),
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def setup_sample(args) -> float:
    """Set-up seconds of one fresh interpreter (imports, inputs, objects)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# measurement


def repeat_until(seconds: float, minimum: int, step) -> list:
    """Call ``step()`` until ``seconds`` have passed and ``minimum`` calls."""
    results = []
    start = perf_counter()
    while len(results) < minimum or perf_counter() - start < seconds:
        results.append(step())
    return results


def measure_untraced(workload, args, setup_s: float):
    """``--trace 0``: repeats, checks, end-to-end metrics."""
    samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    runs = repeat_until(args.seconds, MIN_REPEATS, workload.run)
    failures = []
    for run in runs:
        failures += workload.check(run)
    ops = [run.ops for run in runs]
    lost = sum(run.failed for run in runs)
    digests = {run.digest for run in runs}
    if len(digests) != 1:
        failures.append(f"{len(digests)} distinct outcomes across repeats")
    rates = [n / r.wall_s for n, r in zip(ops, runs)]
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        "plan_rho_rps": runs[0].rho,
    }
    details = {
        "setup_samples_s": samples,
        "repeats": [
            {"wall_s": r.wall_s, "ops": n, "ops_per_s": n / r.wall_s}
            for n, r in zip(ops, runs)
        ],
        "digest": sorted(digests)[0],
    }
    attempted = sum(ops) + lost
    return metrics, attempted, lost, failures, details


#: Per-layer units measured in host time: medians over an invocation's
#: pairs.  Every other per-layer metric is exact and read from the last pair.
HOST_UNITS = ("s", "ms", "x")


def measure_traced(workload, args):
    """``--trace 1``: untraced/traced pairs, neutrality checks, layers."""
    from layertrace import LayerTracer

    failures = []

    def pair():
        plain = workload.run()
        tracer = LayerTracer()
        tracer.install(policy=workload.policy)
        try:
            traced = workload.run()
        finally:
            tracer.remove()
        left = tracer.installed()
        if left:
            failures.append(f"wrappers left installed: {left}")
        failures.extend(workload.check(plain))
        failures.extend(workload.check(traced))
        if traced.digest != plain.digest:
            failures.append("traced run differs from untraced")
        fired = tracer.counts["fired.resources"] + tracer.counts["fired.middleware"]
        engine_fired = sum(
            sim.events_processed for sim in tracer.simulators.values()
        )
        if fired != engine_fired:
            failures.append(
                f"tracer saw {fired} callbacks, engine fired {engine_fired}"
            )
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        return (
            layer_metrics(plain, traced, tracer),
            plain.ops + traced.ops,
            plain.failed + traced.failed,
        )

    rows, ops, lost = zip(*repeat_until(args.seconds, 1, pair))
    host = [name for name, unit in PER_LAYER.items() if unit in HOST_UNITS]
    metrics = dict(rows[-1])
    for name in host:
        metrics[name] = statistics.median(row[name] for row in rows)
    details = {"pairs": [{name: row[name] for name in host} for row in rows]}
    return metrics, sum(ops) + sum(lost), sum(lost), failures, details


def layer_metrics(plain, traced, tracer) -> dict:
    """Every per-layer metric of one untraced/traced pair."""
    counts = tracer.counts
    scheduled = counts["scheduled"]
    fired = counts["fired.resources"] + counts["fired.middleware"]
    resources = tracer.resources.values()
    evaluators = tracer.evaluators
    hits = sum(e.hits for e in evaluators)
    lookups = hits + sum(e.misses for e in evaluators)
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(
        {
            "engine.self_s": tracer.self_s["engine"],
            "engine.scheduled": scheduled,
            "engine.fired": fired,
            "engine.cancelled": counts["cancelled"],
            "engine.compactions": sum(
                sim.heap_compactions for sim in tracer.simulators.values()
            ),
            "engine.peak_heap": tracer.peak_heap,
            "engine.fired_ratio": fired / scheduled if scheduled else 0.0,
            "resources.self_s": tracer.self_s["resources"],
            "resources.submits": counts["submits"],
            "resources.tasks_done": sum(r.tasks_done for r in resources),
            "resources.preemptions": sum(r.preemptions for r in resources),
            "middleware.self_s": tracer.self_s["middleware"],
            "middleware.watchdog_timeouts": counts["watchdog_timeouts"],
            "control.observe_s": tracer.self_s["control.observe"],
            "control.decide_s": tracer.self_s["control.decide"],
            "protocol.execute_s": tracer.self_s["protocol"],
            "protocol.commands": counts["commands"],
            "planner.self_s": tracer.self_s["planner"],
            "planner.calls": counts["planner_calls"],
            "evaluator.hit_ratio": hits / lookups if lookups else 0.0,
            "trace.wall_s": traced.wall_s,
            "trace.overhead_x": traced.wall_s / plain.wall_s,
            "trace.unattributed_s": traced.wall_s - tracer.attributed_s,
        }
    )
    for size, times in tracer.plan_ms.items():
        key = f"planner.ms_n{size}"
        if key in metrics:
            metrics[key] = statistics.median(times)
    timeline = getattr(traced, "timeline", None)
    if timeline is not None:
        conversations = timeline.total_served
        final = timeline.records[-1].metrics
        metrics.update(
            {
                "engine.scheduled_per_conv": scheduled / conversations,
                "resources.preemptions_per_conv": (
                    metrics["resources.preemptions"] / conversations
                ),
                "middleware.conversations": conversations,
                "middleware.dead_letters": timeline.dead_letters,
                "middleware.resubmissions": final.value(
                    "conversations_resubmitted", 0
                ),
                "middleware.lost": timeline.lost_conversations,
                # From the untraced run: the loop's own stopwatch, which
                # the wrappers would inflate.
                "control.overhead_s": plain.overhead_s,
                "control.overhead_ms_per_epoch": (
                    plain.overhead_s * 1e3 / len(timeline.records)
                ),
                "control.redeploys": timeline.redeploys,
                "registry.generations": traced.generations,
                "migration.steps": timeline.migration_step_count,
                "migration.window_s": timeline.migration_window,
                "outcome.served_rate_rps": timeline.mean_served_rate,
                "outcome.downtime_s": timeline.migration_downtime,
                "outcome.detections": timeline.detection_count,
                "outcome.detect_latency_s": timeline.mean_detection_latency,
            }
        )
    return metrics


# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {SRC}; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        args.seed = resolve_seed(args.seed, workloads)
    except ValueError:
        print(f"error: bad seed {args.seed!r}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, args.seed, args.tiny)
    setup_s = perf_counter() - start
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        metrics, attempted, failed_ops, failures, details = measure_traced(
            workload, args
        )
        units = PER_LAYER
    else:
        metrics, attempted, failed_ops, failures, details = measure_untraced(
            workload, args, setup_s
        )
        units = END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "host": host_facts(),
        "failures": failures,
        **details,
    }
    print(json.dumps(info))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops + len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
