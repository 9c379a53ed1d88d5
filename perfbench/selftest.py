#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, prints a correct result
carrying exactly the metrics ``BENCHMARK.json`` names, with their units;
that a traced run leaves no wrapper installed; and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTracer  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class SpecTest(unittest.TestCase):
    def test_spec_matches_code(self):
        data = spec()
        self.assertEqual(
            [w["name"] for w in data["workloads"]], list(workloads.WORKLOADS)
        )
        for key, table in (
            ("end_to_end", run.END_TO_END),
            ("per_layer", run.PER_LAYER),
        ):
            declared = {m["name"]: m["unit"] for m in data[key]}
            self.assertEqual(declared, table, key)
        bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class WorkloadOutputTest(unittest.TestCase):
    def check_output(self, workload: str, trace: int) -> None:
        done = bench(
            "--workload", workload, "--seed", "default", "--seconds", "0",
            "--trace", str(trace), "--tiny",
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertTrue(result["correct"], info["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("calibration_s", info["host"])
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in spec()[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced_and_untraced(self):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_output(workload, trace)


class TracerTest(unittest.TestCase):
    def test_traced_run_leaves_no_wrapper(self):
        from repro.api import PlanningSession
        from repro.control.monitor import SLOMonitor
        from repro.sim.engine import Event, Simulator
        from repro.sim.resources import SerialResource

        owners = (Simulator, Event, SerialResource, SLOMonitor, PlanningSession)
        before = [dict(vars(owner)) for owner in owners]
        workload = workloads.make_workload("crash_detect", 1, tiny=True)
        policy_class = type(workload.loop.policy)
        policy_before = dict(vars(policy_class))
        plain = workload.run()
        tracer = LayerTracer()
        tracer.install(policy=workload.loop.policy)
        self.assertTrue(tracer.installed())
        try:
            traced = workload.run()
        finally:
            tracer.remove()
        self.assertEqual(tracer.installed(), [])
        self.assertEqual([dict(vars(owner)) for owner in owners], before)
        self.assertEqual(dict(vars(policy_class)), policy_before)
        self.assertEqual(traced.timeline, plain.timeline)
        self.assertGreater(tracer.counts["scheduled"], 0)
        self.assertGreater(tracer.self_s["engine"], 0.0)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                HERE,
                Path(tmp) / HERE.name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = bench(
                "--workload", "surge_live", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=Path(tmp),
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
