#!/usr/bin/env python
"""Golden ``ControlTimeline`` digests over the migration scenario matrix.

The control loop promises that a run is a pure function of its inputs:
same seed, same timeline, bit for bit.  This script turns that promise
into a committed artefact.  It runs a fixed matrix of short controller
scenarios (migration mode x act-stage executor x fault schedule x health
model x population model) and records the sha256 of each timeline's
canonical JSON in ``tests/golden/timelines.json``.  The tier-1 suite
recomputes every cell (``tests/test_golden.py``), so any change that
moves a timeline fails loudly and names the cells that moved.

Every cell runs the ``black_friday`` surge for 6 epochs of 4 s on a
16-node heterogeneous pool (stratified uniform powers in [80, 400]) under
the reactive policy with ``hysteresis=1, cooldown=1``.  That geometry
redeploys three times with multi-region plans, so serial (``live``) and
wave (``concurrent``) execution give different migration windows.

Run from the repository root::

    PYTHONPATH=src python tools/golden_timelines.py           # check
    PYTHONPATH=src python tools/golden_timelines.py --write   # regenerate

A check exits 0 when every digest matches and 1 otherwise, listing the
cells that moved.  Regenerate only for a deliberate behaviour change, and
name the moved cells in the change log.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

from repro.control import ControlLoop, fixture
from repro.control.traces import hybrid
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

#: Where the committed digests live.
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "timelines.json"

FAULTS = {
    "none": None,
    "crash": "crash:target=busiest-child,at=10",
    "storm": (
        "subtree-storm:targets=node-07|node-04|node-05,"
        "count=2,start=6,end=18,seed=3"
    ),
}
DETECTION = {
    "oracle": None,
    "timeout": "timeout=0.5,retries=1,threshold=3,grace=2,reserve=0.2",
}
POPULATIONS = ("discrete", "hybrid")

#: ``(migration, executor, faults, detection, population)`` per cell.
#: Restart plans bypass the command protocol, so restart cells run the
#: inline executor only; the process pool gets one representative cell.
CELLS = (
    ("restart", "inline", "none", "oracle", "discrete"),
    ("restart", "inline", "crash", "oracle", "discrete"),
    ("restart", "inline", "storm", "oracle", "discrete"),
    ("restart", "inline", "crash", "timeout", "discrete"),
    ("restart", "inline", "none", "oracle", "hybrid"),
    ("restart", "inline", "crash", "timeout", "hybrid"),
    ("live", "inline", "none", "oracle", "discrete"),
    ("live", "inline", "crash", "oracle", "discrete"),
    ("live", "inline", "storm", "oracle", "discrete"),
    ("live", "inline", "crash", "timeout", "discrete"),
    ("live", "inline", "storm", "timeout", "discrete"),
    ("live", "inline", "none", "oracle", "hybrid"),
    ("live", "inline", "crash", "oracle", "hybrid"),
    ("live", "inline", "crash", "timeout", "hybrid"),
    ("live", "local", "none", "oracle", "discrete"),
    ("live", "local", "storm", "oracle", "discrete"),
    ("live", "local", "crash", "timeout", "discrete"),
    ("live", "local", "none", "oracle", "hybrid"),
    ("concurrent", "inline", "none", "oracle", "discrete"),
    ("concurrent", "inline", "crash", "oracle", "discrete"),
    ("concurrent", "inline", "storm", "oracle", "discrete"),
    ("concurrent", "inline", "crash", "timeout", "discrete"),
    ("concurrent", "inline", "storm", "timeout", "discrete"),
    ("concurrent", "inline", "none", "oracle", "hybrid"),
    ("concurrent", "inline", "storm", "oracle", "hybrid"),
    ("concurrent", "inline", "crash", "timeout", "hybrid"),
    ("concurrent", "local", "none", "oracle", "discrete"),
    ("concurrent", "local", "crash", "timeout", "discrete"),
    ("concurrent", "local", "storm", "timeout", "discrete"),
    ("concurrent", "local", "none", "oracle", "hybrid"),
    ("concurrent", "pool", "crash", "timeout", "discrete"),
)


def cell_name(cell: tuple[str, ...]) -> str:
    return "/".join(cell)


def build_loop(cell: tuple[str, ...]) -> ControlLoop:
    """The controller of one matrix cell, ready to :meth:`run`."""
    migration, executor, faults, detection, population = cell
    rng = random.Random(1)
    width = (400.0 - 80.0) / 16
    powers = [80.0 + width * (i + rng.random()) for i in range(16)]
    rng.shuffle(powers)
    trace = fixture("black_friday")
    if population == "hybrid":
        trace = hybrid(trace, population=4, cohort=8)
    return ControlLoop(
        NodePool.heterogeneous(powers),
        dgemm_mflop(200),
        trace,
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=6,
        epoch_duration=4.0,
        initial_fraction=0.4,
        seed=rng.randrange(1 << 31),
        migration=migration,
        executor=executor,
        executor_workers=1 if executor == "pool" else None,
        faults=FAULTS[faults],
        detection=DETECTION[detection],
    )


def timeline_digest(timeline) -> str:
    """sha256 of the canonical JSON of a ``ControlTimeline``."""
    payload = json.dumps(
        dataclasses.asdict(timeline), sort_keys=True, default=repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute() -> dict[str, str]:
    """Digest of every cell, keyed by cell name, in matrix order."""
    return {
        cell_name(cell): timeline_digest(build_loop(cell).run())
        for cell in CELLS
    }


def load() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def moved(golden: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Cells whose digest differs, plus cells on only one side."""
    return sorted(
        name
        for name in set(golden) | set(digests)
        if golden.get(name) != digests.get(name)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the committed digests instead of checking them",
    )
    args = parser.parse_args(argv)
    digests = compute()
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    changed = moved(load(), digests)
    for name in changed:
        print(f"moved: {name}")
    print(f"{len(digests) - len(changed)}/{len(digests)} cells unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
