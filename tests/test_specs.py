"""The one ``key=value`` grammar, surface by surface.

Planner ``--opt`` flags, policy ``--policy-opt`` flags, trace specs,
fault specs and detection specs all split and type their items through
:mod:`repro.specs`.  Each surface must reject a malformed item, an
unknown key and an unparsable value with its own error class, accept
dashed keys, and keep its spec round trips.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _options_from_args
from repro.control.policy import make_policy
from repro.control.traces import fixture
from repro.control.traces import from_spec as trace_spec
from repro.core.registry import REGISTRY
from repro.errors import ControlError, FaultError, PlanningError, ReproError
from repro.faults import crash_storm, subtree_storm
from repro.faults import from_spec as fault_spec
from repro.middleware.detection import (
    DetectionError,
    DetectionParams,
    parse_detection,
)
from repro.specs import convert_options, split_options


def planner_opt(items):
    options = _options_from_args(argparse.Namespace(opt=items))
    return REGISTRY.resolve_options("heuristic", options)


def policy_opt(items):
    options = _options_from_args(
        argparse.Namespace(policy_opt=items),
        attribute="policy_opt",
        flag="--policy-opt",
    )
    return make_policy("reactive", options)


def trace(items):
    return trace_spec("burst:" + ",".join(items))


def fault(items):
    return fault_spec("degrade:" + ",".join(items))


def detection(items):
    return parse_detection(",".join(items))


#: (parse, valid items, malformed error, option error, dashed spelling,
#:  underscored spelling) per surface.
SURFACES = {
    "--opt": (
        planner_opt, ["patience=3"], ReproError, PlanningError,
        ["allow-promotion=no"], ["allow_promotion=no"],
    ),
    "--policy-opt": (
        policy_opt, ["hysteresis=3"], ReproError, ControlError,
        ["up-utilization=0.8"], ["up_utilization=0.8"],
    ),
    "trace": (
        trace, ["base=1", "burst_level=9", "at=10", "duration=5"],
        ControlError, ControlError,
        ["base=1", "burst-level=9", "at=10", "duration=5"],
        ["base=1", "burst_level=9", "at=10", "duration=5"],
    ),
    "fault": (
        # No fault key has an underscore: a dashed key shows up in the
        # unknown-key error exactly as its underscored spelling does.
        fault, ["at=3", "target=s1", "factor=0.5"], FaultError, FaultError,
        ["at=3", "tar-get=s1"], ["at=3", "tar_get=s1"],
    ),
    "detection": (
        detection, ["timeout=0.5"], DetectionError, DetectionError,
        ["suspicion-threshold=2"], ["suspicion_threshold=2"],
    ),
}


def raised(parse, items) -> Exception:
    with pytest.raises(ReproError) as info:
        parse(items)
    return info.value


def outcome(parse, items):
    """What parsing ``items`` gives, in a comparable form."""
    try:
        result = parse(items)
    except ReproError as exc:
        return type(exc), str(exc)
    if hasattr(result, "describe"):
        return result.describe()
    if hasattr(result, "sample"):
        return result.sample(0.0, 20.0, 1.0)
    return result


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_surface_keeps_its_grammar_and_error_classes(surface):
    parse, valid, malformed_error, option_error, dashed, plain = (
        SURFACES[surface]
    )
    parse(valid)
    # Each surface raises its own class, not a sibling or a base class.
    assert type(raised(parse, valid + ["oops"])) is malformed_error
    assert type(raised(parse, valid + ["=1"])) is malformed_error
    unknown = raised(parse, valid + ["wibble=1"])
    assert type(unknown) is option_error
    assert "wibble" in str(unknown) and "valid options" in str(unknown)
    key = valid[0].partition("=")[0]
    unparsable = raised(parse, [f"{key}=soon"] + valid[1:])
    assert type(unparsable) is option_error
    assert "cannot parse" in str(unparsable)
    # Dashed keys are the underscored ones (errors included).
    assert outcome(parse, dashed) == outcome(parse, plain)


def test_trace_round_trips():
    hybrid = trace_spec(
        "diurnal:base=4,peak=10,period=160,population=100000,cohort=24"
    )
    assert trace_spec(hybrid.name).name == hybrid.name
    assert trace_spec(hybrid.name).sample(0.0, 160.0, 8.0) == hybrid.sample(
        0.0, 160.0, 8.0
    )
    scaled = fixture("black_friday", scale=1.5)
    assert trace_spec(scaled.name).sample(0.0, 150.0, 5.0) == scaled.sample(
        0.0, 150.0, 5.0
    )


def test_fault_round_trip():
    schedule = crash_storm(3, 10.0, 90.0, seed=4) + subtree_storm(
        "a1|a2", 2, 5.0, 50.0, seed=9
    )
    assert fault_spec(schedule.spec) == schedule


def test_detection_round_trip():
    params = DetectionParams(
        timeout=0.3, retries=2, backoff=1.5, suspicion_threshold=4, grace=1.0
    )
    assert parse_detection(params.spec) == (params, None)
    assert parse_detection("THRESHOLD=4,reserve=0.25")[0] == DetectionParams(
        suspicion_threshold=4
    )
    with pytest.raises(DetectionError, match="duplicate"):
        parse_detection("threshold=2,suspicion-threshold=3")


def test_split_options_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="duplicate x key 'a_b'"):
        split_options(["a-b=1", "a_b=2"], ValueError, "x")


@pytest.mark.parametrize(
    "hint, raw, value",
    [
        (bool, "ON", True),
        (bool, "no", False),
        (int, " 7", 7),
        (float, "2.5", 2.5),
        ("tuple[int, ...]", "1,2,", (1, 2)),
        ("tuple[float, ...]", "0.5", (0.5,)),
        ("int | None", "3", 3),
        (str, "s1", "s1"),
    ],
)
def test_convert_options_types_each_value(hint, raw, value):
    assert convert_options({"k": raw}, {"k": hint}, ValueError, "x") == {
        "k": value
    }


def test_convert_options_passes_typed_values_through():
    assert convert_options({"k": 0.5}, {"k": int}, ValueError, "x") == {
        "k": 0.5
    }
    with pytest.raises(ValueError, match="boolean"):
        convert_options({"k": "maybe"}, {"k": bool}, ValueError, "x")
