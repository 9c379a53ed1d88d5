"""Differential test: the serial resource against a frozen reference.

``resources_ref.py`` is ``SerialResource`` as it was when preemption
cancelled the interrupted item's completion event and scheduled a new
one on resumption; it is copied verbatim except that it runs on the
frozen engine, ``engine_ref``.  The current resource suspends the
completion instead and resumes the same event.  Both are driven by the
``TestResourceInterleavings`` program generator — priority-0 and
priority-1 submits with preemptions, rate changes and a halt, observed
in ``run_until`` windows, and by a denser variant of it that keeps
service work running for scheduling work to preempt and halts only
late — and must agree bit
for bit on every completion, every clock reading and all of the
busy-time accounting.
"""

from __future__ import annotations

import engine_ref
import resources_ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties_sim import ResourceHarness, offsets, resource_ops

KINDS = ("send", "recv", "compute")

# Long priority-1 service items, short (or zero-length) priority-0
# scheduling items and short windows, so most programs preempt, many of
# them repeatedly, and re-rate preempted work; the halt, if any, comes
# after the first part of the program, often with preempted items queued.
kinds = st.sampled_from(KINDS)
service = st.tuples(
    st.just("submit"), offsets, st.floats(min_value=0.5, max_value=3.0), kinds,
    st.just(1),
)
scheduling = st.tuples(
    st.just("submit"), offsets, st.sampled_from([0.0, 1e-3, 0.05, 0.3]), kinds,
    st.just(0),
)
dense_ops = st.one_of(
    service,
    service,
    scheduling,
    scheduling,
    scheduling,
    st.tuples(st.just("window"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("rate"), offsets, st.sampled_from([0.25, 0.5, 1.0, 2.0])),
)
halts = st.one_of(st.none(), st.tuples(st.just("halt"), offsets))


def observed(harness: ResourceHarness):
    resource = harness.resource
    return (
        harness.sim.now,
        harness.sim.events_processed,
        harness.log,
        harness.dropped,
        resource.busy_time,
        [resource.kind_time(kind) for kind in KINDS],
        resource.busy_seconds(),
        resource.tasks_done,
        resource.preemptions,
        resource.is_busy,
        resource.queue_length,
        resource.backlog,
    )


def assert_same_run(program) -> None:
    fast = ResourceHarness()
    ref = ResourceHarness(engine_ref.Simulator, resources_ref.SerialResource)
    for op in program:
        fast.apply(op)
        ref.apply(op)
        assert observed(fast) == observed(ref), op
    fast.sim.run()
    ref.sim.run()
    assert observed(fast) == observed(ref)


@given(st.lists(resource_ops, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_resource_matches_reference(program):
    assert_same_run(program)


@given(
    st.lists(dense_ops, min_size=5, max_size=60),
    halts,
    st.lists(dense_ops, max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_resource_matches_reference_under_preemption(head, halt, tail):
    assert_same_run(head + ([halt] if halt else []) + tail)


def test_preempted_item_resumes_across_windows():
    """One service item preempted three times, the last preemption with
    zero-length work, resumed at a lower rate, then halted with a
    preempted item still queued."""
    program = [
        ("submit", 0.0, 2.0, "compute", 1),
        ("submit", 0.5, 0.25, "recv", 0),
        ("window", 1.0),
        ("submit", 0.1, 0.0, "send", 0),
        ("submit", 0.1, 1.5, "compute", 1),
        ("rate", 0.5, 0.5),
        ("window", 1.7),
        ("submit", 0.0, 0.5, "recv", 0),
        ("window", 0.1),
        ("submit", 0.0, 0.5, "send", 0),
        ("halt", 0.1),
        ("window", 3.0),
    ]
    assert_same_run(program)
