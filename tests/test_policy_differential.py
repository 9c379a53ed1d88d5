"""Differential test: the control policies against a frozen reference.

``policy_ref.py`` is ``repro.control.policy`` as it was before every
policy was built from its options dataclass: four hand-written
constructors, three copies of the repair/evict prelude and two forecast
``decide`` methods.  Random ``ControlContext``s drive all five policies
over a grid of option sets, and both modules must agree on the action,
reason, demand and targets of every decision and on ``describe()``.
The option checks, names and defaults must agree too.
"""

from __future__ import annotations

import dataclasses
import random

import policy_ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import policy
from repro.control.monitor import WindowObservation
from repro.control.traces import piecewise
from repro.errors import ControlError

#: Option sets per policy: defaults, and every gate switched or tuned.
OPTION_GRID = (
    ("hold", {}),
    ("reactive", {}),
    ("reactive", {"hysteresis": 1, "cooldown": 0}),
    ("reactive", {"hysteresis": 3, "cooldown": 1, "restructure": False}),
    ("reactive", {"repair": False, "evict_after": 2, "cooldown": 0}),
    ("reactive", {"evict_after": 1, "evict_fraction": 0.9, "cooldown": 0}),
    ("predictive", {}),
    ("predictive", {"window": 4, "cooldown": 1, "lookahead": 1}),
    ("predictive", {"window": 2, "cooldown": 0, "restructure": False}),
    (
        "predictive",
        {"window": 5, "cooldown": 0, "repair": False, "evict_after": 2},
    ),
    ("predictive_ewma", {}),
    ("predictive_ewma", {"season": 3, "warmup": 2, "cooldown": 0}),
    (
        "predictive_ewma",
        {"season": 2, "alpha": 0.9, "beta": 0.1, "gamma": 0.6,
         "restructure": False},
    ),
    (
        "predictive_ewma",
        {"warmup": 5, "cooldown": 1, "repair": False, "evict_after": 1},
    ),
    ("oracle", {}),
    ("oracle", {"headroom": 1.0, "tolerance": 0.05}),
)

PAIRS = [
    (name, options, policy.make_policy(name, options),
     policy_ref.make_policy(name, options))
    for name, options in OPTION_GRID
]

SCALING = ("reactive", "predictive", "predictive_ewma")
ACTIONS = {"hold", "improve", "replan", "repair", "evict"}
SERVERS = ("s0", "s1", "s2", "s3")
NODES = SERVERS + ("a0", "a1")
TRACE = piecewise([(0.0, 4), (10.0, 30), (25.0, 12), (40.0, 50)])


def random_context(rng: random.Random) -> dict:
    """Keyword arguments of one random ``ControlContext``."""
    capacity = rng.uniform(10.0, 150.0)
    # A persistent straggler (or none) makes eviction reachable.
    straggler = rng.choice(SERVERS + (None, None))
    observations = []
    for index in range(rng.randint(0, 10)):
        offered = rng.choice((0, rng.randint(1, 60), rng.randint(1, 60)))
        rates = tuple(
            (
                name,
                rng.uniform(0.0, 1.0)
                if name == straggler
                else rng.choice((0.0, rng.uniform(5.0, 30.0))),
            )
            for name in SERVERS
        )
        observations.append(
            WindowObservation(
                index=index,
                start=5.0 * index,
                end=5.0 * (index + 1),
                offered=offered,
                served=rng.randint(0, 500),
                served_rate=capacity * rng.uniform(0.0, 1.2),
                agent_utilization=rng.random(),
                server_utilization=rng.random(),
                busiest_node=rng.choice(NODES),
                busiest_utilization=rng.uniform(0.5, 1.0),
                queue_depth=rng.randint(0, 80),
                failed_nodes=tuple(
                    sorted(rng.sample(NODES, rng.choice((0, 0, 0, 1, 2))))
                ),
                partitioned_nodes=tuple(
                    sorted(rng.sample(NODES, rng.choice((0, 0, 0, 1))))
                ),
                server_rates=rates,
            )
        )
    deployed = rng.randint(2, 12)
    spares = rng.choice((0, 0, 1, 3))
    shares = [rng.uniform(0.5, 2.0) for _ in SERVERS]
    return dict(
        observations=tuple(observations),
        capacity=capacity,
        deployed_nodes=deployed,
        pool_size=deployed + spares,
        spares=spares,
        min_nodes=rng.randint(1, 4),
        epoch_duration=5.0,
        next_start=5.0 * len(observations),
        trace=TRACE,
        demand_unit=rng.choice((0.0, rng.uniform(0.5, 4.0))),
        redeploys=rng.choice((0, 0, 1, 3)),
        epochs_since_redeploy=rng.randint(0, 6),
        repair_spares=rng.choice((0, 0, 2)),
        server_shares=tuple(
            (name, share / sum(shares)) for name, share in zip(SERVERS, shares)
        ),
    )


def verdict(module, instance, fields: dict) -> tuple:
    decision = instance.decide(module.ControlContext(**fields))
    return (decision.action, decision.reason, decision.demand, decision.targets)


def compare(fields: dict) -> dict[str, set[str]]:
    """Assert every pair agrees on ``fields``; return the actions seen."""
    seen: dict[str, set[str]] = {}
    for name, options, new, ref in PAIRS:
        got = verdict(policy, new, fields)
        assert got == verdict(policy_ref, ref, fields), (name, options)
        seen.setdefault(name, set()).add(got[0])
    return seen


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_policies_decide_like_the_reference(rng):
    compare(random_context(rng))


def test_seeded_sweep_reaches_every_action():
    rng = random.Random(7)
    seen: dict[str, set[str]] = {name: set() for name in SCALING}
    for _ in range(1500):
        for name, actions in compare(random_context(rng)).items():
            seen.setdefault(name, set()).update(actions)
    for name in SCALING:
        assert seen[name] == ACTIONS, name


@pytest.mark.parametrize("name, options, new, ref", PAIRS)
def test_describe_matches_the_reference(name, options, new, ref):
    assert new.describe() == ref.describe()


def test_option_names_and_defaults_match_the_reference():
    assert policy.available_policies() == policy_ref.available_policies()
    for name in policy_ref.available_policies():
        defaults = [
            {f.name: f.default for f in dataclasses.fields(cls.options_type)}
            for cls in (policy._POLICIES[name], policy_ref._POLICIES[name])
        ]
        assert defaults[0] == defaults[1], name


@pytest.mark.parametrize(
    "name, options",
    [
        ("reactive", {"hysteresis": 0}),
        ("reactive", {"up_utilization": 1.5}),
        ("reactive", {"down_fraction": 0.95}),
        ("reactive", {"cooldown": -1}),
        ("reactive", {"headroom": 0.9}),
        ("reactive", {"evict_after": -1}),
        ("reactive", {"evict_fraction": 1.0}),
        ("predictive", {"lookahead": 0}),
        ("predictive", {"window": 1}),
        ("predictive", {"headroom": 0.5}),
        ("predictive", {"down_fraction": 1.0}),
        ("predictive", {"cooldown": -2}),
        ("predictive", {"evict_fraction": 0.0}),
        ("predictive_ewma", {"alpha": 0.0}),
        ("predictive_ewma", {"beta": 1.5}),
        ("predictive_ewma", {"gamma": -0.1}),
        ("predictive_ewma", {"season": -1}),
        ("predictive_ewma", {"lookahead": 0}),
        ("predictive_ewma", {"headroom": 0.99}),
        ("predictive_ewma", {"down_fraction": 0.0}),
        ("predictive_ewma", {"cooldown": -1}),
        ("predictive_ewma", {"warmup": 1}),
        ("predictive_ewma", {"evict_after": -3}),
        ("oracle", {"headroom": 0.5}),
        ("oracle", {"tolerance": 0.0}),
    ],
)
def test_option_checks_match_the_reference(name, options):
    with pytest.raises(ControlError) as new:
        policy.make_policy(name, options)
    with pytest.raises(ControlError) as ref:
        policy_ref.make_policy(name, options)
    assert str(new.value) == str(ref.value)
