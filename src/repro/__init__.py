"""repro — reproduction of *Automatic Middleware Deployment Planning on
Heterogeneous Platforms* (Caron, Chouhan, Desprez; IPDPS 2008 / INRIA
RR-6566).

The library provides:

* the paper's steady-state throughput model (:mod:`repro.core`),
* a pluggable planner registry and typed planning API (:mod:`repro.api`,
  :mod:`repro.core.registry`) covering the heterogeneous heuristic, the
  homogeneous-optimal and exhaustive references, the intuitive baselines,
  and the extension planners (``hetcomm``, ``multiapp``, ``redeploy``),
* a synthetic platform substrate (:mod:`repro.platforms`),
* a discrete-event simulated DIET-like middleware (:mod:`repro.sim`,
  :mod:`repro.middleware`) standing in for the paper's Grid'5000 testbed,
* plan serialization and a GoDIET-style launcher (:mod:`repro.deploy`),
* workload and load-injection tooling (:mod:`repro.workloads`),
* an online control plane — time-varying workload traces and
  rolling-horizon autoscaling over the simulator (:mod:`repro.control`),
* a calibration campaign reproducing Table 3 (:mod:`repro.calibration`),
* experiment harnesses for every figure and table (:mod:`repro.analysis`).

Quickstart::

    from repro import NodePool, PlanningSession, dgemm_mflop

    session = PlanningSession()
    pool = NodePool.uniform_random(50, low=80, high=400, seed=7)
    deployment = session.plan(pool=pool, app_work=dgemm_mflop(310))
    print(deployment.describe())

Scenario grids fan out over every registered planner::

    from repro import PlanRequest, scenario_grid

    grid = scenario_grid(
        pools=[pool], app_works=[dgemm_mflop(s) for s in (100, 310)],
        methods=("heuristic", "star", "balanced"),
    )
    deployments = session.plan_many(grid, parallel=True)
    best = session.rank(pool, dgemm_mflop(310))[0]

Registering a third-party planner is a one-file change — implement the
:class:`~repro.core.registry.Planner` protocol and decorate it::

    from repro import register_planner
    from repro.core.registry import CAP_AUTOMATIC, PlannerOptions

    @register_planner
    class MyPlanner:
        name = "mine"
        capabilities = frozenset({CAP_AUTOMATIC})
        options_type = PlannerOptions

        def plan(self, request):
            ...  # return a repro.Deployment

    PlanningSession().plan(pool=pool, app_work=1.0, method="mine")

The new planner automatically appears in ``repro-deploy plan --method``
and ``repro-deploy planners``.
"""

from repro.api import (
    PlanRequest,
    PlanningSession,
    RankedPlan,
    scenario_grid,
)
from repro.core import (
    REGISTRY,
    BalancedOptions,
    ChainOptions,
    Deployment,
    ExhaustiveOptions,
    HeuristicOptions,
    HeuristicPlanner,
    Hierarchy,
    HierarchyEvaluator,
    HomogeneousOptions,
    HomogeneousPlanner,
    LevelSizes,
    ModelParams,
    PlannerOptions,
    PlannerRegistry,
    Role,
    StarOptions,
    ThroughputReport,
    balanced_deployment,
    chain_deployment,
    default_middle_agents,
    hierarchy_throughput,
    register_planner,
    star_deployment,
)
from repro.platforms import (
    BackgroundWorkload,
    HomogeneousNetwork,
    Node,
    NodePool,
    heterogenize,
    rate_pool,
)
from repro.units import dgemm_mflop

__version__ = "1.10.0"

#: Control-plane names exported lazily (PEP 562): repro.control pulls in
#: the middleware/sim/extensions stack, which the registry deliberately
#: defers to first lookup — `import repro` must stay cheap for CLI
#: startup and plan_many worker processes.
_CONTROL_EXPORTS = ("ControlLoop", "ControlTimeline", "Trace")


def __getattr__(name):
    if name in _CONTROL_EXPORTS:
        from repro import control

        return getattr(control, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "__version__",
    # planning API
    "PlanRequest",
    "PlanningSession",
    "RankedPlan",
    "scenario_grid",
    "REGISTRY",
    "PlannerRegistry",
    "register_planner",
    "Deployment",
    "default_middle_agents",
    "PlannerOptions",
    "HeuristicOptions",
    "HomogeneousOptions",
    "ExhaustiveOptions",
    "StarOptions",
    "BalancedOptions",
    "ChainOptions",
    # core
    "ModelParams",
    "LevelSizes",
    "Hierarchy",
    "Role",
    "ThroughputReport",
    "hierarchy_throughput",
    "HierarchyEvaluator",
    "HeuristicPlanner",
    "HomogeneousPlanner",
    "star_deployment",
    "balanced_deployment",
    "chain_deployment",
    # control plane
    "ControlLoop",
    "ControlTimeline",
    "Trace",
    # platforms
    "Node",
    "NodePool",
    "HomogeneousNetwork",
    "BackgroundWorkload",
    "heterogenize",
    "rate_pool",
    # workloads
    "dgemm_mflop",
]
