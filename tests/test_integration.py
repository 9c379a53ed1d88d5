"""End-to-end integration scenarios.

Each test walks the full pipeline the paper describes: rate a platform,
plan a deployment, serialize it, validate and launch it with the GoDIET
analogue, drive it with the §5.1 client protocol, and check the measured
outcome against the model and against the paper's qualitative claims.
"""

import pytest

from repro.analysis.experiments import run_fixed_load
from repro.api import PlanningSession
from repro.calibration.table3 import calibrate
from repro.core.params import DEFAULT_PARAMS
from repro.deploy.godiet import GoDIET
from repro.deploy.plan import DeploymentPlan
from repro.deploy.xml_io import plan_from_xml, plan_to_xml
from repro.platforms.background import heterogenize
from repro.platforms.pool import NodePool
from repro.platforms.rating import rate_pool
from repro.units import dgemm_mflop
from repro.workloads.loadgen import ClientRamp


class TestFullPipeline:
    def test_rate_plan_serialize_launch_measure(self, tmp_path):
        # 1. Platform: heterogenize + rate (the §5.3 methodology).
        base = NodePool.homogeneous(24, 265.0, prefix="orsay")
        pool = rate_pool(heterogenize(base, loaded_fraction=0.5, seed=2))

        # 2. Plan.
        wapp = dgemm_mflop(310)
        deployment = PlanningSession().plan(pool=pool, app_work=wapp)

        # 3. Serialize through disk, as a deployment tool would.
        plan = DeploymentPlan(
            hierarchy=deployment.hierarchy,
            params=deployment.params,
            app_work=wapp,
            method=deployment.method,
        )
        path = tmp_path / "plan.xml"
        path.write_text(plan_to_xml(plan))
        restored = plan_from_xml(path.read_text())
        assert restored.predicted_throughput == pytest.approx(
            plan.predicted_throughput
        )

        # 4. Validate + launch against the pool it was planned for.
        platform = GoDIET().launch(restored, pool=pool)

        # 5. Ramp to saturation and hold (§5.1).
        ramp = ClientRamp(
            client_interval=0.1, max_clients=200, hold_duration=6.0
        )
        result = ramp.run(platform.system)

        # 6. The measurement matches the model's promise.
        assert result.max_sustained == pytest.approx(
            restored.predicted_throughput, rel=0.08
        )

    def test_calibrate_then_plan_round_trip(self):
        """Parameters measured from the simulated middleware plan as well
        as the ground truth they estimate."""
        calibration = calibrate(
            DEFAULT_PARAMS,
            capture_repetitions=20,
            fit_degrees=(1, 4, 8),
            fit_repetitions=5,
        )
        pool = NodePool.uniform_random(16, low=100, high=350, seed=6)
        wapp = dgemm_mflop(310)
        with_truth = PlanningSession().plan(
            pool=pool, app_work=wapp, params=DEFAULT_PARAMS
        )
        with_calibrated = PlanningSession().plan(
            pool=pool, app_work=wapp, params=calibration.params
        )
        assert with_calibrated.throughput == pytest.approx(
            with_truth.throughput, rel=1e-3
        )
        assert (
            with_calibrated.hierarchy.shape_signature()
            == with_truth.hierarchy.shape_signature()
        )


class TestPaperClaims:
    """The headline qualitative claims, end to end in the DES."""

    def test_tiny_grain_pair_beats_bigger_deployments_measured(self):
        pool = NodePool.homogeneous(6, 265.0)
        wapp = dgemm_mflop(10)
        pair = PlanningSession().plan(pool=pool, app_work=wapp).hierarchy
        assert pair.shape_signature() == (2, 1, 1, 1)
        star = PlanningSession().plan(
            pool=pool, app_work=wapp, method="star"
        ).hierarchy
        pair_rate = run_fixed_load(
            pair, DEFAULT_PARAMS, wapp, clients=50, duration=5.0
        ).throughput
        star_rate = run_fixed_load(
            star, DEFAULT_PARAMS, wapp, clients=50, duration=5.0
        ).throughput
        assert pair_rate > star_rate

    def test_demand_satisfaction_holds_in_simulation(self):
        pool = NodePool.uniform_random(40, low=100, high=400, seed=3)
        wapp = dgemm_mflop(200)
        demand = 60.0
        deployment = PlanningSession().plan(
            pool=pool, app_work=wapp, demand=demand
        )
        measured = run_fixed_load(
            deployment.hierarchy, DEFAULT_PARAMS, wapp,
            clients=80, duration=15.0,
        ).throughput
        assert measured >= demand * 0.95
        assert deployment.nodes_used < len(pool)

    def test_least_resources_preference(self):
        """Among deployments with (near-)equal throughput the planner
        returns the smaller one — the paper's tie-breaking rule."""
        pool = NodePool.homogeneous(30, 265.0)
        wapp = dgemm_mflop(10)  # scheduling-bound: extra servers useless
        deployment = PlanningSession().plan(pool=pool, app_work=wapp)
        assert deployment.nodes_used == 2
