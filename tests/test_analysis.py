"""Analysis harness: experiments, saturation, comparisons, reports."""

import numpy as np
import pytest

from repro.analysis.compare import (
    compare_deployments,
    percent_of_optimal,
    predicted_vs_measured,
)
from repro.analysis.experiments import (
    ExperimentResult,
    max_sustained_throughput,
    measure_load_curve,
    run_fixed_load,
)
from repro.analysis.report import ascii_chart, ascii_table, format_rate
from repro.analysis.saturation import find_plateau, is_saturated
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import ParameterError, SimulationError
from repro.workloads.loadgen import ClientRamp


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def star(n_servers: int) -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", 265.0)
    for i in range(n_servers):
        h.add_server(f"s{i}", 265.0, "agent")
    return h


def two_level() -> Hierarchy:
    h = Hierarchy()
    h.set_root("ma", 300.0)
    h.add_agent("la0", 200.0, "ma")
    h.add_agent("la1", 150.0, "ma")
    h.add_server("s0", 120.0, "la0")
    h.add_server("s1", 260.0, "la0")
    h.add_server("s2", 90.0, "la1")
    h.add_server("s3", 310.0, "la1")
    return h


class TestRunFixedLoad:
    def test_saturated_load_matches_model(self, p):
        h = star(2)
        result = run_fixed_load(h, p, 16.0, clients=40, duration=15.0)
        predicted = hierarchy_throughput(h, p, 16.0).throughput
        assert result.throughput == pytest.approx(predicted, rel=0.05)

    def test_light_load_below_model(self, p):
        h = star(2)
        result = run_fixed_load(h, p, 16.0, clients=1, duration=10.0)
        predicted = hierarchy_throughput(h, p, 16.0).throughput
        assert result.throughput < predicted * 0.8

    def test_reports_latency_and_bottleneck(self, p):
        result = run_fixed_load(star(1), p, 16.0, clients=10, duration=10.0)
        assert result.mean_latency > 0
        assert result.mean_scheduling_latency >= 0
        assert result.bottleneck_node == "s0"
        assert 0 < result.bottleneck_utilization <= 1.0

    def test_validation(self, p):
        with pytest.raises(SimulationError):
            run_fixed_load(star(1), p, 16.0, clients=0)

    @pytest.mark.parametrize(
        "hierarchy, app_work, options, expected",
        [
            pytest.param(
                star(1),
                16.0,
                dict(clients=10, duration=10.0),
                ExperimentResult(
                    clients=10,
                    throughput=16.5,
                    mean_latency=0.604017434339626,
                    mean_scheduling_latency=0.0007226490754711433,
                    utilizations={
                        "agent": 0.012221669811320803,
                        "s0": 0.9999301618867925,
                    },
                    service_counts={"s0": 165},
                    completed=165,
                ),
                id="star1",
            ),
            pytest.param(
                star(2),
                16.0,
                dict(clients=40, duration=8.0),
                ExperimentResult(
                    clients=40,
                    throughput=33.333333333333336,
                    mean_latency=1.2085202275471651,
                    mean_scheduling_latency=0.0007484264339622252,
                    utilizations={
                        "agent": 0.027719422641509766,
                        "s0": 0.9999094801886793,
                        "s1": 0.9986625136816037,
                    },
                    service_counts={"s0": 132, "s1": 132},
                    completed=264,
                ),
                id="star2",
            ),
            pytest.param(
                two_level(),
                40.0,
                dict(clients=30, duration=6.0, stagger=0.02, seed=3),
                ExperimentResult(
                    clients=30,
                    throughput=19.166666666666668,
                    mean_latency=1.5374756569394286,
                    mean_scheduling_latency=0.0020161784857572643,
                    utilizations={
                        "ma": 0.015554400000000116,
                        "la0": 0.02294640000000013,
                        "la1": 0.030338399999999963,
                        "s0": 0.9897077455370368,
                        "s1": 0.9963470227763533,
                        "s2": 0.9930410593703703,
                        "s3": 0.9996755723416966,
                    },
                    service_counts={"s0": 17, "s1": 38, "s2": 13, "s3": 46},
                    completed=114,
                ),
                id="two_level",
            ),
        ],
    )
    def test_results_are_pinned(self, p, hierarchy, app_work, options, expected):
        """Exact results, recorded before latencies were collected from
        client completions instead of the system's request registry."""
        assert run_fixed_load(hierarchy, p, app_work, **options) == expected
        with pytest.raises(SimulationError):
            run_fixed_load(star(1), p, 16.0, clients=1, duration=0.0)
        with pytest.raises(SimulationError):
            run_fixed_load(star(1), p, 16.0, clients=1, warmup_fraction=1.0)


class TestLoadCurve:
    def test_curve_rises_then_saturates(self, p):
        h = star(2)
        curve = measure_load_curve(
            h, p, 16.0, client_counts=[1, 2, 5, 10, 20, 40], duration=10.0
        )
        assert curve.rates[0] < curve.rates[-1]
        # Last two levels within a few percent of each other: saturated.
        assert curve.rates[-1] == pytest.approx(curve.rates[-2], rel=0.1)

    def test_peak_metadata(self, p):
        curve = measure_load_curve(
            star(1), p, 16.0, client_counts=[1, 5, 20], duration=8.0,
            label="one server",
        )
        assert curve.label == "one server"
        assert curve.peak_clients in (1, 5, 20)
        assert curve.peak_rate == max(curve.rates)

    def test_points_export(self, p):
        curve = measure_load_curve(
            star(1), p, 16.0, client_counts=[1, 5], duration=5.0
        )
        points = curve.points()
        assert len(points) == 2
        assert points[0][0] == 1

    def test_empty_counts_rejected(self, p):
        with pytest.raises(SimulationError):
            measure_load_curve(star(1), p, 16.0, client_counts=[])


class TestMaxSustained:
    def test_ramp_finds_model_throughput(self, p):
        h = star(2)
        ramp = ClientRamp(
            client_interval=0.2, max_clients=60, window=0.2, hold_duration=5.0
        )
        result = max_sustained_throughput(h, p, 16.0, ramp=ramp)
        predicted = hierarchy_throughput(h, p, 16.0).throughput
        assert result.max_sustained == pytest.approx(predicted, rel=0.05)


class TestSaturation:
    def test_find_plateau_on_synthetic_curve(self):
        clients = list(range(1, 11))
        rates = [10, 20, 30, 38, 42, 44, 45, 45, 45, 45]
        sat_clients, plateau = find_plateau(clients, rates)
        assert plateau == pytest.approx(45.0)
        assert sat_clients <= 7

    def test_rising_curve_rejected(self):
        with pytest.raises(SimulationError):
            find_plateau([1, 2, 3, 4], [10, 20, 30, 40])

    def test_empty_curve_rejected(self):
        with pytest.raises(SimulationError):
            find_plateau([], [])

    def test_is_saturated(self):
        assert is_saturated([10, 20, 30, 30, 30, 30])
        assert not is_saturated([10, 20, 30, 40, 50, 60])
        assert not is_saturated([10])  # too short to tell


class TestCompare:
    def test_predicted_vs_measured_row(self, p):
        row = predicted_vs_measured(
            star(2), p, 16.0, clients=40, duration=10.0, label="2 SeDs"
        )
        assert row.label == "2 SeDs"
        assert row.accuracy == pytest.approx(1.0, rel=0.08)
        assert row.servers == 2

    def test_compare_orders_by_measured(self, p):
        rows = compare_deployments(
            {"one": star(1), "three": star(3)},
            p, 16.0, clients=40, duration=10.0,
        )
        assert rows[0].label == "three"
        assert rows[0].measured > rows[1].measured

    def test_compare_empty_rejected(self, p):
        with pytest.raises(ParameterError):
            compare_deployments({}, p, 16.0, clients=1)

    def test_percent_of_optimal(self):
        assert percent_of_optimal(89.0, 100.0) == pytest.approx(89.0)
        with pytest.raises(ParameterError):
            percent_of_optimal(1.0, 0.0)


class TestReport:
    def test_ascii_table_alignment(self):
        text = ascii_table(
            ["name", "value"], [["alpha", 1], ["b", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows same width

    def test_ascii_chart_contains_markers_and_legend(self):
        text = ascii_chart(
            {"a": ([1, 2, 3], [1.0, 2.0, 3.0]), "b": ([1, 2, 3], [3.0, 2.0, 1.0])},
            title="curves",
        )
        assert "curves" in text
        assert "* = a" in text
        assert "o = b" in text

    def test_ascii_chart_empty(self):
        assert ascii_chart({"a": ([], [])}) == "(no data)"

    def test_format_rate_ranges(self):
        assert format_rate(1234.5) == "1234"  # no decimals at scale
        assert format_rate(45.67) == "45.7"
        assert format_rate(2.345) == "2.35"
