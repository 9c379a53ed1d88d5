"""Simulated middleware: agents, servers, clients, assembled systems."""

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.middleware.client import ClosedLoopClient
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def star(n_servers: int, power: float = 265.0) -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", power)
    for i in range(n_servers):
        h.add_server(f"s{i}", power, "agent")
    return h


def two_level() -> Hierarchy:
    h = Hierarchy()
    h.set_root("root", 265.0)
    h.add_agent("mid", 265.0, "root")
    h.add_server("s0", 265.0, "mid")
    h.add_server("s1", 265.0, "mid")
    h.add_server("s2", 265.0, "root")
    return h


class TestRequestLifecycle:
    def test_single_request_completes(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0)
        done = []
        request = system.submit("client", on_complete=done.append)
        sim.run()
        assert done == [request]
        assert request.is_complete
        assert request.selected_server in ("s0", "s1")
        assert request.scheduled_at is not None
        assert request.completed_at >= request.scheduled_at >= request.submitted_at

    def test_registry_holds_only_in_flight_scheduling_rounds(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, app_work=1.0)
        clients = [ClosedLoopClient(system, f"c{i}") for i in range(8)]
        for i, client in enumerate(clients):
            sim.schedule(i * 0.01, client.start)
        sim.run_until(3.0)
        assert sum(client.completed for client in clients) > 100
        # A request leaves the registry when its scheduling round returns.
        assert set(system._requests) == set(system._schedule_waiters)
        assert len(system._requests) <= len(clients)
        for client in clients:
            client.stop()
        sim.run()
        assert system._requests == {}

    def test_latency_decomposition(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=16.0)
        done = []
        system.submit("client", on_complete=done.append)
        sim.run()
        request = done[0]
        assert request.total_latency == pytest.approx(
            request.scheduling_latency + request.service_latency
        )
        # Service latency must dominate for a 16 MFlop request.
        assert request.service_latency > request.scheduling_latency

    def test_schedule_only_phase(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(3), p, app_work=1.0)
        seen = []
        system.submit_schedule_only("client", on_scheduled=seen.append)
        sim.run()
        assert len(seen) == 1
        assert seen[0].selected_server is not None
        assert seen[0].completed_at is None  # no service phase
        assert system.total_completed() == 0

    def test_multilevel_hierarchy_routes_to_leaves(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, app_work=1.0)
        done = []
        for _ in range(30):
            system.submit("client", on_complete=done.append)
        sim.run()
        assert len(done) == 30
        served = {r.selected_server for r in done}
        assert served <= {"s0", "s1", "s2"}
        # All three servers should see work under concurrent load.
        assert len(served) >= 2

    def test_per_server_app_work(self, p):
        sim = Simulator()
        system = MiddlewareSystem(
            sim, star(2), p, app_work={"s0": 1.0, "s1": 5.0}
        )
        assert system.servers["s0"].app_work == 1.0
        assert system.servers["s1"].app_work == 5.0


class TestSelection:
    def test_idle_servers_share_load(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(4), p, app_work=16.0, seed=1)
        clients = [ClosedLoopClient(system, f"c{i}") for i in range(30)]
        for i, c in enumerate(clients):
            sim.schedule(i * 0.01, c.start)
        sim.run_until(10.0)
        counts = list(system.service_counts().values())
        assert min(counts) > 0.5 * max(counts)

    def test_faster_server_serves_more(self, p):
        h = Hierarchy()
        h.set_root("agent", 265.0)
        h.add_server("fast", 400.0, "agent")
        h.add_server("slow", 100.0, "agent")
        sim = Simulator()
        system = MiddlewareSystem(sim, h, p, app_work=16.0, seed=1)
        clients = [ClosedLoopClient(system, f"c{i}") for i in range(20)]
        for i, c in enumerate(clients):
            sim.schedule(i * 0.01, c.start)
        sim.run_until(10.0)
        counts = system.service_counts()
        assert counts["fast"] > counts["slow"]

    def test_selection_deterministic_per_seed(self, p):
        def run(seed: int) -> list[int]:
            sim = Simulator()
            system = MiddlewareSystem(sim, star(3), p, app_work=4.0, seed=seed)
            clients = [ClosedLoopClient(system, f"c{i}") for i in range(10)]
            for i, c in enumerate(clients):
                sim.schedule(i * 0.01, c.start)
            sim.run_until(5.0)
            return list(system.service_counts().values())

        assert run(42) == run(42)


class TestClosedLoopClient:
    def test_back_to_back_requests(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        sim.run_until(2.0)
        client.stop()
        sim.run()
        assert client.completed > 10
        assert not client.active

    def test_think_time_slows_client(self, p):
        def completions(think: float) -> int:
            sim = Simulator()
            system = MiddlewareSystem(sim, star(1), p, app_work=1.0)
            client = ClosedLoopClient(system, "c0", think_time=think)
            client.start()
            sim.run_until(5.0)
            return client.completed

        assert completions(0.5) < completions(0.0)

    def test_start_idempotent(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        client.start()
        sim.run_until(1.0)
        # One request in flight at a time: completions track one loop.
        assert client.completed >= 1


class TestObservability:
    def test_utilization_report_covers_all_nodes(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, app_work=4.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        sim.run_until(3.0)
        report = system.utilization_report()
        assert set(report) == {"root", "mid", "s0", "s1", "s2"}
        assert all(0.0 <= u <= 1.0 for u in report.values())

    def test_bottleneck_is_busiest(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=16.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        sim.run_until(5.0)
        node, util = system.bottleneck()
        assert node == "s0"  # service-bound: the server is the hot spot
        assert util > 0.5

    def test_trace_wiring(self, p):
        sim = Simulator()
        trace = TraceRecorder()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0, trace=trace)
        system.submit("client", on_complete=lambda r: None)
        sim.run()
        kinds = {r.kind for r in trace}
        assert {"msg_recv", "msg_sent", "compute"} <= kinds


class TestSchedulingRaces:
    """The two transparent-resubmit paths the failure layer leans on."""

    def test_zero_route_round_resubmits_until_a_server_returns(self, p):
        # Partition every server: scheduling rounds find no route and
        # must resubmit (paying a fresh round trip each time) until a
        # heal brings a server back — then exactly one completion fires.
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        system.partition("s0")
        system.partition("s1")
        done, rounds = [], []
        system.submit(
            "client", on_complete=done.append, on_scheduled=rounds.append
        )
        sim.run_until(0.01)
        assert done == []
        assert len(rounds) > 1  # kept retrying, never gave up
        assert all(r.selected_server is None for r in rounds)
        system.heal("s0")
        sim.run()
        assert len(done) == 1
        assert done[0].selected_server == "s0"
        assert rounds[-1].selected_server == "s0"
        assert system.total_completed() == 1
        assert system.lost_conversations == 0

    def test_service_race_resubmits_when_selected_server_died(self, p):
        # Measure when the scheduling reply lands on a clean same-seed
        # run, then crash the selected server inside the merge->delivery
        # send window: the reply names a dead server, and _start_service
        # must transparently reschedule through the survivors.
        def clean():
            sim = Simulator()
            system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
            done = []
            system.submit("client", on_complete=done.append)
            sim.run()
            return done[0]

        reference = clean()
        epsilon = p.agent_sizes.srep / p.bandwidth / 2
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        done, rounds = [], []
        system.submit(
            "client", on_complete=done.append, on_scheduled=rounds.append
        )
        sim.run_until(reference.scheduled_at - epsilon)
        assert done == []  # reply still in flight
        system.fail_server(reference.selected_server)
        sim.run()
        assert len(done) == 1
        survivor = ({"s0", "s1"} - {reference.selected_server}).pop()
        assert done[0].selected_server == survivor
        # First round named the dead server, the retry round rescheduled.
        assert len(rounds) == 2
        assert rounds[0].selected_server == reference.selected_server
        assert rounds[1].selected_server == survivor
        assert system.total_completed() == 1
        assert system.lost_conversations == 0
