"""Tests for the simulator perf overhaul (tuple-heap engine, link cache,
message sizing) and the ``perf`` benchmark harness.

The golden-sequence tests are the determinism contract of the optimization
work: the JSON files under ``tests/golden/`` were captured from the
pre-overhaul engine, and any change to a simulated timestamp, a delivery,
or the processed-event count flips the digest.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import BENCH_GATES
from repro.bench.perf import PERF_SCENARIOS, build_perf_world, golden_delivery_sequence, run_perf
from repro.net.message import HEADER_BYTES, estimate_size
from repro.paxos.types import Ballot
from repro.ringpaxos.messages import Decision, Phase2, Proposal
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.runtime.actor import Process
from repro.sim.topology import Topology
from repro.sim.world import World
from repro.types import Value

GOLDEN_DIR = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# determinism contract
# ----------------------------------------------------------------------
class TestGoldenSequences:
    """The optimized hot paths must reproduce the pre-overhaul runs exactly."""

    @pytest.mark.parametrize(
        "scenario,duration,threads",
        [("wan3", 2.0, 4), ("lan", 0.05, 4)],
    )
    def test_delivery_sequence_matches_golden(self, scenario, duration, threads):
        golden = json.loads((GOLDEN_DIR / f"{scenario}_smoke_deliveries.json").read_text())
        current = golden_delivery_sequence(scenario=scenario, duration=duration, threads=threads)
        # Spot-check head entries first for a readable diff on failure ...
        assert current["head"] == golden["head"]
        assert current["deliveries"] == golden["deliveries"]
        # ... then the full-sequence digest (covers every delivery, its
        # instance, value uid, and exact float timestamp).
        assert current["sha256"] == golden["sha256"]
        assert current["events_processed"] == golden["events_processed"]

    def test_perf_scenarios_are_deterministic(self):
        first = run_perf(duration=0.02, scenarios=("lan",), threads=2, output=None)
        second = run_perf(duration=0.02, scenarios=("lan",), threads=2, output=None)
        assert first["results"]["lan"]["events"] == second["results"]["lan"]["events"]
        assert first["results"]["lan"]["deliveries"] == second["results"]["lan"]["deliveries"]


# ----------------------------------------------------------------------
# engine fast paths
# ----------------------------------------------------------------------
class TestEngineFastPath:
    def test_call_at_and_schedule_share_fifo_order(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, order.append, "a")
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.call_later(1.0, order.append, "c")
        sim.schedule(1.0, order.append, "d")
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_call_later_in_the_past_raises(self):
        from repro.errors import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(-0.1, lambda: None)

    def test_kwargs_still_supported_via_schedule(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.1, lambda a, b=None: seen.append((a, b)), 1, b="x")
        sim.run()
        assert seen == [(1, "x")]

    def test_compaction_during_run_keeps_queue_identity(self):
        # run() holds local references to the queue and tombstone set; a
        # mass cancellation from inside a callback compacts mid-run and
        # must not strand the loop on a stale list object.
        sim = Simulator()
        victims = [sim.schedule(10.0 + i * 1e-3, lambda: None) for i in range(300)]
        fired = []

        def cancel_all():
            for event in victims:
                event.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.run()
        assert fired == ["late"]
        assert sim.compactions >= 1
        assert sim.processed_events == 2
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # already fired: must not corrupt counters
        sim.run()
        assert sim.processed_events == 2

    def test_max_events_with_cancellations(self):
        sim = Simulator()
        fired = []
        cancelled = sim.schedule(0.5, lambda: fired.append("x"))
        for index in range(5):
            sim.schedule(1.0 + index, lambda i=index: fired.append(i))
        cancelled.cancel()
        sim.run(max_events=3)
        assert fired == [0, 1, 2]


# ----------------------------------------------------------------------
# network: link cache, detach pruning
# ----------------------------------------------------------------------
def _two_site_world():
    topology = Topology(["east", "west"])
    topology.set_link("east", "west", latency=10e-3)
    world = World(topology=topology, default_site="east")
    Process(world, "a", site="east")
    Process(world, "b", site="west")
    return world


class TestNetworkLinkCache:
    def test_block_and_unblock_invalidate_the_cache(self):
        world = _two_site_world()
        net = world.network
        net.send("a", "b", "warmup", 100)  # populate the route cache
        blocked_before = net.messages_blocked
        net.block_sites("east", "west")
        net.send("a", "b", "dropped", 100)
        assert net.messages_blocked == blocked_before + 1
        net.unblock_sites("east", "west")
        sent_before = net.messages_sent
        net.send("a", "b", "after-heal", 100)
        assert net.messages_sent == sent_before + 1

    def test_extra_latency_applies_to_cached_routes(self):
        world = _two_site_world()
        net = world.network
        baseline = net.send("a", "b", "warmup", 100)
        net.set_extra_latency("east", "west", 0.5)
        spiked = net.send("a", "b", "slow", 100)
        assert spiked >= baseline + 0.5 - 1e-9
        net.clear_extra_latency("east", "west")

    def test_topology_mutation_invalidates_via_version(self):
        world = _two_site_world()
        net = world.network
        before = net.one_way_latency("a", "b")
        net.send("a", "b", "warmup", 100)  # cache the 10 ms link
        world.topology.set_link("east", "west", latency=50e-3)
        assert net.one_way_latency("a", "b") == 50e-3
        start = world.sim.now
        delivery = net.send("a", "b", "rerouted", 100)
        assert delivery - start >= 50e-3  # the new latency, not the cached one
        assert before == 10e-3

    def test_isolation_beats_cache(self):
        world = _two_site_world()
        net = world.network
        net.send("a", "b", "warmup", 100)
        net.isolate("b")
        blocked_before = net.messages_blocked
        net.send("a", "b", "into-the-void", 100)
        assert net.messages_blocked == blocked_before + 1
        net.rejoin("b")


class TestNetworkDetach:
    def test_detach_prunes_nics_fifo_and_isolation(self):
        world = _two_site_world()
        net = world.network
        net.send("a", "b", "payload", 1000)
        world.sim.run()
        tx, _ = net.nic_bytes("a")
        assert tx > 0
        net.isolate("a")
        net.detach("a")
        assert not net.is_attached("a")
        assert "a" not in net._nics
        assert all("a" not in pair for pair in net._fifo_clock)
        assert "a" not in net._isolated
        # Final byte counters survive as a snapshot.
        assert net.nic_bytes("a") == (tx, 0)

    def test_reattach_after_detach_gets_fresh_nic(self):
        world = _two_site_world()
        net = world.network
        net.send("a", "b", "payload", 1000)
        world.sim.run()
        net.detach("b")
        _, rx_snapshot = net.nic_bytes("b")
        assert rx_snapshot > 0
        replacement = Process(world, "b2", site="west")
        net.send("a", "b2", "fresh", 100)
        world.sim.run()
        assert net.nic_bytes("b2")[1] > 0
        assert replacement.messages_received == 1


# ----------------------------------------------------------------------
# message sizing
# ----------------------------------------------------------------------
class TestMessageSizes:
    """The specialized size_bytes properties must match the generic walk."""

    def _generic(self, msg) -> int:
        return HEADER_BYTES + sum(estimate_size(getattr(msg, f.name)) for f in fields(msg))

    @pytest.mark.parametrize("names", [("ring-a", "node-0"), ("ríng-ü", "nœud")])
    def test_specialized_sizes_match_generic_walk(self, names):
        group, origin = names
        value = Value.create("payload-x", 512, proposer=origin)
        messages = [
            Proposal(group=group, value=value),
            Phase2(
                group=group,
                instance=3,
                count=2,
                ballot=Ballot(1, origin),
                value=value,
                votes=frozenset([origin, "node-1"]),
                origin=origin,
            ),
            Decision(group=group, instance=3, count=1, value=value, origin=origin),
        ]
        for msg in messages:
            assert msg.size_bytes == self._generic(msg), type(msg).__name__


# ----------------------------------------------------------------------
# monitor lazy aggregation
# ----------------------------------------------------------------------
class TestMonitorLazyTimelines:
    def test_timeline_materializes_incrementally(self):
        monitor = Monitor(timeline_window=1.0)
        monitor.record_operation("s", 0.5, 0.01, size_bytes=100)
        timeline = monitor.timeline("s")
        assert timeline.total_ops() == 1
        monitor.record_operation("s", 1.5, 0.02, size_bytes=50)
        assert monitor.timeline("s") is timeline  # same object, updated lazily
        assert timeline.total_ops() == 2
        assert timeline.total_bytes() == 150
        assert monitor.throughput_ops("s", start=0.0, end=2.0) == 1.0

    def test_queries_do_not_create_phantom_series(self):
        monitor = Monitor()
        assert monitor.throughput_ops("nope") == 0.0
        assert monitor.latencies("nope") == []
        assert monitor.series_names() == []

    def test_latencies_across_series(self):
        monitor = Monitor()
        monitor.record_operation("a", 0.1, 0.001)
        monitor.record_operation("b", 0.2, 0.100)
        assert sorted(monitor.latencies()) == [0.001, 0.100]
        assert monitor.latency_stats("a").count == 1


# ----------------------------------------------------------------------
# perf bench harness
# ----------------------------------------------------------------------
class TestPerfHarness:
    def test_run_perf_writes_bench_json(self, tmp_path):
        output = tmp_path / "BENCH_perf.json"
        result = run_perf(duration=0.02, scenarios=("lan",), threads=2, output=output)
        assert output.exists()
        data = json.loads(output.read_text())
        cell = data["results"]["lan"]
        assert cell["events"] > 0
        assert cell["deliveries"] > 0
        assert cell["events_per_wall_sec"] > 0
        assert result["results"]["lan"]["events"] == cell["events"]
        assert "perf" in result["experiment"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_perf_world("lunar")

    def test_scenarios_cover_lan_and_wan3(self):
        assert PERF_SCENARIOS == ("lan", "wan3")

    def test_perf_registered_in_harness(self):
        from repro.bench.harness import EXPERIMENTS

        assert "perf" in EXPERIMENTS

    def test_perf_smoke_matches_bench_gates(self, tmp_path, monkeypatch):
        from repro.bench.harness import run_experiment

        monkeypatch.chdir(tmp_path)  # run_perf writes BENCH_perf.json here
        result = run_experiment("perf", "smoke")
        for scenario in ("lan", "wan3"):
            cell = result["results"][scenario]
            assert cell["sim_events_per_sim_sec"] == BENCH_GATES[f"perf/{scenario}_sim_events_ops"]
            assert (
                cell["deliveries_per_sim_sec"]
                == BENCH_GATES[f"perf/{scenario}_sim_deliveries_ops"]
            )
            # The traced pass schedules no simulator events: watching a run
            # must not change what it does.
            assert cell["traced_events"] == cell["events"]
            assert cell["traced_deliveries"] == cell["deliveries"]
            assert cell["traced_events_per_wall_sec"] > 0
        assert "events/s (traced)" in result["report"]


class TestBenchCli:
    def test_cprofile_flag_dumps_hotspots(self, monkeypatch, capsys):
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "run_experiment", lambda name, scale: {"report": f"{name}@{scale}"})
        rc = cli.main(["figure3", "--smoke", "--cprofile"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cProfile: top" in out
        assert "figure3@smoke" in out

    def test_perf_is_a_cli_choice(self, monkeypatch, capsys):
        import repro.bench.__main__ as cli

        calls = []

        def fake(name, scale):
            calls.append((name, scale))
            return {"report": "ok"}

        monkeypatch.setattr(cli, "run_experiment", fake)
        assert cli.main(["perf", "--smoke"]) == 0
        assert calls == [("perf", "smoke")]
