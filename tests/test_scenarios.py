"""Tests for the chaos scenario engine: fault primitives, plans, campaigns."""

import json

import pytest

from repro.api import AtomicMulticast
from repro.errors import ConfigurationError
from repro.scenarios import (
    CampaignRunner,
    FaultPlan,
    ScenarioSpec,
    TOPOLOGY_PRESETS,
    get_preset,
)
from repro.scenarios.campaign import _owned_key_indices
from repro.scenarios.invariants import (
    check_delivery_skew,
    check_merge_liveness,
    check_no_acked_write_lost,
    check_replica_convergence,
    replica_digest,
)
from repro.sim.disk import Disk, SSD_CONFIG
from repro.runtime.actor import Process
from repro.sim.topology import matrix_topology
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient, Request


class Recorder(Process):
    """Records every delivered message with its arrival time."""

    def __init__(self, world, name, site=None):
        super().__init__(world, name, site)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((self.now, sender, payload))


def _two_site_world():
    topo = matrix_topology(["east", "west"], {("east", "west"): 10.0})
    world = World(topology=topo, default_site="east")
    a = Recorder(world, "a", site="east")
    b = Recorder(world, "b", site="west")
    return world, a, b


# ----------------------------------------------------------------------
# topology presets
# ----------------------------------------------------------------------
class TestTopologyPresets:
    def test_presets_registered(self):
        assert {"wan3", "dc8"} <= set(TOPOLOGY_PRESETS)

    def test_wan3_builds_three_asymmetric_regions(self):
        preset = get_preset("wan3")
        topo = preset.build()
        assert len(topo.sites) == 3
        eu_us = topo.latency("eu-west-1", "us-east-1")
        eu_ap = topo.latency("eu-west-1", "ap-southeast-1")
        assert eu_ap > eu_us  # genuinely asymmetric geography
        assert topo.latency("eu-west-1", "us-east-1") == topo.latency(
            "us-east-1", "eu-west-1"
        )

    def test_dc8_has_eight_sites_and_full_matrix(self):
        preset = get_preset("dc8")
        topo = preset.build()
        assert len(topo.sites) == 8
        # Every distinct pair has an explicit RTT (no 100 ms fallback).
        assert len(preset.rtt_ms) == 8 * 7 // 2

    def test_partition_sites_round_robin(self):
        preset = get_preset("wan3")
        sites = preset.partition_sites(5)
        assert sites["p0"] == preset.sites[0]
        assert sites["p3"] == preset.sites[0]
        assert sites["p4"] == preset.sites[1]

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            get_preset("moonbase")

    def test_preset_rejects_matrix_with_unknown_site(self):
        from repro.scenarios.topologies import TopologyPreset

        with pytest.raises(ConfigurationError):
            TopologyPreset(
                name="typo",
                description="",
                sites=("a", "b"),
                rtt_ms={("a", "bee"): 10.0},
            )


# ----------------------------------------------------------------------
# network fault primitives
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def test_partition_blocks_and_heals(self):
        world, a, b = _two_site_world()
        world.start()
        world.network.send("a", "b", "before", 100)
        world.sim.run(until=1.0)
        assert [payload for _, _, payload in b.received] == ["before"]

        world.network.block_sites("east", "west")
        world.network.send("a", "b", "during", 100)
        world.sim.run(until=2.0)
        assert world.network.messages_blocked == 1
        assert [payload for _, _, payload in b.received] == ["before"]

        world.network.unblock_sites("east", "west")
        world.network.send("a", "b", "after", 100)
        world.sim.run(until=3.0)
        assert [payload for _, _, payload in b.received] == ["before", "after"]

    def test_isolation_cuts_both_directions(self):
        world, a, b = _two_site_world()
        world.start()
        world.network.isolate("b")
        world.network.send("a", "b", "x", 100)
        world.network.send("b", "a", "y", 100)
        world.sim.run(until=1.0)
        assert b.received == [] and a.received == []
        assert world.network.messages_blocked == 2
        world.network.rejoin("b")
        world.network.send("a", "b", "z", 100)
        world.sim.run(until=2.0)
        assert [payload for _, _, payload in b.received] == ["z"]

    def test_fault_injection_rejects_unknown_sites_and_processes(self):
        from repro.errors import NetworkError

        world, a, b = _two_site_world()
        with pytest.raises(NetworkError):
            world.network.block_sites("east", "wset")  # typo'd site
        with pytest.raises(NetworkError):
            world.network.set_extra_latency("east", "wset", 0.01)
        with pytest.raises(NetworkError):
            world.network.isolate("ghost")

    def test_delay_spike_adds_latency(self):
        world, a, b = _two_site_world()
        world.start()
        baseline = world.network.send("a", "b", "fast", 100)
        world.sim.run(until=baseline + 0.001)
        world.network.set_extra_latency("east", "west", 0.050)
        spiked = world.network.send("a", "b", "slow", 100)
        assert spiked >= baseline + 0.050
        world.network.clear_extra_latency("east", "west")
        # FIFO keeps later sends after the spiked one, but no extra 50 ms.
        cleared = world.network.send("a", "b", "fast2", 100)
        assert cleared < spiked + 0.050


# ----------------------------------------------------------------------
# disk stall primitive
# ----------------------------------------------------------------------
class TestDiskStall:
    def test_stall_delays_subsequent_writes(self):
        world = World()
        disk = Disk(world.sim, SSD_CONFIG)
        before = disk.write(1000)
        disk.stall(1.0)
        after = disk.write(1000)
        assert after >= before + 1.0
        assert disk.stalls == 1

    def test_negative_stall_rejected(self):
        from repro.errors import StorageError

        world = World()
        disk = Disk(world.sim, SSD_CONFIG)
        with pytest.raises(StorageError):
            disk.stall(-1.0)


# ----------------------------------------------------------------------
# fault plans: crash-at-tick, one record per fault event, selectors
# ----------------------------------------------------------------------
def _timeline(world):
    return [(event["time"], event["kind"], event["detail"]) for event in world.obs.metrics.events()]


class TestFaultPlanPrimitives:
    def test_crash_at_tick_and_restart(self):
        world, a, b = _two_site_world()
        FaultPlan("crash").crash("b", at=1.0, restart_at=2.0).arm(world)
        world.run(until=1.5)
        assert not b.alive
        world.run(until=2.5)
        assert b.alive
        assert _timeline(world) == [(1.0, "fault/crash", "b"), (2.0, "fault/restart", "b")]

    def test_each_fault_start_and_end_is_recorded_once(self):
        world, a, b = _two_site_world()
        world.trace.enabled = True
        plan = (
            FaultPlan("mixed")
            .isolate("a", at=0.5, rejoin_at=0.75)
            .partition(["east"], ["west"], at=1.0, heal_at=1.5)
            .delay_spike("east", "west", extra_ms=20, at=2.0, clear_at=2.5)
        )
        plan.arm(world)
        world.run(until=3.0)
        assert _timeline(world) == [
            (0.5, "fault/isolate", "a"),
            (0.75, "fault/rejoin", "a"),
            (1.0, "fault/partition", "east | west"),
            (1.5, "fault/heal", "east | west"),
            (2.0, "fault/delay-spike", "east<->west +20ms"),
            (2.5, "fault/delay-clear", "east<->west"),
        ]
        assert [str(record) for record in world.trace.records(process="fault-plan")] == [
            "[  0.500000] fault-plan: isolate a",
            "[  0.750000] fault-plan: rejoin a",
            "[  1.000000] fault-plan: partition east | west",
            "[  1.500000] fault-plan: heal east | west",
            "[  2.000000] fault-plan: delay-spike east<->west +20ms",
            "[  2.500000] fault-plan: delay-clear east<->west",
        ]

    def test_coordinator_selector_crashes_the_registered_coordinator(self):
        am = AtomicMulticast(seed=5)
        am.ring("g", acceptors=["a1", "a2", "a3"], learners=["L1", "L2"], coordinator="a2")
        FaultPlan("p").crash_coordinator("g", at=0.5, restart_at=1.0).arm(am.world, am.deployment)
        am.run(until=0.75)
        assert [am.world.process(name).alive for name in ("a1", "a2", "a3")] == [True, False, True]
        am.run(until=1.25)
        assert am.world.process("a2").alive
        assert _timeline(am.world) == [
            (0.5, "fault/crash", "coordinator:g -> a2"),
            (1.0, "fault/restart", "coordinator:g -> a2"),
        ]

    def test_a_plan_that_cannot_be_resolved_is_refused_when_armed(self):
        world, a, b = _two_site_world()
        # Each plan starts with a fault it could schedule: none is scheduled.
        unresolvable = [
            (FaultPlan("r").crash("b", at=0.5).crash_replica("p0", 0, at=1.0), "without a store"),
            (FaultPlan("c").crash("b", at=0.5).crash_coordinator("g", at=1.0), "without a deployment"),
            (FaultPlan("d").crash("b", at=0.5).disk_stall("g", at=1.0, duration=0.5), "without a deployment"),
        ]
        for plan, reason in unresolvable:
            with pytest.raises(ConfigurationError, match=reason):
                plan.arm(world)
        world.run(until=2.0)
        assert b.alive
        assert _timeline(world) == []

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("bad").crash("x", at=2.0, restart_at=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan("bad").partition(["a"], [], at=0.0, heal_at=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan("bad").delay_spike("a", "b", extra_ms=-5, at=0.0, clear_at=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan("bad").disk_stall("g", at=1.0, duration=0.0)

    def test_end_time_and_replica_restarts(self):
        plan = (
            FaultPlan("mixed")
            .crash_replica("p0", 1, at=1.0, restart_at=4.0)
            .partition(["a"], ["b"], at=2.0, heal_at=3.0)
        )
        assert plan.end_time() == pytest.approx(4.0)
        assert plan.replica_restarts() == 1


# ----------------------------------------------------------------------
# client retries
# ----------------------------------------------------------------------
class _NoopWorkload:
    def next_request(self, rng):
        return Request(("noop",), 64, "g", 1, "retry-test")


class TestClientRetry:
    def test_retries_fire_when_no_response_arrives(self):
        world = World()
        Recorder(world, "blackhole")  # swallows every submit, never replies
        client = ClosedLoopClient(
            world,
            "client",
            _NoopWorkload(),
            {"g": "blackhole"},
            threads=2,
            retry_timeout=1.0,
        )
        world.run(until=3.5)
        assert client.retries >= 4  # 2 threads x ~3 timeouts
        assert client.completed == 0

    def test_no_retries_by_default(self):
        world = World()
        Recorder(world, "blackhole")
        client = ClosedLoopClient(
            world, "client", _NoopWorkload(), {"g": "blackhole"}, threads=2
        )
        world.run(until=3.5)
        assert client.retries == 0


# ----------------------------------------------------------------------
# campaign runner + invariants (integration, kept small)
# ----------------------------------------------------------------------
def _tiny_spec(**overrides):
    defaults = dict(
        name="wan3-tiny",
        partitions=2,
        replicas_per_partition=2,
        client_threads=2,
        record_count=100,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestCampaign:
    def test_coordinator_crash_combo_passes_and_repairs(self):
        plan = FaultPlan("coordinator-crash").crash_coordinator(
            "ring-p0", at=2.0, restart_at=3.5
        )
        runner = CampaignRunner([(_tiny_spec(), plan)], duration=8.0, settle=2.5, seed=7)
        result = runner.run()
        assert result["passed"], result["report"]
        combo = result["results"][0]
        assert combo["metrics"]["acked_ops"] > 0
        assert combo["metrics"]["repairs_proposed"] > 0  # crash left open instances
        assert "events" not in combo  # the fault_timeline is the one record
        assert [(e["time"], e["kind"]) for e in combo["fault_timeline"]] == [
            (2.0, "fault/crash"),
            (3.5, "fault/restart"),
        ]
        assert combo["fault_timeline"][0]["detail"].startswith("coordinator:ring-p0 -> ")

    def test_partition_combo_blocks_messages_and_recovers(self):
        plan = FaultPlan("region-partition").partition(
            ["eu-west-1"], ["us-east-1"], at=2.0, heal_at=4.0
        )
        spec = _tiny_spec(partitions=3)
        runner = CampaignRunner([(spec, plan)], duration=10.0, settle=2.5, seed=7)
        result = runner.run()
        assert result["passed"], result["report"]
        metrics = result["results"][0]["metrics"]
        assert metrics["messages_blocked"] > 0
        assert metrics["repairs_proposed"] > 0  # the partition ate decisions

    def test_replica_crash_runs_recovery(self):
        plan = FaultPlan("replica-crash").crash_replica("p1", 1, at=2.5, restart_at=4.5)
        runner = CampaignRunner([(_tiny_spec(), plan)], duration=9.0, settle=2.5, seed=7)
        result = runner.run()
        assert result["passed"], result["report"]
        assert result["results"][0]["metrics"]["recoveries_completed"] >= 1

    def test_seeded_campaign_is_deterministic(self):
        plan = FaultPlan("coordinator-crash").crash_coordinator(
            "ring-p0", at=2.0, restart_at=3.5
        )
        results = []
        for _ in range(2):
            runner = CampaignRunner(
                [(_tiny_spec(), plan)], duration=8.0, settle=2.5, seed=11
            )
            results.append(json.dumps(runner.run()["results"], sort_keys=True))
        assert results[0] == results[1]

    def test_runner_rejects_plan_outliving_the_run(self):
        plan = FaultPlan("late").crash("x", at=7.0, restart_at=7.5)
        with pytest.raises(ConfigurationError):
            CampaignRunner([(_tiny_spec(), plan)], duration=8.0)

    def test_invariant_checks_detect_injected_divergence(self):
        plan = FaultPlan("quiet").delay_spike(
            "eu-west-1", "us-east-1", extra_ms=50, at=1.0, clear_at=2.0
        )
        runner = CampaignRunner([(_tiny_spec(), plan)], duration=6.0, settle=2.0, seed=7)
        scenario, fault_plan = runner.combos[0]
        combo = runner.run_combo(scenario, fault_plan)
        assert combo.passed, combo.invariants


class TestGapRepair:
    def test_read_range_decided_only_filters_undecided_votes(self):
        from repro.paxos.storage import AcceptorStorage
        from repro.paxos.types import Ballot
        from repro.types import Value

        world = World()
        storage = AcceptorStorage(world.sim)
        ballot = Ballot(1, "c")
        decided = Value.create("decided", 64, proposer="c", created_at=0.0)
        pending = Value.create("pending", 64, proposer="c", created_at=0.0)
        storage.log_vote(0, ballot, decided)
        storage.mark_decided(0)
        storage.log_vote(1, ballot, pending)  # vote logged, never decided
        assert [i for i, _ in storage.read_range(0, 1)] == [0, 1]
        assert [i for i, _ in storage.read_range(0, 1, decided_only=True)] == [0]

    def test_learner_fetches_decision_dropped_downstream(self):
        """A decision lost between the quorum and one learner is re-fetched.

        The learner is isolated while an instance decides, so every acceptor
        logged it but the learner never saw the decision.  With the
        coordinator-side repair suppressed, only the learner's gap-repair
        retransmission can fill the hole.
        """
        from repro.config import MultiRingConfig, RingConfig
        from repro.multiring.deployment import Deployment, RingSpec
        from repro.sim.disk import StorageMode

        world = World()
        config = MultiRingConfig.datacenter(rate_leveling=False)
        deployment = Deployment(world, config)
        ring_config = RingConfig(
            storage_mode=StorageMode.ASYNC_SSD, repair_interval=0.2
        )
        deployment.add_ring(
            RingSpec(
                group="g",
                members=["a0", "a1", "a2", "lrn"],
                acceptors=["a0", "a1", "a2"],
                proposers=["a0"],
                learners=["lrn"],
                storage_mode=StorageMode.ASYNC_SSD,
            ),
            ring_config=ring_config,
        )
        world.run(until=0.05)
        coordinator_role = deployment.node("a0").roles["g"]
        coordinator_role._repair_undecided = lambda: None
        learner = deployment.node("lrn")
        for _ in range(3):
            deployment.multicast("g", "warm", 100)
        world.run(until=0.5)
        assert learner.deliveries_count == 3

        world.network.isolate("lrn")
        deployment.multicast("g", "hole", 100)
        world.run(until=1.0)
        world.network.rejoin("lrn")
        deployment.multicast("g", "after", 100)
        world.run(until=3.0)

        learner_role = learner.roles["g"]
        assert learner_role.gap_requests >= 1
        assert learner_role.gap_instances_recovered >= 1
        assert learner.deliveries_count == 5


class TestInvariantChecks:
    def _quiesced_store(self):
        plan = FaultPlan("noop").delay_spike(
            "eu-west-1", "us-east-1", extra_ms=20, at=0.5, clear_at=1.0
        )
        from repro.scenarios.campaign import _LIVENESS_GRACE  # noqa: F401

        from repro.scenarios.topologies import get_preset
        from repro.services.mrpstore import MRPStore

        spec = _tiny_spec()
        preset = get_preset(spec.preset)
        world = World(
            topology=preset.build(), seed=3, default_site=preset.sites[0]
        )
        store = MRPStore(
            world,
            partitions=spec.partitions,
            replicas_per_partition=spec.replicas_per_partition,
            acceptors_per_partition=spec.acceptors_per_partition,
            use_global_ring=True,
            storage_mode=spec.storage_mode,
            config=spec.build_config(),
            partition_sites=preset.partition_sites(spec.partitions),
            key_space=spec.record_count,
        )
        store.load(spec.record_count, value_size=64)
        world.run(until=2.0)
        return store

    def test_convergence_detects_tampered_replica(self):
        store = self._quiesced_store()
        assert check_replica_convergence(store).passed
        victim = store.replicas_of("p0")[0]
        key = victim.state_machine.keys()[0]
        victim.state_machine.execute(("update", key, 999), "tamper")
        result = check_replica_convergence(store)
        assert not result.passed
        assert "p0" in result.detail

    def test_acked_write_loss_detected(self):
        store = self._quiesced_store()
        acked = {"p0": 0, "p1": 0}
        assert check_no_acked_write_lost(store, acked).passed
        acked["p0"] = 10_000  # more acks than any replica executed
        assert not check_no_acked_write_lost(store, acked).passed

    def test_merge_liveness_and_skew_on_healthy_store(self):
        store = self._quiesced_store()
        assert check_merge_liveness(store).passed
        assert check_delivery_skew(store).passed

    def test_replica_digest_is_stable(self):
        store = self._quiesced_store()
        replica = store.replicas_of("p0")[0]
        assert replica_digest(replica) == replica_digest(replica)

    def test_owned_key_indices_fallback(self):
        store = self._quiesced_store()
        indices = _owned_key_indices(store, "p0", 100)
        assert indices
        assert all(
            store.partition_map.partition_of(store.key(i)) == "p0" for i in indices
        )


# ----------------------------------------------------------------------
# bench wiring
# ----------------------------------------------------------------------
class TestChaosBenchWiring:
    def test_chaos_registered_in_harness(self):
        from repro.bench.harness import EXPERIMENTS

        assert "chaos" in EXPERIMENTS

    def test_quick_combo_matrix_has_six_distinct_combos(self):
        from repro.bench.chaos import build_combos

        combos = build_combos("quick")
        assert len(combos) >= 6
        assert len({(spec.name, plan.name) for spec, plan in combos}) == len(combos)
        assert all(spec.preset in TOPOLOGY_PRESETS for spec, _ in combos)

    def test_cli_scale_alias_and_failure_exit_code(self, monkeypatch, capsys):
        import repro.bench.__main__ as cli

        calls = []

        def fake_run(name, scale="quick"):
            calls.append((name, scale))
            return {"report": "ok", "passed": True}

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert cli.main(["chaos", "--quick"]) == 0
        assert calls[-1] == ("chaos", "quick")
        assert cli.main(["chaos", "--smoke"]) == 0
        assert calls[-1] == ("chaos", "smoke")

        def failing_run(name, scale="quick"):
            return {"report": "bad", "passed": False}

        monkeypatch.setattr(cli, "run_experiment", failing_run)
        assert cli.main(["chaos", "--smoke"]) == 1
        capsys.readouterr()

    def test_cli_all_with_skip_leaves_experiment_out(self, monkeypatch, capsys):
        import repro.bench.__main__ as cli

        ran = []

        def fake_run(name, scale="quick"):
            ran.append(name)
            return {"report": "ok"}

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert cli.main(["all", "--smoke", "--skip", "chaos"]) == 0
        assert ran and "chaos" not in ran
        capsys.readouterr()
