"""Campaign runner: sweep scenario × fault-plan combinations, check invariants.

A *scenario* describes a deployment (WAN preset, partition/replica counts,
storage mode, Multi-Ring parameters); a *fault plan* describes what goes
wrong and when.  :class:`CampaignRunner` runs every requested combination,
drives an update-only workload against each deployment, injects the plan's
faults, quiesces, and evaluates the global invariants: the ordering and
durability properties from a delivery log of every replica
(:mod:`repro.verify`), then the replica-state ones from
:mod:`repro.scenarios.invariants`.  The result feeds ``BENCH_chaos.json``
through the benchmark harness (``python -m repro.bench chaos``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MultiRingConfig, RecoveryConfig, RingConfig
from repro.errors import ConfigurationError
from repro.scenarios.faults import FaultPlan
from repro.scenarios.invariants import (
    check_delivery_skew,
    check_merge_liveness,
    check_recovery_complete,
    check_replica_convergence,
    live_replicas,
)
from repro.scenarios.topologies import get_preset
from repro.services.mrpstore import MRPStore
from repro.sim.disk import StorageMode
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient
from repro.verify import DeliveryLog, InvariantResult, acks_of, check, verdict
from repro.workloads.simple import UpdateWorkload

__all__ = ["ScenarioSpec", "CampaignRunner"]

#: Seconds after the last fault transition before the liveness window opens
#: (time for retries and instance repair to drain the backlog).
_LIVENESS_GRACE = 2.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One deployment configuration a fault plan runs against."""

    name: str
    preset: str = "wan3"
    partitions: int = 3
    replicas_per_partition: int = 2
    acceptors_per_partition: int = 3
    use_global_ring: bool = True
    storage_mode: StorageMode = StorageMode.ASYNC_SSD
    enable_recovery: bool = True
    client_threads: int = 4
    record_count: int = 300
    value_size: int = 512
    retry_timeout: float = 1.0
    # Multi-Ring parameters.  The paper's WAN configuration uses Δ=20 ms; λ
    # is scaled down from the paper's 2000 so the global ring can sustain the
    # skip rate within one pipeline window even at the worst preset RTT
    # (λ · RTT in-flight instances), and the repair interval sits above any
    # WAN decision latency so in-flight instances get a full grace period
    # before being re-proposed.
    m: int = 1
    delta: float = 20e-3
    lam: float = 200.0
    pipeline_depth: int = 512
    repair_interval: float = 1.0
    #: Per-tick repair cap; sized so one tick covers the whole backlog a
    #: multi-second partition leaves behind (λ instances per second per ring).
    repair_batch: int = 2048
    checkpoint_interval: float = 2.0
    trim_interval: float = 30.0

    def build_config(self) -> MultiRingConfig:
        return MultiRingConfig.wide_area(
            m=self.m,
            delta=self.delta,
            lam=self.lam,
            ring=RingConfig(
                repair_interval=self.repair_interval,
                repair_batch=self.repair_batch,
                pipeline_depth=self.pipeline_depth,
            ),
        )

    def build_recovery_config(self) -> RecoveryConfig:
        return RecoveryConfig(
            checkpoint_interval=self.checkpoint_interval,
            trim_interval=self.trim_interval,
            synchronous_checkpoints=True,
            max_replay_instances=500,
        )


@dataclass
class ComboResult:
    """Outcome of one scenario × fault-plan run."""

    scenario: str
    plan: str
    passed: bool
    invariants: List[InvariantResult]
    metrics: Dict[str, float]
    #: Timestamped fault-injection events from the metrics event log.
    fault_timeline: List[Dict[str, object]] = field(default_factory=list)
    #: Observability snapshot (metric state + sampled trace IDs), attached
    #: when an invariant failed so the violation report carries the evidence.
    observability: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        result: Dict[str, object] = {
            "scenario": self.scenario,
            "plan": self.plan,
            "passed": self.passed,
            "invariants": [result.as_dict() for result in self.invariants],
            "metrics": dict(self.metrics),
            "fault_timeline": list(self.fault_timeline),
        }
        if self.observability is not None:
            result["observability"] = self.observability
        return result


class CampaignRunner:
    """Runs scenario × fault-plan combinations and aggregates the outcomes."""

    def __init__(
        self,
        combos: Sequence[Tuple[ScenarioSpec, FaultPlan]],
        duration: float = 12.0,
        settle: float = 3.0,
        seed: int = 42,
        trace_dir: Optional[str] = None,
        tracing: bool = False,
        trace_sample: int = 64,
    ) -> None:
        if not combos:
            raise ConfigurationError("a campaign needs at least one scenario × fault combo")
        for scenario, plan in combos:
            if plan.end_time() + _LIVENESS_GRACE >= duration:
                raise ConfigurationError(
                    f"plan {plan.name!r} ends at {plan.end_time():g}s; the run must "
                    f"outlive it by more than {_LIVENESS_GRACE:g}s to judge liveness "
                    f"(duration {duration:g}s)"
                )
        self.combos = list(combos)
        self.duration = duration
        self.settle = settle
        self.seed = seed
        self.trace_dir = trace_dir
        self.tracing = tracing
        self.trace_sample = trace_sample

    # ------------------------------------------------------------------
    def run(self) -> Dict:
        from repro.bench.report import format_table

        results = [self.run_combo(scenario, plan) for scenario, plan in self.combos]
        rows = []
        for result in results:
            failed = [check.name for check in result.invariants if not check.passed]
            rows.append(
                [
                    result.scenario,
                    result.plan,
                    "PASS" if result.passed else "FAIL",
                    int(result.metrics["acked_ops"]),
                    int(result.metrics["repairs_proposed"]),
                    ", ".join(failed) or "-",
                ]
            )
        report = format_table(
            "Chaos campaign: scenario × fault-plan sweep",
            ["scenario", "fault plan", "verdict", "acked ops", "repairs", "failed invariants"],
            rows,
        )
        return {
            "experiment": "chaos",
            "combos": len(results),
            "passed": all(result.passed for result in results),
            "results": [result.as_dict() for result in results],
            "report": report,
        }

    # ------------------------------------------------------------------
    def run_combo(self, scenario: ScenarioSpec, plan: FaultPlan) -> ComboResult:
        preset = get_preset(scenario.preset)
        world = World(
            topology=preset.build(),
            seed=self.seed,
            timeline_window=0.5,
            trace_enabled=True,
            default_site=preset.sites[0],
            tracing=self.tracing,
            trace_sample=self.trace_sample,
        )
        partition_sites = preset.partition_sites(scenario.partitions)
        store = MRPStore(
            world,
            partitions=scenario.partitions,
            replicas_per_partition=scenario.replicas_per_partition,
            acceptors_per_partition=scenario.acceptors_per_partition,
            use_global_ring=scenario.use_global_ring,
            storage_mode=scenario.storage_mode,
            config=scenario.build_config(),
            recovery_config=scenario.build_recovery_config(),
            enable_recovery=scenario.enable_recovery,
            partition_sites=partition_sites,
            key_space=scenario.record_count,
        )
        store.load(scenario.record_count, value_size=scenario.value_size)
        log = DeliveryLog()
        for replica in store.all_replicas():
            log.attach(replica)

        clients: Dict[str, ClosedLoopClient] = {}
        for index, partition in enumerate(sorted(store.partitions)):
            series = f"chaos/{partition}"
            indices = _owned_key_indices(store, partition, scenario.record_count)
            workload = UpdateWorkload(
                store, indices, value_size=scenario.value_size, series=series
            )
            clients[partition] = ClosedLoopClient(
                world,
                f"chaos-client-{partition}",
                workload,
                store.frontends_for_client(index),
                threads=scenario.client_threads,
                site=partition_sites.get(partition),
                series=series,
                retry_timeout=scenario.retry_timeout,
            )
        acks = [acks_of(client) for client in clients.values()]

        plan.arm(world, store.deployment, store)
        world.run(until=self.duration)

        # Quiesce: freeze the workload, then give in-flight commands, repair
        # and recovery a settle window to drain.
        acked = {partition: client.completed for partition, client in clients.items()}
        acked_ids = set().union(*acks)
        for client in clients.values():
            client.crash()
        world.run(until=self.duration + self.settle)

        live = log.cursors(
            replica for partition in sorted(store.partitions) for replica in live_replicas(store, partition)
        )
        invariants = [
            *check(log, acked_ids, live),
            check_replica_convergence(store),
            check_merge_liveness(store),
            check_delivery_skew(store),
            check_recovery_complete(store, plan.replica_restarts()),
            self._check_liveness(world, plan, clients),
        ]
        metrics = self._collect_metrics(world, store, clients, acked)
        passed = all(invariant.passed for invariant in invariants)
        observability: Optional[Dict[str, object]] = None
        if not passed:
            # Attach the evidence to the violation report: full metric
            # snapshot plus the sampled causal trace IDs active in the run.
            observability = world.obs.snapshot()
            observability["trace_ids"] = world.obs.tracer.trace_ids()
        result = ComboResult(
            scenario=scenario.name,
            plan=plan.name,
            passed=passed,
            invariants=invariants,
            metrics=metrics,
            fault_timeline=world.obs.metrics.events(),
            observability=observability,
        )
        self._maybe_write_trace(world, scenario, plan)
        return result

    # ------------------------------------------------------------------
    def _check_liveness(
        self,
        world: World,
        plan: FaultPlan,
        clients: Dict[str, ClosedLoopClient],
    ) -> InvariantResult:
        """The system must make progress after the last fault heals."""
        window_start = plan.end_time() + _LIVENESS_GRACE
        stalled = []
        for partition in sorted(clients):
            ops = world.monitor.throughput_ops(
                f"chaos/{partition}", start=window_start, end=self.duration
            )
            if ops <= 0:
                stalled.append(partition)
        failures = [f"no acked ops after {window_start:g}s in: {', '.join(stalled)}"] if stalled else []
        return verdict("post-fault-liveness", failures, f"all partitions live after {window_start:g}s")

    def _collect_metrics(
        self,
        world: World,
        store: MRPStore,
        clients: Dict[str, ClosedLoopClient],
        acked: Dict[str, int],
    ) -> Dict[str, float]:
        repairs = gap_requests = gap_recovered = 0
        for node in store.deployment.nodes.values():
            for role in node.roles.values():
                repairs += role.repairs_proposed
                gap_requests += role.gap_requests
                gap_recovered += role.gap_instances_recovered
        monitor = world.monitor
        return {
            "acked_ops": float(sum(acked.values())),
            "throughput_ops": monitor.throughput_ops(start=1.0, end=self.duration),
            "client_retries": float(sum(client.retries for client in clients.values())),
            "messages_blocked": float(world.network.messages_blocked),
            "messages_dropped": float(world.network.messages_dropped),
            "repairs_proposed": float(repairs),
            "gap_requests": float(gap_requests),
            "gap_instances_recovered": float(gap_recovered),
            "recoveries_completed": float(monitor.counter("recovery/completed")),
            "checkpoints_durable": float(monitor.counter("recovery/checkpoints_durable")),
        }

    def _maybe_write_trace(
        self, world: World, scenario: ScenarioSpec, plan: FaultPlan
    ) -> None:
        if self.trace_dir is None:
            return
        from pathlib import Path

        directory = Path(self.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{scenario.name}__{plan.name}.trace"
        lines = [str(record) for record in world.trace]
        path.write_text("\n".join(lines) + "\n")


def _owned_key_indices(
    store: MRPStore, partition: str, key_space: int, wanted: int = 200
) -> List[int]:
    """Key indices owned by ``partition`` (clients stay partition-local)."""
    indices: List[int] = []
    for index in range(key_space):
        if store.partition_map.partition_of(store.key(index)) == partition:
            indices.append(index)
            if len(indices) >= wanted:
                break
    return indices or [0]
