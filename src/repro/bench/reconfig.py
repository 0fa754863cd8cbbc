"""Live scale-out: throughput before / during / after a reconfiguration.

The scenario exercises the reconfiguration subsystem end to end, as a
*runtime* event under load (the dynamic counterpart of the paper's Figure 7
scaling claim):

1. an MRP-Store starts with **one ring carrying two range partitions** and a
   YCSB-style workload running against it;
2. at ``reconfig_at`` a second ring is added live and **both partitions are
   split** onto it (2 -> 4 partitions) via atomically-multicast key-range
   migrations;
3. the workload keeps running throughout; a tracked writer issues uniquely
   keyed inserts across the whole key space so that every acknowledged write
   can be checked against the final replica states.

Reported: throughput in the windows before / during / after the transition,
migration statistics, whether all replicas of each partition agree, and how
many acknowledged writes were lost (must be zero), as judged by the safety
oracle (:mod:`repro.verify`), :func:`~repro.scenarios.invariants.check_replica_convergence`
and, for the keys a migration moved, their new owner's state
(:func:`~repro.scenarios.invariants.keys_missing_at_owner`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.bench.report import format_kv, format_table
from repro.config import MultiRingConfig
from repro.coordination.reconfig import ReconfigController
from repro.reconfig.elastic import migrations_installed, scale_out
from repro.scenarios.invariants import check_replica_convergence, keys_missing_at_owner
from repro.services.mrpstore import MRPStore
from repro.sim.disk import StorageMode
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient, RequestClient
from repro.verify import DeliveryLog, check, lost_acks, verdict
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload

__all__ = ["run_reconfig"]

_WRITER = "tracked-writer"


class _TrackedWriter(RequestClient):
    """Issues uniquely keyed inserts and records which were acknowledged.

    Unlike the closed-loop YCSB clients this writer never blocks: it fires at
    a fixed interval, so writes keep arriving throughout the reconfiguration
    window, including the instants around the handoff points.
    """

    def __init__(self, world: World, name: str, store: MRPStore, interval: float, value_size: int = 128) -> None:
        frontends = partial(store.frontends_for_client, 0)
        super().__init__(world, name, frontends(), refresh=frontends)
        self.store = store
        self.interval = interval
        self.value_size = value_size
        self._index = 0
        self.acked: List[str] = []

    def on_start(self) -> None:
        self.set_periodic_timer(self.interval, self._tick)

    def _tick(self) -> None:
        spread = (self._index * 7919) % self.store.key_space
        # Suffixing the canonical key keeps the writer's keys unique (YCSB
        # never generates them) while spreading them across every range.
        key = f"user{spread:012d}x{self._index:06d}"
        self._index += 1
        self.submit(self.store.insert(key, self.value_size, series="tracked"), self.now, key)

    def on_complete(self, key: str) -> None:
        self.acked.append(key)


def _log_deliveries(log: DeliveryLog, replicas) -> None:
    """Log what each replica delivers; a value carries the keys the tracked
    writer's commands in it insert, which the writer's acks name."""
    for replica in replicas:
        def keys(value, commands_of=replica._commands_of) -> list:
            return [command.operation[1] for command in commands_of(value.payload) if command.client == _WRITER]

        log.attach(replica, keys)


def run_reconfig(
    duration: float = 12.0,
    reconfig_at: float = 4.0,
    settle: float = 3.0,
    record_count: int = 600,
    client_threads: int = 8,
    client_machines: int = 2,
    replicas_per_partition: int = 2,
    acceptors_per_partition: int = 3,
    value_size: int = 256,
    writer_interval: float = 0.02,
    quiesce: float = 1.0,
    seed: int = 42,
) -> Dict:
    """Run the live 1->2 rings / 2->4 partitions scale-out scenario."""
    world = World(topology=lan_topology(), seed=seed, timeline_window=0.25)
    store = MRPStore(
        world,
        partitions=2,
        rings=1,
        replicas_per_partition=replicas_per_partition,
        acceptors_per_partition=acceptors_per_partition,
        use_global_ring=False,
        scheme="range",
        storage_mode=StorageMode.MEMORY,
        config=MultiRingConfig.datacenter(),
        key_space=record_count,
    )
    store.load(record_count, value_size=value_size)
    log = DeliveryLog()
    _log_deliveries(log, store.all_replicas())

    series = "reconfig"
    clients: List[ClosedLoopClient] = []
    threads_per_machine = max(1, client_threads // client_machines)
    for index in range(client_machines):
        workload = YCSBWorkload(store, YCSB_WORKLOADS["A"].scaled(record_count), series=series)
        clients.append(
            ClosedLoopClient(
                world,
                f"client-{index}",
                workload,
                store.frontends_for_client(index),
                threads=threads_per_machine,
                series=series,
            )
        )
    writer = _TrackedWriter(world, _WRITER, store, interval=writer_interval)

    # Clients learn about new rings the way the paper's clients learn about
    # partitioning changes: a watch on the registry's partition map.
    def _refresh(_key, _value) -> None:
        for index, client in enumerate(clients):
            client.frontends.update(store.frontends_for_client(index))

    store.deployment.registry.watch("partition-map/mrp-store", _refresh)

    # Phase 1: steady state on one ring / two partitions.
    world.run(until=reconfig_at)

    # Phase 2: live scale-out to two rings / four partitions.
    controller = ReconfigController(world, store.deployment)
    quarter = store.key(record_count // 4)
    three_quarters = store.key(3 * record_count // 4)
    splits = [("p0", "p2", quarter), ("p1", "p3", three_quarters)]
    migration_ids = scale_out(store, controller, new_group="ring-g1", splits=splits)
    _log_deliveries(log, [replica for _, new, _ in splits for replica in store.replicas_of(new)])
    world.run(until=duration)

    # Quiesce: stop issuing and drain in-flight commands before comparing
    # replica states.
    for client in clients:
        client.crash()
    writer.crash()
    world.run(until=duration + quiesce)

    monitor = world.monitor
    warmup = min(0.5, reconfig_at / 4)
    during_end = min(duration, reconfig_at + settle)
    phases = {
        "throughput before (ops/s)": monitor.throughput_ops(series, start=warmup, end=reconfig_at),
        "throughput during (ops/s)": monitor.throughput_ops(series, start=reconfig_at, end=during_end),
        "throughput after (ops/s)": monitor.throughput_ops(series, start=during_end, end=duration),
    }
    live = log.cursors(store.all_replicas())
    missing = keys_missing_at_owner(store, writer.acked)
    moved = verdict("acked-keys-at-owner", [f"{key} missing at its owner" for key in missing],
                    "every acked key held by its owner's live replicas")
    invariants = [*check(log, writer.acked, live), check_replica_convergence(store), moved]
    lost = sorted({*lost_acks(log, writer.acked, live), *missing})
    consistent = all(result.passed for result in invariants if result.name not in ("no-acked-write-lost", moved.name))
    events = {
        "migrations started": len(migration_ids),
        "migrations installed everywhere": migrations_installed(store, ["p2", "p3"]),
        "commands forwarded": monitor.counter("reconfig/commands_forwarded"),
        "partition-map version": store.current_map.version,
        "acked tracked writes": len(writer.acked),
        "lost tracked writes": len(lost),
        "replicas consistent": consistent,
    }

    report = format_table(
        "Live scale-out (1 -> 2 rings, 2 -> 4 partitions): throughput",
        ["phase", "ops/s"],
        [[name.split(" (")[0], value] for name, value in phases.items()],
    )
    report += "\n\n" + format_kv("Reconfiguration events", events)
    return {
        "experiment": "reconfig",
        "phases": phases,
        "events": events,
        "invariants": [result.as_dict() for result in invariants],
        "consistent": consistent,
        "lost_writes": lost,
        "migration_ids": migration_ids,
        "partitions": sorted(store.partitions),
        "report": report,
        "_store": store,
    }
