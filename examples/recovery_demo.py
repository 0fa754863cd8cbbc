#!/usr/bin/env python
"""Replica failure and recovery in MRP-Store (the Figure 8 scenario, shortened).

One partition replicated by three replicas, three acceptors writing
asynchronously, clients updating keys continuously.  Twenty seconds into the
run one replica is terminated; replicas keep checkpointing, the acceptors trim
their logs, and when the failed replica restarts it installs the most recent
checkpoint from a peer and replays the remaining instances from the acceptors.
Built through the :class:`repro.api.AtomicMulticast` facade, with the failure
plan armed via its chaos hook.

Run with::

    python examples/recovery_demo.py
"""

from __future__ import annotations

from repro.api import AtomicMulticast
from repro.config import MultiRingConfig, RecoveryConfig
from repro.runtime.interfaces import StorageMode
from repro.scenarios import FaultPlan
from repro.workloads.simple import UpdateWorkload

# The timeline, in simulated seconds.  Read when main() runs, so a caller (the
# test suite runs a tenth of it) can shorten the scenario without forking it.
CRASH_AT = 20.0
RECOVER_AT = 60.0
END = 90.0
CHECKPOINT_INTERVAL = 10.0
TRIM_INTERVAL = 20.0


def main() -> None:
    with AtomicMulticast(seed=3, config=MultiRingConfig.datacenter()) as am:
        store = am.mrpstore(
            partitions=1,
            replicas_per_partition=3,
            acceptors_per_partition=3,
            use_global_ring=False,
            storage_mode=StorageMode.ASYNC_SSD,
            recovery_config=RecoveryConfig(checkpoint_interval=CHECKPOINT_INTERVAL,
                                           trim_interval=TRIM_INTERVAL,
                                           max_replay_instances=500),
            enable_recovery=True,
            key_space=1000,
        )
        store.load(1000, value_size=1024)

        workload = UpdateWorkload(store, list(range(1000)), value_size=1024, series="updates")
        client = am.client(
            "client", workload, store.frontends_for_client(0), threads=8, series="updates"
        )

        victim = store.replicas_of("p0")[-1]
        am.inject_failures(FaultPlan("replica-crash").crash(victim.name, at=CRASH_AT, restart_at=RECOVER_AT))

        am.run(until=END)
        # Quiesce before comparing replica states: stop the client and let the
        # in-flight commands drain, otherwise the comparison races live traffic
        # (replicas can transiently differ by a few not-yet-merged instances).
        client.crash()
        am.run(until=END + 2.0)

        monitor = am.monitor
        survivor = store.replicas_of("p0")[0]
        print(f"Victim replica:                        {victim.name}")
        print(f"Checkpoints written (all replicas):    {monitor.counter('recovery/checkpoints_durable')}")
        trimmed = sum(monitor.counter(n) for n in monitor.counters() if n.startswith("trim/"))
        print(f"Acceptor log records trimmed:          {trimmed}")
        print(f"Remote state transfers during recovery:{monitor.counter('recovery/state_transfers'):2d}")
        print(f"Recoveries completed:                  {monitor.counter('recovery/completed')}")
        print()
        print("Throughput (ops/s):")
        print(f"   before the crash      {monitor.throughput_ops('updates', start=5.0, end=CRASH_AT):8.1f}")
        print(f"   while replica down    {monitor.throughput_ops('updates', start=CRASH_AT, end=RECOVER_AT):8.1f}")
        print(f"   after recovery        {monitor.throughput_ops('updates', start=RECOVER_AT + 5, end=END):8.1f}")
        print()
        same = victim.state_machine._entries == survivor.state_machine._entries
        print(f"Recovered replica state matches an operational replica: {same}")


if __name__ == "__main__":
    main()
