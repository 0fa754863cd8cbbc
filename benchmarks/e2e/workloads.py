"""The five workloads, each driving ``repro.api.AtomicMulticast``.

Why these five, and what each one bypasses, is in README.md.  Every workload
has the same life: ``start()`` builds the deployment up to its first
operation; ``run(seconds, begin_window, end_window)`` generates load from this
process for a warm-up and then a measured window, calling the two hooks at the
window's ends; ``verify()`` drains what is outstanding and runs the
correctness oracle; ``close()`` tears down.

Load comes from one generator thread (the caller's) beside the facade's
event-loop thread on the live backend, and from the simulator's own thread
on the sim backend.  The seed feeds the arrival sampler, the YCSB key
chooser and the ``World``; the deployments only ever see generated inputs.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import random
import shutil
import tempfile
import threading
import time
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Tuple

from metrics import Slice, quiet_p99
from repro.api import AtomicMulticast
from repro.config import MultiRingConfig
from repro.runtime.interfaces import StorageMode
from repro.scenarios.invariants import check_replica_convergence
from repro.scenarios.topologies import get_preset
from repro.sim.topology import lan_topology
from repro.workloads.engine import OpenLoopSampler, PhaseSchedule
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload

VALUE_BYTES = 1024
#: The measured window is cut into equal slices about this long, and
#: ``ack_p99_ms`` is the lower quartile of their p99s: the p99 of the window's
#: quieter tenths of a second.  A full collection, an fsync hiccup or a burst
#: of arrivals delays every operation in flight, and how many slices hold one
#: changes from run to run far more than anything the code does.  Over 20 runs
#: of live-paced the spread between runs (quartile distance over median) was
#: 46 % for the median of one-second slices' p99s, 25 % at half a second,
#: 17 % at a quarter, 12 % at a tenth, and 8.5 % for the lower quartile at a
#: tenth, against 6.5 % for the runs' p50; on live-closed-mem 16 % (median,
#: quarter second) against 5.9 %.  The stalls themselves are counted in
#: ``proc.gc_pause_ms_total`` and cost throughput on the closed loops.
SLICE_SECONDS = 0.1


#: Share of the measured length that runs first, unmeasured.
WARMUP_SHARE = 0.1


def slice_count(seconds: float) -> int:
    return max(5, round(seconds / SLICE_SECONDS))


#: What the caller hangs on the start and on the end of the measured window.
Hook = Callable[[], None]


def ring_counters(nodes) -> Dict[str, int]:
    """Sums of the stack's own plain counters over ``nodes`` (read, never reset)."""
    totals: Dict[str, int] = {}

    def add(key: str, amount: int) -> None:
        totals[key] = totals.get(key, 0) + amount

    runtimes = {}
    for node in nodes:
        runtimes[id(node.world)] = node.world
        add("messages_sent", node.messages_sent)
        add("deliveries", node.deliveries_count)
        add("merge_skipped", node.merge.skipped_count)
        add("merge_batched_instances", node.merge.batched_instances)
        for role in node.roles.values():
            if role.is_coordinator:
                add("instances", role.next_instance)
                add("values_proposed", role.values_proposed)
                add("skips_proposed", role.skips_proposed)
                if role.batcher is not None:
                    add("batch_values", role.batcher.values_offered)
                    add("batches_flushed", role.batcher.batches_flushed)
            if role.storage is not None and role.storage.disk is not None:
                add("store_ops", role.storage.disk.ops)
                add("store_bytes", role.storage.disk.bytes_written)
    for runtime in runtimes.values():
        add("clock_events", runtime.sim.processed_events)
        network = runtime.network
        add("frames_sent", getattr(network, "frames_sent", 0))
        add("wire_bytes_sent", getattr(network, "wire_bytes_sent", 0))
    return totals


def _order_hash(sequence) -> str:
    return hashlib.sha1(repr(list(sequence)).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# live backend: one ring n0,n1,n2 over loopback TCP
# ----------------------------------------------------------------------
class LiveRing:
    GROUP = "ring-0"
    NODES = ("n0", "n1", "n2")
    #: A future not resolved this long after the load stops is a failure.
    DRAIN_TIMEOUT = 10.0

    def __init__(self, seed: int, out_dir: str, storage: StorageMode = StorageMode.MEMORY) -> None:
        self.seed = seed
        self.storage = storage
        self.storage_dir = (
            None if storage is StorageMode.MEMORY else tempfile.mkdtemp(prefix="fsync-", dir=out_dir)
        )
        self.sequences: Dict[str, List[int]] = {name: [] for name in self.NODES}
        self.futures: List[concurrent.futures.Future] = []
        self.extra: Dict[str, float] = {}
        # Rate leveling only matters when merging several rings; on one ring
        # it would stream skip instances over TCP for nothing.
        self.am = AtomicMulticast(
            backend="live",
            seed=seed,
            config=MultiRingConfig.datacenter(rate_leveling=False),
            storage_dir=self.storage_dir,
        )

    def start(self) -> None:
        self.am.ring(
            self.GROUP, list(self.NODES), coordinator=self.NODES[0], storage=self.storage
        )
        self.am.__enter__()
        for name in self.NODES:
            self.am.node(name).on_deliver(
                partial(self._delivered, self.sequences[name]), group=self.GROUP
            )
        self.submit().result(timeout=self.DRAIN_TIMEOUT)

    @staticmethod
    def _delivered(sequence: List[int], delivery) -> None:
        sequence.append(delivery.value.payload[3])

    def submit(self) -> concurrent.futures.Future:
        future = self.am.submit(
            self.GROUP, ("append", "log-0", VALUE_BYTES, len(self.futures)), 64 + VALUE_BYTES
        )
        self.futures.append(future)
        return future

    def nodes(self):
        return [self.am.node(name) for name in self.NODES]

    def verify(self) -> Tuple[int, int, List[str], Dict[str, object]]:
        """``(attempted, failed, problems, deterministic fields)`` after draining."""
        concurrent.futures.wait(self.futures, timeout=self.DRAIN_TIMEOUT)
        acked = {tag for tag, future in enumerate(self.futures) if future.done()}
        timed_out = len(self.futures) - len(acked)
        # Let the tail of the decision circulation reach every learner.
        deadline = time.monotonic() + self.DRAIN_TIMEOUT
        while time.monotonic() < deadline and any(
            len(sequence) < len(acked) for sequence in self.sequences.values()
        ):
            time.sleep(0.01)
        sequences = {name: list(sequence) for name, sequence in self.sequences.items()}
        problems = []
        failed = timed_out
        if timed_out:
            problems.append(f"{timed_out} appends not acknowledged within {self.DRAIN_TIMEOUT:g}s")
        for name, sequence in sequences.items():
            missing = len(acked - set(sequence))
            if missing:
                failed += missing
                problems.append(f"{missing} acknowledged appends missing at learner {name}")
        reference = sequences[self.NODES[0]]
        if any(sequence != reference for sequence in sequences.values()):
            failed += 1
            problems.append("learners delivered different sequences")
        return len(self.futures), failed, problems, {"completed": len(acked)}

    def close(self) -> None:
        self.am.__exit__(None, None, None)
        if self.storage_dir is not None:
            shutil.rmtree(self.storage_dir, ignore_errors=True)

    @staticmethod
    def _slices(seconds: float, samples: List[Tuple[float, float]]) -> List[Slice]:
        """Bucket ``(instant in the window, latency)`` samples into equal time slices."""
        count = slice_count(seconds)
        width = seconds / count
        slices: List[Slice] = [(width, []) for _ in range(count)]
        for instant, latency in samples:
            if 0.0 <= instant < seconds:
                slices[min(int(instant / width), count - 1)][1].append(latency)
        return slices


class LiveClosed(LiveRing):
    """Closed loop: ``DEPTH`` appends outstanding, the next sent as one is acked."""

    DEPTH = 32

    def run(self, seconds: float, begin_window: Hook, end_window: Hook) -> List[Slice]:
        tokens = threading.Semaphore(self.DEPTH)
        samples: List[Tuple[float, float]] = []
        clock = time.perf_counter

        def acked(sent_at: float, future) -> None:  # on the loop thread
            now = clock()
            samples.append((now, now - sent_at))
            tokens.release()

        begin = clock() + WARMUP_SHARE * seconds
        end = begin + seconds
        measuring = False
        while tokens.acquire(timeout=self.DRAIN_TIMEOUT):
            now = clock()
            if not measuring and now >= begin:
                measuring = True
                begin_window()
            if now >= end:
                break
            self.submit().add_done_callback(partial(acked, now))
        end_window()
        return self._slices(seconds, [(at - begin, latency) for at, latency in list(samples)])


class LivePaced(LiveRing):
    """Open loop: Poisson arrivals at ``RATE``/s, timed from the due instant."""

    #: About an eighth of what the closed loop on the same ring saturates at,
    #: and half of one core.  At 1000/s the loop thread is 60 % busy, which
    #: is where queueing multiplies any change in speed: through three slow
    #: minutes of this VM, in runs taken in turn, p50 rose to 68 % above its
    #: median at 1000/s, 41 % at 500/s and 31 % at 250/s.
    RATE = 500.0

    def arrivals(self, duration: float) -> List[float]:
        sampler = OpenLoopSampler(
            PhaseSchedule.constant(self.RATE, duration),
            key_space=10_000,
            seed=self.seed,
            op="append",
            size_bytes=VALUE_BYTES,
        )
        started = time.perf_counter()
        times = [event.time for event in sampler.events()]
        self.extra["sample_us"] = (time.perf_counter() - started) * 1e6 / max(len(times), 1)
        return times

    def run(self, seconds: float, begin_window: Hook, end_window: Hook) -> List[Slice]:
        warmup = WARMUP_SHARE * seconds
        arrivals = self.arrivals(warmup + seconds)
        samples: List[Tuple[float, float]] = []
        late: List[Tuple[float, float]] = []
        clock = time.perf_counter

        def acked(due: float, future) -> None:  # on the loop thread
            samples.append((due, clock() - due))

        origin = clock() + 0.01
        begin = origin + warmup
        measuring = False
        for offset in arrivals:
            due = origin + offset
            if not measuring and offset >= warmup:
                measuring = True
                begin_window()
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            if measuring:
                late.append((due - begin, clock() - due))
            self.submit().add_done_callback(partial(acked, due))
        # The window's last arrivals are counted (per op) when acknowledged.
        concurrent.futures.wait(self.futures, timeout=2.0)
        end_window()
        # Sliced like ack_p99_ms: a collection stalls the generator too.
        self.extra["gen_late_p99_ms"] = quiet_p99(self._slices(seconds, late)) * 1e3
        return self._slices(seconds, [(due - begin, latency) for due, latency in list(samples)])


# ----------------------------------------------------------------------
# sim backend
# ----------------------------------------------------------------------
class SimWorkload:
    """Shared shape of the simulated workloads: fixed simulated length per wall second.

    ``SIM_SECONDS_PER_SECOND`` was sized on the reference machine so that the
    measured window takes about ``seconds`` of wall time; the simulated length
    is what is fixed, so the modelled metrics and the delivery order depend on
    the seed and on ``--seconds`` only, never on how fast the machine is.
    """

    SIM_SECONDS_PER_SECOND: float
    #: Simulated seconds given to outstanding operations after the load stops.
    DRAIN_SIM_SECONDS: float

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.extra: Dict[str, float] = {}

    def _latencies(self) -> List[float]:
        raise NotImplementedError

    def _stop_load(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, begin_window: Hook, end_window: Hook) -> List[Slice]:
        length = seconds * self.SIM_SECONDS_PER_SECOND
        begin = self.am.now + WARMUP_SHARE * length
        self.am.run(until=begin)
        begin_window()
        slices: List[Slice] = []
        seen = len(self._latencies())
        count = slice_count(seconds)
        for index in range(1, count + 1):
            started = time.perf_counter()
            self.am.run(until=begin + length * index / count)
            wall = time.perf_counter() - started
            latencies = self._latencies()
            slices.append((wall, latencies[seen:]))
            seen = len(latencies)
        end_window()
        self.events = self.am.world.sim.processed_events
        self.extra = {"sim_window_s": length}
        self._stop_load()
        self.am.run(until=self.am.now + self.DRAIN_SIM_SECONDS)
        return slices

    def close(self) -> None:
        self.am.__exit__(None, None, None)


class SimKvLan(SimWorkload):
    """MRP-Store, 3 partitions x 3 replicas on a LAN, YCSB A from 4 x 25 client threads."""

    SIM_SECONDS_PER_SECOND = 0.0185
    DRAIN_SIM_SECONDS = 0.05
    RECORDS = 10_000

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.am = AtomicMulticast(backend="sim", seed=seed, topology=lan_topology())

    def start(self) -> None:
        self.am.__enter__()
        self.store = self.am.mrpstore(
            partitions=3,
            replicas_per_partition=3,
            acceptors_per_partition=3,
            use_global_ring=False,
            storage_mode=StorageMode.ASYNC_SSD,
        )
        self.store.load(self.RECORDS, 1000)
        workload = YCSBWorkload(self.store, YCSB_WORKLOADS["A"].scaled(self.RECORDS))
        self.series = workload.series
        self.clients = [
            self.am.client(f"client-{i}", workload, self.store.frontends_for_client(i), threads=25)
            for i in range(4)
        ]
        # Witness delivery order: the first replica of each partition.
        self.order: List[Tuple[str, int]] = []
        for partition in sorted(self.store.partitions):
            self.store.replicas_of(partition)[0].on_deliver(self._delivered)
        self.am.run(until=0.0)  # boots every process: each client thread submits

    def _delivered(self, delivery) -> None:
        self.order.append((delivery.group, delivery.value.uid))

    def nodes(self):
        return list(self.store.deployment.nodes.values())

    def _latencies(self) -> List[float]:
        return self.am.monitor.latencies(self.series)

    def _stop_load(self) -> None:
        for client in self.clients:
            client.think_time = 1e9  # the next request of every thread never comes

    def verify(self) -> Tuple[int, int, List[str], Dict[str, object]]:
        issued = sum(client.issued for client in self.clients)
        completed = sum(client.completed for client in self.clients)
        failed = issued - completed
        problems = [f"{failed} requests never completed"] if failed else []
        convergence = check_replica_convergence(self.store)
        if not convergence.passed:
            failed += 1
            problems.append(convergence.detail)
        return issued, failed, problems, {
            "events": self.events,
            "completed": completed,
            "order_hash": _order_hash(self.order),
        }


class SimGeoRings(SimWorkload):
    """Two rings over three continents, 24 closed-loop submitters per ring."""

    SIM_SECONDS_PER_SECOND = 52.0
    DRAIN_SIM_SECONDS = 5.0
    GROUPS = ("ring-a", "ring-b")
    NODES = ("node-0", "node-1", "node-2")
    DEPTH = 24

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.latencies: List[float] = []
        self.sequences: Dict[str, List[Tuple[str, int]]] = {name: [] for name in self.NODES}
        self.attempted = 0
        self.stopping = False
        # The seed stretches the deployment's time scale by up to 0.5 %: every
        # inter-region RTT and the rate-leveling interval together.  With the
        # exact preset the modelled latencies are the same few sums of link
        # delays, to the last digit, whatever the seed; stretching the RTTs
        # one by one instead moves operations between those plateaus, and p99
        # jumps between 467, 698 and 930 ms from one seed to the next.
        stretch = random.Random(seed).uniform(0.995, 1.005)
        preset = get_preset("wan3")
        self.preset = replace(
            preset, rtt_ms={pair: rtt * stretch for pair, rtt in preset.rtt_ms.items()}
        )
        paper = MultiRingConfig.wide_area()
        self.am = AtomicMulticast(
            backend="sim",
            seed=seed,
            topology=self.preset.build(),
            config=replace(paper, delta=paper.delta * stretch, lam=paper.lam / stretch),
        )

    def start(self) -> None:
        self.am.__enter__()
        sites = dict(zip(self.NODES, self.preset.sites))
        for group in self.GROUPS:
            self.am.ring(group, list(self.NODES), sites=sites)
        for name in self.NODES:
            self.am.node(name).on_deliver(partial(self._delivered, self.sequences[name]))
        for group in self.GROUPS:
            for _ in range(self.DEPTH):
                self._submit(group)

    @staticmethod
    def _delivered(sequence: List[Tuple[str, int]], delivery) -> None:
        sequence.append((delivery.group, delivery.value.payload[1]))

    def _submit(self, group: str) -> None:
        future = self.am.submit(group, ("append", self.attempted), VALUE_BYTES)
        self.attempted += 1
        future.add_done_callback(partial(self._acked, group, self.am.now))

    def _acked(self, group: str, sent_at: float, future) -> None:
        self.latencies.append(self.am.now - sent_at)
        if not self.stopping:
            self._submit(group)

    def nodes(self):
        return [self.am.node(name) for name in self.NODES]

    def _latencies(self) -> List[float]:
        return self.latencies

    def _stop_load(self) -> None:
        self.stopping = True

    def verify(self) -> Tuple[int, int, List[str], Dict[str, object]]:
        completed = len(self.latencies)
        failed = self.attempted - completed
        problems = [f"{failed} submits never acknowledged"] if failed else []
        reference = self.sequences[self.NODES[0]]
        for name, sequence in self.sequences.items():
            if sequence != reference:
                failed += 1
                problems.append(f"learner {name} delivered a different merged order")
        if len(reference) != completed:
            failed += 1
            problems.append(f"{completed} acknowledged but {len(reference)} delivered")
        return self.attempted, failed, problems, {
            "events": self.events,
            "completed": completed,
            "order_hash": _order_hash(reference),
        }


WORKLOADS: Dict[str, Callable[..., object]] = {
    "live-closed-mem": LiveClosed,
    "live-closed-fsync": partial(LiveClosed, storage=StorageMode.SYNC_SSD),
    "live-paced": LivePaced,
    "sim-kv-lan": SimKvLan,
    "sim-geo-rings": SimGeoRings,
}
