"""The open-loop workload engine: samplers, schedules, traces, managers.

Statistical checks run under a fixed seed with wide tolerances: the sampler
is deterministic, so these are regression tests on the generator's output,
not flaky distribution tests.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.workloads.engine import (
    ArrivalEvent,
    OpenLoopLoadGenerator,
    OpenLoopSampler,
    Phase,
    PhaseSchedule,
    ServiceTarget,
    WorkloadManager,
    WorkloadTrace,
)


# ----------------------------------------------------------------------
# Poisson arrival statistics
# ----------------------------------------------------------------------
def test_poisson_interarrival_mean_matches_rate_under_fixed_seed():
    rate = 200.0
    schedule = PhaseSchedule.constant(rate, duration=30.0)
    sampler = OpenLoopSampler(schedule, key_space=1000, seed=7)
    times = [event.time for event in sampler.events()]
    assert len(times) > 4000  # ~6000 expected
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean_gap = sum(gaps) / len(gaps)
    # Mean interarrival = 1/rate within 5 % (deterministic given the seed).
    assert mean_gap == pytest.approx(1.0 / rate, rel=0.05)
    # Exponential gaps: the variance of the gap equals its mean squared.
    var = sum((g - mean_gap) ** 2 for g in gaps) / len(gaps)
    assert var == pytest.approx(mean_gap**2, rel=0.15)


def test_poisson_count_tracks_the_rate_integral():
    schedule = PhaseSchedule.flash_crowd(
        50.0, 400.0, at=5.0, spike_duration=2.0, duration=10.0
    )
    sampler = OpenLoopSampler(schedule, key_space=100, seed=3)
    count = sum(1 for _ in sampler.events())
    expected = schedule.expected_arrivals()
    assert expected == pytest.approx(50.0 * 8.0 + 400.0 * 2.0)
    # Poisson(1200): sd ~ 35, so 10 % is > 3 sigma of slack.
    assert count == pytest.approx(expected, rel=0.10)


def test_sampling_is_deterministic_per_seed_and_differs_across_seeds():
    schedule = PhaseSchedule.constant(100.0, duration=5.0)
    first = list(OpenLoopSampler(schedule, key_space=50, seed=9).events())
    second = list(OpenLoopSampler(schedule, key_space=50, seed=9).events())
    other = list(OpenLoopSampler(schedule, key_space=50, seed=10).events())
    assert first == second
    assert first != other


# ----------------------------------------------------------------------
# Zipf key popularity
# ----------------------------------------------------------------------
def test_zipf_rank_frequency_shape():
    schedule = PhaseSchedule.constant(2000.0, duration=10.0, theta=0.99)
    sampler = OpenLoopSampler(schedule, key_space=1000, seed=5)
    counts = Counter(event.key for event in sampler.events())
    ranked = [count for _, count in counts.most_common()]
    total = sum(ranked)
    # Zipf theta=0.99 over 1000 keys: the hottest key draws a few percent of
    # all traffic and the top 10 dominate the tail.
    assert ranked[0] / total > 0.02
    assert sum(ranked[:10]) / total > 0.15
    assert sum(ranked[:100]) / total > 0.45
    # Rank-frequency slope: hot ranks decay roughly like 1/rank^theta, so
    # rank 1 vs rank 10 should differ by close to 10^0.99 ~= 9.8.
    ratio = ranked[0] / ranked[9]
    assert 3.0 < ratio < 30.0


def test_hotspot_anchors_zipf_ranks_at_a_contiguous_range():
    schedule = PhaseSchedule.constant(2000.0, duration=5.0, theta=1.2, hotspot=0.5)
    key_space = 1000
    sampler = OpenLoopSampler(schedule, key_space=key_space, seed=2)
    counts = Counter(event.key for event in sampler.events())
    hottest = counts.most_common(1)[0][0]
    # Rank 0 maps to the anchor key; the hot mass sits just above it.
    assert hottest == key_space // 2
    window = sum(counts[key] for key in range(500, 520))
    assert window / sum(counts.values()) > 0.3


def test_user_population_sampling_without_per_user_state():
    # A million modeled users from one sampler: user ids span a huge range
    # while the object count stays O(1).
    schedule = PhaseSchedule.constant(500.0, duration=4.0)
    sampler = OpenLoopSampler(schedule, key_space=100, users=1_000_000, seed=1)
    users = [event.user for event in sampler.events()]
    assert all(0 <= u < 1_000_000 for u in users)
    assert len(set(users)) > len(users) // 4  # plenty of distinct users


# ----------------------------------------------------------------------
# phase schedules
# ----------------------------------------------------------------------
def test_phase_boundary_belongs_to_the_new_phase():
    schedule = PhaseSchedule(
        [Phase(0.0, 10.0, label="a"), Phase(2.0, 50.0, label="b")], duration=4.0
    )
    assert schedule.phase_at(0.0).label == "a"
    assert schedule.phase_at(2.0 - 1e-12).label == "a"
    assert schedule.phase_at(2.0).label == "b"  # the boundary instant itself
    assert schedule.next_boundary(0.0) == 2.0
    assert schedule.next_boundary(2.0) == 4.0


def test_phase_boundaries_are_deterministic_in_the_sampled_stream():
    schedule = PhaseSchedule.flash_crowd(
        20.0, 500.0, at=3.0, spike_duration=1.0, duration=6.0, spike_theta=1.4
    )
    events = list(OpenLoopSampler(schedule, key_space=200, seed=4).events())
    spike = [e for e in events if 3.0 <= e.time < 4.0]
    steady = [e for e in events if e.time < 3.0]
    # The spike phase fires at ~25x the steady rate.
    assert len(spike) > 5 * len(steady)
    # No arrival can cross the schedule end.
    assert all(e.time < 6.0 for e in events)


def test_schedule_validation_rejects_bad_shapes():
    with pytest.raises(WorkloadError):
        PhaseSchedule([], duration=1.0)
    with pytest.raises(WorkloadError):
        PhaseSchedule([Phase(1.0, 5.0)], duration=2.0)  # must start at 0
    with pytest.raises(WorkloadError):
        PhaseSchedule([Phase(0.0, 5.0), Phase(3.0, 5.0)], duration=2.0)
    with pytest.raises(WorkloadError):
        Phase(0.0, rate=-1.0)
    with pytest.raises(WorkloadError):
        Phase(0.0, 1.0, hotspot=1.0)


def test_diurnal_builder_peaks_at_half_period():
    schedule = PhaseSchedule.diurnal(10.0, 100.0, duration=24.0, steps=12)
    assert len(schedule.phases) == 12
    assert schedule.peak_phase().start == pytest.approx(12.0)
    assert schedule.phases[0].rate == pytest.approx(10.0)
    assert math.isclose(schedule.peak_phase().rate, 100.0)


def test_hotspot_migration_moves_the_hot_range():
    schedule = PhaseSchedule.hotspot_migration(
        100.0, duration=9.0, positions=(0.0, 0.4, 0.8)
    )
    assert [p.hotspot for p in schedule.phases] == [0.0, 0.4, 0.8]
    assert schedule.phase_at(3.0).hotspot == 0.4  # boundary -> new phase


# ----------------------------------------------------------------------
# trace record / replay
# ----------------------------------------------------------------------
def test_trace_jsonl_round_trip_is_byte_exact(tmp_path):
    schedule = PhaseSchedule.flash_crowd(
        30.0, 300.0, at=1.0, spike_duration=0.5, duration=3.0
    )
    sampler = OpenLoopSampler(schedule, key_space=64, seed=6)
    trace = sampler.record()
    assert trace.events
    path = tmp_path / "storm.jsonl"
    trace.to_jsonl(path)
    replayed = WorkloadTrace.from_jsonl(path)
    assert replayed == trace
    # float.hex serialization: every instant survives bit-exactly.
    assert [e.time for e in replayed.events] == [e.time for e in trace.events]
    assert replayed.meta == trace.meta


def test_arrival_event_record_round_trip():
    event = ArrivalEvent(time=1.2345678901234567, user=42, key=7, op="read", size_bytes=99)
    assert ArrivalEvent.from_record(event.as_record()) == event


def test_trace_prefix():
    trace = WorkloadTrace([ArrivalEvent(float(i), i, i) for i in range(10)])
    prefix = trace.prefix(3)
    assert len(prefix.events) == 3
    assert prefix.events == trace.events[:3]


# ----------------------------------------------------------------------
# record -> replay equality on the sim backend
# ----------------------------------------------------------------------
def test_sim_record_then_replay_produces_identical_stream():
    from repro.api import AtomicMulticast

    def _ring(am):
        am.ring("g1", acceptors=["a0", "a1", "a2"], learners=["a0", "a1", "a2"])

    schedule = PhaseSchedule.constant(80.0, duration=2.0)
    am = AtomicMulticast(backend="sim", seed=11)
    _ring(am)
    with am:
        recorder = am.workload("g1", schedule, key_space=32, record=True)
        completed = recorder.drain()
        assert completed == recorder.issued > 0
        trace = recorder.trace
    am = AtomicMulticast(backend="sim", seed=99)  # different seed: replay wins
    _ring(am)
    with am:
        replayer = am.workload("g1", replay=trace.events, record=True)
        completed = replayer.drain()
        assert completed == len(trace.events)
        assert replayer.trace.events == trace.events
    # Latency is measured from the intended arrival instant on both runs.
    assert all(latency >= 0.0 for latency in replayer.latencies())


def test_open_loop_generator_measures_from_intended_arrival():
    from repro.config import MultiRingConfig
    from repro.services.mrpstore import MRPStore
    from repro.sim.disk import StorageMode
    from repro.sim.topology import lan_topology
    from repro.sim.world import World

    world = World(topology=lan_topology(), seed=13)
    store = MRPStore(
        world,
        partitions=2,
        rings=1,
        replicas_per_partition=1,
        acceptors_per_partition=3,
        use_global_ring=False,
        scheme="range",
        storage_mode=StorageMode.MEMORY,
        config=MultiRingConfig.datacenter(),
        key_space=100,
    )
    store.load(100, value_size=64)
    schedule = PhaseSchedule.constant(60.0, duration=2.0)
    sampler = OpenLoopSampler(schedule, key_space=100, seed=13)
    generator = OpenLoopLoadGenerator(
        world, "gen", store.open_loop_target(value_size=64), sampler.events()
    )
    manager = WorkloadManager(world, generator)
    batch = manager.collect(40)
    assert len(batch) == 40
    assert all(entry.latency is not None and entry.latency >= 0.0 for entry in batch)
    recent = manager.recent_entries(duration=1000.0)
    assert len(recent) >= 40
    manager.stop()


# ----------------------------------------------------------------------
# one termination rule, one response rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "live"])
def test_collect_beyond_the_stream_raises_instead_of_waiting_forever(backend, monkeypatch):
    import signal

    from repro.api import AtomicMulticast

    am = AtomicMulticast(backend=backend, seed=11)
    am.ring("g1", acceptors=["a0", "a1", "a2"], learners=["a0", "a1", "a2"])
    manager = am.workload("g1", PhaseSchedule.constant(50.0, duration=1.0), key_space=32)

    steps = []
    run_for = am.run_for

    def counted(duration):
        steps.append(duration)
        assert len(steps) <= 200, "the manager is still waiting on a spent stream"
        return run_for(duration)

    def overdue(signum, frame):
        raise AssertionError("collect() did not return")

    monkeypatch.setattr(am, "run_for", counted)
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    try:
        with am:
            with pytest.raises(WorkloadError):
                manager.collect(number=10_000)
            # The ~50 arrivals were all served, and draining a spent stream returns.
            assert manager.drain() == manager.issued > 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert steps


def test_a_lost_submission_ends_the_wait_at_the_deadline(world):
    from repro.runtime.actor import Process
    from repro.smr.client import Request

    Process(world, "void")  # a front-end that never answers
    target = ServiceTarget(lambda event: Request(("noop",), 16, "g"), {"g": "void"})
    events = [ArrivalEvent(time=0.01 * i, user=i, key=i) for i in range(4)]
    manager = WorkloadManager(world, OpenLoopLoadGenerator(world, "gen", target, events))
    manager.timeout = 1.0
    with pytest.raises(WorkloadError):
        manager.collect(number=1)
    assert manager.generator.outstanding == manager.issued == 4
    assert manager.drain(timeout=0.5) == 0
    assert world.now < 2.0


def test_multi_partition_request_completes_on_its_last_response():
    from repro.services.mrpstore import MRPStore
    from repro.sim.disk import StorageMode
    from repro.sim.topology import lan_topology
    from repro.sim.world import World

    world = World(topology=lan_topology(), seed=5)
    store = MRPStore(
        world,
        partitions=2,
        replicas_per_partition=1,
        acceptors_per_partition=3,
        use_global_ring=True,
        storage_mode=StorageMode.MEMORY,
        key_space=50,
    )
    store.load(50, value_size=64)
    scan = store.scan(store.key(0), store.key(49))
    assert scan.expected_responses == 2
    target = ServiceTarget(lambda event: scan, store.frontends_for_client(0))
    events = [ArrivalEvent(time=0.01 * (i + 1), user=i, key=i) for i in range(5)]
    generator = OpenLoopLoadGenerator(world, "gen", target, events)

    heard = {}  # command id -> partition -> when its first response reached the generator
    handle = generator.on_message

    def spy(sender, payload):
        heard.setdefault(payload.command_id, {}).setdefault(payload.partition, generator.workload_now)
        handle(sender, payload)

    generator.on_message = spy
    manager = WorkloadManager(world, generator)
    assert manager.drain() == len(events)
    by_completion = sorted(heard.values(), key=lambda answers: max(answers.values()))
    assert len(by_completion) == len(events)
    for entry, answers in zip(manager.entries, by_completion):
        assert set(answers) == {"p0", "p1"}
        assert entry.completed_at == max(answers.values()) > min(answers.values())
        assert entry.latency >= max(answers.values()) - entry.issued_at
