"""Open-loop million-user workload engine.

The paper's evaluation (and every bench before this module) drives the
services with *closed-loop* clients: each thread submits the next request
only after the previous one completes, so offered load collapses exactly
when the system slows down -- the opposite of production traffic.  This
module models **open-loop** arrivals: requests fire at sampled instants
regardless of completions, the way traffic from millions of independent
users behaves, and latency is measured from the *intended* arrival time so
queueing delay is never hidden (no coordinated omission).

Millions of users are modeled **by arrival sampling, not per-client
objects**: the superposition of N independent Poisson streams is itself a
Poisson process at the aggregate rate, so one exponential-gap sampler
stands in for the whole population; the *identity* of each arrival (which
user, which key) is drawn per event from Zipf distributions over user and
key ranks.  A million-user workload costs exactly as much to generate as a
ten-user one.

The pieces:

* :class:`Phase` / :class:`PhaseSchedule` -- piecewise-constant arrival
  rate, key skew and hotspot position, with builders for diurnal curves
  (:meth:`PhaseSchedule.diurnal`), flash crowds
  (:meth:`PhaseSchedule.flash_crowd`) and hotspot migration
  (:meth:`PhaseSchedule.hotspot_migration`).  Within a phase the rate is
  constant, so exponential gaps are exact; at a boundary the sampler
  re-draws from the new rate -- memorylessness makes that restart exact
  too, and it makes phase boundaries deterministic cut points.
* :class:`OpenLoopSampler` -- turns a schedule into a deterministic stream
  of :class:`ArrivalEvent` records (time, user rank, key index, size).
* :class:`WorkloadTrace` -- a recorded arrival stream with JSONL
  round-trip; replaying a trace reproduces the submission schedule
  byte-for-byte on either backend (see ``docs/workloads.md``).
* :class:`OpenLoopLoadGenerator` -- the one load generator: the open-loop
  pacing over :class:`~repro.smr.client.RequestClient` (the request/response
  core it shares with the closed-loop client), a
  :class:`~repro.runtime.actor.Process` placed with
  ``cluster.runtime_of(name)`` like every other node.  What an arrival
  becomes is its target's business: :class:`ServiceTarget` sends a service's
  commands to proposer front-ends, :class:`GroupTarget` multicasts raw values
  through the facade.
* :class:`WorkloadManager` -- the one lifecycle (start / stop / collect /
  drain / recent_entries) around a generator.  It advances its cluster only
  through ``now`` / ``run_for``, which a simulated
  :class:`~repro.sim.world.World` and an
  :class:`~repro.api.AtomicMulticast` on either backend both offer, so
  nothing here knows which backend it is driving.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import WorkloadError
from repro.smr.client import Request, RequestClient
from repro.workloads.distributions import ZipfianChooser

__all__ = [
    "ArrivalEvent",
    "Phase",
    "PhaseSchedule",
    "OpenLoopSampler",
    "WorkloadTrace",
    "ServiceTarget",
    "GroupTarget",
    "WorkloadEntry",
    "OpenLoopLoadGenerator",
    "WorkloadManager",
]


# ----------------------------------------------------------------------
# arrival events and traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalEvent:
    """One sampled request arrival.

    ``time`` is the intended arrival instant in seconds from workload start;
    ``user`` is the Zipf-sampled rank of the issuing user in the virtual
    population (rank 0 = the most active user); ``key`` is the target key
    index in ``[0, key_space)``; ``op`` names the service operation.
    """

    time: float
    user: int
    key: int
    op: str = "update"
    size_bytes: int = 512

    def as_record(self) -> Dict[str, Any]:
        return {
            "time": self.time.hex(),
            "user": self.user,
            "key": self.key,
            "op": self.op,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ArrivalEvent":
        return cls(
            time=float.fromhex(record["time"]),
            user=int(record["user"]),
            key=int(record["key"]),
            op=str(record["op"]),
            size_bytes=int(record["size_bytes"]),
        )


class WorkloadTrace:
    """A recorded arrival stream, replayable byte-for-byte.

    Event times serialize as ``float.hex`` so a JSONL round-trip preserves
    every bit: a storm captured on the sim backend replays with the exact
    same submission schedule on the live backend (and vice versa).
    """

    def __init__(self, events: Optional[Sequence[ArrivalEvent]] = None, meta: Optional[Dict] = None) -> None:
        self.events: List[ArrivalEvent] = list(events or [])
        self.meta: Dict[str, Any] = dict(meta or {})

    def append(self, event: ArrivalEvent) -> None:
        self.events.append(event)

    def prefix(self, count: int) -> "WorkloadTrace":
        """The first ``count`` events as a new trace (same meta)."""
        return WorkloadTrace(self.events[:count], dict(self.meta))

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WorkloadTrace) and self.events == other.events

    def __iter__(self) -> Iterator[ArrivalEvent]:
        return iter(self.events)

    # -- persistence ----------------------------------------------------
    def to_jsonl(self, path) -> None:
        lines = [json.dumps({"meta": self.meta}, sort_keys=True)]
        lines.extend(json.dumps(e.as_record(), sort_keys=True) for e in self.events)
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "WorkloadTrace":
        trace = cls()
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record and "time" not in record:
                trace.meta = dict(record["meta"])
            else:
                trace.append(ArrivalEvent.from_record(record))
        return trace


# ----------------------------------------------------------------------
# phase schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Phase:
    """A piecewise-constant stretch of the workload.

    ``rate`` is the aggregate arrival rate in requests/second (the sum of
    the whole population's individual rates); ``theta`` the Zipf skew of
    key popularity; ``hotspot`` the position of the hottest key as a
    fraction of the key space -- Zipf ranks map to *contiguous* keys
    starting there, so a hotspot concentrates load on one key range (and
    moving it between phases migrates the hot range across partitions).
    """

    start: float
    rate: float
    theta: float = 0.99
    hotspot: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.start < 0:
            raise WorkloadError("a phase cannot start before time 0")
        if self.rate < 0:
            raise WorkloadError("the arrival rate cannot be negative")
        if not 0.0 <= self.hotspot < 1.0:
            raise WorkloadError("hotspot must be a fraction in [0, 1)")


class PhaseSchedule:
    """An ordered sequence of :class:`Phase` stretches covering ``[0, duration)``.

    A boundary instant belongs to the *new* phase: ``phase_at(p.start)`` is
    ``p``, deterministically, which is what makes trace replay and the
    boundary tests exact.
    """

    def __init__(self, phases: Sequence[Phase], duration: float) -> None:
        if not phases:
            raise WorkloadError("a schedule needs at least one phase")
        if duration <= 0:
            raise WorkloadError("the schedule duration must be positive")
        ordered = sorted(phases, key=lambda p: p.start)
        if ordered[0].start != 0.0:
            raise WorkloadError("the first phase must start at time 0")
        starts = [p.start for p in ordered]
        if len(set(starts)) != len(starts):
            raise WorkloadError("phase start times must be distinct")
        if ordered[-1].start >= duration:
            raise WorkloadError("every phase must start before the schedule ends")
        self.phases: List[Phase] = ordered
        self.duration = duration
        self._starts = starts

    def phase_at(self, t: float) -> Phase:
        """The phase governing instant ``t`` (boundaries belong to the new phase)."""
        if t < 0:
            raise WorkloadError("the schedule starts at time 0")
        return self.phases[bisect_right(self._starts, t) - 1]

    def next_boundary(self, t: float) -> float:
        """The first phase start strictly after ``t`` (or the schedule end)."""
        index = bisect_right(self._starts, t)
        if index < len(self._starts):
            return self._starts[index]
        return self.duration

    def expected_arrivals(self) -> float:
        """The integral of the rate curve (for sizing runs and buffers)."""
        total = 0.0
        for index, phase in enumerate(self.phases):
            end = self._starts[index + 1] if index + 1 < len(self.phases) else self.duration
            total += phase.rate * (end - phase.start)
        return total

    def peak_phase(self) -> Phase:
        """The highest-rate phase (ties broken by earliest start)."""
        return max(self.phases, key=lambda p: (p.rate, -p.start))

    def describe(self) -> List[Dict[str, Any]]:
        return [
            {
                "start": p.start,
                "rate": p.rate,
                "theta": p.theta,
                "hotspot": p.hotspot,
                "label": p.label,
            }
            for p in self.phases
        ]

    # -- builders --------------------------------------------------------
    @classmethod
    def constant(
        cls, rate: float, duration: float, *, theta: float = 0.99, hotspot: float = 0.0
    ) -> "PhaseSchedule":
        return cls([Phase(0.0, rate, theta=theta, hotspot=hotspot, label="steady")], duration)

    @classmethod
    def diurnal(
        cls,
        base_rate: float,
        peak_rate: float,
        duration: float,
        *,
        period: Optional[float] = None,
        steps: int = 12,
        theta: float = 0.99,
        hotspot: float = 0.0,
    ) -> "PhaseSchedule":
        """A day/night sinusoid sampled into ``steps`` constant-rate phases.

        ``period`` defaults to the whole duration (one simulated "day").
        The trough sits at t=0 and the peak at half a period, following the
        usual diurnal curve shape.
        """
        if peak_rate < base_rate:
            raise WorkloadError("peak_rate must be at least base_rate")
        if steps < 2:
            raise WorkloadError("a diurnal curve needs at least 2 steps")
        period = period or duration
        mid = (base_rate + peak_rate) / 2.0
        amplitude = (peak_rate - base_rate) / 2.0
        phases = []
        step = duration / steps
        for index in range(steps):
            t = index * step
            # Trough at t=0: mid - A*cos(2*pi*t/period).
            rate = mid - amplitude * math.cos(2.0 * math.pi * t / period)
            phases.append(Phase(t, rate, theta=theta, hotspot=hotspot, label=f"diurnal-{index}"))
        return cls(phases, duration)

    @classmethod
    def flash_crowd(
        cls,
        base_rate: float,
        spike_rate: float,
        *,
        at: float,
        spike_duration: float,
        duration: float,
        theta: float = 0.99,
        spike_theta: float = 1.2,
        hotspot: float = 0.0,
        spike_hotspot: Optional[float] = None,
    ) -> "PhaseSchedule":
        """Steady traffic with one burst: higher rate *and* sharper skew.

        A flash crowd is not just more traffic -- it is everyone asking for
        the same thing, so the spike phase raises the Zipf skew and can move
        the hotspot onto the crowded key range.
        """
        if not 0.0 < at < duration:
            raise WorkloadError("the spike must start inside the schedule")
        if at + spike_duration >= duration:
            raise WorkloadError("the spike must end before the schedule does")
        spot = hotspot if spike_hotspot is None else spike_hotspot
        return cls(
            [
                Phase(0.0, base_rate, theta=theta, hotspot=hotspot, label="steady"),
                Phase(at, spike_rate, theta=spike_theta, hotspot=spot, label="flash-crowd"),
                Phase(at + spike_duration, base_rate, theta=theta, hotspot=hotspot, label="recovery"),
            ],
            duration,
        )

    @classmethod
    def hotspot_migration(
        cls,
        rate: float,
        duration: float,
        *,
        positions: Sequence[float],
        theta: float = 1.1,
    ) -> "PhaseSchedule":
        """Constant load whose hot key range hops across ``positions``.

        Each position holds for an equal share of the duration; successive
        phases move the contiguous hot range, stressing re-partitioning the
        way real popularity shifts do.
        """
        if not positions:
            raise WorkloadError("hotspot migration needs at least one position")
        dwell = duration / len(positions)
        phases = [
            Phase(index * dwell, rate, theta=theta, hotspot=position, label=f"hotspot-{index}")
            for index, position in enumerate(positions)
        ]
        return cls(phases, duration)


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------
class OpenLoopSampler:
    """Deterministic arrival sampling over a :class:`PhaseSchedule`.

    One sampler stands in for the whole user population: arrival gaps are
    exponential at the phase's aggregate rate (superposition of independent
    Poisson users), and each arrival draws a user rank and a key rank from
    Zipf distributions.  Key ranks map to contiguous keys anchored at the
    phase's hotspot, so skew lands on a key *range* (what range-partitioned
    stores actually feel).
    """

    def __init__(
        self,
        schedule: PhaseSchedule,
        *,
        key_space: int,
        users: int = 1_000_000,
        seed: int = 0,
        op: str = "update",
        size_bytes: int = 512,
        user_theta: float = 0.99,
    ) -> None:
        if key_space <= 0:
            raise WorkloadError("key_space must be positive")
        if users <= 0:
            raise WorkloadError("the user population must be positive")
        self.schedule = schedule
        self.key_space = key_space
        self.users = users
        self.seed = seed
        self.op = op
        self.size_bytes = size_bytes
        self._user_chooser = ZipfianChooser(users, theta=user_theta)
        # One chooser per distinct key skew; building the zeta tables is
        # O(key_space), so phases sharing a theta share the chooser.
        self._key_choosers: Dict[float, ZipfianChooser] = {}

    def _key_chooser(self, theta: float) -> ZipfianChooser:
        chooser = self._key_choosers.get(theta)
        if chooser is None:
            chooser = ZipfianChooser(self.key_space, theta=theta)
            self._key_choosers[theta] = chooser
        return chooser

    def meta(self) -> Dict[str, Any]:
        return {
            "key_space": self.key_space,
            "users": self.users,
            "seed": self.seed,
            "op": self.op,
            "size_bytes": self.size_bytes,
            "schedule": self.schedule.describe(),
            "duration": self.schedule.duration,
        }

    def events(self) -> Iterator[ArrivalEvent]:
        """The arrival stream, in time order, deterministic in the seed."""
        rng = random.Random(self.seed)
        schedule = self.schedule
        t = 0.0
        while True:
            phase = schedule.phase_at(t)
            boundary = schedule.next_boundary(t)
            if phase.rate <= 0.0:
                if boundary >= schedule.duration:
                    return
                t = boundary
                continue
            t += rng.expovariate(phase.rate)
            if t >= boundary:
                # The gap crossed into the next phase; memorylessness makes
                # restarting the draw at the boundary exact.
                if boundary >= schedule.duration:
                    return
                t = boundary
                continue
            rank = self._key_chooser(phase.theta).next_index(rng) % self.key_space
            key = (int(phase.hotspot * self.key_space) + rank) % self.key_space
            user = self._user_chooser.next_index(rng) % self.users
            yield ArrivalEvent(
                time=t, user=user, key=key, op=self.op, size_bytes=self.size_bytes
            )

    def record(self) -> WorkloadTrace:
        """Materialize the whole arrival stream as a replayable trace."""
        return WorkloadTrace(list(self.events()), self.meta())


# ----------------------------------------------------------------------
# targets: what an arrival becomes, and how it is sent
# ----------------------------------------------------------------------
class ServiceTarget:
    """Adapts a service deployment to the open-loop engine.

    ``request_for`` maps an :class:`ArrivalEvent` to the service's
    :class:`~repro.smr.client.Request`; ``frontends`` maps multicast groups
    to proposer front-end process names.  ``refresh`` (optional) re-reads
    the frontend map -- the generator calls it when routing misses a group,
    which is exactly what happens mid-re-partitioning when new partitions
    appear.
    """

    def __init__(
        self,
        request_for: Callable[[ArrivalEvent], Request],
        frontends: Dict[Any, str],
        refresh: Optional[Callable[[], Dict[Any, str]]] = None,
    ) -> None:
        self.request_for = request_for
        self.frontends = dict(frontends)
        self.refresh = refresh

    def send(self, client: RequestClient, request: Request, started_at: float, context: Any) -> None:
        """Hand ``request`` to the service: a command to the group's front-end."""
        client.submit(request, started_at, context)


class GroupTarget(ServiceTarget):
    """Raw values multicast to one group, with no service on top.

    ``submit`` is :meth:`repro.api.AtomicMulticast.submit`: the future it
    returns resolves at the group's witness learner, and that is the
    completion.  A failed or cancelled future leaves the arrival outstanding.
    """

    def __init__(self, submit: Callable[..., Any], group: Any) -> None:
        super().__init__(self._request_for, frontends={})
        self._submit = submit
        self._group = group
        self._index = itertools.count()

    def _request_for(self, event: ArrivalEvent) -> Request:
        payload = f"wl-{next(self._index)}-u{event.user}-k{event.key}"
        return Request(payload, event.size_bytes, self._group)

    def send(self, client: RequestClient, request: Request, started_at: float, context: Any) -> None:
        future = self._submit(request.group, request.operation, size_bytes=request.size_bytes)
        client.track(future, request, started_at, context)
        future.add_done_callback(partial(self._delivered, client))

    @staticmethod
    def _delivered(client: RequestClient, future) -> None:
        # The witness resolves the future on its own node; completing on the
        # client's clock reads the completion instant there.
        if not future.cancelled() and future.exception() is None:
            client.world.sim.post(client.finish, future)


# ----------------------------------------------------------------------
# the generator and its manager
# ----------------------------------------------------------------------
@dataclass
class WorkloadEntry:
    """One request's lifecycle as observed by the load generator."""

    issued_at: float
    user: int
    key: int
    op: str
    size_bytes: int
    completed_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        """Seconds from *intended* arrival to completion (no omission)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


class OpenLoopLoadGenerator(RequestClient):
    """Fires requests at sampled arrival instants; never blocks.

    The open-loop pacing over :class:`~repro.smr.client.RequestClient`:
    unlike :class:`~repro.smr.client.ClosedLoopClient`, completions do not
    gate the next request: when the system saturates, outstanding requests
    pile up and the latency distribution shows it -- which is the point of
    open-loop measurement.  Latency is measured from the sampled (intended)
    arrival instant, so queueing ahead of submission is counted too.

    A process like any other: place it with ``cluster.runtime_of(name)`` (on
    the live backend it is a node with its own endpoint).  It stays silent
    until :meth:`begin` runs on its clock, which is what
    :meth:`WorkloadManager.start` arranges.
    """

    def __init__(
        self,
        world,
        name: str,
        target: ServiceTarget,
        events: Iterable[ArrivalEvent],
        *,
        site: Optional[str] = None,
        series: str = "openloop",
        recorder: Optional[WorkloadTrace] = None,
    ) -> None:
        super().__init__(
            world, name, target.frontends, site=site, series=series, refresh=target.refresh
        )
        self.target = target
        self.recorder = recorder
        self.entries: List[WorkloadEntry] = []
        self._events = iter(events)
        self._origin: Optional[float] = None
        self._active = False
        self._exhausted = False

    # -- lifecycle -------------------------------------------------------
    def begin(self) -> None:
        """Anchor the workload clock at the current instant and start firing (once)."""
        if self._origin is None:
            self._origin = self.now
            self._active = True
            self._schedule_next()

    def halt(self) -> None:
        """Stop firing, for good; what is outstanding may still complete."""
        self._active = False

    @property
    def workload_now(self) -> float:
        """Seconds of workload time elapsed (0 until started)."""
        if self._origin is None:
            return 0.0
        return self.now - self._origin

    @property
    def spent(self) -> bool:
        """True once nothing more will be submitted: stream exhausted, halted or crashed."""
        return self._exhausted or (self._origin is not None and not (self._active and self.alive))

    # -- arrival firing --------------------------------------------------
    def _schedule_next(self) -> None:
        event = next(self._events, None)
        if event is None:
            self._exhausted = True
            return
        # A zero-delay timer (not a direct call) keeps past-due arrivals
        # iterative and preserves exact simulated firing instants.
        self.set_timer(max(0.0, self._origin + event.time - self.now), self._fire, event)

    def _fire(self, event: ArrivalEvent) -> None:
        if not self._active:
            return
        request = self.target.request_for(event)
        entry = WorkloadEntry(
            issued_at=event.time,
            user=event.user,
            key=event.key,
            op=event.op,
            size_bytes=request.size_bytes,
        )
        if self.recorder is not None:
            self.recorder.append(event)
        self.target.send(self, request, self._origin + event.time, entry)
        self._schedule_next()

    # -- completions -----------------------------------------------------
    def on_complete(self, entry: WorkloadEntry) -> None:
        entry.completed_at = self.workload_now
        self.entries.append(entry)


class WorkloadManager:
    """Lifecycle of one open-loop generator, on either backend.

    The shape of a constantly-running workload driver (after the SREGym
    workload base): ``start`` / ``stop`` bracket generation, ``collect`` runs
    until enough completions have been observed, ``drain`` until the stream
    is spent, ``recent_entries`` exposes a sliding window for dashboards and
    invariant checks.

    ``driver`` is whatever advances the generator's cluster and tells its
    time -- ``now`` and ``run_for(seconds)``: a :class:`~repro.sim.world.World`
    (virtual time) or an :class:`~repro.api.AtomicMulticast` (virtual time, or
    a wall-clock sleep while the live nodes run on their own thread).  Waiting
    ends when nothing more can complete -- the stream is spent (or stopped)
    with nothing outstanding -- or ``timeout`` seconds of cluster time after
    the call, whichever comes first.
    """

    #: Cluster seconds one wait advances between checks.
    step = 0.05
    #: Cluster seconds ``collect`` waits before giving up.
    timeout = 60.0

    def __init__(self, driver, generator: OpenLoopLoadGenerator) -> None:
        self.driver = driver
        self.generator = generator

    def start(self) -> None:
        """Start generating arrivals, anchored at the cluster's current instant (once)."""
        self.generator.world.sim.post(self.generator.begin)

    def stop(self) -> None:
        """Stop generating arrivals (in-flight requests may still complete)."""
        self.generator.halt()

    def _wait(self, done: Callable[[], bool], timeout: float) -> bool:
        """Advance the cluster until ``done()``; False once it cannot come true in time."""
        self.start()
        generator = self.generator
        deadline = self.driver.now + timeout
        while not done():
            if (generator.spent and not generator.outstanding) or self.driver.now >= deadline:
                return False
            self.driver.run_for(self.step)
        return True

    def collect(self, number: int = 100, start_time: Optional[float] = None) -> List[WorkloadEntry]:
        """Run until at least ``number`` completions at/after ``start_time``.

        ``start_time`` (workload seconds) defaults to the current workload
        clock.  Returns the matching entries; raises
        :class:`~repro.errors.WorkloadError` if the arrival stream ends, or
        ``timeout`` passes, before enough completions arrive.
        """
        if start_time is None:
            start_time = self.generator.workload_now
        if not self._wait(lambda: len(self._completed_since(start_time)) >= number, self.timeout):
            raise WorkloadError(
                f"only {len(self._completed_since(start_time))}/{number} completions collected "
                f"({self.generator.outstanding} outstanding)"
            )
        return self._completed_since(start_time)[:number]

    def drain(self, timeout: float = 60.0) -> int:
        """Run until every arrival has been submitted *and* completed.

        Returns the completion count (equal to the event count unless the
        run was stopped early, a submission was lost or ``timeout`` passed).
        """
        self._wait(lambda: False, timeout)
        return self.generator.completed

    def recent_entries(self, duration: float = 30.0) -> List[WorkloadEntry]:
        """Entries completed within the last ``duration`` seconds."""
        return self._completed_since(self.generator.workload_now - duration)

    def _completed_since(self, start_time: float) -> List[WorkloadEntry]:
        return [e for e in self.generator.entries if e.completed_at >= start_time]

    # -- views on the generator -------------------------------------------
    @property
    def entries(self) -> List[WorkloadEntry]:
        return self.generator.entries

    @property
    def issued(self) -> int:
        return self.generator.issued

    @property
    def trace(self) -> Optional[WorkloadTrace]:
        """The submitted stream, when the generator records it."""
        return self.generator.recorder

    def latencies(self) -> List[float]:
        return [e.latency for e in self.generator.entries]
