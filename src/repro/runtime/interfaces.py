"""The narrow interfaces the protocol stack needs from a runtime.

These protocols were extracted from the call surface the protocol packages
actually exercise, so the simulator classes satisfy them *structurally* --
:class:`~repro.sim.engine.Simulator` is a :class:`Clock`,
:class:`~repro.sim.network.Network` is a :class:`Transport`,
:class:`~repro.sim.disk.Disk` is a :class:`StableStore` and
:class:`~repro.sim.world.World` is a :class:`Runtime`.  The hot paths keep
calling concrete methods directly (duck typing costs nothing per call); the
protocols exist so that a second backend -- :mod:`repro.runtime.live` -- can
slot in underneath the unchanged protocol stack, and so the dependency
direction is explicit: protocol code imports *this* module, never a backend.

Two deliberately exposed conventions are part of the contract:

* ``Clock`` implementations expose the calendar-queue attributes ``_now``,
  ``_queue`` and ``_seq``: the PR-4 fast paths (``RingHost.after_cpu``,
  ``AcceptorStorage._persist``) push ``(time, seq, callback, args)`` entries
  straight onto the heap, and both backends share that representation (the
  live clock pumps the same heap against the wall clock).
* ``Transport.send`` guarantees FIFO delivery per ordered ``(src, dst)``
  pair, matching TCP -- the ring protocol relies on it.
"""

from __future__ import annotations

import enum
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

__all__ = [
    "StorageMode",
    "CancelHandle",
    "Clock",
    "Transport",
    "StableStore",
    "Runtime",
    "Cluster",
]


class StorageMode(str, enum.Enum):
    """The five acceptor storage modes evaluated in the paper.

    Lives in the runtime layer (not the simulator) because it is
    *configuration*: both backends map a mode to their own device -- the
    simulator to a timing-model :class:`~repro.sim.disk.Disk`, the live
    backend to a real append log (or nothing for ``MEMORY``).
    """

    MEMORY = "memory"
    ASYNC_HDD = "async-hdd"
    ASYNC_SSD = "async-ssd"
    SYNC_HDD = "sync-hdd"
    SYNC_SSD = "sync-ssd"

    @property
    def synchronous(self) -> bool:
        return self in (StorageMode.SYNC_HDD, StorageMode.SYNC_SSD)

    @property
    def durable(self) -> bool:
        return self is not StorageMode.MEMORY

    @property
    def label(self) -> str:
        return {
            StorageMode.MEMORY: "In Memory",
            StorageMode.ASYNC_HDD: "Async Disk",
            StorageMode.ASYNC_SSD: "Async Disk (SSD)",
            StorageMode.SYNC_HDD: "Sync Disk",
            StorageMode.SYNC_SSD: "Sync Disk (SSD)",
        }[self]


@runtime_checkable
class CancelHandle(Protocol):
    """Handle for a scheduled callback that may be cancelled (idempotent)."""

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """Time source and scheduler.

    ``call_at`` / ``call_later`` are the fire-and-forget fast paths (no
    cancellation handle); ``schedule`` / ``schedule_at`` return a
    :class:`CancelHandle` for timers; ``post`` runs a callback as soon as
    possible and is the one entry point for callers that are not themselves
    inside an event callback (on the live backend: another thread).  The
    clock owns the calendar-queue attributes documented in the module
    docstring.

    ``at_turn_end`` runs a callback once the events of the current *turn*
    have run: on the live clock a turn is one pump burst (every event already
    due when the pump woke), so work that arrived together can be handled
    together; on the simulator every event is its own turn
    (``turn_per_event``) and the callback runs at once.
    """

    #: True when every event is its own turn, so ``at_turn_end`` runs its
    #: callback at once and nothing can accumulate within a turn.
    turn_per_event: bool

    @property
    def now(self) -> float: ...

    def at_turn_end(self, callback: Callable[[], Any]) -> None: ...

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None: ...

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> None: ...

    def post(self, callback: Callable[..., Any], *args: Any) -> None: ...

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> CancelHandle: ...

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> CancelHandle: ...


@runtime_checkable
class Transport(Protocol):
    """FIFO-per-channel message delivery between named processes.

    ``size_bytes`` drives the backend's cost model (sim: NIC serialization
    and propagation; live: nothing -- the real network charges for itself).
    """

    def attach(self, process: Any, site: str) -> None: ...

    def detach(self, name: str) -> None: ...

    def send(self, src: str, dst: str, payload: Any, size_bytes: int) -> None: ...

    def link_faulted(self, src: str, dst: str) -> bool: ...


@runtime_checkable
class StableStore(Protocol):
    """The sync/async durable-write surface behind :mod:`repro.paxos.storage`.

    ``write``'s callback signals durability: it runs once the write is on
    stable storage (the simulator's disk model: its completion time; the
    live log: after the turn-end fsync that covers it).  ``write`` returns
    the time of the append on the live log and the durable completion time
    on the simulator.  ``write_async`` returns the time at which the
    *caller* may proceed (write-back semantics).  Both invoke
    ``callback(*callback_args)`` through the clock, never inline.
    """

    def write(
        self,
        nbytes: int,
        callback: Optional[Callable[..., None]] = None,
        callback_args: tuple = (),
    ) -> float: ...

    def write_async(
        self,
        nbytes: int,
        callback: Optional[Callable[..., None]] = None,
        callback_args: tuple = (),
    ) -> float: ...

    def read(self, nbytes: int, callback: Optional[Callable[[], None]] = None) -> float: ...


@runtime_checkable
class Runtime(Protocol):
    """The facade a deployment hands to every process.

    Bundles the clock (``.sim`` -- the attribute keeps its historical name,
    it is the one piece of wiring every hot path already binds), the
    transport (``.network``), the metric monitor, deterministic random
    streams and the trace buffer, plus the process registry and the
    spawn/crash hooks the failure machinery uses.

    Runtimes may additionally carry an ``obs`` attribute -- the
    :class:`repro.obs.Observability` bundle (causal tracer + metrics
    registry).  It is deliberately not required here: legacy runtimes get a
    disabled default through :func:`repro.obs.obs_of`.
    """

    # Backends expose their Clock as `.sim` and Transport as `.network`.
    sim: Any
    network: Any
    monitor: Any
    rng: Any
    trace: Any
    default_site: str
    #: CPU cost model of the processes this runtime hosts (``None`` = the
    #: :class:`~repro.runtime.cpu.CPUConfig` defaults; the live backend
    #: charges nothing, the real CPU charges for itself).
    cpu_config: Any

    @property
    def now(self) -> float: ...

    # -- process registry / spawn hooks ---------------------------------
    def register(self, process: Any, site: str) -> None: ...

    def process(self, name: str) -> Any: ...

    def get_process(self, name: str) -> Optional[Any]: ...

    def has_process(self, name: str) -> bool: ...

    def processes(self) -> List[Any]: ...

    def start(self) -> None: ...

    @property
    def started(self) -> bool: ...

    # -- storage factory -------------------------------------------------
    def new_store(self, mode: StorageMode) -> Optional[Any]: ...


@runtime_checkable
class Cluster(Protocol):
    """What a deployment or service builder builds on: named nodes placed on runtimes.

    The simulator's :class:`~repro.sim.world.World` hosts every node itself
    and answers with itself; the live cluster
    (:class:`~repro.runtime.live.LiveDeployment`) answers with that node's
    own :class:`~repro.runtime.live.LiveNodeRuntime`.  A builder places every
    process it creates -- acceptor, replica, client -- on
    ``runtime_of(process_name)``: a process's name **is** the name of the node
    hosting it (the live peer table is keyed by it).  All a service reads from
    its cluster besides is the one ``monitor`` its nodes record into, and ``now``.
    """

    monitor: Any

    @property
    def now(self) -> float: ...

    def runtime_of(self, name: str) -> Runtime: ...
