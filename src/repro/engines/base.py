"""The ordering-engine seam: what every atomic multicast protocol must expose.

The paper's thesis is that *atomic multicast* -- not any particular protocol
-- is the right abstraction for global systems.  Multi-Ring Paxos is one
implementation; White-Box Atomic Multicast is another; FlexCast would be a
third.  :class:`OrderingEngine` is the seam between the public
:class:`~repro.api.AtomicMulticast` facade (and the benchmarks, chaos
campaigns and conformance tests behind it) and whichever protocol actually
orders the messages.

An engine's life cycle:

1. the facade instantiates the registered engine class (no arguments),
2. :meth:`OrderingEngine.build` binds it to a runtime and a protocol
   configuration, returning the engine-specific deployment object,
3. :meth:`OrderingEngine.add_group` declares multicast groups from
   :class:`EngineSpec` descriptions (group name, members, per-member roles),
4. traffic flows through :meth:`OrderingEngine.multicast` and arrives via
   :meth:`OrderingEngine.on_deliver` callbacks as
   :class:`~repro.multiring.merge.Delivery` objects,
5. :meth:`OrderingEngine.stats`, :meth:`OrderingEngine.observe` and
   :meth:`OrderingEngine.inject` expose measurement and chaos hooks.

The contract every engine must honor (checked by the engine-conformance
suite in ``tests/test_engines.py``):

* **Total order per group** -- all learners of a group deliver the same
  sequence of values.
* **Uniform agreement across groups** -- two messages addressed to the same
  set of groups are delivered in the same relative order at every
  destination group.
* **Validity** -- a submitted value is eventually delivered at every
  destination group (absent failures).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.interfaces import StorageMode
from repro.types import GroupId, Value

__all__ = ["EngineSpec", "GroupDescriptor", "OrderingEngine", "DeliveryCallback"]

#: Signature of an application delivery callback (receives a
#: :class:`~repro.multiring.merge.Delivery`).
DeliveryCallback = Callable[[Any], None]


@dataclass
class EngineSpec:
    """Engine-agnostic declaration of one multicast group.

    Mirrors :class:`~repro.multiring.deployment.RingSpec` (the Multi-Ring
    engine maps it onto one) but carries no ring-specific vocabulary, so the
    same declaration builds a White-Box group or any future engine's unit of
    ordering.
    """

    group: GroupId
    #: All member process names (deployment order; rings use it as ring order).
    members: List[str]
    #: Voting members (defaults to all members).
    acceptors: Optional[List[str]] = None
    #: Processes allowed to submit to this group (defaults to acceptors).
    proposers: Optional[List[str]] = None
    #: Processes delivering to the application (defaults to all members).
    learners: Optional[List[str]] = None
    #: Force a specific coordinator/leader (defaults to the first acceptor).
    coordinator: Optional[str] = None
    storage_mode: StorageMode = StorageMode.MEMORY
    #: Optional member -> WAN site placement.
    sites: Optional[Dict[str, str]] = None
    #: Engine-specific options passed through verbatim (e.g. ``ring_config``
    #: for the Multi-Ring engine).
    options: Dict[str, Any] = field(default_factory=dict)

    def resolved_acceptors(self) -> List[str]:
        return list(self.acceptors) if self.acceptors is not None else list(self.members)

    def resolved_proposers(self) -> List[str]:
        if self.proposers is not None:
            return list(self.proposers)
        return self.resolved_acceptors()

    def resolved_learners(self) -> List[str]:
        return list(self.learners) if self.learners is not None else list(self.members)

    def resolved_coordinator(self) -> str:
        if self.coordinator is not None:
            return self.coordinator
        acceptors = self.resolved_acceptors()
        if not acceptors:
            raise ConfigurationError(f"group {self.group!r} has no acceptors")
        return acceptors[0]


@dataclass
class GroupDescriptor:
    """What the facade needs to know about a built group.

    The attribute names deliberately match
    :class:`~repro.coordination.registry.RingDescriptor` so the facade can
    treat ring descriptors and engine descriptors uniformly.
    """

    group: GroupId
    members: List[str]
    proposers: List[str]
    acceptors: List[str]
    learners: List[str]
    coordinator: str

    @property
    def quorum_size(self) -> int:
        return len(self.acceptors) // 2 + 1


class OrderingEngine(ABC):
    """Abstract base of every pluggable ordering engine.

    Subclasses set :attr:`name` (the registry key) and
    :attr:`supports_live` (whether the engine can run on the live asyncio/TCP
    backend; only the Multi-Ring engine does today).
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: Whether the engine runs on the live backend (real TCP).
    supports_live: bool = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def build(self, runtime, config) -> Any:
        """Bind the engine to ``runtime`` and return its deployment object.

        ``runtime`` is the :class:`~repro.runtime.interfaces.Cluster` the
        nodes are placed on: the simulated world, or the live cluster.
        Must be called exactly once, before any group is added.  The returned
        object is engine-specific (the Multi-Ring engine returns its
        :class:`~repro.multiring.deployment.Deployment`) and is exposed by the
        facade for protocol-level introspection.
        """

    @abstractmethod
    def add_group(self, spec: EngineSpec) -> GroupDescriptor:
        """Declare one multicast group; returns its descriptor."""

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    @abstractmethod
    def multicast(
        self,
        dests: Tuple[GroupId, ...],
        payload: Any,
        size_bytes: int,
        via: Optional[str] = None,
    ) -> Value:
        """Atomically multicast ``payload`` to every group in ``dests``.

        Returns the created :class:`~repro.types.Value` (its ``uid``
        identifies the message in delivery callbacks).  ``via`` forces a
        specific submitting proposer; the default round-robins over the
        first destination group's proposers.
        """

    def route_of(self, dests: Tuple[GroupId, ...]) -> GroupId:
        """The group whose proposers order a message addressed to ``dests``.

        Engines with :attr:`supports_live` implement this and
        :meth:`next_proposer`: the live facade creates the value on the
        caller's thread and hands it to that group's next proposer on the
        loop thread, instead of calling :meth:`multicast`.
        """
        raise NotImplementedError(f"engine {self.name!r} does not expose its routing")

    def next_proposer(self, group: GroupId) -> str:
        """The node the next submission to ``group`` goes through (round-robin)."""
        raise NotImplementedError(f"engine {self.name!r} does not expose its proposer choice")

    @abstractmethod
    def on_deliver(self, group: GroupId, callback: DeliveryCallback,
                   node: Optional[str] = None) -> str:
        """Register ``callback`` for ``group``'s deliveries.

        Hooks the group's *witness* (its first learner) unless ``node`` names
        another learner.  Returns the name of the hooked node.
        """

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @abstractmethod
    def groups(self) -> List[GroupId]:
        """The declared group identifiers."""

    @abstractmethod
    def descriptor(self, group: GroupId) -> GroupDescriptor:
        """The descriptor of ``group`` (raises for unknown groups)."""

    @abstractmethod
    def node(self, name: str) -> Any:
        """The engine's node object named ``name``."""

    def stats(self) -> Dict[str, Any]:
        """Engine-defined counters (deliveries, protocol-specific totals)."""
        return {}

    # ------------------------------------------------------------------
    # chaos / observability hooks
    # ------------------------------------------------------------------
    def inject(self, fault: str, *args: Any) -> None:
        """Apply a fault primitive (``"crash"``/``"recover"`` + node name).

        Engines running on the simulator get these for free through the
        process registry; richer fault DSLs (:mod:`repro.scenarios`) drive
        the runtime directly.
        """
        if fault not in ("crash", "recover"):
            raise ConfigurationError(f"unknown fault {fault!r}; expected 'crash' or 'recover'")
        (name,) = args
        process = self.node(name)
        if fault == "crash":
            process.crash()
        else:
            process.recover()

    def observe(self) -> Dict[str, Any]:
        """The engine's observability handles (tracer + metrics registry)."""
        runtime = getattr(self, "runtime", None)
        if runtime is None:
            return {}
        from repro.obs import obs_of

        bundle = obs_of(runtime)
        return {"tracer": bundle.tracer, "metrics": bundle.metrics}
