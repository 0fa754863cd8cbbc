"""The host process for one or more ring roles.

A :class:`RingHost` corresponds to one OS process (one JVM in the paper's
implementation).  It owns a CPU, optionally one or more disks, and any number
of :class:`~repro.ringpaxos.role.RingRole` instances -- one per ring it
participates in.  Incoming protocol messages are routed to the right role by
their ``group`` field; everything else is handed to :meth:`on_other_message`
for subclasses (replicas, clients, the Multi-Ring learner) to handle.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, List, Optional

from repro.config import RingConfig
from repro.coordination.registry import Registry
from repro.errors import MulticastError, ProcessCrashedError
from repro.obs import obs_of
from repro.ringpaxos.messages import (
    Decision,
    Phase2,
    Proposal,
    RetransmitReply,
    RetransmitRequest,
)
from repro.ringpaxos.role import REPAIR_TOKEN, RingRole
from repro.runtime.actor import Process
from repro.runtime.cpu import CPU, CPUConfig
from repro.runtime.interfaces import Runtime, StableStore
from repro.types import GroupId, InstanceId, Value

__all__ = ["RingHost"]

#: Message types handled by the per-ring roles; everything else goes to the
#: host-level handlers (client requests, recovery traffic, ...).
_RING_MESSAGE_TYPES = (Proposal, Phase2, Decision, RetransmitRequest)


class RingHost(Process):
    """A process hosting ring roles for one or more multicast groups."""

    def __init__(
        self,
        world: Runtime,
        registry: Registry,
        name: str,
        site: Optional[str] = None,
        cpu_config: Optional[CPUConfig] = None,
    ) -> None:
        super().__init__(world, name, site)
        self.registry = registry
        registry.set_up(name, True)
        self.cpu = CPU(world.sim, cpu_config)
        # Hot-path bindings: both are per-world singletons.
        self._sim = world.sim
        self._network = world.network
        # Observability: the tracer is bound directly (its ``enabled`` check
        # guards every tracing touch point), the metrics registry only sees
        # this host through a pull-collector read at snapshot time.
        self.obs = obs_of(world)
        self._tracer = self.obs.tracer
        self.obs.metrics.add_collector(self._metric_samples)
        self.roles: Dict[GroupId, RingRole] = {}
        self._handlers: Dict[type, List[Callable[[str, object], None]]] = {}
        self._repair_reply_handler_registered = False
        #: Batch bodies that arrived framed but did not decode (message dropped).
        self.bodies_rejected = 0

    # ------------------------------------------------------------------
    # ring membership
    # ------------------------------------------------------------------
    def join_ring(
        self,
        group: GroupId,
        ring_config: Optional[RingConfig] = None,
        disk: Optional[StableStore] = None,
    ) -> RingRole:
        """Take up this process's roles in the ring registered for ``group``."""
        if group in self.roles:
            return self.roles[group]
        descriptor = self.registry.ring(group)
        role = RingRole(self, descriptor, ring_config, disk=disk)
        self.roles[group] = role
        if role.config.repair_interval > 0:
            if not self._repair_reply_handler_registered:
                self._repair_reply_handler_registered = True
                self.register_handler(RetransmitReply, self._on_repair_retransmit_reply)
            if self.world.started and self.alive:
                role.start_repair()
        return role

    def role(self, group: GroupId) -> RingRole:
        try:
            return self.roles[group]
        except KeyError:
            raise MulticastError(f"{self.name} is not a member of ring {group!r}") from None

    def groups(self) -> List[GroupId]:
        return list(self.roles)

    # ------------------------------------------------------------------
    # proposing / delivering
    # ------------------------------------------------------------------
    def propose(self, group: GroupId, payload, size_bytes: int) -> Value:
        """Create a value from ``payload`` and atomically broadcast it on ``group``."""
        value = Value.create(
            payload, size_bytes, proposer=self.name, created_at=self._sim._now
        )
        tracer = self._tracer
        if tracer.enabled:
            value.trace = tracer.sample(value.proposer, value.uid)
        self.role(group).propose(value)
        return value

    def propose_value(self, group: GroupId, value: Value) -> Value:
        """Broadcast an already-created value (used by batching proxies)."""
        tracer = self._tracer
        if tracer.enabled and value.trace is None and not value.is_skip:
            value.trace = tracer.sample(value.proposer, value.uid)
        self.role(group).propose(value)
        return value

    def flush_batches(self) -> None:
        """Flush the pending batch of every ring this host coordinates or proposes to.

        Used at the end of experiments so the tail of the workload is not
        left waiting for a flush timeout.
        """
        for role in self.roles.values():
            if role.batcher is not None:
                role.batcher.flush()

    def notify_decision(
        self, group: GroupId, instance: InstanceId, value: Value, count: int = 1
    ) -> None:
        """Called by a learner role, in instance order, when ``value`` is
        released for ``count`` instances from ``instance``; a subclass that
        delivers (the Multi-Ring learner) overrides it."""

    # ------------------------------------------------------------------
    # infrastructure used by the roles
    # ------------------------------------------------------------------
    def after_cpu(self, nbytes: int, action: Callable[..., None], *args, messages: int = 1) -> None:
        """Charge the host CPU for handling a message, then run ``action(*args)``.

        The action is scheduled *directly* (no crash-guard wrapper), so every
        action passed here MUST itself tolerate firing after a crash -- all
        ring-role handlers start with a ``host.alive`` check.  The real
        process would have lost the queued work on a crash anyway.  Passing
        the action's arguments through instead of closing over them keeps
        this per-message path allocation-free.
        """
        # CPU.charge inlined (the accounting below matches it bit for bit):
        # this runs once per protocol message on every host it crosses.
        cpu = self.cpu
        config = cpu.config
        if nbytes:
            work = (
                messages * config.per_message_cost + nbytes * config.per_byte_cost
            ) * config.overhead_factor
        else:
            # nbytes * per_byte_cost == 0.0 exactly, so dropping the term
            # leaves the float result unchanged.
            work = messages * config.per_message_cost * config.overhead_factor
        sim = self._sim
        now = sim._now
        done = cpu._busy_until
        if now > done:
            done = now
        done += work
        cpu._busy_until = done
        cpu._busy_time += work
        cpu.operations += 1
        if done <= now:
            if self.alive:
                action(*args)
        else:
            # Inlined Simulator.call_at (done > now is guaranteed above).
            heappush(sim._queue, (done, next(sim._seq), action, args))

    def ring_send(self, dest: str, msg) -> None:
        """Send a protocol message to the next ring member.

        Inlines :meth:`~repro.runtime.actor.Process.send`: this runs once per
        ring hop for every protocol message.
        """
        if not self.alive:
            raise ProcessCrashedError(f"{self.name} is crashed and cannot send")
        self.messages_sent += 1
        self._network.send(self.name, dest, msg, msg.size_bytes)

    def send_direct(self, dest: str, msg) -> None:
        """Send a message outside the ring overlay (replies, recovery traffic)."""
        self.send(dest, msg, size_bytes=getattr(msg, "size_bytes", 128))

    # ------------------------------------------------------------------
    # message routing
    # ------------------------------------------------------------------
    def register_handler(self, message_type: type, handler: Callable[[str, object], None]) -> None:
        """Register a handler for a non-ring message type (recovery, client traffic, ...)."""
        self._handlers.setdefault(message_type, []).append(handler)

    def on_message(self, sender: str, payload) -> None:
        if isinstance(payload, _RING_MESSAGE_TYPES):
            role = self.roles.get(payload.group)
            if role is not None:
                # Dispatch straight off the role's exact-type handler table
                # (skipping RingRole.on_message, one frame per message).
                handler = role._dispatch.get(payload.__class__)
                if handler is not None:
                    handler(payload)
            return
        handlers = self._handlers.get(type(payload))
        if handlers:
            for handler in list(handlers):
                handler(sender, payload)
            return
        self.on_other_message(sender, payload)

    def on_other_message(self, sender: str, payload) -> None:
        """Hook for subclasses: non-ring messages without a registered handler."""

    def _on_repair_retransmit_reply(self, sender: str, msg: RetransmitReply) -> None:
        """Route gap-repair retransmissions to the owning ring role.

        Replica-recovery replies (token 0) are left to the recovery manager's
        own handler.
        """
        if msg.token != REPAIR_TOKEN:
            return
        role = self.roles.get(msg.group)
        if role is not None:
            role.on_repair_reply(msg)

    # ------------------------------------------------------------------
    # lifecycle / failure hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        super().on_start()
        for role in self.roles.values():
            role.start_repair()

    def crash(self) -> None:
        """Crash, marked down in the membership view before any hook runs."""
        self.registry.set_up(self.name, False)
        super().crash()

    def recover(self) -> None:
        """Restart, marked up in the membership view before any hook runs."""
        self.registry.set_up(self.name, True)
        super().recover()

    def on_crash(self) -> None:
        for role in self.roles.values():
            role.on_host_crash()

    def on_recover(self) -> None:
        super().on_recover()
        # Crashing cancelled every timer; re-arm instance repair where enabled.
        for role in self.roles.values():
            role.start_repair()

    def cpu_utilization_percent(self, start: float, end: float) -> float:
        """Convenience for the Figure 3 coordinator-CPU metric."""
        return self.cpu.utilization_percent(start, end)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _metric_samples(self):
        """Pull-collector for the metrics registry (snapshot time only).

        Reads the plain counters the hot paths already maintain; nothing here
        runs during protocol execution.  Subclasses extend the sample list.
        """
        node = self.name
        samples = [
            ("mrp_messages_sent_total", {"node": node}, self.messages_sent),
            ("mrp_cpu_busy_seconds_total", {"node": node}, self.cpu._busy_time),
            ("mrp_batch_bodies_rejected_total", {"node": node}, self.bodies_rejected),
        ]
        for group, role in self.roles.items():
            labels = {"node": node, "group": group}
            samples.append(("mrp_instances_started_total", labels, role.next_instance))
            samples.append(("mrp_values_proposed_total", labels, role.values_proposed))
            samples.append(("mrp_skips_proposed_total", labels, role.skips_proposed))
            samples.append(("mrp_decisions_learned_total", labels, role.decisions_learned))
            samples.append(("mrp_skips_learned_total", labels, role.skips_learned))
            samples.append(("mrp_repairs_proposed_total", labels, role.repairs_proposed))
            samples.append(("mrp_repair_gap_requests_total", labels, role.gap_requests))
            samples.append(
                ("mrp_repair_instances_recovered_total", labels, role.gap_instances_recovered)
            )
            samples.append(("mrp_window_stalls_total", labels, role.window_stalls))
            samples.append(("mrp_inflight_instances", labels, role.inflight_instances))
            batcher = role.batcher
            if batcher is not None:
                # A value spliced from a proposer's batch is offered at both
                # stages: sum one stage, not both.
                staged = {**labels, "stage": batcher.stage}
                samples.append(("mrp_batch_values_offered_total", staged, batcher.values_offered))
                samples.append(("mrp_batches_flushed_total", staged, batcher.batches_flushed))
        return samples
