"""Configuration objects for Multi-Ring Paxos and the experiments.

The paper's Section 8.2 gives two reference configurations:

* within a datacenter: ``M = 1``, ``Δ = 5 ms``, ``λ = 9000`` messages/second,
* across datacenters: ``M = 1``, ``Δ = 20 ms``, ``λ = 2000`` messages/second.

Both are provided as constructors on :class:`MultiRingConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.runtime.cpu import CPUConfig
from repro.runtime.interfaces import StorageMode

__all__ = ["RingConfig", "MultiRingConfig", "RecoveryConfig", "BatchingConfig"]


@dataclass(frozen=True)
class BatchingConfig:
    """Batching of application commands into consensus values.

    Used in two places:

    * client-side: proposer front-ends batch small commands into packets of
      up to 32 KB before submitting them to Multi-Ring Paxos (Sections 7.2,
      8.4) -- only the byte cap and the flush delay apply there;
    * coordinator-side: when :attr:`RingConfig.batching` is enabled, the ring
      coordinator packs multiple proposed values into one Paxos instance
      (URingPaxos amortizes per-instance protocol cost this way).  The batch
      flushes when it reaches ``max_batch_values`` values or
      ``max_batch_bytes`` bytes, or when its wait ends, whichever comes
      first.  ``max_batch_delay > 0`` waits that many seconds after the
      first value entered the batch; ``max_batch_delay == 0`` waits until
      the end of the clock's turn -- no timer and no added delay: on the live
      backend the batch holds what reached the coordinator in one pump
      burst, on the simulator (one event per turn) every value goes alone.
      The ring's other proposers batch too, always per turn: what one turn
      brought leaves as one proposal, which the coordinator splices into its
      own batch.

    The defaults here (disabled, 1 ms) are what front-ends and benches build
    on; a ring's default is :attr:`RingConfig.batching`.
    """

    enabled: bool = False
    max_batch_bytes: int = 32 * 1024
    max_batch_delay: float = 1e-3
    #: Maximum number of values in one batch: one consensus instance at the
    #: coordinator, one ``Proposal`` at a proposer (ring batching only; the
    #: front-ends' command batches are capped by bytes).
    max_batch_values: int = 16

    def __post_init__(self) -> None:
        if self.max_batch_bytes <= 0:
            raise ConfigurationError("max_batch_bytes must be positive")
        if self.max_batch_delay < 0:
            raise ConfigurationError("max_batch_delay cannot be negative")
        if self.max_batch_values < 1:
            raise ConfigurationError("max_batch_values must be at least 1")

    @classmethod
    def coordinator(
        cls,
        max_batch_values: int = 16,
        max_batch_bytes: int = 32 * 1024,
        max_batch_delay: float = 0.5e-3,
    ) -> "BatchingConfig":
        """Convenience constructor for coordinator-side batching."""
        return cls(
            enabled=True,
            max_batch_bytes=max_batch_bytes,
            max_batch_delay=max_batch_delay,
            max_batch_values=max_batch_values,
        )


@dataclass(frozen=True)
class RingConfig:
    """Configuration of a single Ring Paxos instance (one multicast group)."""

    #: Storage mode of the acceptors' stable log.
    storage_mode: StorageMode = StorageMode.MEMORY
    #: Size of the acceptors' pre-allocated in-memory buffer, in slots
    #: (the paper uses 15000 slots of 32 KB).
    memory_slots: int = 15000
    #: Coordinator-side batching: pack several proposed values into one
    #: consensus instance (see :class:`BatchingConfig`).  On by default with
    #: ``max_batch_delay=0``: the coordinator packs what reached it in one
    #: turn of its clock (up to 16 values / 32 KB) and never waits for more,
    #: so a lone value is proposed at once, as the bare value.
    batching: BatchingConfig = field(
        default_factory=lambda: BatchingConfig(enabled=True, max_batch_delay=0.0)
    )
    #: CPU cost model used by ring members.
    cpu: CPUConfig = field(default_factory=CPUConfig)
    #: Pipelined instance window: how many consensus instances the
    #: coordinator keeps open (started but not yet decided) concurrently.
    #: Further starts queue until a decision closes an open instance.
    #: ``0`` disables the limit.
    pipeline_depth: int = 128
    #: Instance-repair interval in seconds; ``0`` disables repair.  When
    #: enabled, the coordinator periodically re-executes Phase 2 for
    #: instances it started whose decision it never learned (messages lost
    #: to crashes or partitions), and learners with a gap in their in-order
    #: delivery cursor fetch the missing decided instances from an acceptor.
    #: Required for rings to stay live across the chaos scenarios' injected
    #: faults; disabled by default so the fault-free benchmarks keep their
    #: exact message counts.
    repair_interval: float = 0.0
    #: Maximum instances re-proposed / re-fetched per repair tick.
    repair_batch: int = 128

    def with_batching(self, batching: BatchingConfig) -> "RingConfig":
        return replace(self, batching=batching)

    def with_pipeline_depth(self, depth: int) -> "RingConfig":
        return replace(self, pipeline_depth=depth)

    def with_storage(self, mode: StorageMode) -> "RingConfig":
        return replace(self, storage_mode=mode)


@dataclass(frozen=True)
class MultiRingConfig:
    """Global Multi-Ring Paxos parameters (Section 4)."""

    #: Number of consensus instances delivered from each ring per merge round.
    m: int = 1
    #: Interval at which coordinators evaluate rate leveling, in seconds (Δ).
    delta: float = 5e-3
    #: Maximum expected per-ring message rate, messages/second (λ).
    lam: float = 9000.0
    #: Whether rate leveling (skip proposals) is enabled at all.  Disabling it
    #: is used by the ablation benchmark.
    rate_leveling: bool = True
    #: Default per-ring configuration.
    ring: RingConfig = field(default_factory=RingConfig)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigurationError("M must be at least 1")
        if self.delta <= 0:
            raise ConfigurationError("Δ must be positive")
        if self.lam <= 0:
            raise ConfigurationError("λ must be positive")

    @classmethod
    def datacenter(cls, **overrides) -> "MultiRingConfig":
        """The paper's intra-datacenter configuration: M=1, Δ=5 ms, λ=9000."""
        config = cls(m=1, delta=5e-3, lam=9000.0)
        return replace(config, **overrides) if overrides else config

    @classmethod
    def wide_area(cls, **overrides) -> "MultiRingConfig":
        """The paper's cross-datacenter configuration: M=1, Δ=20 ms, λ=2000."""
        config = cls(m=1, delta=20e-3, lam=2000.0)
        return replace(config, **overrides) if overrides else config

    @property
    def skip_quota_per_interval(self) -> int:
        """Maximum instances expected per ring per Δ interval (λ·Δ)."""
        return max(1, int(round(self.lam * self.delta)))


@dataclass(frozen=True)
class RecoveryConfig:
    """Checkpointing, trimming and recovery parameters (Section 5)."""

    #: Interval between replica checkpoints, seconds.
    checkpoint_interval: float = 30.0
    #: Interval at which group coordinators run the trim protocol, seconds.
    trim_interval: float = 60.0
    #: Size of the trim quorum Q_T as a fraction of the partition's replicas.
    trim_quorum_fraction: float = 0.51
    #: Size of the recovery quorum Q_R as a fraction of the partition's replicas.
    recovery_quorum_fraction: float = 0.51
    #: Whether checkpoints are written synchronously to disk.
    synchronous_checkpoints: bool = True
    #: If a recovering replica is missing more than this many instances it
    #: fetches a remote checkpoint instead of replaying from the acceptors.
    max_replay_instances: int = 10000

    def __post_init__(self) -> None:
        if self.checkpoint_interval <= 0 or self.trim_interval <= 0:
            raise ConfigurationError("checkpoint and trim intervals must be positive")
        for fraction in (self.trim_quorum_fraction, self.recovery_quorum_fraction):
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError("quorum fractions must be in (0, 1]")
        if self.trim_quorum_fraction + self.recovery_quorum_fraction <= 1.0:
            raise ConfigurationError(
                "trim and recovery quorums must intersect "
                "(their fractions must sum to more than 1)"
            )

    def quorum_size(self, replicas: int, fraction: float) -> int:
        """Smallest quorum of ``replicas`` satisfying ``fraction``."""
        if replicas <= 0:
            raise ConfigurationError("a partition needs at least one replica")
        size = int(replicas * fraction)
        if size < replicas * fraction:
            size += 1
        return max(1, min(replicas, size))

    def trim_quorum_size(self, replicas: int) -> int:
        return self.quorum_size(replicas, self.trim_quorum_fraction)

    def recovery_quorum_size(self, replicas: int) -> int:
        return self.quorum_size(replicas, self.recovery_quorum_fraction)
