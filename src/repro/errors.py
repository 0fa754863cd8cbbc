"""Exception hierarchy for the reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "NetworkError",
    "ProcessCrashedError",
    "ConfigurationError",
    "CoordinationError",
    "ConsensusError",
    "MulticastError",
    "RecoveryError",
    "StorageError",
    "ServiceError",
    "PartitioningError",
    "WorkloadError",
    "CodecError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling in the past)."""


class NetworkError(ReproError):
    """A message could not be routed (unknown destination, no link, ...)."""


class ProcessCrashedError(ReproError):
    """An operation was attempted on a crashed process."""


class ConfigurationError(ReproError):
    """An experiment or protocol configuration is inconsistent."""


class CoordinationError(ReproError):
    """The coordination service (Zookeeper substitute) rejected a request."""


class ConsensusError(ReproError):
    """A Paxos / Ring Paxos invariant would be violated."""


class MulticastError(ReproError):
    """Atomic multicast misuse (unknown group, delivery before subscription, ...)."""


class RecoveryError(ReproError):
    """Checkpointing, trimming or replica recovery failed."""


class StorageError(ReproError):
    """Stable-storage model failure (e.g. reading a trimmed instance)."""


class ServiceError(ReproError):
    """MRP-Store or dLog rejected a client request."""


class PartitioningError(ReproError):
    """A key or range could not be mapped to a partition."""


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""


class CodecError(ReproError):
    """Bytes that are not a valid wire encoding, or a value that has none
    (:mod:`repro.runtime.codec`): unknown tags, version mismatches, a batch
    body that does not hold its values."""
