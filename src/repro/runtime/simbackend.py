"""The simulator re-cast as the first runtime backend.

The runtime protocols were extracted from the call surface the protocol
stack already exercised against the simulator, so the simulator classes
satisfy them structurally -- no per-call indirection is added in front of
the PR-4 fast paths.  This module makes the backend relationship explicit:
:func:`as_runtime` validates that a world object really provides the
:class:`~repro.runtime.interfaces.Runtime` surface (what a new backend is
checked with, and what the tests use).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.runtime.interfaces import Clock, Runtime, Transport

__all__ = ["as_runtime"]

#: Attributes a Runtime must expose beyond what ``isinstance`` against the
#: (non-runtime_checkable-data) protocol can verify.
_REQUIRED_ATTRS = ("sim", "network", "monitor", "rng", "trace", "default_site", "cpu_config")


def as_runtime(world: object) -> Runtime:
    """Check that ``world`` provides the :class:`Runtime` surface and return it.

    Structural: the simulator ``World`` and the live backend's node runtime
    both pass.  Raises :class:`~repro.errors.ConfigurationError` otherwise.
    """
    for attr in _REQUIRED_ATTRS:
        if not hasattr(world, attr):
            raise ConfigurationError(
                f"{type(world).__name__} is not a runtime: missing {attr!r}"
            )
    if not isinstance(getattr(world, "sim"), Clock):
        raise ConfigurationError(f"{type(world).__name__}.sim does not satisfy Clock")
    if not isinstance(getattr(world, "network"), Transport):
        raise ConfigurationError(f"{type(world).__name__}.network does not satisfy Transport")
    for method in ("register", "get_process", "has_process", "start", "new_store"):
        if not callable(getattr(world, method, None)):
            raise ConfigurationError(
                f"{type(world).__name__} is not a runtime: missing method {method!r}"
            )
    return world  # type: ignore[return-value]
