"""The simulator re-cast as the first runtime backend.

The runtime protocols were extracted from the call surface the protocol
stack already exercised against the simulator, so the simulator classes
satisfy them structurally -- no per-call indirection is added in front of
the PR-4 fast paths.  This module makes the backend relationship explicit:

* :func:`as_runtime` validates that a world object really provides the
  :class:`~repro.runtime.interfaces.Runtime` surface (used by the API facade
  and by tests),
* :class:`SimRuntime` is the adapter bundle over ``World`` adding the
  spawn/crash hooks of the runtime facade in one place, for callers that
  want to drive failures without reaching into simulator internals.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.runtime.interfaces import Clock, Runtime, StorageMode, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.actor import Process
    from repro.sim.world import World

__all__ = ["SimRuntime", "as_runtime"]

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


class SimRuntime:
    """Adapter bundling a :class:`~repro.sim.world.World` as a runtime backend.

    ``World`` already satisfies the :class:`Runtime` protocol; this wrapper
    adds the explicit spawn/crash hooks used by chaos tooling and the API
    facade, delegating everything else.
    """

    def __init__(self, world: "World") -> None:
        self.world = as_runtime(world)

    # -- delegated runtime surface ---------------------------------------
    def __getattr__(self, name: str):
        return getattr(self.world, name)

    # -- failure hooks ----------------------------------------------------
    def crash(self, name: str) -> None:
        """Crash the named process (volatile state is lost)."""
        self.world.process(name).crash()

    def recover(self, name: str) -> None:
        """Restart a crashed process (recovery machinery takes over)."""
        self.world.process(name).recover()

    def spawn(self, process_cls, name: str, *args, site: Optional[str] = None, **kwargs) -> "Process":
        """Create a process on the bundled world (late joiners start immediately)."""
        return process_cls(self.world, name, *args, site=site, **kwargs) if site is not None else process_cls(self.world, name, *args, **kwargs)

    def new_store(self, mode: StorageMode):
        return self.world.new_store(mode)
