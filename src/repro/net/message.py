"""Protocol message envelopes.

Messages exchanged by the protocols are plain dataclasses.  The network model
needs a byte size for each one; :class:`ProtocolMessage` provides a
``size_bytes`` property combining a fixed header with the size of any carried
:class:`~repro.types.Value` payloads, and :func:`estimate_size` estimates the
wire size of arbitrary Python payloads for application-level messages.
"""

from __future__ import annotations

from typing import Any

from repro.types import Value

__all__ = ["ProtocolMessage", "estimate_size", "utf8_len", "HEADER_BYTES"]

#: Fixed per-message header: message type, ring id, instance id, ballot, CRC.
HEADER_BYTES = 48

#: Memoized UTF-8 byte lengths.  Message sizing encodes the same short,
#: endlessly repeated strings (process names, group ids) on every ring hop;
#: the cache turns that into a dict hit.  Capped so pathological workloads
#: with unbounded distinct strings cannot leak.
_UTF8_LEN_CACHE: dict = {}
_UTF8_LEN_CACHE_MAX = 65536


def utf8_len(text: str) -> int:
    """The UTF-8 encoded length of ``text``, memoized for repeated names."""
    size = _UTF8_LEN_CACHE.get(text)
    if size is None:
        size = len(text.encode("utf-8"))
        if len(_UTF8_LEN_CACHE) < _UTF8_LEN_CACHE_MAX:
            _UTF8_LEN_CACHE[text] = size
    return size


def estimate_size(payload: Any) -> int:
    """Rough wire-size estimate (bytes) of an application payload.

    The estimate only has to be *consistent*, not exact: it drives relative
    bandwidth consumption in the simulator.
    """
    if payload is None:
        return 0
    if isinstance(payload, Value):
        return payload.size_bytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return utf8_len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(estimate_size(k) + estimate_size(v) for k, v in payload.items())
    size = getattr(payload, "size_bytes", None)
    if isinstance(size, int):
        return size
    return 64  # opaque object


class ProtocolMessage:
    """Base class for protocol messages.

    Subclasses are dataclasses; ``size_bytes`` walks their fields and adds
    the sizes of any embedded values so that, for example, a Phase 2A/2B
    message carrying a 32 KB value occupies the ring links accordingly.

    Deliberately a plain class, not a dataclass: subclasses are free to be
    frozen or (for the ring hot-path messages, where the frozen
    ``object.__setattr__`` init cost is measurable per hop) mutable-but-
    treated-immutable, which dataclass inheritance rules would otherwise
    forbid mixing.  The empty ``__slots__`` keeps ``slots=True`` subclasses
    genuinely dict-free.
    """

    __slots__ = ()

    @property
    def size_bytes(self) -> int:
        # ``__dataclass_fields__`` is iterated directly instead of calling
        # :func:`dataclasses.fields`: this property runs once per ring hop
        # for every message and the tuple rebuild is measurable there.
        total = HEADER_BYTES
        for name in self.__dataclass_fields__:
            total += estimate_size(getattr(self, name))
        return total

