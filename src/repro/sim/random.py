"""Deterministic random-number streams.

Experiments need several independent sources of randomness (key selection,
value sizes, client think times, network jitter, ...).  Using one shared
``random.Random`` would make results depend on the order in which components
draw numbers, which changes whenever code is refactored.  Instead every
component asks :class:`RandomStreams` for a *named* stream; the stream's seed
is derived deterministically from the experiment seed and the name, so adding
a new consumer never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of named, independently seeded ``random.Random`` instances."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The experiment-level seed all streams are derived from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same ``(seed, name)`` pair always yields the same sequence.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
