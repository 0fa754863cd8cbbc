"""Key-choice distributions used by the YCSB workloads.

The zipfian generator follows the algorithm of Gray et al. used by YCSB
("Quickly generating billion-record synthetic databases"), with the same
default skew constant of 0.99.  The *latest* distribution skews towards the
most recently inserted records.
"""

from __future__ import annotations

import math
import random
from typing import Optional

__all__ = ["UniformChooser", "ZipfianChooser", "LatestChooser"]


class UniformChooser:
    """Uniformly random record index in ``[0, count)``."""

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.count = count

    def next_index(self, rng: random.Random) -> int:
        return rng.randrange(self.count)

    def grow(self, new_count: int) -> None:
        self.count = max(self.count, new_count)


class ZipfianChooser:
    """Zipfian-distributed record index (YCSB's default request distribution)."""

    def __init__(self, count: int, theta: float = 0.99) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.count = count
        self.theta = theta
        self._recompute()

    def _recompute(self) -> None:
        self.alpha = 1.0 / (1.0 - self.theta)
        self.zetan = self._zeta(self.count, self.theta)
        self.zeta2 = self._zeta(2, self.theta)
        self.eta = (1 - (2.0 / self.count) ** (1 - self.theta)) / (1 - self.zeta2 / self.zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_index(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.count * (self.eta * u - self.eta + 1) ** self.alpha)

    def grow(self, new_count: int) -> None:
        if new_count > self.count:
            self.count = new_count
            self._recompute()


class LatestChooser:
    """Skewed towards the most recently inserted records (YCSB workload D)."""

    def __init__(self, count: int, theta: float = 0.99) -> None:
        self.count = count
        self._zipf = ZipfianChooser(count, theta)

    def next_index(self, rng: random.Random) -> int:
        offset = self._zipf.next_index(rng)
        index = self.count - 1 - offset
        return max(0, index)

    def grow(self, new_count: int) -> None:
        self.count = max(self.count, new_count)
        self._zipf.grow(new_count)
