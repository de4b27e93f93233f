"""Replacement policies for set-associative caches."""

from __future__ import annotations

import abc
import random
from typing import List

from repro.cache.line import CacheLine


class ReplacementPolicy(abc.ABC):
    """Chooses a victim way within one set.

    Invalid ways are always preferred (the first one wins); policies
    only order valid lines.  The cache writes ``line.lru_stamp`` itself
    on every touch, so a policy is consulted on fills only.
    """

    @abc.abstractmethod
    def choose_victim(self, ways: List[CacheLine]) -> int:
        """Return the index of the way to evict (or fill, if invalid)."""


class LruPolicy(ReplacementPolicy):
    """Evict the least-recently-used valid line."""

    def choose_victim(self, ways: List[CacheLine]) -> int:
        # One pass: the first invalid way, else the first oldest stamp.
        victim, oldest = 0, ways[0].lru_stamp
        way = 0
        for line in ways:
            if not line.valid:
                return way
            if line.lru_stamp < oldest:
                victim, oldest = way, line.lru_stamp
            way += 1
        return victim


class FifoPolicy(ReplacementPolicy):
    """Evict the earliest-filled valid line, ignoring later touches."""

    def choose_victim(self, ways: List[CacheLine]) -> int:
        victim, oldest = 0, ways[0].fifo_stamp
        way = 0
        for line in ways:
            if not line.valid:
                return way
            if line.fifo_stamp < oldest:
                victim, oldest = way, line.fifo_stamp
            way += 1
        return victim


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random valid line (seeded for reproducibility)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_victim(self, ways: List[CacheLine]) -> int:
        for way, line in enumerate(ways):
            if not line.valid:
                return way
        return self._rng.randrange(len(ways))


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``random``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return cls(seed=seed)
    return cls()
