"""Miss-status holding registers (MSHRs): in-flight miss tracking.

Non-blocking caches (SimpleScalar's default, and any modern L1) track
outstanding misses in MSHRs so that a second access to a block whose
fill is still in flight *merges* with the pending miss instead of
either re-requesting the line or — the naive trace-driven error —
hitting instantly on a line that functionally appears filled.

This model keeps the functional fill immediate (trace-driven caches
install lines at access time) and repairs the *timing*: an access to a
block with a pending fill observes the fill's completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.telemetry.metrics import StatsSourceMixin


@dataclass
class MshrStats(StatsSourceMixin):
    labels = {"component": "mshr"}

    allocations: int = 0
    #: Accesses that merged with an in-flight fill.
    merges: int = 0
    #: Allocations that displaced a still-pending entry (file full).
    overflows: int = 0


class MshrFile:
    """Bounded table of block address -> fill-completion cycle.

    Doubles as a :class:`~repro.telemetry.metrics.StatsSource`
    (delegating to its :class:`MshrStats`) so a registry reset covers
    it without replacing the stats object.

    Completed fills are dropped lazily: only an allocation that finds
    the table full prunes it.  Until then a completed entry just sits in
    the table, where ``pending_ready`` already reads it as "no fill in
    flight".  Cycles must be non-decreasing across calls (the hierarchy
    presents its monotonic clock); under that rule every answer and
    counter — including the reported occupancy — is the one an
    eager prune at every allocation would give.
    """

    labels = {"component": "mshr"}

    def __init__(self, entries: int = 8) -> None:
        if entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.entries = entries
        self._pending: Dict[int, int] = {}
        self.stats = MshrStats()
        #: Cycle and block of the latest allocation: every other entry
        #: whose fill completed by then is logically gone.
        self._last_cycle = 0
        self._last_block: Optional[int] = None

    def as_dict(self) -> Dict[str, int]:
        d = self.stats.as_dict()
        d["occupancy"] = len(self)
        return d

    def reset(self, cycle: int = 0) -> None:
        """Zero the counters; in-flight fills stay in flight."""
        self.stats.reset(cycle)

    def __len__(self) -> int:
        """Fills outstanding as of the latest allocation."""
        horizon, last = self._last_cycle, self._last_block
        return sum(
            1 for b, ready in self._pending.items()
            if ready > horizon or b == last
        )

    def _prune(self, cycle: int) -> None:
        """Drop entries whose fills have completed."""
        done = [b for b, ready in self._pending.items() if ready <= cycle]
        for b in done:
            del self._pending[b]

    def pending_ready(self, block: int, cycle: int) -> Optional[int]:
        """Completion cycle of an in-flight fill of ``block``, if any.

        Returns None when no fill is pending (or it already completed).
        A hit counts as a merge in the statistics.
        """
        ready = self._pending.get(block)
        if ready is None or ready <= cycle:
            return None
        self.stats.merges += 1
        return ready

    def allocate(self, block: int, ready: int, cycle: int) -> None:
        """Record a new in-flight fill completing at ``ready``.

        When the file is full even after pruning completed fills, the
        soonest-completing pending entry is displaced (and counted) —
        a slight optimism that avoids deadlocking the one-pass model.
        """
        pending = self._pending
        old = pending.get(block)
        if old is not None and old <= cycle:
            # A completed fill of the same block: re-enter it at the end,
            # where a prune-then-insert would have put it.
            del pending[block]
        elif old is None and len(pending) >= self.entries:
            # Full: if even the soonest fill is still in flight, nothing
            # can be pruned and it is the one displaced (the earliest
            # allocated of equals); otherwise a prune of the completed
            # fills makes room.
            soonest = min(pending.values())
            if soonest > cycle:
                for victim, due in pending.items():
                    if due == soonest:
                        break
                del pending[victim]
                self.stats.overflows += 1
            else:
                self._prune(cycle)
        pending[block] = ready
        self.stats.allocations += 1
        self._last_cycle = cycle
        self._last_block = block
