"""Decay-based cleaning: the cache-decay [12] alternative to written bits.

The paper's written-bit heuristic is inspired by Kaxiras et al.'s cache
decay, which turns off lines untouched for a decay interval.  A natural
alternative cleaning policy, then, is *access* decay: write back a dirty
line that has not been touched (read **or** written) for a full
interval.  Compared to the paper's design:

* decay needs a per-line time record (Kaxiras use 2-bit hierarchical
  counters ≈ 2 bits/line) versus the paper's single written bit;
* decay will not clean a line that is still being *read* frequently but
  never written again — exactly the lines the paper's heuristic
  reclaims (read-hot, write-dead), so it leaves more ECC entries
  occupied;
* decay is more conservative about traffic: a line gets cleaned only
  when fully idle.

Used by the cleaning-policy ablation.
"""

from __future__ import annotations

from repro.cache.cache import AccessResult, WritebackReason
from repro.core.protected_cache import ProtectedL2


class DecayCleaningL2(ProtectedL2):
    """Protected L2 whose sweep cleans fully-idle dirty lines instead.

    A visited dirty line is written back when its last access (of any
    kind) is at least one cleaning interval old; the written bit is
    ignored.
    """

    def advance(self, cycle: int):
        cleaning = self.cleaning
        due = cleaning.due_sets(cycle) if cleaning is not None else ()
        if not due:
            return []
        interval = cleaning.interval_cycles
        result = AccessResult(False, False)
        for set_idx in due:
            for way, line in enumerate(self.sets[set_idx]):
                if not line.valid or not line.dirty:
                    continue
                if cycle - line.last_touch_cycle >= interval:
                    self._writeback_line(
                        set_idx, way, cycle, result, WritebackReason.CLEANING
                    )
        return result.writebacks
