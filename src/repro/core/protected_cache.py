"""The paper's protected L2: cleaning + shared ECC array in one cache.

:class:`ProtectedL2` extends the generic write-back cache with the three
Section-3 techniques.  All configurations used in the paper's evaluation
are expressible:

* Figure 1 baseline — ``ProtectionConfig(cleaning_interval=None,
  ecc_entries_per_set=None)`` (equivalently, a plain cache): dirty
  residency of the conventional design.
* Figures 3–6 — cleaning enabled, unconstrained ECC (sweep the interval).
* Figures 7–8 — cleaning *and* the 1-entry-per-set shared ECC array.

The class maintains the scheme's central invariant: the number of dirty
lines in a set never exceeds the set's ECC entries, and exactly the
dirty lines own entries (checked by :mod:`repro.core.scrub`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.cache import (
    AccessResult,
    CacheConfig,
    SetAssociativeCache,
    WritebackReason,
    WritePolicy,
)
from repro.cache.line import CacheLine
from repro.core.cleaning import CleaningLogic
from repro.core.ecc_array import SharedEccArray
from repro.core.policy import NonUniformPolicy


@dataclass
class ProtectionConfig:
    """Knobs of the paper's scheme.

    ``cleaning_interval``
        Per-line check period in cycles (the paper sweeps 64K…4M);
        ``None`` disables cleaning.
    ``ecc_entries_per_set``
        Size of the shared ECC array in entries per set (the paper uses
        1, i.e. a 32 KB array for the 1 MB L2); ``None`` removes the
        constraint (an ECC entry per line, as when studying cleaning
        alone in Figures 3–6).
    """

    cleaning_interval: Optional[int] = 1_000_000
    ecc_entries_per_set: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.cleaning_interval is not None and self.cleaning_interval <= 0:
            raise ValueError("cleaning_interval must be positive or None")
        if self.ecc_entries_per_set is not None and self.ecc_entries_per_set <= 0:
            raise ValueError("ecc_entries_per_set must be positive or None")


class ProtectedL2(SetAssociativeCache):
    """Write-back L2 with non-uniform protection, cleaning and shared ECC."""

    def __init__(
        self,
        config: CacheConfig,
        protection: Optional[ProtectionConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(config, seed=seed)
        self.protection = protection or ProtectionConfig()
        self.protection_policy = NonUniformPolicy()
        self.cleaning: Optional[CleaningLogic] = None
        if self.protection.cleaning_interval is not None:
            self.cleaning = CleaningLogic(
                n_sets=self.n_sets,
                interval_cycles=self.protection.cleaning_interval,
            )
        self.ecc_array: Optional[SharedEccArray] = None
        if self.protection.ecc_entries_per_set is not None:
            self.ecc_array = SharedEccArray(
                n_sets=self.n_sets,
                entries_per_set=self.protection.ecc_entries_per_set,
            )

    # -- background cleaning sweep -------------------------------------------

    def advance(self, cycle: int):
        """Run all cleaning checks due by ``cycle`` (Figure 2 FSM).

        For each visited set: a line with ``dirty=1, written=0`` is
        predicted write-dead and written back (Clean-WB); a line with
        ``written=1`` has its written bit reset — it gets one more
        interval to prove it has stopped being written.
        """
        cleaning = self.cleaning
        due = cleaning.due_sets(cycle) if cleaning is not None else ()
        if not due:
            return []
        result = AccessResult(False, False)
        for set_idx in due:
            for way, line in enumerate(self.sets[set_idx]):
                if not line.valid or not line.dirty:
                    continue
                if line.written:
                    line.written = False
                else:
                    self._writeback_line(
                        set_idx, way, cycle, result, WritebackReason.CLEANING
                    )
        return result.writebacks

    # -- write path with ECC-entry allocation ----------------------------------

    def _handle_write(
        self,
        line: CacheLine,
        set_idx: int,
        way: int,
        cycle: int,
        result: AccessResult,
    ) -> None:
        if self.config.write_policy is WritePolicy.WRITE_THROUGH:
            # Write-through lines never turn dirty, so they need neither
            # cleaning nor an ECC entry — forward like the base cache.
            super()._handle_write(line, set_idx, way, cycle, result)
            return
        if not line.dirty and self.ecc_array is not None:
            # The line is about to turn dirty and must own an ECC entry.
            self._claim_ecc_entry(set_idx, way, cycle, result)
        self._mark_dirty(line, set_idx, way, cycle)

    def _claim_ecc_entry(
        self, set_idx: int, way: int, cycle: int, result: AccessResult
    ) -> None:
        """Allocate an ECC entry for ``way``, evicting another if needed.

        Eviction forces the displaced dirty line to be written back to
        memory right now — it can no longer be ECC-protected (ECC-WB).
        """
        assert self.ecc_array is not None
        evicted_way = self.ecc_array.allocate(set_idx, way)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "ecc_claim", cycle, cache=self.config.name, set=set_idx,
                way=way,
            )
            if evicted_way is not None:
                tracer.emit(
                    "ecc_evict", cycle, cache=self.config.name, set=set_idx,
                    evicted_way=evicted_way, for_way=way,
                )
        if evicted_way is None:
            return
        victim = self.sets[set_idx][evicted_way]
        if not (victim.valid and victim.dirty):
            raise AssertionError(
                "ECC array evicted an entry not owned by a dirty line"
            )
        self._writeback_line(
            set_idx, evicted_way, cycle, result, WritebackReason.ECC_EVICTION
        )

    # -- every clean transition releases the line's ECC entry ------------------

    def _writeback_line(
        self,
        set_idx: int,
        way: int,
        cycle: int,
        result: AccessResult,
        reason: WritebackReason,
    ) -> None:
        super()._writeback_line(set_idx, way, cycle, result, reason)
        if self.ecc_array is not None and reason is not WritebackReason.ECC_EVICTION:
            released = self.ecc_array.release(set_idx, way)
            if not released:
                raise AssertionError(
                    f"dirty line (set {set_idx}, way {way}) had no ECC entry"
                )

    # -- telemetry --------------------------------------------------------------

    def reset(self, cycle: int = 0) -> None:
        """Measurement boundary covering the scheme's own counters too."""
        super().reset(cycle)
        if self.ecc_array is not None:
            self.ecc_array.reset(cycle)
        if self.cleaning is not None:
            self.cleaning.reset(cycle)

    # -- reporting --------------------------------------------------------------

    def writeback_breakdown(self) -> dict:
        """Write-back counts by cause (the paper's Figure 8 partition)."""
        return {
            "WB": self.stats.writebacks_replacement,
            "Clean-WB": self.stats.writebacks_cleaning,
            "ECC-WB": self.stats.writebacks_ecc_eviction,
        }


__all__ = ["ProtectedL2", "ProtectionConfig"]
