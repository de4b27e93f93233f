"""Energy accounting for the memory system and its protection logic.

The paper motivates the cleaning-interval choice by memory-traffic
energy ("increased memory traffic ... results in increased energy
consumption") and cites Li et al. [11], who choose parity over ECC for
its energy efficiency.  This module estimates those quantities from a
run's event counters:

* array access energy per L1/L2 access and per DRAM access;
* off-chip bus energy per byte moved;
* protection-logic energy per 64-bit word — parity (1-bit XOR tree)
  versus SECDED (8-bit encode/syndrome), where ECC logic costs several
  times parity.

Default coefficients are CACTI-class ballpark values for the paper's
era (130–180 nm, nanojoules); they are parameters, not claims — the
*relative* comparison between schemes is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.mainmem import MemoryStats
from repro.cache.stats import CacheStats


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies, in nanojoules."""

    l1_access: float = 0.3
    l2_access: float = 2.0
    dram_access: float = 30.0
    bus_per_byte: float = 0.4
    #: Checking/encoding one 64-bit word's parity (single XOR tree).
    parity_per_word: float = 0.01
    #: Checking/encoding one 64-bit word's SECDED (8 trees + correction).
    ecc_per_word: float = 0.06


@dataclass
class EnergyBreakdown:
    """Energy by component, in nanojoules."""

    scheme: str
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_nj(self) -> float:
        return sum(self.components.values())

    @property
    def total_uj(self) -> float:
        return self.total_nj / 1000.0

    def rows(self):
        out = [(k, v) for k, v in self.components.items()]
        out.append(("total", self.total_nj))
        return out


#: A ``MetricsRegistry.snapshot()``: component name -> counter -> value.
Snapshot = Mapping[str, Mapping[str, float]]


def _stats(cls, counters: Mapping[str, float]):
    """The ``cls`` counters object a snapshot component was taken from."""
    return cls(**{f.name: counters[f.name] for f in fields(cls)})


def estimate_energy(
    snapshot: Snapshot,
    config: HierarchyConfig,
    scheme: str,
    dirty_fraction: float = 0.5,
    params: EnergyParams = EnergyParams(),
) -> EnergyBreakdown:
    """Estimate a run's memory-system energy under a protection scheme.

    ``snapshot`` is the hierarchy's registry snapshot at the run's end
    (``RefRunOutput.snapshot``/``IpcRunOutput.snapshot``) and ``config``
    the machine it ran on, which gives the line sizes.

    ``scheme`` is ``"conventional"`` (SECDED checked/encoded on every L2
    access) or ``"proposed"`` (parity on every access; ECC work only for
    the dirty-line operations).  ``dirty_fraction`` apportions the
    proposed scheme's read checks between parity-only (clean) and
    parity+ECC (dirty) lines — pass the run's measured average.

    The L1s carry parity in both schemes (both systems the paper cites
    do), so their check energy is charged identically.
    """
    if scheme not in ("conventional", "proposed"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 0.0 <= dirty_fraction <= 1.0:
        raise ValueError("dirty_fraction must be in [0, 1]")

    words_per_l2_line = config.l2.line_bytes * 8 // 64
    words_per_l1_line = config.l1d.line_bytes * 8 // 64
    l2 = _stats(CacheStats, snapshot[config.l2.name])
    mem = _stats(MemoryStats, snapshot["memory"])
    l1_accesses = (
        _stats(CacheStats, snapshot["l1i"]).accesses
        + _stats(CacheStats, snapshot["l1d"]).accesses
    )

    # Array, bus and DRAM energy: identical formulas for both schemes.
    components = {
        "L1 arrays": l1_accesses * params.l1_access,
        "L2 array": l2.accesses * params.l2_access,
        "off-chip bus": (mem.bytes_read + mem.bytes_written)
        * params.bus_per_byte,
        "DRAM": mem.transactions * params.dram_access,
        "L1 parity logic": (
            l1_accesses * words_per_l1_line * params.parity_per_word
        ),
    }

    l2_reads = l2.read_hits + l2.read_misses
    l2_writes = l2.write_hits + l2.write_misses
    #: Every fill and write-back also passes the coding logic.
    l2_moves = l2.fills + l2.writebacks_total

    if scheme == "conventional":
        checked = (l2_reads + l2_writes + l2_moves) * words_per_l2_line
        components["L2 ECC logic"] = checked * params.ecc_per_word
        components["L2 parity logic"] = 0.0
    else:
        all_ops = (l2_reads + l2_writes + l2_moves) * words_per_l2_line
        # Parity is maintained on every operation.
        components["L2 parity logic"] = all_ops * params.parity_per_word
        # ECC work: every write encodes; reads check ECC only when the
        # line is dirty; write-backs of dirty lines re-check.  Writes a
        # silent-write variant elided never reach the encoder, so their
        # word count comes straight back off (0 on the nominal path).
        ecc_words = (
            (l2_writes - l2.elided_ecc_updates) * words_per_l2_line
            + l2_reads * dirty_fraction * words_per_l2_line
            + l2.writebacks_total * words_per_l2_line
        )
        components["L2 ECC logic"] = max(0.0, ecc_words) * params.ecc_per_word

    return EnergyBreakdown(scheme=scheme, components=components)
