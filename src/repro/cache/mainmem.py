"""Main memory behind a split-transaction off-chip bus.

Table 1 of the paper: 8-byte-wide bus, 100-cycle access latency.  The bus
is the resource the paper's extra write-backs contend for, so occupancy
is modelled explicitly: every transaction (demand fill or write-back)
holds the bus for its transfer beats, delaying later transactions.
Write-backs are fire-and-forget (the split-transaction assumption the
paper makes when measuring IPC loss), but they still consume bus slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.telemetry.metrics import StatsSourceMixin


@dataclass
class MemoryConfig:
    """Off-chip memory and bus parameters (Table 1 defaults)."""

    bus_width_bytes: int = 8
    latency_cycles: int = 100

    def transfer_cycles(self, size_bytes: int) -> int:
        """Bus beats needed to move ``size_bytes``."""
        width = self.bus_width_bytes
        return (size_bytes + width - 1) // width


@dataclass
class MemoryStats(StatsSourceMixin):
    labels = {"component": "memory"}

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_cycles: int = 0
    #: Cycles a demand read spent queued behind earlier bus traffic.
    read_queue_cycles: int = 0

    @property
    def transactions(self) -> int:
        return self.reads + self.writes


class MainMemory:
    """Latency/occupancy model of main memory and its bus."""

    labels = {"component": "memory"}

    def __init__(self, config: MemoryConfig = MemoryConfig()) -> None:
        self.config = config
        self.stats = MemoryStats()
        self._bus_free_at = 0

    def as_dict(self) -> Dict[str, int]:
        return self.stats.as_dict()

    def reset(self, cycle: int = 0) -> None:
        """Zero the counters; bus occupancy carries across the boundary."""
        self.stats.reset(cycle)

    @property
    def bus_free_at(self) -> int:
        return self._bus_free_at

    def _claim_bus(self, cycle: int, beats: int) -> int:
        """Reserve the bus for ``beats``; return the cycle the transfer
        starts."""
        start = self._bus_free_at
        if cycle > start:
            start = cycle
        self._bus_free_at = start + beats
        self.stats.busy_cycles += beats
        return start

    def read(self, cycle: int, size_bytes: int) -> int:
        """Issue a demand read at ``cycle``; return data-ready cycle."""
        beats = self.config.transfer_cycles(size_bytes)
        start = self._claim_bus(cycle, beats)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size_bytes
        stats.read_queue_cycles += start - cycle
        return start + self.config.latency_cycles + beats

    def write(self, cycle: int, size_bytes: int) -> int:
        """Issue a (posted) write at ``cycle``; return bus-release cycle.

        The writer does not wait for completion, but the occupied beats
        delay any subsequent demand read — that is the contention the
        paper's IPC experiment measures.
        """
        beats = self.config.transfer_cycles(size_bytes)
        start = self._claim_bus(cycle, beats)
        self.stats.writes += 1
        self.stats.bytes_written += size_bytes
        return start + beats

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the bus was busy over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / elapsed_cycles)
