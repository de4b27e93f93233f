"""Generic set-associative cache with write-back / write-through policies.

This is the substrate the paper's protected L2 extends: the base class
exposes hooks (``_handle_write``, ``_writeback_line``, ``advance``) that
:class:`repro.core.protected_cache.ProtectedL2` overrides to add the
written-bit semantics, cleaning sweeps and shared-ECC-array bookkeeping.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.line import CacheLine
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats, DirtyIntegrator
from repro.telemetry.tracing import EventTracer


class WritePolicy(enum.Enum):
    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


class WritebackReason(enum.Enum):
    """Why a line left the cache toward the next memory level."""

    REPLACEMENT = "replacement"
    CLEANING = "cleaning"
    ECC_EVICTION = "ecc-eviction"
    #: Eager write-back (Lee et al. [7]), used by the ablation baseline.
    EAGER = "eager"
    FLUSH = "flush"


@dataclass(frozen=True)
class Writeback:
    """One dirty-line write-back: block address plus its cause.

    ``bytes`` is the payload size actually sent downstream; ``None``
    (the nominal path) means the full line.  The wb-compress variant
    fills it in with the compressed size so main memory and the
    bus-energy model are charged what really crossed the bus.
    """

    addr: int
    reason: WritebackReason
    bytes: Optional[int] = None


class AccessResult:
    """Outcome of one cache access.

    ``fill_addr`` is the block address fetched from the next level (None
    on hits and on no-allocate write misses).  ``writebacks`` lists every
    block pushed down to the next level by this access, including any
    forced by the protected cache's ECC-array eviction.

    A plain ``__slots__`` class rather than a dataclass: every simulated
    reference creates at least one, so construction cost matters.
    """

    __slots__ = ("hit", "is_write", "fill_addr", "writebacks", "wrote_through")

    def __init__(
        self,
        hit: bool,
        is_write: bool,
        fill_addr: Optional[int] = None,
        writebacks: Optional[List[Writeback]] = None,
        wrote_through: bool = False,
    ) -> None:
        self.hit = hit
        self.is_write = is_write
        self.fill_addr = fill_addr
        self.writebacks: List[Writeback] = (
            [] if writebacks is None else writebacks
        )
        #: True for write-through forwarding of the written data.
        self.wrote_through = wrote_through

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccessResult(hit={self.hit}, is_write={self.is_write}, "
            f"fill_addr={self.fill_addr}, writebacks={self.writebacks}, "
            f"wrote_through={self.wrote_through})"
        )


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass
class CacheConfig:
    """Geometry and policy of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    #: Allocate a line on a write miss (write-back caches normally do;
    #: the paper's write-through L1D does not, it forwards via the buffer).
    write_allocate: bool = True
    hit_latency: int = 1
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise ValueError("line_bytes must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError("size must be divisible by ways*line_bytes")
        n_sets = self.size_bytes // (self.line_bytes * self.ways)
        if not _is_pow2(n_sets):
            raise ValueError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def n_lines(self) -> int:
        return self.n_sets * self.ways


class SetAssociativeCache:
    """A single level of set-associative cache.

    The cache is address-only (trace driven): it tracks tags and line
    state, not payloads.  Payload-level protection behaviour is modelled
    separately by :mod:`repro.ecc` and exercised in the fault-injection
    experiments.
    """

    def __init__(self, config: CacheConfig, seed: int = 0) -> None:
        self.config = config
        self.policy: ReplacementPolicy = make_policy(config.replacement, seed=seed)
        self.n_sets = config.n_sets
        self.ways = config.ways
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = self.n_sets - 1
        self._index_bits = self.n_sets.bit_length() - 1
        self.sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(config.ways)] for _ in range(self.n_sets)
        ]
        self.stats = CacheStats()
        self.dirty = DirtyIntegrator(total_lines=config.n_lines)
        self._stamp = 0
        #: Opt-in structured event tracing; ``None`` keeps every
        #: emission site to one attribute test on cold paths only.
        self._tracer: Optional[EventTracer] = None

    # -- address helpers ---------------------------------------------------

    def locate(self, addr: int) -> Tuple[int, int]:
        """Return (set index, tag) for a byte address."""
        block = addr >> self._offset_bits
        return block & self._index_mask, block >> self._index_bits

    def block_addr(self, set_idx: int, tag: int) -> int:
        """Reconstruct the byte address of a block from (set, tag)."""
        block = (tag << self._index_bits) | set_idx
        return block << self._offset_bits

    # -- queries -----------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Non-mutating hit test."""
        set_idx, tag = self.locate(addr)
        return any(l.valid and l.tag == tag for l in self.sets[set_idx])

    def find_line(self, addr: int) -> Optional[CacheLine]:
        """Return the line holding ``addr``, or None (non-mutating)."""
        set_idx, tag = self.locate(addr)
        for line in self.sets[set_idx]:
            if line.valid and line.tag == tag:
                return line
        return None

    def dirty_line_count(self) -> int:
        """Exact current number of dirty lines (O(lines); for validation)."""
        return sum(
            1 for ways in self.sets for l in ways if l.valid and l.dirty
        )

    # -- telemetry -----------------------------------------------------------

    @property
    def labels(self) -> Dict[str, str]:
        return {
            "component": "cache",
            "name": self.config.name,
            "policy": self.config.write_policy.value,
        }

    def as_dict(self) -> Dict[str, float]:
        """Counters plus derived dirty-population metrics."""
        d = self.stats.as_dict()
        d["dirty_lines"] = self.dirty.dirty_count
        d["peak_dirty_lines"] = self.dirty.peak_dirty
        d["avg_dirty_fraction"] = self.dirty.average_dirty_fraction(
            self.dirty.last_cycle
        )
        return d

    def reset(self, cycle: int = 0) -> None:
        """Measurement boundary: zero counters, keep cache contents.

        Dirty lines inherited from before the boundary have their
        episode start clamped to ``cycle``, otherwise pre-boundary
        cycles would be charged into measured dirty-episode lengths;
        the residency integrator restarts with the surviving dirty
        population.
        """
        self.stats.reset(cycle)
        for ways in self.sets:
            for line in ways:
                if line.valid and line.dirty and line.dirty_since < cycle:
                    line.dirty_since = cycle
        self.dirty.reset(cycle, self.dirty.dirty_count)

    def attach_tracer(self, tracer: Optional[EventTracer]) -> None:
        """Attach (or with ``None`` detach) a structured event tracer."""
        self._tracer = tracer

    @property
    def touched(self) -> bool:
        """True once any access has reached the cache."""
        return self._stamp != 0

    def copy_state_from(self, other: "SetAssociativeCache") -> None:
        """Take a deep copy of ``other``'s contents, replacement state and
        counters; ``other`` must have this cache's geometry.  The
        configuration and any attached tracer stay this cache's own."""
        self.policy, self.sets, self.stats, self.dirty = copy.deepcopy(
            (other.policy, other.sets, other.stats, other.dirty)
        )
        self._stamp = other._stamp

    # -- main access path ----------------------------------------------------

    def advance(self, cycle: int) -> List[Writeback]:
        """Hook: run background activity (cleaning sweeps) up to ``cycle``.

        The base cache has none; the protected L2 overrides this.
        """
        return []

    def access(self, addr: int, is_write: bool, cycle: int) -> AccessResult:
        """Perform one read or write at ``cycle``; cycles must not decrease."""
        # Hot loop: every simulated reference lands here.  The set/tag
        # arithmetic is inlined (no ``locate`` call), a hit refreshes the
        # LRU stamp in place (no policy call), the way scan tests the tag
        # first (an invalid line's stale tag is caught by ``valid``) and
        # the result is built only once hit or miss is known.
        block = addr >> self._offset_bits
        set_idx = block & self._index_mask
        tag = block >> self._index_bits
        ways = self.sets[set_idx]
        stamp = self._stamp + 1
        self._stamp = stamp

        way = 0
        for line in ways:
            if line.tag == tag and line.valid:
                line.lru_stamp = stamp
                line.last_touch_cycle = cycle
                result = AccessResult(True, is_write)
                if is_write:
                    self.stats.write_hits += 1
                    self._handle_write(line, set_idx, way, cycle, result)
                else:
                    self.stats.read_hits += 1
                return result
            way += 1

        # Miss path.
        result = AccessResult(False, is_write)
        if is_write:
            self.stats.write_misses += 1
            if not self.config.write_allocate:
                # No-allocate write miss: forward the write downstream.
                result.wrote_through = True
                self.stats.write_throughs += 1
                return result
        else:
            self.stats.read_misses += 1

        way = self._fill(set_idx, tag, cycle, result)
        if is_write:
            self._handle_write(ways[way], set_idx, way, cycle, result)
        return result

    # -- internals / extension points ---------------------------------------

    def _fill(self, set_idx: int, tag: int, cycle: int, result: AccessResult) -> int:
        """Bring a block into the set, evicting a victim if needed."""
        ways = self.sets[set_idx]
        way = self.policy.choose_victim(ways)
        victim = ways[way]
        stats = self.stats
        if victim.valid:
            # Evict: write the victim back if dirty.  ``fill`` below
            # resets every state bit, so no separate invalidate.
            stats.evictions += 1
            if victim.dirty:
                self._writeback_line(
                    set_idx, way, cycle, result, WritebackReason.REPLACEMENT
                )
        victim.fill(tag, cycle, self._stamp)
        stats.fills += 1
        result.fill_addr = (
            (tag << self._index_bits) | set_idx
        ) << self._offset_bits
        return way

    def _writeback_line(
        self,
        set_idx: int,
        way: int,
        cycle: int,
        result: AccessResult,
        reason: WritebackReason,
    ) -> None:
        """Push a dirty line downstream and mark it clean."""
        line = self.sets[set_idx][way]
        if not line.dirty:
            raise ValueError("write-back of a clean line")
        self.dirty.add_dirty(cycle, -1)
        self.stats.dirty_episodes += 1
        self.stats.dirty_episode_cycles += max(0, cycle - line.dirty_since)
        line.dirty = False
        line.written = False
        addr = self.block_addr(set_idx, line.tag)
        result.writebacks.append(Writeback(addr=addr, reason=reason))
        tracer = self._tracer
        if tracer is not None:
            name = self.config.name
            tracer.emit(
                "writeback", cycle, cache=name, set=set_idx, way=way,
                addr=addr, reason=reason.value,
            )
            tracer.emit(
                "dirty_transition", cycle, cache=name, set=set_idx, way=way,
                addr=addr, dirty=False, reason=reason.value,
            )
        if reason is WritebackReason.CLEANING:
            self.stats.writebacks_cleaning += 1
        elif reason is WritebackReason.ECC_EVICTION:
            self.stats.writebacks_ecc_eviction += 1
        elif reason is WritebackReason.EAGER:
            self.stats.writebacks_eager += 1
        else:
            # REPLACEMENT and FLUSH both count as ordinary write-backs.
            self.stats.writebacks_replacement += 1

    def _handle_write(
        self,
        line: CacheLine,
        set_idx: int,
        way: int,
        cycle: int,
        result: AccessResult,
    ) -> None:
        """Apply a write to a resident line (policy-dependent)."""
        if self.config.write_policy is WritePolicy.WRITE_THROUGH:
            # Data is forwarded downstream; the line never turns dirty.
            result.wrote_through = True
            self.stats.write_throughs += 1
            return
        self._mark_dirty(line, set_idx, way, cycle)

    def _mark_dirty(
        self, line: CacheLine, set_idx: int, way: int, cycle: int
    ) -> None:
        """Record a write on a write-back line, tracking the clean->dirty
        transition exactly once per episode."""
        if line.record_write():
            line.dirty_since = cycle
            self.dirty.add_dirty(cycle, +1)
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "dirty_transition", cycle, cache=self.config.name,
                    set=set_idx, way=way,
                    addr=self.block_addr(set_idx, line.tag),
                    dirty=True, reason="write",
                )

    # -- maintenance ---------------------------------------------------------

    def flush(self, cycle: int) -> List[Writeback]:
        """Write back every dirty line and invalidate the whole cache."""
        result = AccessResult(False, False)
        for set_idx, ways in enumerate(self.sets):
            for way, line in enumerate(ways):
                if line.valid:
                    self.stats.evictions += 1
                    if line.dirty:
                        self._writeback_line(
                            set_idx, way, cycle, result, WritebackReason.FLUSH
                        )
                    line.invalidate()
        return result.writebacks
