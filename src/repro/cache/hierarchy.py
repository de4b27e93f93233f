"""The full memory hierarchy of the paper's baseline processor.

Write-through L1 instruction and data caches (so they need only parity)
with MSHR-tracked in-flight misses, a 16-entry coalescing write buffer,
a unified write-back L2 (the cache the paper protects), an optional L3,
and main memory behind a contended 8-byte bus.

The unified levels are pluggable: pass a plain
:class:`SetAssociativeCache` for the conventional uniform-ECC baseline,
or a :class:`repro.core.protected_cache.ProtectedL2` (at either level)
for the paper's scheme.

Port arbitration note: the paper gives L1 requests priority over the
cleaning logic at the L2 ports.  The trace-driven model realises the
same effect structurally — cleaning sweeps (`advance`) run between
demand accesses, never delaying one.  A sweep falls due only every
``interval / n_sets`` cycles, so the hierarchy does not ask at every
reference: each level with a cleaning schedule publishes the exact
cycle its next set falls due
(:attr:`~repro.core.cleaning.CleaningLogic.next_due`), the hierarchy
keeps the earliest of them, and a reference costs one integer compare
until its cycle reaches that.  Plain and ECC-only levels have no
schedule and are never asked.

Reference mode runs in two stages split at the L1 (DESIGN.md §7).
There every reference advances the clock by its gap, whatever latency
it returns, so the L1D outcome and the write buffer's coalescing,
drains and forwarding depend on the stream alone.  Stage A
(:class:`L1Recorder`) records them as :class:`L1Tape` chunks; stage B
(:meth:`MemoryHierarchy.replay_l1_tape`) drives the MSHRs, the unified
levels and memory from a tape with the same calls, in the same order,
that :meth:`~MemoryHierarchy.load` and :meth:`~MemoryHierarchy.store`
make.  Both stages live here, beside ``load``/``store``, so every
L1, write-buffer and MSHR rule is in one module.  The CPU path keeps
``load``, ``store`` and ``ifetch``.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence

from repro.cache.cache import (
    CacheConfig,
    SetAssociativeCache,
    WritePolicy,
)
from repro.cache.mainmem import MainMemory, MemoryConfig
from repro.cache.mshr import MshrFile
from repro.cache.write_buffer import WriteBuffer
from repro.telemetry.metrics import MetricsRegistry, StatsSourceMixin
from repro.telemetry.tracing import EventTracer


#: A ``next_due`` past any simulated cycle: the gate of a hierarchy
#: with no cleaning schedule.  A cycle that reached it would only cost
#: one empty :meth:`MemoryHierarchy._advance_l2` call.
_NEVER = 1 << 63


def default_l1i_config() -> CacheConfig:
    """Table 1: 32KB 4-way, 32B line, 1-cycle, read-only stream."""
    return CacheConfig(
        name="l1i",
        size_bytes=32 * 1024,
        ways=4,
        line_bytes=32,
        write_policy=WritePolicy.WRITE_THROUGH,
        write_allocate=False,
        hit_latency=1,
    )


def default_l1d_config() -> CacheConfig:
    """Table 1: 32KB 4-way, 32B line, 1-cycle, write-through no-allocate."""
    return CacheConfig(
        name="l1d",
        size_bytes=32 * 1024,
        ways=4,
        line_bytes=32,
        write_policy=WritePolicy.WRITE_THROUGH,
        write_allocate=False,
        hit_latency=1,
    )


def default_l2_config() -> CacheConfig:
    """Table 1: unified 1MB, 4-way, 64B line, 10-cycle, write-back."""
    return CacheConfig(
        name="l2",
        size_bytes=1024 * 1024,
        ways=4,
        line_bytes=64,
        write_policy=WritePolicy.WRITE_BACK,
        write_allocate=True,
        hit_latency=10,
    )


def default_l3_config() -> CacheConfig:
    """A typical L3 for three-level experiments: 4MB, 8-way, 64B, 25-cycle."""
    return CacheConfig(
        name="l3",
        size_bytes=4 * 1024 * 1024,
        ways=8,
        line_bytes=64,
        write_policy=WritePolicy.WRITE_BACK,
        write_allocate=True,
        hit_latency=25,
    )


@dataclass
class HierarchyConfig:
    """Configuration bundle for the whole memory system.

    ``l3`` is optional: the paper's Table 1 machine is two-level, but
    the scheme applies to L3s equally (both POWER4 and Itanium protect
    L2 *and* L3 with ECC), so a third level can be enabled for those
    experiments.
    """

    l1i: CacheConfig = field(default_factory=default_l1i_config)
    l1d: CacheConfig = field(default_factory=default_l1d_config)
    l2: CacheConfig = field(default_factory=default_l2_config)
    l3: Optional[CacheConfig] = None
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    write_buffer_entries: int = 16
    #: MSHRs per L1 (in-flight miss tracking; SimpleScalar-style).
    mshr_entries: int = 8


@dataclass
class HierarchyStats(StatsSourceMixin):
    labels = {"component": "hierarchy"}

    loads: int = 0
    stores: int = 0
    ifetches: int = 0

    @property
    def loads_stores(self) -> int:
        return self.loads + self.stores

    def flatten(self) -> Dict[str, int]:
        """Raw counters plus derived totals — the registry feed."""
        d = StatsSourceMixin.as_dict(self)
        d["loads_stores"] = self.loads_stores
        d["refs"] = self.loads_stores + self.ifetches
        return d

    def as_dict(self) -> Dict[str, int]:
        return self.flatten()


#: L1 tape outcome codes, one per reference (see :class:`L1Tape`).
LOAD_HIT = 0
LOAD_MISS = 1
#: An L1 load miss whose block sits in the write buffer.
LOAD_FORWARD = 2
STORE = 3
#: A store that pushed the oldest buffered block out to the L2.
STORE_DRAIN = 4


@dataclass(frozen=True)
class L1Tape:
    """What stage A recorded of a stretch of a reference stream.

    Per reference ``i``: ``steps[i]`` cycles since the previous one
    (``1 + gap``), an outcome ``codes[i]`` and ``addrs[i]`` — the
    reference's address, or for :data:`STORE_DRAIN` the block drained.
    The columns are read-only; stage B never writes to a tape.
    """

    codes: bytes
    steps: Sequence[int]
    addrs: Sequence[int]

    def __len__(self) -> int:
        return len(self.codes)


#: Column typecodes from narrowest to widest; a list past the last.
_WIDTHS = ("B", "H", "I", "Q")


def _widened(column, value):
    """``column`` with ``value`` appended, in the narrowest of
    :data:`_WIDTHS` that holds both (a list when none does)."""
    if isinstance(column, array):
        for code in _WIDTHS[_WIDTHS.index(column.typecode) + 1:]:
            wider = array(code, column)
            try:
                wider.append(value)
            except (OverflowError, TypeError):
                continue
            return wider
    column = list(column)
    column.append(value)
    return column


def _frozen(column):
    """A read-only view of a finished column."""
    if isinstance(column, array):
        return memoryview(column).toreadonly()
    return tuple(column)


class MemoryHierarchy:
    """Trace-driven memory system: returns a latency for every reference."""

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        l2: Optional[SetAssociativeCache] = None,
        l3: Optional[SetAssociativeCache] = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.l1i = SetAssociativeCache(self.config.l1i)
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = l2 if l2 is not None else SetAssociativeCache(self.config.l2)
        if l3 is not None:
            self.l3: Optional[SetAssociativeCache] = l3
        elif self.config.l3 is not None:
            self.l3 = SetAssociativeCache(self.config.l3)
        else:
            self.l3 = None
        #: Unified levels below the L1s, nearest first.
        self.levels = [self.l2] + ([self.l3] if self.l3 is not None else [])
        #: (index, level) of the levels with a cleaning schedule; a
        #: level's ``advance`` does work only when that schedule is due.
        self._cleaning = [
            (idx, cache) for idx, cache in enumerate(self.levels)
            if getattr(cache, "cleaning", None) is not None
        ]
        #: First cycle at which any of them has a set due.
        self._next_due = self._earliest_due()
        self.write_buffer = WriteBuffer(
            entries=self.config.write_buffer_entries,
            block_bytes=self.l2.config.line_bytes,
        )
        #: In-flight miss tracking, at L2-block granularity.
        self.l1d_mshr = MshrFile(self.config.mshr_entries)
        self.l1i_mshr = MshrFile(self.config.mshr_entries)
        self._block_shift = self.l2.config.line_bytes.bit_length() - 1
        self.memory = MainMemory(self.config.memory)
        self.stats = HierarchyStats()
        #: Monotonic clock: out-of-order cores may present slightly
        #: out-of-order timestamps; the hierarchy's bookkeeping (dirty
        #: integration, cleaning sweeps, bus occupancy) needs time to
        #: only move forward.
        self._clock = 0
        #: Every stats holder in the system, one snapshot/reset boundary.
        self.registry = MetricsRegistry()
        self._register_telemetry()
        self.tracer: Optional[EventTracer] = None

    def _register_telemetry(self) -> None:
        """Register every component's stats into the hierarchy registry."""
        reg = self.registry
        reg.register_source("hierarchy", self.stats)
        reg.register_source("l1i", self.l1i)
        reg.register_source("l1d", self.l1d)
        for cache in self.levels:
            name = cache.config.name
            reg.register_source(name, cache)
            ecc_array = getattr(cache, "ecc_array", None)
            if ecc_array is not None:
                reg.register_source(f"{name}.ecc_array", ecc_array)
            cleaning = getattr(cache, "cleaning", None)
            if cleaning is not None:
                reg.register_source(f"{name}.cleaning", cleaning)
        reg.register_source("write_buffer", self.write_buffer)
        reg.register_source("l1d_mshr", self.l1d_mshr)
        reg.register_source("l1i_mshr", self.l1i_mshr)
        reg.register_source("memory", self.memory)

    def attach_tracer(self, tracer: Optional[EventTracer]) -> None:
        """Attach (or with ``None`` detach) a tracer to every cache level."""
        self.tracer = tracer
        for cache in (self.l1i, self.l1d, *self.levels):
            cache.attach_tracer(tracer)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Point-in-time counters of every component (plain data)."""
        return self.registry.snapshot()

    def reset_measurement(self, cycle: int) -> None:
        """Zero every counter at ``cycle``, keeping all cache contents."""
        self.registry.reset(cycle)

    @property
    def clock(self) -> int:
        """Latest cycle the hierarchy has seen."""
        return self._clock

    @property
    def fresh(self) -> bool:
        """True while the clock is 0 and no reference has touched the
        L1D or the write buffer: the state a memoised tape starts from."""
        return (
            self._clock == 0 and not self.l1d.touched
            and not len(self.write_buffer)
        )

    # -- reference entry points ---------------------------------------------
    #
    # Each entry point first clamps ``cycle`` to the monotonic clock and
    # runs the cleaning sweeps due by then, if any, then computes the
    # L2-granular block of ``addr`` once for the MSHR lookup and, on a
    # miss, its allocation.

    def ifetch(self, addr: int, cycle: int) -> int:
        """Instruction fetch; returns latency in cycles."""
        if cycle > self._clock:
            self._clock = cycle
        else:
            cycle = self._clock
        self.stats.ifetches += 1
        if cycle >= self._next_due:
            self._advance_l2(cycle)
        res = self.l1i.access(addr, False, cycle)
        block = addr >> self._block_shift
        hit_latency = self.l1i.config.hit_latency
        pending = self.l1i_mshr.pending_ready(block, cycle)
        if pending is not None:
            # The block's fill is still in flight: wait for it.
            return hit_latency + (pending - cycle)
        if res.hit:
            return hit_latency
        latency = hit_latency + self._level_access(addr, False, cycle, 0)
        self.l1i_mshr.allocate(block, cycle + latency, cycle)
        return latency

    def load(self, addr: int, cycle: int) -> int:
        """Data load; returns latency in cycles."""
        if cycle > self._clock:
            self._clock = cycle
        else:
            cycle = self._clock
        self.stats.loads += 1
        if cycle >= self._next_due:
            self._advance_l2(cycle)
        res = self.l1d.access(addr, False, cycle)
        block = addr >> self._block_shift
        hit_latency = self.l1d.config.hit_latency
        pending = self.l1d_mshr.pending_ready(block, cycle)
        if pending is not None:
            # Merge with the in-flight miss (MSHR semantics): the line
            # looks resident functionally but its data arrives later.
            return hit_latency + (pending - cycle)
        if res.hit:
            return hit_latency
        if self.write_buffer.contains(addr):
            # Store-to-load forwarding out of the write buffer.
            return hit_latency + 1
        latency = hit_latency + self._level_access(addr, False, cycle, 0)
        self.l1d_mshr.allocate(block, cycle + latency, cycle)
        return latency

    def store(self, addr: int, cycle: int) -> int:
        """Data store; write-through L1 into the coalescing buffer."""
        if cycle > self._clock:
            self._clock = cycle
        else:
            cycle = self._clock
        self.stats.stores += 1
        if cycle >= self._next_due:
            self._advance_l2(cycle)
        self.l1d.access(addr, True, cycle)
        drained = self.write_buffer.push(addr)
        if drained is not None:
            self._level_access(drained, True, cycle, 0)
        # A buffered store retires immediately from the core's view.
        return self.l1d.config.hit_latency

    def replay_l1_tape(self, tape: L1Tape, cycle: int) -> int:
        """Stage B: replay ``tape`` below the L1s.

        ``cycle`` is the cycle before the tape's first reference; returns
        the cycle of its last.  Each reference makes the calls
        :meth:`load` or :meth:`store` would make after the L1D and the
        write buffer answered as the tape says: the clamp to the
        monotonic clock, the sweeps due by then, the MSHR lookup on
        every load (a pending fill wins over a hit or a forward), and
        the L2 fill or drained-block write.  The hierarchy's own L1D and write
        buffer are untouched until :meth:`adopt_l1_state`.
        """
        clock = self._clock
        next_due = self._next_due
        advance = self._advance_l2
        pending_ready = self.l1d_mshr.pending_ready
        allocate = self.l1d_mshr.allocate
        level_access = self._level_access
        hit_latency = self.l1d.config.hit_latency
        shift = self._block_shift
        loads = stores = 0
        for code, step, addr in zip(tape.codes, tape.steps, tape.addrs):
            cycle += step
            if cycle > clock:
                clock = now = cycle
            else:
                now = clock
            if now >= next_due:
                next_due = advance(now)
            if code < STORE:
                loads += 1
                block = addr >> shift
                if pending_ready(block, now) is None and code == LOAD_MISS:
                    latency = hit_latency + level_access(addr, False, now, 0)
                    allocate(block, now + latency, now)
            else:
                stores += 1
                if code == STORE_DRAIN:
                    level_access(addr, True, now, 0)
        self._clock = clock
        self.stats.loads += loads
        self.stats.stores += stores
        return cycle

    def adopt_l1_state(
        self, l1d: SetAssociativeCache, write_buffer: WriteBuffer
    ) -> None:
        """Stage B's last step: take a copy of stage A's final L1D and
        write-buffer state, as a live run through :meth:`load`/:meth:`store`
        would have left it.  The objects (and so the registry entries
        and an attached tracer) stay the hierarchy's own."""
        self.l1d.copy_state_from(l1d)
        self.write_buffer.copy_state_from(write_buffer)

    def drain_write_buffer(self, cycle: int) -> None:
        """Flush all pending buffered stores into the L2."""
        for block in self.write_buffer.drain_all():
            self._level_access(block, True, cycle, 0)

    # -- internals -----------------------------------------------------------

    def _earliest_due(self) -> int:
        """The least ``next_due`` over the levels with a cleaning
        schedule (:data:`_NEVER` when there are none)."""
        return min(
            (cache.cleaning.next_due for _, cache in self._cleaning),
            default=_NEVER,
        )

    def _advance_l2(self, cycle: int) -> int:
        """Run the cleaning sweeps due by ``cycle``; return the cycle at
        which the next one falls due.

        Only levels whose schedule is due are asked: a level asked
        earlier would answer "nothing due" and change nothing.  Each
        level's cleaning write-backs are pushed to the level below it
        (the next cache, or memory for the last level).
        """
        for idx, cache in self._cleaning:
            if cache.cleaning.next_due <= cycle:
                for wb in cache.advance(cycle):
                    self._push_down(wb, cycle, idx + 1)
        self._next_due = due = self._earliest_due()
        return due

    def _push_down(self, wb, cycle: int, level: int) -> None:
        """Deliver a write-back to ``level`` (memory past the last cache).

        A :class:`~repro.cache.cache.Writeback` carrying a compressed
        ``bytes`` count charges memory that size; ``None`` charges the
        full line, exactly as before.
        """
        if level >= len(self.levels):
            size = wb.bytes
            if size is None:
                size = self.levels[-1].config.line_bytes
            self.memory.write(cycle, size)
        else:
            self._level_access(wb.addr, True, cycle, level)

    def _level_access(
        self, addr: int, is_write: bool, cycle: int, level: int
    ) -> int:
        """Access unified cache ``level``; on a miss, fill from the next
        level, or read memory directly past the last.

        Returns the latency contributed by this level and everything
        below it.  Write-backs emitted by the access (replacement,
        cleaning, ECC eviction) are pushed to the next level but do not
        add to the requester's latency (they are posted).
        """
        cache = self.levels[level]
        res = cache.access(addr, is_write, cycle)
        below = level + 1
        for wb in res.writebacks:
            self._push_down(wb, cycle, below)
        latency = cache.config.hit_latency
        if res.fill_addr is not None:
            if below < len(self.levels):
                latency += self._level_access(res.fill_addr, False, cycle, below)
            else:
                latency += (
                    self.memory.read(cycle, cache.config.line_bytes) - cycle
                )
        return latency

    # -- reporting -------------------------------------------------------------

    def writeback_fraction(self) -> float:
        """Write-backs from the L2 as a fraction of all loads/stores.

        This is the paper's Figures 5/6/8 metric.
        """
        refs = self.stats.loads_stores
        if refs == 0:
            return 0.0
        return self.l2.stats.writebacks_total / refs


class L1Recorder:
    """Stage A: run a reference stream through copies of a hierarchy's
    L1D and write buffer and record what they did as :class:`L1Tape`
    chunks.

    The copies start from the hierarchy's state when the recorder is
    made, and cycles are clamped to its clock, as its entry points clamp
    them; the hierarchy itself is not touched.  The copies trace
    nothing: the write-through L1D emits no tracer events in a live run
    either.  Once the stream is used up, :attr:`l1d` and
    :attr:`write_buffer` hold what a live run would leave in the
    hierarchy's own (:meth:`MemoryHierarchy.adopt_l1_state`).
    """

    #: Longest tape :meth:`window` yields: a window of any length holds
    #: one chunk at a time.
    chunk_refs = 1 << 16

    def __init__(self, hierarchy: MemoryHierarchy, stream) -> None:
        self.l1d = SetAssociativeCache(hierarchy.l1d.config)
        self.l1d.copy_state_from(hierarchy.l1d)
        wb = hierarchy.write_buffer
        self.write_buffer = WriteBuffer(wb.entries, wb.block_bytes)
        self.write_buffer.copy_state_from(wb)
        # Sequences must behave like generators: islice over a list would
        # *replay* the warm-up references in the measured window.
        self._stream = iter(stream)
        self._cycle = 0
        self._clock = hierarchy.clock

    def record(self, n: int) -> L1Tape:
        """The next ``n`` references of the stream (fewer when it ends)."""
        access = self.l1d.access
        push, contains = self.write_buffer.push, self.write_buffer.contains
        codes = bytearray()
        steps, addrs = array("B"), array("B")
        put_code, put_step, put_addr = codes.append, steps.append, addrs.append
        cycle, clock = self._cycle, self._clock
        for ref in itertools.islice(self._stream, n):
            step = 1 + ref.gap
            addr = ref.addr
            cycle += step
            if cycle > clock:
                clock = cycle
            if ref.is_write:
                # A store writes through the L1D, then the write buffer
                # coalesces it or drains its oldest block to the L2.
                access(addr, True, clock)
                drained = push(addr)
                if drained is None:
                    put_code(STORE)
                else:
                    put_code(STORE_DRAIN)
                    addr = drained
            elif access(addr, False, clock).hit:
                put_code(LOAD_HIT)
            elif contains(addr):
                # An L1 miss on a buffered block is forwarded from the
                # buffer, unless stage B finds the block's fill pending.
                put_code(LOAD_FORWARD)
            else:
                put_code(LOAD_MISS)
            try:
                put_step(step)
            except (OverflowError, TypeError):
                steps = _widened(steps, step)
                put_step = steps.append
            try:
                put_addr(addr)
            except (OverflowError, TypeError):
                addrs = _widened(addrs, addr)
                put_addr = addrs.append
        self._cycle, self._clock = cycle, clock
        return L1Tape(
            codes=bytes(codes), steps=_frozen(steps), addrs=_frozen(addrs)
        )

    def window(self, n: int, boundary: bool = False) -> Iterator[L1Tape]:
        """The next ``n`` references as tapes of at most
        :attr:`chunk_refs`, each recorded when asked for.  With
        ``boundary`` the window opens at the measurement boundary: both
        copies' counters are zeroed at that cycle, as ``registry.reset``
        zeroes the hierarchy's."""
        if boundary:
            self.l1d.reset(self._cycle)
            self.write_buffer.reset(self._cycle)
        while n > 0:
            tape = self.record(min(n, self.chunk_refs))
            if not len(tape):
                return  # the stream ended
            n -= len(tape)
            yield tape
