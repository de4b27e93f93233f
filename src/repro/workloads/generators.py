"""Building-block memory-reference generators.

Each generator yields an endless stream of :class:`MemRef` — one data
memory reference plus ``gap``, the number of non-memory instructions
that precede it (so a cache-only run can advance its cycle clock and a
CPU run can interleave compute instructions).

The four archetypes cover the SPEC2000 behaviours the paper's results
hinge on:

``streaming``
    Sequential sweeps over arrays much larger than the cache (swim,
    applu, mgrid): lines live briefly, so long cleaning intervals never
    catch them.
``blocked``
    Generational tile reuse (mesa, apsi, gap): a tile is filled, worked
    on, then abandoned *dirty* inside a cache-resident working set —
    exactly the dead-line population cleaning reclaims.
``pointer``
    Pointer chasing over a huge footprint (mcf).
``zipf``
    Skewed reuse over a cache-sized set (parser, vpr, twolf): hot lines
    keep their written bit set and survive cleaning; cold dirty lines
    are reclaimed.
"""

from __future__ import annotations

import bisect
import random
from math import log
from typing import Callable, Iterator, NamedTuple


class MemRef(NamedTuple):
    """One data reference: write flag, byte address, preceding non-mem insts."""

    is_write: bool
    addr: int
    gap: int


def _gap_rate(mean_gap: float) -> float:
    """The ``lambd`` that :func:`_gap` draws with (0.0: no gaps)."""
    return 1.0 / mean_gap if mean_gap > 0 else 0.0


def _gap(draw: Callable[[], float], lambd: float) -> int:
    """Draw the number of non-memory instructions before the next reference.

    Exponential with mean ``1 / lambd`` truncated to an integer and
    capped at 64: cheap and adequately bursty.  ``draw`` is the
    stream's bound ``rng.random``.  The double is exactly the one
    ``rng.expovariate(lambd)`` returns (the same formula, one call
    fewer per reference); ``lambd`` must be ``1.0 / mean_gap`` — scaling
    by ``mean_gap`` instead would round differently.
    """
    if lambd <= 0.0:
        return 0
    gap = int(-log(1.0 - draw()) / lambd)
    return gap if gap < 64 else 64


def streaming_stream(
    rng: random.Random,
    ws_bytes: int,
    store_ratio: float = 0.3,
    arrays: int = 3,
    stride: int = 8,
    base: int = 1 << 30,
    mean_gap: float = 1.5,
) -> Iterator[MemRef]:
    """Round-robin sequential sweeps over ``arrays`` equal arrays.

    Each position is visited in every array per step; a fixed fraction
    of the arrays (the last ``round(arrays*store_ratio)``) are written,
    matching the read-read-write structure of stencil codes.
    """
    array_bytes = max(stride, ws_bytes // max(arrays, 1))
    writers = min(arrays, round(arrays * store_ratio))
    if store_ratio > 0:
        writers = max(1, writers)
    bases = [base + i * (1 << 26) for i in range(arrays)]
    draw, lambd = rng.random, _gap_rate(mean_gap)
    offset = 0
    while True:
        for idx, a_base in enumerate(bases):
            is_write = idx >= arrays - writers
            yield MemRef(is_write, a_base + offset, _gap(draw, lambd))
        offset += stride
        if offset >= array_bytes:
            offset = 0


def blocked_stream(
    rng: random.Random,
    ws_bytes: int,
    tile_bytes: int = 16 * 1024,
    reuse: int = 4,
    store_ratio: float = 0.5,
    stride: int = 8,
    base: int = 1 << 31,
    mean_gap: float = 1.5,
) -> Iterator[MemRef]:
    """Generational tile processing within a bounded working set.

    A tile is swept ``reuse`` times — reads on the first pass, a
    read/write mix afterwards — then the generator moves to the next
    tile and never writes the old one again.  Inside a cache-resident
    working set this leaves behind exactly the write-dead dirty lines
    the paper's cleaning logic targets.
    """
    n_tiles = max(1, ws_bytes // tile_bytes)
    refs_per_pass = max(1, tile_bytes // stride)
    draw, lambd = rng.random, _gap_rate(mean_gap)
    tile_cursor = 0
    while True:
        # Mostly march through the working set in order (so the whole
        # footprint is covered quickly) with occasional random revisits.
        if rng.random() < 0.1:
            tile = rng.randrange(n_tiles)
        else:
            tile = tile_cursor
            tile_cursor = (tile_cursor + 1) % n_tiles
        tile_base = base + tile * tile_bytes
        for pass_no in range(reuse):
            for i in range(refs_per_pass):
                addr = tile_base + i * stride
                is_write = pass_no > 0 and draw() < store_ratio
                yield MemRef(is_write, addr, _gap(draw, lambd))


def pointer_stream(
    rng: random.Random,
    ws_bytes: int,
    store_ratio: float = 0.12,
    node_bytes: int = 64,
    base: int = 3 << 30,
    mean_gap: float = 2.0,
) -> Iterator[MemRef]:
    """Random pointer chase over ``ws_bytes`` of node storage (mcf-like).

    Each step reads one node; occasionally the node is also updated.
    """
    n_nodes = max(1, ws_bytes // node_bytes)
    draw, lambd = rng.random, _gap_rate(mean_gap)
    while True:
        node = rng.randrange(n_nodes)
        addr = base + node * node_bytes
        yield MemRef(False, addr, _gap(draw, lambd))
        if draw() < store_ratio:
            yield MemRef(True, addr + 8, _gap(draw, lambd))


def zipf_stream(
    rng: random.Random,
    ws_bytes: int,
    alpha: float = 0.9,
    store_ratio: float = 0.35,
    fresh_write_fraction: float = 0.8,
    granule_bytes: int = 64,
    base: int = 5 << 30,
    mean_gap: float = 1.5,
    batch: int = 4096,
) -> Iterator[MemRef]:
    """Zipf-skewed reads plus allocation-style writes (parser/vpr/twolf).

    Reads follow a Zipf popularity law over the working set's blocks.
    Writes split two ways: a ``fresh_write_fraction`` share goes to a
    bump-allocator cursor marching through the working set — blocks
    written once and then only read (the write-dead generational
    population the cleaning logic reclaims) — while the remainder
    rewrites popular blocks (which therefore keep their written bits set
    and rightly survive cleaning).
    """
    n = max(1, ws_bytes // granule_bytes)
    # Picks bisect the cumulative Zipf weights; the rank->block shuffle
    # scatters the hot blocks across sets.
    cdf, acc = [], 0.0
    for rank in range(1, n + 1):
        acc += float(rank) ** (-alpha)
        cdf.append(acc)
    cdf = [value / acc for value in cdf]
    perm = list(range(n))
    random.Random(rng.randrange(2**31)).shuffle(perm)
    pick_draw = random.Random(rng.randrange(2**31)).random

    slots_per_block = max(1, granule_bytes // 8)
    draw, lambd = rng.random, _gap_rate(mean_gap)
    alloc_slot = 0  # bump-allocator position, in 8-byte slots
    while True:
        picks = [
            perm[min(bisect.bisect_left(cdf, pick_draw()), n - 1)]
            for _ in range(batch)
        ]
        for block in picks:
            if rng.random() < store_ratio:
                if rng.random() < fresh_write_fraction:
                    # Write-once allocation: fill the working set slot by
                    # slot, so the writes within a block coalesce in the
                    # write buffer the way a real allocator's do.
                    target_block, slot = divmod(alloc_slot, slots_per_block)
                    alloc_slot = (alloc_slot + 1) % (n * slots_per_block)
                    addr = base + target_block * granule_bytes + slot * 8
                else:
                    addr = base + block * granule_bytes
                yield MemRef(True, addr, _gap(draw, lambd))
            else:
                addr = (
                    base
                    + block * granule_bytes
                    + rng.randrange(0, granule_bytes, 8)
                )
                yield MemRef(False, addr, _gap(draw, lambd))
