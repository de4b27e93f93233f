"""Extension: the scheme at the third cache level.

The paper's title and motivation cover L2 *and* L3 caches (POWER4 and
Itanium protect both with ECC).  This bench runs a three-level scaled
hierarchy with the protected cache at L3: the structural dirty cap
becomes 1/8 (one ECC entry per 8-way set) and the area arithmetic
yields the same 59% reduction on a 4MB L3.
"""

from dataclasses import replace

import pytest
from _shared import BENCH_CONFIG, write_result

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import MemoryHierarchy
from repro.core import (
    ProtectedL2,
    ProtectionConfig,
    conventional_overhead,
    proposed_overhead,
    reduction,
)
from repro.experiments import render_table
from repro.experiments.runner import run_ref_stream
from repro.workloads import get_benchmark, make_ref_stream

#: Benchmarks whose footprints spill past the L2 and exercise the L3:
#: swim streams through 2x the L3, bzip2's footprint is L3-resident,
#: mcf pointer-chases across 2x the L3.
SUBSET = ["swim", "bzip2", "mcf"]


def _three_level_config():
    base = BENCH_CONFIG.geometry.hierarchy_config()
    l3 = CacheConfig(
        "l3",
        size_bytes=4 * base.l2.size_bytes,
        ways=8,
        line_bytes=64,
        hit_latency=25,
    )
    return replace(base, l3=l3)


def _run_all():
    rows = []
    hier_cfg = _three_level_config()
    for name in SUBSET:
        l3 = ProtectedL2(
            hier_cfg.l3,
            ProtectionConfig(
                cleaning_interval=BENCH_CONFIG.geometry.scaled_interval(
                    1 << 20
                ),
                ecc_entries_per_set=1,
            ),
        )
        hierarchy = MemoryHierarchy(config=hier_cfg, l3=l3)
        stream = make_ref_stream(
            get_benchmark(name), BENCH_CONFIG.geometry.l2_bytes,
            seed=BENCH_CONFIG.seed,
        )
        run_ref_stream(stream, hierarchy, BENCH_CONFIG, label=name)
        rows.append(
            [
                name,
                100 * l3.dirty.average_dirty_fraction(hierarchy.clock),
                100 * l3.dirty.peak_dirty / l3.config.n_lines,
                l3.stats.writebacks_cleaning,
                l3.stats.writebacks_ecc_eviction,
            ]
        )
    return rows


def bench_l3_protection(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    # Area story on a full-size 4MB / 8-way / 64B L3.
    l3_full = CacheConfig("l3", 4 * 1024 * 1024, 8, 64)
    conv = conventional_overhead(l3_full)
    ours = proposed_overhead(l3_full)
    red = reduction(conv, ours)

    table = render_table(
        ["benchmark", "L3 dirty %", "peak dirty %", "Clean-WB", "ECC-WB"],
        rows,
        title=(
            "Protected L3 (scaled 3-level hierarchy); full-size 4MB L3 "
            f"area: {conv.total_kib:.0f} -> {ours.total_kib:.0f} KiB "
            f"({100 * red:.1f}% reduction)"
        ),
    )
    write_result("l3_protection", table)

    # One ECC entry per 8-way set bounds dirty residency at 12.5%.
    for name, dirty, peak, _, _ in rows:
        assert peak <= 12.5 + 1e-6, (name, peak)
        assert dirty <= peak
    # The benchmarks that reach the L3 leave dirty lines it must manage.
    assert any(dirty > 0 for _, dirty, _, _, _ in rows)
    # For an 8-way cache the per-set shared array is relatively smaller
    # than the paper's 4-way case, so the saving *grows* past 59%.
    assert red == pytest.approx(0.712, abs=0.002)
    assert conv.total_kib == 528.0
    assert ours.total_kib == 152.0
