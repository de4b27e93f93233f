"""Stage B's in-frame L2 read against the generic ``_level_access`` path.

``MemoryHierarchy.replay_l1_tape`` reads a lone unified level in its own
frame when neither the level's class nor the instance replaces
``SetAssociativeCache.access``.  Assigning ``l2.access = l2.access`` on
the instance forces the generic path on the same cache, so every L2
(plain and each registered variant) under every replacement policy,
traced and untraced, must end both runs in the same state: the output
record with its snapshot, all nine slots of every line, the LRU stamp,
the MSHR table in order, the ECC array, the bus and the tracer events.
The geometry is small, so mcf and swim tapes of a few thousand
references read into sets full of dirty lines.

The second half checks who may take the in-frame path at all: with an
L3 below, an L2 class of its own ``access`` (``EagerL2``) or an access
patched on the instance, the cache sees every L2 access.
"""

import dataclasses
from unittest import mock

import pytest

from repro.cache import hierarchy as hierarchy_module
from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.line import CacheLine
from repro.cache.replacement import make_policy
from repro.core.eager import EagerL2
from repro.core.policy import available_variants, build_variant_l2
from repro.core.protected_cache import ProtectionConfig
from repro.experiments.runner import (
    Geometry,
    RunConfig,
    build_l2,
    run_refs_with_hierarchy,
)
from repro.telemetry.tracing import EventTracer

TINY = Geometry(
    name="tiny", l1_bytes=1024, l2_bytes=8 * 1024, interval_scale=1 / 64
)
CONFIG = RunConfig(geometry=TINY, n_refs=3000, warmup_refs=1000, seed=5)
PROTECTION = ProtectionConfig(cleaning_interval=65536, ecc_entries_per_set=1)

L2S = ["plain"] + available_variants()
POLICIES = ["lru", "fifo", "random"]


def build(l2_name: str, policy: str = "lru") -> MemoryHierarchy:
    if l2_name == "plain":
        l2 = build_l2(TINY, None, seed=CONFIG.seed)
    else:
        l2 = build_variant_l2(l2_name, TINY, PROTECTION, seed=CONFIG.seed)
    if policy != "lru":
        l2.policy = make_policy(policy, seed=CONFIG.seed)
    return MemoryHierarchy(config=TINY.hierarchy_config(), l2=l2)


def run(hierarchy, benchmark, traced):
    """Run one cell; returns its state, the L2 reads that went through
    ``_level_access`` and the dirty victims the replay loop evicted."""
    tracer = EventTracer(capacity=1 << 20) if traced else None
    level_access = MemoryHierarchy._level_access
    made = hierarchy_module.AccessResult
    calls = {"generic_reads": 0, "dirty_victims": 0}

    def counted_level_access(self, addr, is_write, cycle, level):
        if not is_write:
            calls["generic_reads"] += 1
        return level_access(self, addr, is_write, cycle, level)

    def counted_result(*args):
        calls["dirty_victims"] += 1
        return made(*args)

    with mock.patch.object(
        MemoryHierarchy, "_level_access", counted_level_access
    ), mock.patch.object(hierarchy_module, "AccessResult", counted_result):
        out = run_refs_with_hierarchy(
            benchmark, hierarchy, CONFIG, tracer=tracer
        )
    l2 = hierarchy.l2
    mshr = hierarchy.l1d_mshr
    state = {
        "output": dataclasses.asdict(out),
        "lines": [
            tuple(getattr(line, slot) for slot in CacheLine.__slots__)
            for ways in l2.sets for line in ways
        ],
        "stamp": l2._stamp,
        "mshr": (list(mshr._pending.items()), mshr._last_cycle,
                 mshr._last_block),
        "bus_free_at": hierarchy.memory.bus_free_at,
        "clock": hierarchy.clock,
        "ecc": (
            None if getattr(l2, "ecc_array", None) is None
            else l2.ecc_array._owners
        ),
        "rng": (
            l2.policy._rng.getstate() if hasattr(l2.policy, "_rng") else None
        ),
        "events": (tracer.events(), tracer.counts) if traced else None,
    }
    return state, calls


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("bench", ["mcf", "swim"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("l2_name", L2S)
def test_inline_read_equals_generic_path(l2_name, policy, bench, traced):
    if l2_name == "eager" and policy != "lru":
        pytest.skip("eager write-back is defined for LRU caches only")
    fast, fast_calls = run(build(l2_name, policy), bench, traced)

    generic_hierarchy = build(l2_name, policy)
    l2 = generic_hierarchy.l2
    l2.access = l2.access
    generic, generic_calls = run(generic_hierarchy, bench, traced)

    assert generic_calls["generic_reads"] > 0
    if l2_name == "eager":
        assert fast_calls["generic_reads"] == generic_calls["generic_reads"]
    else:
        assert fast_calls["generic_reads"] == 0
        if l2_name != "plain" and bench == "mcf":
            # Reads that evicted a dirty line ran the class's own
            # write-back hook from the replay loop.
            assert fast_calls["dirty_victims"] > 0
    for key in fast:
        assert fast[key] == generic[key], key
    if traced:
        assert fast["events"][0]


def _l2_accesses(l2) -> int:
    s = l2.stats
    return s.read_hits + s.read_misses + s.write_hits + s.write_misses


def _counting(access, seen):
    def counted(self, addr, is_write, cycle):
        seen.append(self)
        return access(self, addr, is_write, cycle)
    return counted


def _whole_run_accesses(hierarchy) -> int:
    """``l2`` accesses over warm-up and measurement, counted by the
    cache's own counters (zeroed at the boundary, so both windows)."""
    l2 = hierarchy.l2
    counts = []
    reset = hierarchy.reset_measurement

    def counted_reset(cycle):
        counts.append(_l2_accesses(l2))
        reset(cycle)

    hierarchy.reset_measurement = counted_reset
    run_refs_with_hierarchy("mcf", hierarchy, CONFIG)
    return sum(counts) + _l2_accesses(l2)


def test_l3_hierarchy_sees_every_l2_access():
    seen = []
    counted = _counting(SetAssociativeCache.access, seen)
    with mock.patch.object(SetAssociativeCache, "access", counted):
        hierarchy = MemoryHierarchy(
            config=dataclasses.replace(
                TINY.hierarchy_config(),
                l3=dataclasses.replace(
                    TINY.hierarchy_config().l2, name="l3",
                    size_bytes=32 * 1024,
                ),
            ),
        )
        total = _whole_run_accesses(hierarchy)
        lone = MemoryHierarchy(config=TINY.hierarchy_config())
        lone_total = _whole_run_accesses(lone)
    assert total > 0
    assert sum(1 for cache in seen if cache is hierarchy.l2) == total
    # The same class-level patch leaves a lone L2 on the in-frame path,
    # which makes only its drains through ``access``.
    assert 0 < sum(1 for cache in seen if cache is lone.l2) < lone_total


def test_eager_l2_sees_every_access():
    seen = []
    counted = _counting(EagerL2.access, seen)
    with mock.patch.object(EagerL2, "access", counted):
        hierarchy = build("eager")
        total = _whole_run_accesses(hierarchy)
    assert total > 0
    assert len(seen) == total


@pytest.mark.parametrize("l2_name", ["plain", "standard"])
def test_instance_patched_access_sees_every_access(l2_name):
    hierarchy = build(l2_name)
    l2 = hierarchy.l2
    seen = []
    access = l2.access

    def counted(addr, is_write, cycle):
        seen.append(addr)
        return access(addr, is_write, cycle)

    l2.access = counted
    total = _whole_run_accesses(hierarchy)
    assert total > 0
    assert len(seen) == total
