"""Differential test: the two-stage reference-mode path against its longhand.

``longhand_run_ref_stream`` below is the readable definition of a
reference-mode run: every reference through
:meth:`MemoryHierarchy.load` / :meth:`MemoryHierarchy.store`, one at a
time.  The runner records the L1 side once as a tape (stage A) and
replays it below the L1s (stage B).  Random short streams — revisits,
stores, gaps of 0–300 cycles — on random hierarchies must give the same
output record, the same registry snapshot and the same L1D, write-buffer
and L2 line state from both, including warm-ups longer than the stream,
a hierarchy driven twice, chunk edges anywhere in a window, the
memoised tape of a benchmark stream and threads sharing that memo.

The hierarchy asks a level's cleaning FSM only once the level's next
due cycle is reached.  :class:`UngatedHierarchy` is the longhand of that
gate: it asks every level with a cleaning schedule at every reference.
Both must leave the same outputs, state and FSM latches, on every L2
variant and on a three-level hierarchy whose L3 sweeps on its own
interval.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
import threading
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import L1Recorder, MemoryHierarchy
from repro.core.policy import available_variants, build_variant_l2, get_variant
from repro.core.protected_cache import ProtectedL2, ProtectionConfig
from repro.core.scrub import check_invariants
from repro.experiments import runner
from repro.experiments.runner import (
    SCALED_GEOMETRY,
    RefRunOutput,
    RunConfig,
    run_ref_stream,
    run_refs,
    run_refs_with_hierarchy,
)
from repro.workloads import MemRef, get_benchmark, make_ref_stream


def longhand_run_ref_stream(stream, hierarchy, config, label, protection):
    """The reference-mode run one ``load``/``store`` call per reference."""
    stream = iter(stream)
    cycle = 0
    load, store = hierarchy.load, hierarchy.store
    for ref in itertools.islice(stream, config.warmup_refs):
        cycle += 1 + ref.gap
        if ref.is_write:
            store(ref.addr, cycle)
        else:
            load(ref.addr, cycle)

    hierarchy.reset_measurement(cycle)
    start_cycle = cycle
    for ref in itertools.islice(stream, config.n_refs):
        cycle += 1 + ref.gap
        if ref.is_write:
            store(ref.addr, cycle)
        else:
            load(ref.addr, cycle)

    for level in hierarchy.levels:
        check_invariants(level)
    l2 = hierarchy.l2
    elapsed = cycle - start_cycle
    refs = hierarchy.stats.loads_stores
    split = {
        "WB": l2.stats.writebacks_replacement / refs if refs else 0.0,
        "Clean-WB": l2.stats.writebacks_cleaning / refs if refs else 0.0,
        "ECC-WB": l2.stats.writebacks_ecc_eviction / refs if refs else 0.0,
    }
    return RefRunOutput(
        benchmark=label,
        protection=protection,
        cycles=elapsed,
        refs=refs,
        dirty_fraction=l2.dirty.average_dirty_fraction(cycle),
        peak_dirty_fraction=l2.dirty.peak_dirty / l2.config.n_lines,
        writeback_fraction=hierarchy.writeback_fraction(),
        writeback_split=split,
        l2_miss_rate=l2.stats.miss_rate,
        bus_utilization=hierarchy.memory.utilization(elapsed),
        mean_dirty_episode_cycles=l2.stats.mean_dirty_episode_cycles,
        silent_writes=l2.stats.silent_writes,
        elided_ecc_updates=l2.stats.elided_ecc_updates,
        wb_bytes_raw=l2.stats.wb_bytes_raw,
        wb_bytes_compressed=l2.stats.wb_bytes_compressed,
        snapshot=hierarchy.snapshot(),
    )


def digest(output) -> str:
    doc = json.dumps(
        dataclasses.asdict(output), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def lines(cache):
    return [
        (l.valid, l.tag, l.dirty, l.written, l.lru_stamp, l.fill_cycle,
         l.fifo_stamp, l.last_touch_cycle, l.dirty_since)
        for ways in cache.sets for l in ways
    ]


def state(hierarchy):
    """Everything a run leaves behind that the output record does not
    already cover."""
    return (
        hierarchy.snapshot(),
        hierarchy.clock,
        lines(hierarchy.l1d),
        hierarchy.l1d._stamp,
        list(hierarchy.write_buffer._pending),
        lines(hierarchy.l2),
        dict(hierarchy.l1d_mshr._pending),
    )


def assert_same(tape_out, tape_h, live_out, live_h):
    assert digest(tape_out) == digest(live_out)
    assert state(tape_h) == state(live_h)


@st.composite
def designs(draw):
    """(hierarchy factory, run configuration, protection)."""
    variant = draw(st.sampled_from(available_variants()))
    interval = draw(st.sampled_from([None, 1 << 14, 1 << 16, 1 << 20]))
    if get_variant(variant).needs_interval and interval is None:
        interval = 1 << 16
    ecc = draw(st.sampled_from([None, 1, 2]))
    protected = draw(st.booleans()) or variant != "standard"
    protection = (
        ProtectionConfig(cleaning_interval=interval, ecc_entries_per_set=ecc)
        if protected else None
    )
    geometry = replace(
        SCALED_GEOMETRY,
        l2_bytes=draw(st.sampled_from([4 * 1024, 16 * 1024, 64 * 1024])),
        interval_scale=draw(st.sampled_from([1 / 32, 1 / 256])),
        write_buffer_entries=draw(st.integers(1, 20)),
    )
    mshrs = draw(st.integers(1, 8))
    config = RunConfig(
        geometry=geometry,
        warmup_refs=draw(st.integers(0, 300)),
        n_refs=draw(st.integers(0, 500)),
        seed=draw(st.integers(0, 3)),
    )

    def build(plain=False, cls=MemoryHierarchy, make_l3=None):
        hier_cfg = replace(geometry.hierarchy_config(), mshr_entries=mshrs)
        if plain:
            return cls(config=hier_cfg)
        l2 = build_variant_l2(variant, geometry, protection, seed=config.seed)
        l3 = None
        if make_l3 is not None:
            l3 = make_l3(l2.config)
            hier_cfg = replace(hier_cfg, l3=l3.config)
        return cls(config=hier_cfg, l2=l2, l3=l3)

    return build, config, protection


def episode_stream(seed: int, length: int):
    """``length`` references in episodes: 2–6 loads and stores to the
    words of one of 256 64-byte blocks (both of its 32-byte L1 lines),
    half of them 0–4 cycles apart and the rest 0–300, so blocks are
    revisited while their fills are still in flight — MSHR merges,
    forwards of a buffered store while a fill is pending, drains."""
    rng = random.Random(seed)
    refs = []
    while len(refs) < length:
        base = 0x10000 + 64 * rng.randrange(256)
        for _ in range(rng.randint(2, 6)):
            short = rng.random() < 0.5
            gap = rng.randint(0, 4) if short else rng.randint(0, 300)
            is_write = rng.random() < 0.5
            refs.append(MemRef(is_write, base + 8 * rng.randrange(8), gap))
    return refs[:length]


def streams(max_length):
    return st.builds(
        episode_stream, st.integers(0, 2**32 - 1), st.integers(0, max_length)
    )


@settings(max_examples=60, deadline=None)
@given(designs(), streams(600))
def test_tape_replay_matches_load_store_loop(design, stream):
    build, config, protection = design
    tape_h, live_h = build(), build()
    tape_out = run_ref_stream(stream, tape_h, config, "t", protection)
    live_out = longhand_run_ref_stream(stream, live_h, config, "t", protection)
    assert_same(tape_out, tape_h, live_out, live_h)


@settings(max_examples=30, deadline=None)
@given(designs(), streams(600), st.integers(1, 40))
def test_chunked_tapes_match_load_store_loop(design, stream, chunk_refs):
    # Stage A records, and stage B replays, a window one chunk at a time.
    build, config, protection = design
    tape_h, live_h = build(), build()
    with mock.patch.object(L1Recorder, "chunk_refs", chunk_refs):
        tape_out = run_ref_stream(stream, tape_h, config, "t", protection)
    live_out = longhand_run_ref_stream(stream, live_h, config, "t", protection)
    assert_same(tape_out, tape_h, live_out, live_h)


@settings(max_examples=30, deadline=None)
@given(designs(), streams(300), streams(300))
def test_used_hierarchy_matches_load_store_loop(design, first, second):
    # The second run starts on a clock and an L1 side the first left.
    build, config, protection = design
    tape_h, live_h = build(), build()
    for stream in (first, second):
        tape_out = run_ref_stream(stream, tape_h, config, "t", protection)
        live_out = longhand_run_ref_stream(
            stream, live_h, config, "t", protection
        )
        assert_same(tape_out, tape_h, live_out, live_h)


@settings(max_examples=20, deadline=None)
@given(
    designs(), st.sampled_from(["swim", "mcf", "mesa"]), st.integers(1, 1000)
)
def test_memoised_tape_matches_load_store_loop(design, benchmark, chunk_refs):
    # A plain L2 of the same geometry runs first, so the tape it leaves
    # behind, in chunks, is served to the design's fresh hierarchy.
    build, config, protection = design
    with mock.patch.object(L1Recorder, "chunk_refs", chunk_refs):
        run_refs_with_hierarchy(benchmark, build(plain=True), config)
    memo = runner._LAST_TAPE
    assert memo[0][0] == benchmark
    tape_h, live_h = build(), build()
    tape_out = run_refs_with_hierarchy(benchmark, tape_h, config, protection)
    assert runner._LAST_TAPE is memo
    stream = make_ref_stream(
        get_benchmark(benchmark), config.geometry.l2_bytes, seed=config.seed
    )
    live_out = longhand_run_ref_stream(
        stream, live_h, config, benchmark, protection
    )
    assert_same(tape_out, tape_h, live_out, live_h)


def test_memo_keeps_only_runs_within_its_limit():
    # A longer run records as it replays and leaves no tape behind.
    config = RunConfig(n_refs=1_000, warmup_refs=500)
    with mock.patch.object(runner, "_LAST_TAPE", None):
        with mock.patch.object(runner, "_MEMO_REFS", 1_499):
            run_refs("swim", None, config)
        assert runner._LAST_TAPE is None
        with mock.patch.object(runner, "_MEMO_REFS", 1_500):
            run_refs("swim", None, config)
        assert runner._LAST_TAPE[0][0] == "swim"


def test_memo_is_safe_under_threads():
    # The job service runs cells on threads that share the one-slot
    # memo: interleaved benchmarks and designs, with the interpreter
    # switching threads often, must give the sequential outputs.
    config = RunConfig(n_refs=1_500, warmup_refs=500)
    protections = [
        None, ProtectionConfig(cleaning_interval=1 << 16, ecc_entries_per_set=1)
    ]
    jobs = [(b, p) for b in ("swim", "mcf", "mesa") for p in (0, 1)] * 2
    expected = {
        job: digest(run_refs(job[0], protections[job[1]], config))
        for job in set(jobs)
    }
    results = {}

    def work(i, bench, p):
        results[i] = digest(run_refs(bench, protections[p], config))

    threads = [
        threading.Thread(target=work, args=(i, *job))
        for i, job in enumerate(jobs)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: expected[job] for i, job in enumerate(jobs)}


class UngatedHierarchy(MemoryHierarchy):
    """The cleaning rule the next-due gate must reproduce: :meth:`load`,
    :meth:`store` and :meth:`ifetch` ask every level that has a cleaning
    schedule at every reference, and the inherited gate never opens."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._next_due = math.inf

    def _ask_every_level(self, cycle):
        cycle = max(cycle, self.clock)
        for idx, cache in enumerate(self.levels):
            if getattr(cache, "cleaning", None) is not None:
                for wb in cache.advance(cycle):
                    self._push_down(wb, cycle, idx + 1)

    def ifetch(self, addr, cycle):
        self._ask_every_level(cycle)
        return super().ifetch(addr, cycle)

    def load(self, addr, cycle):
        self._ask_every_level(cycle)
        return super().load(addr, cycle)

    def store(self, addr, cycle):
        self._ask_every_level(cycle)
        return super().store(addr, cycle)


def full_state(hierarchy):
    """:func:`state` plus every level's lines, the instruction side and
    each cleaning FSM's latch and next due cycle."""
    return (
        state(hierarchy),
        [lines(level) for level in hierarchy.levels],
        lines(hierarchy.l1i),
        dict(hierarchy.l1i_mshr._pending),
        [
            (level.cleaning.checks, level.cleaning.next_set,
             level.cleaning.next_due)
            for level in hierarchy.levels
            if getattr(level, "cleaning", None) is not None
        ],
    )


@st.composite
def gate_designs(draw):
    """(hierarchy factory taking the class, run configuration,
    protection): every L2 variant, ECC-only and plain L2s, and an
    optional L3 — plain, or protected on an interval that is not a
    power of two, so it never sweeps in step with the L2."""
    build_two_level, config, protection = draw(designs())
    l3_kind = draw(st.sampled_from([None, "plain", "protected"]))
    l3_interval = draw(st.sampled_from([300, 700, 1500, 5000]))
    l3_ecc = draw(st.sampled_from([None, 1]))

    def make_l3(l2_config):
        l3_config = replace(
            l2_config, name="l3", size_bytes=4 * l2_config.size_bytes,
            ways=8, hit_latency=25,
        )
        if l3_kind == "plain":
            return SetAssociativeCache(l3_config)
        return ProtectedL2(l3_config, ProtectionConfig(
            cleaning_interval=l3_interval, ecc_entries_per_set=l3_ecc
        ))

    def build(cls=MemoryHierarchy):
        return build_two_level(
            cls=cls, make_l3=make_l3 if l3_kind is not None else None
        )

    return build, config, protection


def assert_same_state(gated, ungated):
    assert full_state(gated) == full_state(ungated)
    for level in gated.levels:
        check_invariants(level)


@settings(max_examples=60, deadline=None)
@given(gate_designs(), streams(600))
def test_gated_runs_match_ungated_rule(design, stream):
    build, config, protection = design
    ungated_h = build(UngatedHierarchy)
    ungated = longhand_run_ref_stream(stream, ungated_h, config, "t", protection)
    tape_h, live_h = build(), build()
    tape = run_ref_stream(stream, tape_h, config, "t", protection)
    live = longhand_run_ref_stream(stream, live_h, config, "t", protection)
    assert digest(tape) == digest(live) == digest(ungated)
    assert_same_state(tape_h, ungated_h)
    assert_same_state(live_h, ungated_h)


@st.composite
def cpu_requests(draw):
    """(kind, address, cycle) calls as an out-of-order core makes them:
    instruction fetches, loads and stores, cycles that mostly advance —
    sometimes by far more than two sweeps — and sometimes step back."""
    cycle = 0
    calls = []
    for _ in range(draw(st.integers(0, 300))):
        cycle += draw(st.one_of(
            st.integers(0, 6), st.integers(0, 400), st.integers(0, 60_000)
        ))
        presented = max(0, cycle - draw(st.sampled_from([0, 0, 0, 3, 20])))
        kind = draw(st.sampled_from(["ifetch", "load", "store"]))
        addr = 0x10000 + 8 * draw(st.integers(0, 2047))
        calls.append((kind, addr, presented))
    return calls


@settings(max_examples=60, deadline=None)
@given(gate_designs(), cpu_requests())
def test_gated_entry_points_match_ungated_rule(design, calls):
    build, _, _ = design
    gated, ungated = build(), build(UngatedHierarchy)
    for kind, addr, cycle in calls:
        assert getattr(gated, kind)(addr, cycle) == getattr(ungated, kind)(
            addr, cycle
        )
    assert_same_state(gated, ungated)
