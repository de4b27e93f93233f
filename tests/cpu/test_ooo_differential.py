"""Differential test: the recorded-and-replayed ``OoOCore.run`` against
its longhand.

``longhand_run`` (``tests/cpu/longhand.py``) is the readable definition
of the timing model: one step per pipeline stage, the fetch and commit
bandwidth limits as :class:`BandwidthGate` objects, functional units
keyed by :class:`OpClass`, and the predictor, TLBs and hierarchy
called live.  ``OoOCore.run`` is the same model split at the front
end and below the L1s: a :class:`~repro.cpu.tape.CoreTape` recorded
once (front end, L1I, L1D and write buffer) and replayed in one flat
loop.  Random instruction lists on random machine shapes, replayed
whole or in chunks of random size, must give the same
:class:`RunResult`, the same unit free times and the same
hierarchy/predictor/TLB state, the L1 lines, write buffer and MSHR
tables included; a group of ``run_ipc`` machines sharing one recorded
front end must give each member its solo output.
"""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import available_variants, get_variant
from repro.cpu import Inst, OoOCore, OpClass, ProcessorConfig
from repro.cpu.config import FunctionalUnits
from repro.experiments.runner import RunConfig, run_ipc, run_ipc_group
from tests.cpu.longhand import longhand_run
from tests.cpu.test_ooo import make_hierarchy
from tests.experiments.test_sim_golden import PROTECTIONS, digest


CODE_BASE = 0x400000

processors = st.builds(
    ProcessorConfig,
    ruu_entries=st.integers(1, 32),
    lsq_entries=st.integers(1, 8),
    decode_width=st.integers(1, 4),
    commit_width=st.integers(1, 4),
    functional_units=st.builds(
        FunctionalUnits,
        int_add=st.integers(1, 4),
        int_mul=st.integers(1, 3),
        fp_add=st.integers(1, 3),
        fp_mul=st.integers(1, 3),
        mem_ports=st.integers(1, 3),
    ),
    mispredict_penalty=st.integers(0, 5),
    fetch_block_bytes=st.sampled_from([4, 8, 16, 32, 64]),
)


def build_insts(rows):
    """Insts from drawn rows: sequential code that sometimes jumps (so
    fetch blocks are crossed at random points), addresses for memory
    ops, no destination for stores, outcome/target for branches."""
    insts = []
    pc = CODE_BASE
    for op, jump, word, dest, srcs, taken, target in rows:
        if jump is not None:
            pc = CODE_BASE + 4 * jump
        mem = op is OpClass.LOAD or op is OpClass.STORE
        insts.append(Inst(
            op, pc, 8 * word if mem else 0,
            -1 if op is OpClass.STORE else dest, tuple(srcs),
            taken if op is OpClass.BRANCH else False,
            CODE_BASE + 4 * target if op is OpClass.BRANCH else 0,
        ))
        pc += 4
    return insts


#: Random streams over every op class: jumps anywhere in a 256-slot
#: code region, loads and stores over eight 4 KiB pages, destinations
#: that may be -1, up to three sources from eight registers.
inst_rows = st.tuples(
    st.sampled_from(list(OpClass)),
    st.one_of(st.none(), st.none(), st.integers(0, 255)),
    st.integers(0, 4095),
    st.integers(-1, 7),
    st.lists(st.integers(0, 7), max_size=3),
    st.booleans(),
    st.integers(0, 255),
)
#: The length is drawn uniformly so long streams, which fill the RUU
#: and LSQ, are as common as short ones.
inst_lists = st.integers(0, 160).flatmap(
    lambda n: st.lists(inst_rows, min_size=n, max_size=n)
).map(build_insts)


@given(processors, inst_lists)
@settings(max_examples=60, deadline=None)
def test_run_matches_longhand(processor, insts):
    core = OoOCore(make_hierarchy(), config=processor)
    oracle = OoOCore(make_hierarchy(), config=processor)

    got = core.run(insts)
    want, want_units = longhand_run(oracle, insts)

    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert [core._fu_free[op] for op in OpClass] == [
        want_units[op] for op in OpClass
    ]
    assert core.hierarchy.snapshot() == oracle.hierarchy.snapshot()
    assert below_core_state(core) == below_core_state(oracle)


def test_longhand_agrees_on_a_mixed_stream():
    """One fixed stream through both loops on the Table 1 machine."""
    from tests.cpu.test_ooo_properties import random_stream

    insts = random_stream(3, 400)
    core = OoOCore(make_hierarchy())
    oracle = OoOCore(make_hierarchy())
    want, _ = longhand_run(oracle, insts)
    assert core.run(insts) == want
    assert core.hierarchy.snapshot() == oracle.hierarchy.snapshot()


def below_core_state(core):
    """The L1I and L1D lines (every field but the two cycle fields,
    which stage A cannot know), their ``_stamp``, the write buffer's
    blocks in order, and both MSHR tables."""
    hierarchy = core.hierarchy
    return (
        [
            [
                [(l.valid, l.tag, l.dirty, l.written, l.lru_stamp,
                  l.fifo_stamp, l.dirty_since) for l in ways]
                for ways in cache.sets
            ] + [cache._stamp]
            for cache in (hierarchy.l1i, hierarchy.l1d)
        ],
        list(hierarchy.write_buffer._pending),
        [
            (dict(mshr._pending), mshr._last_cycle, mshr._last_block)
            for mshr in (hierarchy.l1i_mshr, hierarchy.l1d_mshr)
        ],
    )


def front_end_state(core):
    """Everything the predictor and the TLBs hold, tables included."""
    predictor = core.predictor
    return (
        predictor._pht, predictor._history, predictor._btb_tags,
        predictor._btb_targets, predictor._btb_valid,
        dataclasses.asdict(predictor.stats),
        [(tlb._sets, tlb._stamp, dataclasses.asdict(tlb.stats))
         for tlb in (core.itlb, core.dtlb)],
    )


#: Rows beyond what the mixer emits: negative register ids (no
#: register), ids and addresses too wide for a byte column, and far
#: jumps, so the tape's columns widen and its general source path runs.
registers = st.one_of(st.integers(-3, 7), st.integers(250, 260))
wide_rows = st.tuples(
    st.sampled_from(list(OpClass)),
    st.one_of(st.none(), st.none(), st.integers(0, 1 << 20)),
    st.one_of(st.integers(0, 4095), st.integers(0, 1 << 40)),
    registers,
    st.lists(registers, max_size=4),
    st.booleans(),
    st.integers(0, 255),
)
mixed_lists = st.integers(0, 160).flatmap(
    lambda n: st.lists(
        st.one_of(inst_rows, inst_rows, wide_rows), min_size=n, max_size=n
    )
).map(build_insts)


@given(processors, mixed_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_chunked_tape_replay_matches_longhand(processor, insts, data):
    """Stage A on one core, chunks of random sizes (1 to the stream
    length) replayed into it and into a second core that then adopts
    its front end; both adopt the recorder's L1 state: both equal the
    longhand live run."""
    sizes = data.draw(st.lists(
        st.integers(1, max(1, len(insts))), min_size=1, max_size=6,
    ))
    recording = OoOCore(make_hierarchy(), config=processor)
    replaying = OoOCore(make_hierarchy(), config=processor)
    oracle = OoOCore(make_hierarchy(), config=processor)
    recorder = recording.recorder(insts)
    for size in itertools.cycle(sizes):
        tape = recorder.record(size)
        if not len(tape):
            break
        assert len(tape) <= size
        recording.run(tape)
        replaying.run(tape)
    replaying.adopt_front_end(recording)
    for core in (recording, replaying):
        core.hierarchy.adopt_l1_state(
            recorder.l1d, recorder.write_buffer, recorder.l1i
        )
    want, want_units = longhand_run(oracle, insts)

    for core in (recording, replaying):
        assert dataclasses.asdict(core.result) == dataclasses.asdict(want)
        assert [core._fu_free[op] for op in OpClass] == [
            want_units[op] for op in OpClass
        ]
        assert core.hierarchy.snapshot() == oracle.hierarchy.snapshot()
        assert below_core_state(core) == below_core_state(oracle)
        assert front_end_state(core) == front_end_state(oracle)


def test_negative_register_ids_are_no_register():
    """A negative source is skipped, not taken as the end of the
    sources; a negative destination is never written."""
    insts = [
        Inst(OpClass.INT_MUL, CODE_BASE, dest=3),
        Inst(OpClass.FP_MUL, CODE_BASE + 4, dest=5, srcs=(-1, 3)),
        Inst(OpClass.FP_MUL, CODE_BASE + 8, dest=6, srcs=(-2, -1, 7, 5)),
        Inst(OpClass.INT_ALU, CODE_BASE + 12, dest=-2, srcs=(6, -3)),
        Inst(OpClass.INT_MUL, CODE_BASE + 16, srcs=(-2,)),
    ]
    core = OoOCore(make_hierarchy())
    want, _ = longhand_run(OoOCore(make_hierarchy()), insts)
    assert core.run(insts) == want


#: The run_ipc design space at small sizes: (protection, variant)
#: members, drawn two or three to a group; a variant that needs a
#: cleaning interval never meets the plain L2.
members = st.tuples(
    st.sampled_from(sorted(PROTECTIONS)),
    st.sampled_from(available_variants()),
).filter(lambda m: m[0] != "plain" or not get_variant(m[1]).needs_interval)


@given(
    st.sampled_from(["swim", "mcf", "mesa", "gap", "art"]),
    st.lists(members, min_size=2, max_size=3),
    st.one_of(st.none(), processors),
    st.integers(1, 2500),
    st.integers(0, 3),
)
@settings(max_examples=12, deadline=None)
def test_grouped_run_ipc_matches_solo(
    benchmark, group, processor, n_insts, seed
):
    """Each member of one recorded front end has its solo run's
    golden-style digest: every output field and the whole snapshot."""
    config = RunConfig(n_refs=2000, warmup_refs=500, seed=seed)
    grouped = run_ipc_group(
        benchmark,
        [(PROTECTIONS[name], variant) for name, variant in group],
        config, n_insts=n_insts, processor=processor,
    )
    for (name, variant), out in zip(group, grouped):
        solo = run_ipc(
            benchmark, PROTECTIONS[name], config, n_insts=n_insts,
            processor=processor, variant=variant,
        )
        assert digest(out) == digest(solo)
