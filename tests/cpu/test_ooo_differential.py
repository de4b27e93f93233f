"""Differential test: the flat ``OoOCore.run`` loop against its longhand.

``longhand_run`` below is the readable definition of the timing model:
one step per pipeline stage, the fetch and commit bandwidth limits as
:class:`_BandwidthGate` objects and functional units keyed by
:class:`OpClass`.  ``OoOCore.run`` is the same model written as one flat
loop for speed.  Random instruction lists on random machine shapes must
give the same :class:`RunResult`, the same unit free times and the same
hierarchy/predictor/TLB state from both.
"""

import dataclasses
from collections import deque
from typing import Deque, Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Inst, OoOCore, OpClass, ProcessorConfig
from repro.cpu.config import FunctionalUnits
from repro.cpu.ooo import RunResult, _BandwidthGate
from repro.cpu.trace import EXEC_LATENCY
from tests.cpu.test_ooo import make_hierarchy


def longhand_run(self: OoOCore, insts):
    """The timing model one stage at a time; returns the run's summary
    and the per-op unit free times it leaves behind."""
    cfg = self.config
    result = RunResult()
    fu_free = {
        op: [0] * count
        for op, count in cfg.functional_units.pool().items()
    }

    fetch_gate = _BandwidthGate(cfg.decode_width)
    commit_gate = _BandwidthGate(cfg.commit_width)
    #: Commit times of in-flight instructions (RUU) / mem ops (LSQ).
    ruu: Deque[int] = deque()
    lsq: Deque[int] = deque()
    reg_ready: Dict[int, int] = {}
    #: Earliest cycle the front end may deliver the next instruction.
    stall_until = 0
    #: Availability time of the current fetch block.
    block_ready = 0
    current_block = None
    last_commit = 0
    block_mask = ~(cfg.fetch_block_bytes - 1)

    for inst in insts:
        result.instructions += 1

        # ---- fetch ----
        block = inst.pc & block_mask
        if block != current_block:
            current_block = block
            t = max(stall_until, block_ready)
            penalty = self.itlb.translate(inst.pc)
            lat = self.hierarchy.ifetch(inst.pc, t)
            block_ready = t + penalty + (lat - 1)
        fetch_time = fetch_gate.admit(max(stall_until, block_ready))

        # ---- dispatch: RUU/LSQ occupancy ----
        dispatch = fetch_time + 1
        while ruu and ruu[0] <= dispatch:
            ruu.popleft()
        if len(ruu) >= cfg.ruu_entries:
            dispatch = ruu.popleft()
        if inst.op.is_mem:
            while lsq and lsq[0] <= dispatch:
                lsq.popleft()
            if len(lsq) >= cfg.lsq_entries:
                dispatch = lsq.popleft()

        # ---- issue: operands + functional unit ----
        ready = dispatch
        for src in inst.srcs:
            avail = reg_ready.get(src, 0)
            if avail > ready:
                ready = avail
        units = fu_free[inst.op]
        unit_idx = min(range(len(units)), key=units.__getitem__)
        issue = max(ready, units[unit_idx])

        # ---- execute ----
        latency = EXEC_LATENCY[inst.op]
        if inst.op is OpClass.LOAD:
            latency += self.dtlb.translate(inst.addr)
            latency += self.hierarchy.load(inst.addr, issue)
            result.loads += 1
            result.load_latency_total += latency
        elif inst.op is OpClass.STORE:
            latency += self.dtlb.translate(inst.addr)
            result.stores += 1
        complete = issue + latency
        # Pipelined units accept a new op next cycle; the single
        # mult/div units are unpipelined and block for the full op.
        if inst.op in (OpClass.INT_MUL, OpClass.FP_MUL):
            units[unit_idx] = complete
        else:
            units[unit_idx] = issue + 1

        if inst.dest >= 0:
            reg_ready[inst.dest] = complete

        # ---- branch resolution ----
        if inst.op is OpClass.BRANCH:
            result.branches += 1
            mispredict = self.predictor.predict_and_update(
                inst.pc, inst.taken, inst.target
            )
            if mispredict:
                result.mispredicts += 1
                redirect = complete + cfg.mispredict_penalty
                if redirect > stall_until:
                    stall_until = redirect
                current_block = None  # refetch starts a new block

        # ---- commit (in order) ----
        commit = commit_gate.admit(max(complete, last_commit))
        last_commit = commit
        ruu.append(commit)
        if inst.op.is_mem:
            lsq.append(commit)
        if inst.op is OpClass.STORE:
            # Write-through L1 + write buffer at retirement.
            self.hierarchy.store(inst.addr, commit)

    result.cycles = last_commit
    return result, fu_free


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


def test_longhand_agrees_on_a_mixed_stream():
    """One fixed stream through both loops on the Table 1 machine."""
    from tests.cpu.test_ooo_properties import random_stream

    insts = random_stream(3, 400)
    core = OoOCore(make_hierarchy())
    oracle = OoOCore(make_hierarchy())
    want, _ = longhand_run(oracle, insts)
    assert core.run(insts) == want
    assert core.hierarchy.snapshot() == oracle.hierarchy.snapshot()
