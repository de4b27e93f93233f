"""Stage A of the core: the front end and the L1s recorded once as a
chunked tape.

Everything :class:`~repro.cpu.ooo.OoOCore` does before it needs a
cycle number is a function of the instruction stream alone: the
expanded stream itself, which instructions open a new fetch block, the
ITLB and DTLB penalties, the branch predictor's verdicts (the
predictor and the TLBs are called in program order, whatever the
timing), and what the L1I, the L1D and the write buffer answer.  The
core calls the L1s in program order too (a fetch block's ifetch, a
load at issue and a store at commit all happen in that instruction's
turn), and none of their answers depends on the cycle: whether the
L1I hit, whether a load hit the L1D, was forwarded from the write
buffer or missed, and which block a store drained.
:class:`CoreRecorder` runs that part once and writes it as
:class:`CoreTape` chunks of flat columns; ``OoOCore.run`` replays a
chunk below the L1s (the MSHRs, the unified levels and memory,
through ``MemoryHierarchy.replay_ifetch``/``replay_load``/
``replay_store``), which is the only part that depends on the L2
under test.  An org/ours pair records one tape and replays it into
both machines (:func:`repro.experiments.runner.run_ipc_group`), and
each then adopts the recorder's final L1 state.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import (
    LOAD_FORWARD, LOAD_HIT, LOAD_MISS, STORE, STORE_DRAIN, MemoryHierarchy,
    _widened, copy_of,
)
from repro.cpu.branch import BranchPredictor
from repro.cpu.tlb import Tlb
from repro.cpu.trace import EXEC_LATENCY, Inst, OpClass

#: Flag bits OR-ed onto an instruction's op class in
#: :attr:`CoreTape.codes`: it opens a new fetch block (its pc and ITLB
#: penalty are the next entries of the block columns), it reads more
#: than two registers (the rest are the next entry of
#: :attr:`CoreTape.extra_srcs`), it is a mispredicted branch.
NEW_BLOCK = 8
EXTRA_SRCS = 16
MISPREDICT = 32


@dataclass(frozen=True)
class CoreTape:
    """What stage A recorded of a stretch of an instruction stream.

    Per instruction ``i``: ``codes[i]``, its op class with the flag bits
    above; ``addrs[i]``, its data address (0 for non-memory ops);
    ``dests[i]``, ``src1[i]`` and ``src2[i]``, its destination and
    first two source registers, each plus one, 0 meaning none (a
    negative register id is no register: it is never written, so
    reading it never delays an instruction); ``latencies[i]``, its
    execution latency plus, for a load or store, the DTLB penalty;
    ``outcomes[i]``, for a load what the L1D and the write buffer
    answered (``LOAD_HIT``, ``LOAD_MISS`` or ``LOAD_FORWARD``), for a
    store ``STORE`` or ``STORE_DRAIN`` (the outcome codes of
    :mod:`repro.cache.hierarchy`), 0 for other ops.  Per new fetch
    block: ``block_pcs``, the pc fetched, ``itlb_penalties``, and
    ``block_hits``, 1 when the L1I hit.  Per ``STORE_DRAIN``:
    ``drains``, the block pushed out to the L2.  The counts are over
    the whole chunk.  Stage B never writes to a tape.
    """

    codes: bytes
    addrs: Sequence[int]
    dests: Sequence[int]
    src1: Sequence[int]
    src2: Sequence[int]
    latencies: Sequence[int]
    outcomes: bytes
    block_pcs: Sequence[int]
    itlb_penalties: Sequence[int]
    block_hits: bytes
    drains: Sequence[int]
    extra_srcs: Tuple[Tuple[int, ...], ...]
    loads: int
    stores: int
    branches: int
    mispredicts: int

    def __len__(self) -> int:
        return len(self.codes)


def _sources(srcs: Tuple[int, ...]) -> Tuple[int, int, Tuple[int, ...]]:
    """The general case of an instruction's sources, as tape columns:
    the first two registers plus one (0 when absent) and the rest."""
    regs = [src + 1 for src in srcs if src >= 0]
    regs += [0, 0]
    return regs[0], regs[1], tuple(regs[2:-2])


class CoreRecorder:
    """Stage A: run an instruction stream through the front end — fetch
    blocks, ITLB, DTLB, branch predictor — and the L1s, and record it
    as :class:`CoreTape` chunks.

    The predictor and TLBs are the caller's and are trained in place,
    so once the stream is used up they hold what a live run would
    leave.  The fetch-block state starts empty: the first instruction
    opens a new block.  The L1I, L1D and write buffer are copies of
    ``hierarchy``'s, taken when the recorder is made (as
    :class:`~repro.cache.hierarchy.L1Recorder` takes them); the
    hierarchy itself is not touched.  Once the stream is used up,
    :attr:`l1i`, :attr:`l1d` and :attr:`write_buffer` hold what a live
    run would leave in the hierarchy's own, except for the L1 lines'
    ``fill_cycle`` and ``last_touch_cycle``: stage A has no cycle to
    give the L1s, so it passes 0.  Only the decay-cleaning and ICR
    models (``core/decay.py``, ``core/icr.py``) read those fields, and
    only on the L2.  Every core that replayed the tapes adopts this state
    (:meth:`~repro.cache.hierarchy.MemoryHierarchy.adopt_l1_state`).
    """

    #: The chunk ``OoOCore.run`` records from a recorder: about 0.2 MB;
    #: longer chunks buy no speed (per-chunk set-up is a few locals) and
    #: cost peak memory.
    chunk_insts = 1 << 14

    def __init__(
        self,
        insts: Iterable[Inst],
        fetch_block_bytes: int,
        predictor: BranchPredictor,
        itlb: Tlb,
        dtlb: Tlb,
        hierarchy: MemoryHierarchy,
    ) -> None:
        self.predictor = predictor
        self.itlb = itlb
        self.dtlb = dtlb
        self.l1i = copy_of(hierarchy.l1i)
        self.l1d = copy_of(hierarchy.l1d)
        self.write_buffer = copy_of(hierarchy.write_buffer)
        # A list must be consumed, not restarted, by successive chunks.
        self._insts = iter(insts)
        self._block_mask = ~(fetch_block_bytes - 1)
        self._block = None
        #: The chunk :meth:`record` returned last, for every core that
        #: replays it.
        self.tape: Optional[CoreTape] = None

    def record(self, n: int) -> CoreTape:
        """The next ``n`` instructions of the stream (fewer when it ends).

        Hot loop: this runs once per simulated instruction of an
        org/ours pair, so TLB, predictor, L1 and write-buffer methods,
        the latency table and the column appends are locals, and a
        column widens only when a value overflows it (as the L1 tape's
        do).
        """
        self.tape = None  # a stream of any length holds one chunk
        block_mask = self._block_mask
        current_block = self._block
        exec_latency = [EXEC_LATENCY[op] for op in OpClass]
        itlb = self.itlb.translate
        dtlb = self.dtlb.translate
        predict = self.predictor.predict_and_update
        l1i = self.l1i.access
        l1d = self.l1d.access
        push = self.write_buffer.push
        contains = self.write_buffer.contains
        codes = bytearray()
        put_code = codes.append
        outcomes = bytearray()
        put_outcome = outcomes.append
        block_hits = bytearray()
        put_block_hit = block_hits.append
        columns: List[array] = [array("B") for _ in range(8)]
        (
            addrs, dests, src1s, src2s, latencies, block_pcs, penalties,
            drains,
        ) = columns
        put_addr, put_dest, put_src1, put_src2, put_latency = (
            addrs.append, dests.append, src1s.append, src2s.append,
            latencies.append,
        )
        extra_srcs: List[Tuple[int, ...]] = []
        loads = stores = branches = mispredicts = 0

        for inst in itertools.islice(self._insts, n):
            code = op = inst.op
            pc = inst.pc
            block = pc & block_mask
            if block != current_block:
                current_block = block
                code |= NEW_BLOCK
                penalty = itlb(pc)
                put_block_hit(l1i(pc, False, 0).hit)
                try:
                    block_pcs.append(pc)
                except (OverflowError, TypeError):
                    block_pcs = columns[5] = _widened(block_pcs, pc)
                try:
                    penalties.append(penalty)
                except (OverflowError, TypeError):
                    penalties = columns[6] = _widened(penalties, penalty)
            latency = exec_latency[op]
            addr = outcome = 0
            if op == 4:
                addr = inst.addr
                latency += dtlb(addr)
                loads += 1
                if l1d(addr, False, 0).hit:
                    outcome = LOAD_HIT
                elif contains(addr):
                    # An L1 miss on a buffered block is forwarded from
                    # the buffer, unless stage B finds its fill pending.
                    outcome = LOAD_FORWARD
                else:
                    outcome = LOAD_MISS
            elif op == 5:
                addr = inst.addr
                latency += dtlb(addr)
                stores += 1
                # A store writes through the L1D, then the write buffer
                # coalesces it or drains its oldest block to the L2.
                l1d(addr, True, 0)
                drained = push(addr)
                if drained is None:
                    outcome = STORE
                else:
                    outcome = STORE_DRAIN
                    try:
                        drains.append(drained)
                    except (OverflowError, TypeError):
                        drains = columns[7] = _widened(drains, drained)
            elif op == 6:
                branches += 1
                if predict(pc, inst.taken, inst.target):
                    mispredicts += 1
                    code |= MISPREDICT
                    current_block = None  # refetch starts a new block
            dest = inst.dest + 1
            if dest < 0:
                dest = 0
            srcs = inst.srcs
            n_srcs = len(srcs)
            if n_srcs == 1:
                src1 = srcs[0] + 1
                src2 = 0
            elif n_srcs == 2:
                src1 = srcs[0] + 1
                src2 = srcs[1] + 1
            else:
                src1 = src2 = -1
            if src1 < 1 or src2 < 0:
                src1, src2, more = _sources(srcs)
                if more:
                    code |= EXTRA_SRCS
                    extra_srcs.append(more)
            put_code(code)
            put_outcome(outcome)
            try:
                put_addr(addr)
                put_dest(dest)
                put_src1(src1)
                put_src2(src2)
                put_latency(latency)
            except (OverflowError, TypeError):
                # Widen whichever columns this instruction overflowed,
                # then finish its row.
                i = len(codes) - 1
                for k, value in enumerate((addr, dest, src1, src2, latency)):
                    column = columns[k]
                    if len(column) == i:
                        try:
                            column.append(value)
                        except (OverflowError, TypeError):
                            columns[k] = _widened(column, value)
                addrs, dests, src1s, src2s, latencies = columns[:5]
                put_addr, put_dest, put_src1, put_src2, put_latency = (
                    addrs.append, dests.append, src1s.append,
                    src2s.append, latencies.append,
                )

        self._block = current_block
        self.tape = CoreTape(
            bytes(codes), addrs, dests, src1s, src2s, latencies,
            bytes(outcomes), block_pcs, penalties, bytes(block_hits), drains,
            tuple(extra_srcs), loads, stores, branches, mispredicts,
        )
        return self.tape
