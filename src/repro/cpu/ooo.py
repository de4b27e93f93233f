"""One-pass out-of-order timing model of the Table 1 processor.

The model processes the dynamic instruction stream once, computing for
every instruction its fetch, dispatch, issue, completion and commit
times under the machine's constraints:

* fetch/decode bandwidth (4/cycle) and I-cache/ITLB latency per fetch
  block, with front-end redirect stalls on branch mispredicts;
* RUU (64) and LSQ (32) occupancy — an instruction cannot dispatch
  until an older one commits and frees an entry;
* functional-unit structural hazards (Table 1 pool) and true register
  data dependences;
* load latency taken live from the memory hierarchy, so bus contention
  from the protected L2's extra write-backs lengthens load misses;
* in-order commit, 4 per cycle; stores write through to the hierarchy
  at commit.

This is the standard "scoreboard in one pass" approximation of
SimpleScalar's sim-outorder: it tracks when each resource frees rather
than iterating cycle by cycle, which keeps Python fast enough for
million-instruction runs while preserving the latency/bandwidth/
occupancy interactions the paper's IPC experiment depends on.

The model runs in two stages split below the L1s.  Stage A
(:class:`~repro.cpu.tape.CoreRecorder`) walks the stream once through
the fetch blocks, the TLBs, the branch predictor and copies of the
L1I, L1D and write buffer, none of which depend on timing, and records
:class:`~repro.cpu.tape.CoreTape` chunks.  Stage B, :meth:`OoOCore.run`,
replays a chunk in one flat loop, handing each recorded L1 outcome to
the hierarchy's stage B entry points (``replay_ifetch``,
``replay_load``, ``replay_store``: the MSHRs and everything below the
L1s), and keeps the pipeline state for the next chunk, so machines
that differ only below the L1s (org and ours) replay one recording.
Once the stream is used up, each machine's hierarchy adopts the
recorder's L1 state (``adopt_l1_state``).  Stage A runs inside
:meth:`OoOCore.run` too: given a recorder, the core records its next
chunk and replays it, and an :class:`Inst` iterable goes through both
stages on the core's own predictor and TLBs and then adopts the L1
state.  The stage-by-stage longhand of the timing model lives in
``tests/cpu/longhand.py`` as the oracle both stages together must
match (``tests/cpu/test_ooo_differential.py``).
"""

from __future__ import annotations

import copy
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, List, Optional, Union

from repro.cache.hierarchy import STORE_DRAIN, MemoryHierarchy
from repro.cpu.branch import BranchPredictor, BranchPredictorConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.tape import CoreRecorder, CoreTape
from repro.cpu.tlb import Tlb, TlbConfig
from repro.cpu.trace import Inst, OpClass
from repro.telemetry.profiling import PhaseProfiler


@dataclass
class RunResult:
    """Summary of one timed run."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0
    #: Sum of end-to-end load latencies (issue to data ready), cycles.
    load_latency_total: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def avg_load_latency(self) -> float:
        """Mean cycles from load issue to data availability."""
        return self.load_latency_total / self.loads if self.loads else 0.0


class OoOCore:
    """The four-issue out-of-order core driving a memory hierarchy."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        config: Optional[ProcessorConfig] = None,
        branch_config: Optional[BranchPredictorConfig] = None,
        itlb_config: Optional[TlbConfig] = None,
        dtlb_config: Optional[TlbConfig] = None,
    ) -> None:
        self.config = config or ProcessorConfig()
        self.hierarchy = hierarchy
        self.predictor = BranchPredictor(branch_config or BranchPredictorConfig())
        self.itlb = Tlb(itlb_config or TlbConfig(entries=64, ways=4))
        self.dtlb = Tlb(dtlb_config or TlbConfig(entries=128, ways=4))
        self._register_front_end()

        fu_pool = self.config.functional_units.pool()
        #: Per op class (indexed by its int value), the next-free cycle
        #: of each unit instance; a class the pool omits has no units.
        self._fu_free: List[List[int]] = [
            [0] * fu_pool.get(op, 0) for op in OpClass
        ]
        #: Pipeline state carried from one tape chunk to the next:
        #: commit times of in-flight instructions (RUU) / mem ops (LSQ),
        #: each register's ready time (keyed by register id plus one),
        #: and the scalars of :meth:`run`.
        self._ruu: Deque[int] = deque()
        self._lsq: Deque[int] = deque()
        self._reg_ready: Dict[int, int] = {}
        self._pipeline = (0, 0, 0, -1, 0, -1, 0)
        self._totals = RunResult()

    def _register_front_end(self) -> None:
        """Register the core's stats into the hierarchy's registry.

        A later core on the same hierarchy replaces an earlier one's
        sources — the registry reflects whichever core is driving it.
        """
        reg = self.hierarchy.registry
        for name, source in (
            ("core.branch", self.predictor.stats),
            ("core.itlb", self.itlb),
            ("core.dtlb", self.dtlb),
        ):
            reg.unregister_source(name)
            reg.register_source(name, source)

    def recorder(self, insts: Iterable[Inst]) -> CoreRecorder:
        """Stage A over ``insts`` on this core's predictor and TLBs and
        on copies of its hierarchy's L1s."""
        return CoreRecorder(
            insts, self.config.fetch_block_bytes, self.predictor,
            self.itlb, self.dtlb, self.hierarchy,
        )

    def adopt_front_end(self, other: "OoOCore") -> None:
        """Take copies of ``other``'s predictor and TLBs, as a live run
        over the stream ``other`` recorded would have left them here."""
        self.predictor, self.itlb, self.dtlb = copy.deepcopy(
            (other.predictor, other.itlb, other.dtlb)
        )
        self._register_front_end()

    @property
    def result(self) -> RunResult:
        """The summary of everything this core has timed so far."""
        return replace(self._totals)

    # -- main loop -------------------------------------------------------------

    def run(
        self,
        insts: Union[CoreTape, CoreRecorder, Iterable[Inst]],
        profiler: Optional[PhaseProfiler] = None,
        phase: str = "core-replay",
    ) -> RunResult:
        """Time ``insts`` and return the summary of everything this core
        has timed so far.

        A :class:`~repro.cpu.tape.CoreTape` is replayed where the last
        one stopped.  A :class:`~repro.cpu.tape.CoreRecorder` from
        :meth:`recorder` records its next chunk, which stays its
        ``tape`` for other cores to replay, and this core replays it.
        Any other iterable of :class:`Inst` is recorded and replayed a
        chunk at a time on this core's predictor and TLBs, and the
        hierarchy then adopts the recorder's L1 state; after a tape or a
        recorder, adopting it is the caller's step, once the stream is
        used up.  Stage A runs inside this call either way, so a caller
        timing ``run`` times the whole core.  ``profiler`` (opt-in) accounts recording to
        ``core-record`` and replay to ``phase``.

        Hot loop: this runs once per simulated instruction, so it is one
        flat loop over the tape's columns.  Op classes are ints (LOAD 4,
        STORE 5; INT_MUL 1 and FP_MUL 3 are the unpipelined units) with
        the tape's flag bits above them (``NEW_BLOCK`` 8, ``EXTRA_SRCS``
        16 and ``MISPREDICT`` 32, the highest, so ``code >= 32`` tests
        it and ``code < 8`` means none is set), unit free lists are per-op
        lists indexed by op, the fetch and commit bandwidth gates are
        local ``(cycle, count)`` pairs, the hierarchy's stage B entry
        points are bound to locals and the pipeline state lives in
        locals until the end of the chunk.  The unit chosen is the first
        with the minimum free time.
        """
        if isinstance(insts, CoreRecorder):
            start = time.perf_counter()
            tape = insts.record(insts.chunk_insts)
            if profiler is not None:
                profiler.add(
                    "core-record", time.perf_counter() - start, len(tape)
                )
            return self.run(tape, profiler, phase)
        if not isinstance(insts, CoreTape):
            recorder = self.recorder(insts)
            self.run(recorder, profiler, phase)
            while len(recorder.tape):
                self.run(recorder, profiler, phase)
            self.hierarchy.adopt_l1_state(
                recorder.l1d, recorder.write_buffer, recorder.l1i
            )
            return self.result
        start = time.perf_counter()
        tape = insts
        cfg = self.config
        decode_width = cfg.decode_width
        commit_width = cfg.commit_width
        ruu_entries = cfg.ruu_entries
        lsq_entries = cfg.lsq_entries
        mispredict_penalty = cfg.mispredict_penalty
        fu_free = self._fu_free
        ifetch = self.hierarchy.replay_ifetch
        load = self.hierarchy.replay_load
        store = self.hierarchy.replay_store
        block_pcs = tape.block_pcs
        itlb_penalties = tape.itlb_penalties
        block_hits = tape.block_hits
        drains = tape.drains
        extra_srcs = tape.extra_srcs

        ruu, lsq = self._ruu, self._lsq
        ruu_append, ruu_popleft = ruu.append, ruu.popleft
        lsq_append, lsq_popleft = lsq.append, lsq.popleft
        reg_ready = self._reg_ready
        reg_get = reg_ready.get
        #: ``stall_until`` is the earliest cycle the front end may
        #: deliver the next instruction, ``block_ready`` when the
        #: current fetch block is available; the gates are the cycle
        #: last admitted and the count in it.
        (
            stall_until, block_ready, last_commit, fetch_cycle, fetch_count,
            commit_cycle, commit_count,
        ) = self._pipeline
        block = extra = drain = load_latency_total = 0

        for code, addr, dest, src1, src2, latency, outcome in zip(
            tape.codes, tape.addrs, tape.dests, tape.src1, tape.src2,
            tape.latencies, tape.outcomes,
        ):
            # ---- fetch ----
            if code < 8:
                op = code
            else:
                op = code & 7
                if code & 8:
                    t = stall_until if stall_until > block_ready else block_ready
                    block_ready = t + itlb_penalties[block] + (
                        ifetch(block_pcs[block], t, block_hits[block]) - 1
                    )
                    block += 1
            cycle = stall_until if stall_until > block_ready else block_ready
            if cycle <= fetch_cycle:
                if fetch_count >= decode_width:
                    fetch_cycle += 1
                    fetch_count = 1
                else:
                    fetch_count += 1
            else:
                fetch_cycle = cycle
                fetch_count = 1

            # ---- dispatch: RUU/LSQ occupancy ----
            dispatch = fetch_cycle + 1
            while ruu and ruu[0] <= dispatch:
                ruu_popleft()
            if len(ruu) >= ruu_entries:
                dispatch = ruu_popleft()
            mem = op == 4 or op == 5
            if mem:
                while lsq and lsq[0] <= dispatch:
                    lsq_popleft()
                if len(lsq) >= lsq_entries:
                    dispatch = lsq_popleft()

            # ---- issue: operands + functional unit ----
            ready = dispatch
            if src1:
                avail = reg_get(src1, 0)
                if avail > ready:
                    ready = avail
                if src2:
                    avail = reg_get(src2, 0)
                    if avail > ready:
                        ready = avail
            if code >= 16 and code & 16:
                for src in extra_srcs[extra]:
                    avail = reg_get(src, 0)
                    if avail > ready:
                        ready = avail
                extra += 1
            units = fu_free[op]
            if len(units) == 1:
                unit = 0
                free = units[0]
            else:
                free = min(units)
                unit = units.index(free)
            issue = ready if ready > free else free

            # ---- execute ----
            if op == 4:
                latency += load(addr, issue, outcome)
                load_latency_total += latency
            complete = issue + latency
            # Pipelined units accept a new op next cycle; the single
            # mult/div units are unpipelined and block for the full op.
            if op == 1 or op == 3:
                units[unit] = complete
            else:
                units[unit] = issue + 1

            if dest:
                reg_ready[dest] = complete

            # ---- branch resolution ----
            if code >= 32:
                redirect = complete + mispredict_penalty
                if redirect > stall_until:
                    stall_until = redirect

            # ---- commit (in order) ----
            cycle = complete if complete > last_commit else last_commit
            if cycle <= commit_cycle:
                if commit_count >= commit_width:
                    commit_cycle += 1
                    commit_count = 1
                else:
                    commit_count += 1
            else:
                commit_cycle = cycle
                commit_count = 1
            last_commit = commit_cycle
            ruu_append(last_commit)
            if mem:
                lsq_append(last_commit)
                if op == 5:
                    # Write-through L1 + write buffer at retirement.
                    if outcome == STORE_DRAIN:
                        store(drains[drain], last_commit)
                        drain += 1
                    else:
                        store(None, last_commit)

        self._pipeline = (
            stall_until, block_ready, last_commit, fetch_cycle, fetch_count,
            commit_cycle, commit_count,
        )
        totals = self._totals
        totals.instructions += len(tape)
        totals.cycles = last_commit
        totals.loads += tape.loads
        totals.stores += tape.stores
        totals.branches += tape.branches
        totals.mispredicts += tape.mispredicts
        totals.load_latency_total += load_latency_total
        if profiler is not None:
            profiler.add(phase, time.perf_counter() - start, len(tape))
        return self.result
