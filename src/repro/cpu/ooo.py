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

:meth:`OoOCore.run` is the per-instruction hot loop of ``repro ipc``
and is written as one flat loop (see its docstring); its stage-by-stage
longhand, built on :class:`_BandwidthGate`, lives in
``tests/cpu/test_ooo_differential.py`` as the oracle it must match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.branch import BranchPredictor, BranchPredictorConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.tlb import Tlb, TlbConfig
from repro.cpu.trace import EXEC_LATENCY, Inst, OpClass


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


class _BandwidthGate:
    """Enforces at most ``width`` events per cycle, in nondecreasing time."""

    __slots__ = ("width", "_cycle", "_count")

    def __init__(self, width: int) -> None:
        self.width = width
        self._cycle = -1
        self._count = 0

    def admit(self, cycle: int) -> int:
        """Return the first cycle >= ``cycle`` with a free slot; claim it."""
        if cycle < self._cycle:
            cycle = self._cycle
        if cycle == self._cycle:
            if self._count >= self.width:
                cycle += 1
                self._cycle, self._count = cycle, 0
        else:
            self._cycle, self._count = cycle, 0
        self._count += 1
        return cycle


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
        self._register_telemetry()

    def _register_telemetry(self) -> None:
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

        fu_pool = self.config.functional_units.pool()
        #: Per op class (indexed by its int value), the next-free cycle
        #: of each unit instance; a class the pool omits has no units.
        self._fu_free: List[List[int]] = [
            [0] * fu_pool.get(op, 0) for op in OpClass
        ]

    # -- main loop -------------------------------------------------------------

    def run(self, insts: Iterable[Inst]) -> RunResult:
        """Time ``insts`` in one pass and return the run's summary.

        Hot loop: this runs once per simulated instruction, so it is one
        flat loop.  Op classes are used as ints (LOAD 4, STORE 5;
        INT_MUL 1 and FP_MUL 3 are the unpipelined units), latencies and
        unit free lists are per-op lists indexed by op, the fetch and
        commit bandwidth gates (:class:`_BandwidthGate`) are inlined as
        local ``(cycle, count)`` pairs, the hierarchy/TLB/predictor
        methods are bound to locals and the counters live in locals
        until the end.  The unit chosen is the first with the minimum
        free time.
        """
        cfg = self.config
        decode_width = cfg.decode_width
        commit_width = cfg.commit_width
        ruu_entries = cfg.ruu_entries
        lsq_entries = cfg.lsq_entries
        mispredict_penalty = cfg.mispredict_penalty
        block_mask = ~(cfg.fetch_block_bytes - 1)
        exec_latency = [EXEC_LATENCY[op] for op in OpClass]
        fu_free = self._fu_free
        itlb = self.itlb.translate
        dtlb = self.dtlb.translate
        ifetch = self.hierarchy.ifetch
        load = self.hierarchy.load
        store = self.hierarchy.store
        predict = self.predictor.predict_and_update

        #: Commit times of in-flight instructions (RUU) / mem ops (LSQ).
        ruu: Deque[int] = deque()
        lsq: Deque[int] = deque()
        ruu_append, ruu_popleft = ruu.append, ruu.popleft
        lsq_append, lsq_popleft = lsq.append, lsq.popleft
        reg_ready: Dict[int, int] = {}
        reg_get = reg_ready.get
        #: Earliest cycle the front end may deliver the next instruction.
        stall_until = 0
        #: Availability time of the current fetch block.
        block_ready = 0
        current_block = None
        last_commit = 0
        #: The fetch and commit gates: cycle last admitted, count in it.
        fetch_cycle, fetch_count = -1, 0
        commit_cycle, commit_count = -1, 0
        n = loads = stores = branches = mispredicts = load_latency_total = 0

        for inst in insts:
            n += 1
            op = inst.op
            pc = inst.pc

            # ---- fetch ----
            block = pc & block_mask
            if block != current_block:
                current_block = block
                t = stall_until if stall_until > block_ready else block_ready
                penalty = itlb(pc)
                block_ready = t + penalty + (ifetch(pc, t) - 1)
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
            for src in inst.srcs:
                avail = reg_get(src, 0)
                if avail > ready:
                    ready = avail
            units = fu_free[op]
            if len(units) == 1:
                unit = 0
                free = units[0]
            else:
                free = min(units)
                unit = units.index(free)
            issue = ready if ready > free else free

            # ---- execute ----
            latency = exec_latency[op]
            if op == 4:
                latency += dtlb(inst.addr)
                latency += load(inst.addr, issue)
                loads += 1
                load_latency_total += latency
            elif op == 5:
                latency += dtlb(inst.addr)
                stores += 1
            complete = issue + latency
            # Pipelined units accept a new op next cycle; the single
            # mult/div units are unpipelined and block for the full op.
            if op == 1 or op == 3:
                units[unit] = complete
            else:
                units[unit] = issue + 1

            dest = inst.dest
            if dest >= 0:
                reg_ready[dest] = complete

            # ---- branch resolution ----
            if op == 6:
                branches += 1
                if predict(pc, inst.taken, inst.target):
                    mispredicts += 1
                    redirect = complete + mispredict_penalty
                    if redirect > stall_until:
                        stall_until = redirect
                    current_block = None  # refetch starts a new block

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
                    store(inst.addr, last_commit)

        return RunResult(
            instructions=n,
            cycles=last_commit,
            loads=loads,
            stores=stores,
            branches=branches,
            mispredicts=mispredicts,
            load_latency_total=load_latency_total,
        )
