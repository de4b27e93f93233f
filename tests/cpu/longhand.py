"""The readable definition of the out-of-order timing model.

:func:`longhand_run` steps through one pipeline stage at a time, with
the fetch and commit bandwidth limits as :class:`BandwidthGate` objects
and functional units keyed by :class:`OpClass`, calling the branch
predictor, the TLBs and the hierarchy live.  ``OoOCore.run`` is the
same model split at the front end (a recorded tape, replayed in one
flat loop); ``tests/cpu/test_ooo_differential.py`` holds the two to
each other.
"""

from collections import deque
from typing import Deque, Dict

from repro.cpu import OoOCore, OpClass
from repro.cpu.ooo import RunResult
from repro.cpu.trace import EXEC_LATENCY


class BandwidthGate:
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


def longhand_run(self: OoOCore, insts):
    """The timing model one stage at a time; returns the run's summary
    and the per-op unit free times it leaves behind."""
    cfg = self.config
    result = RunResult()
    fu_free = {
        op: [0] * count
        for op, count in cfg.functional_units.pool().items()
    }

    fetch_gate = BandwidthGate(cfg.decode_width)
    commit_gate = BandwidthGate(cfg.commit_width)
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
