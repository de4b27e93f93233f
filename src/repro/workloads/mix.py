"""Turn memory-reference streams into full instruction streams.

The IPC experiments need realistic instruction-level structure around
the memory references: compute instructions with register dependences,
a loop skeleton with predictable back-edges, and occasional
data-dependent (hard-to-predict) branches.  :class:`InstructionMixer`
synthesises that structure deterministically from a seed.

:meth:`InstructionMixer.expand` runs once per simulated instruction of
``repro ipc``, so it is one flat generator; the order in which it draws
from the mixer's RNG is a contract, spelled out in its docstring and
pinned by ``tests/experiments/test_sim_golden.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.cpu.trace import Inst, OpClass
from repro.workloads.generators import MemRef


@dataclass(frozen=True)
class MixConfig:
    """Shape of the non-memory instruction mix."""

    #: Fraction of ALU filler that is floating point (suite dependent).
    fp_fraction: float = 0.4
    #: Of the FP/INT filler, fraction using the mult/div unit.
    mul_fraction: float = 0.08
    #: A branch roughly every this many instructions.
    branch_period: int = 7
    #: Fraction of branches that are data dependent (random outcome).
    random_branch_fraction: float = 0.15
    #: Taken probability of a data-dependent branch.
    random_branch_bias: float = 0.6
    #: Instructions in the synthetic loop body (controls I-cache reuse).
    loop_body_insts: int = 256
    #: Base address of the code region.
    code_base: int = 0x0040_0000
    #: Architectural register pool size.
    registers: int = 32

    def __post_init__(self) -> None:
        for name in ("branch_period", "loop_body_insts", "registers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class InstructionMixer:
    """Deterministic MemRef → Inst stream expansion."""

    def __init__(self, config: MixConfig = MixConfig(), seed: int = 0) -> None:
        self.config = config
        self._rng = random.Random(seed)
        self._emitted = 0
        self._recent_dests = [0, 1, 2]
        self._next_reg = 3
        # Branches live at *fixed* code slots (every branch_period-th
        # slot plus the loop back-edge), and each branch slot gets a
        # fixed personality — as in real code: mostly strongly biased
        # branches the predictor learns, plus a data-dependent minority
        # it cannot.
        self._branch_slots = set(
            range(config.branch_period - 1, config.loop_body_insts,
                  config.branch_period)
        )
        self._branch_slots.add(config.loop_body_insts - 1)
        self._branch_bias = {}
        for slot in self._branch_slots:
            roll = self._rng.random()
            if roll < config.random_branch_fraction:
                self._branch_bias[slot] = config.random_branch_bias
            elif roll < 0.5 + config.random_branch_fraction / 2:
                self._branch_bias[slot] = 0.97
            else:
                self._branch_bias[slot] = 0.03

    # -- public API ------------------------------------------------------------

    def expand(self, refs: Iterable[MemRef]) -> Iterator[Inst]:
        """Expand a reference stream into a full instruction stream.

        Each reference becomes ``ref.gap`` compute fillers and then its
        LOAD/STORE.  Branch slots interleave naturally: whenever emission
        reaches a branch slot, the branch is issued before the pending
        filler or memory instruction, keeping branch PCs fixed across
        iterations.

        Draw-order contract.  The stream is a pure function of the seed
        and the references, and the order of the draws from the mixer's
        RNG is part of it (the golden digests pin it):

        * filler: ``random() < fp_fraction``, ``random() <
          mul_fraction``, then the source count ``1 + _randbelow(2)``,
          then one ``_randbelow(len(recent))`` per source;
        * branch (not the back-edge): ``random() < bias``, then
          ``_randbelow(1)`` — the draw ``randint(1, 1)`` makes, which
          always yields one source but consumes ``getrandbits(1)``
          until it returns 0 — then one source;
        * load/store: ``_randbelow(1)``, then one source;
        * the loop back-edge (always taken) skips the ``random()``.

        A filler or load's destination joins the recent-destination
        window (the last eight) before its sources are drawn.  ``randint``/``choice``
        are written as the ``_randbelow`` calls the standard library
        makes for them, so the stream matches the one those calls give.

        Hot loop: this generator runs once per simulated instruction,
        so it keeps config values and RNG methods in locals (``draw`` is
        the bound ``rng.random``), emits every instruction inline and
        builds :class:`Inst` positionally.  The emitted count and next register are written back to the
        mixer as they change, so a later ``expand`` call on the same
        mixer continues the loop body where this one stopped.
        """
        cfg = self.config
        body = cfg.loop_body_insts
        code_base = cfg.code_base
        registers = cfg.registers
        fp_fraction = cfg.fp_fraction
        mul_fraction = cfg.mul_fraction
        branch_slots = self._branch_slots
        branch_bias = self._branch_bias
        back_edge = body - 1
        draw = self._rng.random
        randbelow = self._rng._randbelow
        recent = self._recent_dests
        n_recent = len(recent)
        next_reg = self._next_reg
        slot = self._emitted % body
        emitted = self._emitted
        STORE, LOAD, BRANCH = OpClass.STORE, OpClass.LOAD, OpClass.BRANCH
        INT_ALU, INT_MUL = OpClass.INT_ALU, OpClass.INT_MUL
        FP_ALU, FP_MUL = OpClass.FP_ALU, OpClass.FP_MUL

        for is_write, addr, gap in refs:
            # ``gap`` fillers, then the memory instruction (k == gap).
            for k in range(gap + 1):
                if slot in branch_slots:
                    pc = code_base + slot * 4
                    if slot == back_edge:
                        taken, target = True, code_base
                    else:
                        # Per-slot fixed target keeps the BTB effective;
                        # the target stays within the body so the fetch
                        # stream is unchanged.
                        taken = draw() < branch_bias[slot]
                        target = pc + 4
                    randbelow(1)
                    inst = Inst(
                        BRANCH, pc, 0, -1, (recent[randbelow(n_recent)],),
                        taken, target,
                    )
                    emitted += 1
                    slot += 1
                    if slot == body:
                        slot = 0
                    self._emitted = emitted
                    yield inst
                pc = code_base + slot * 4
                if k < gap:
                    if draw() < fp_fraction:
                        op = FP_MUL if draw() < mul_fraction else FP_ALU
                    else:
                        op = INT_MUL if draw() < mul_fraction else INT_ALU
                    dest = next_reg
                    next_reg = self._next_reg = (next_reg + 1) % registers
                    recent.append(dest)
                    if n_recent == 8:
                        del recent[0]
                    else:
                        n_recent += 1
                    if randbelow(2):
                        srcs = (
                            recent[randbelow(n_recent)],
                            recent[randbelow(n_recent)],
                        )
                    else:
                        srcs = (recent[randbelow(n_recent)],)
                    inst = Inst(op, pc, 0, dest, srcs)
                elif is_write:
                    randbelow(1)
                    inst = Inst(
                        STORE, pc, addr, -1, (recent[randbelow(n_recent)],)
                    )
                else:
                    dest = next_reg
                    next_reg = self._next_reg = (next_reg + 1) % registers
                    recent.append(dest)
                    if n_recent == 8:
                        del recent[0]
                    else:
                        n_recent += 1
                    randbelow(1)
                    inst = Inst(
                        LOAD, pc, addr, dest, (recent[randbelow(n_recent)],)
                    )
                emitted += 1
                slot += 1
                if slot == body:
                    slot = 0
                self._emitted = emitted
                yield inst
