"""Processor configuration reproducing the paper's Table 1."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.cpu.trace import OpClass


@dataclass(frozen=True)
class FunctionalUnits:
    """Functional-unit pool (Table 1): counts per unit class."""

    int_add: int = 4
    int_mul: int = 1
    fp_add: int = 1
    fp_mul: int = 1
    #: Cache ports shared by loads and stores (SimpleScalar default).
    mem_ports: int = 2

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")

    def pool(self) -> Dict[OpClass, int]:
        """Unit count keyed by the op class that uses it."""
        return {
            OpClass.INT_ALU: self.int_add,
            OpClass.INT_MUL: self.int_mul,
            OpClass.FP_ALU: self.fp_add,
            OpClass.FP_MUL: self.fp_mul,
            OpClass.BRANCH: self.int_add,  # branches share the INT adders
            OpClass.LOAD: self.mem_ports,
            OpClass.STORE: self.mem_ports,
        }


@dataclass(frozen=True)
class ProcessorConfig:
    """Table 1 baseline: a typical four-issue superscalar."""

    ruu_entries: int = 64
    lsq_entries: int = 32
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    functional_units: FunctionalUnits = field(default_factory=FunctionalUnits)
    #: Front-end refill penalty after a branch mispredict resolves.
    mispredict_penalty: int = 3
    #: Instructions per 32 B fetch block (4 B fixed-width ISA).
    fetch_block_bytes: int = 32

    def __post_init__(self) -> None:
        for name in (
            "ruu_entries", "lsq_entries", "decode_width", "issue_width",
            "commit_width",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        block = self.fetch_block_bytes
        if block < 4 or block & (block - 1):
            raise ValueError("fetch_block_bytes must be a power of two >= 4")

    def describe(self) -> str:
        """Render the Table 1 parameter block."""
        fu = self.functional_units
        rows = [
            ("Issue window", f"{self.ruu_entries}-entry RUU"),
            ("", f"{self.lsq_entries}-entry LSQ"),
            ("decode and issue rate", f"{self.issue_width} instructions per cycle"),
            (
                "Functional units",
                f"{fu.int_add} INT add, {fu.int_mul} INT mult/div",
            ),
            ("", f"{fu.fp_add} FP add, {fu.fp_mul} FP mult/div"),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
