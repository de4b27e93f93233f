"""CPU substrate: the four-issue out-of-order processor of Table 1.

A cycle-approximate, one-pass timing model in the spirit of
SimpleScalar's ``sim-outorder`` (which the paper modified): a 64-entry
RUU and 32-entry LSQ bound in-flight work, functional-unit scoreboards
model structural hazards, a two-level branch predictor with a 2K-entry
BTB models control flow, and every memory reference goes through the
:class:`repro.cache.MemoryHierarchy` — so extra write-back traffic from
the paper's scheme contends on the memory bus and shows up as IPC loss,
which is exactly the paper's Section 5.2 measurement.
"""

from repro.cpu.branch import BranchPredictor, BranchPredictorConfig
from repro.cpu.config import FunctionalUnits, ProcessorConfig
from repro.cpu.ooo import OoOCore, RunResult
from repro.cpu.tape import CoreRecorder, CoreTape
from repro.cpu.tlb import Tlb, TlbConfig
from repro.cpu.trace import Inst, OpClass

__all__ = [
    "BranchPredictor",
    "BranchPredictorConfig",
    "CoreRecorder",
    "CoreTape",
    "FunctionalUnits",
    "Inst",
    "OoOCore",
    "OpClass",
    "ProcessorConfig",
    "RunResult",
    "Tlb",
    "TlbConfig",
]
