#!/usr/bin/env python
"""Full-system run: does the protection scheme cost performance?

Drives the four-issue out-of-order core (Table 1) through a benchmark's
full instruction stream on two machines — conventional L2 vs the
paper's protected L2, replaying one recorded front end — and reports
IPC, branch behaviour and memory-bus pressure.  The paper's claim: the extra write-backs (cleaning + ECC
evictions) contend only on the split-transaction bus, costing <1% IPC.

Run:  python examples/full_system_ipc.py [benchmark]
"""

import sys

from repro.core import ProtectionConfig
from repro.experiments import RunConfig, render_table, run_ipc_group


def main():
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "parser"
    config = RunConfig(n_refs=40_000, warmup_refs=0)
    n_insts = 120_000

    full = ProtectionConfig(cleaning_interval=1 << 20, ecc_entries_per_set=1)
    org, ours = run_ipc_group(
        benchmark, [(None, "standard"), (full, "standard")], config,
        n_insts=n_insts,
    )

    loss = 100 * (org.ipc - ours.ipc) / org.ipc if org.ipc else 0.0
    rows = [
        ["IPC", org.ipc, ours.ipc],
        ["cycles", org.result.cycles, ours.result.cycles],
        ["branch mispredict rate", org.result.mispredict_rate,
         ours.result.mispredict_rate],
        ["writebacks / loads+stores", org.writeback_fraction,
         ours.writeback_fraction],
        ["avg dirty fraction", org.dirty_fraction, ours.dirty_fraction],
    ]
    print(
        render_table(
            ["metric", "conventional", "protected"],
            rows,
            ndigits=3,
            title=f"{benchmark}: {n_insts} instructions on the Table-1 core",
        )
    )
    print(f"\nIPC loss: {loss:.2f}%  (paper reports <1% on average)")


if __name__ == "__main__":
    main()
