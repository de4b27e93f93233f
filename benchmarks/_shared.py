"""Shared plumbing for the benchmark harness.

Every bench regenerates one extension table (an ablation, a
related-work comparison, a reliability study), asserts its acceptance
criteria (shape, not absolute numbers — see DESIGN.md §4) and writes
the rendered table under ``benchmarks/results/`` so EXPERIMENTS.md can
cite the exact output.  The paper's own figures are not benches: they
live in the committed ``results/figures.json`` document, checked by
``scripts/check_claims.py``.
"""

from __future__ import annotations

import pathlib

from repro.experiments import RunConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The workload size of the benches' simulated runs (the figures' bench size).
BENCH_CONFIG = RunConfig(n_refs=120_000, warmup_refs=40_000)


def write_result(name: str, text: str) -> None:
    """Persist a rendered table for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
