"""L2 layer replay: the cost of protection measured on real L2 traffic.

One ``figures`` cell (the full scheme of Figures 7/8) runs once with its
L2's ``access`` and ``advance`` calls recorded: the L1-miss stream into
the L2 plus the cleaning clock.  That stream is then replayed into a
fresh plain :class:`SetAssociativeCache`, the paper's ``ProtectedL2`` and
the L2 of every registered policy variant, alone — no L1s, write buffer,
bus or memory — so each L2 design's host refs/s is measured on identical
input.  A replay into the standard protected L2 must end in exactly the
state the recorded run left.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

BENCHMARK = "mcf"
REPEATS = 3

Event = Tuple[bool, int, bool, int]


def _state(l2) -> List[Tuple[bool, int, bool]]:
    return [(l.valid, l.tag, l.dirty) for ways in l2.sets for l in ways]


def capture(seed: int):
    """Run the cell at the ``FiguresRequest`` sizes, returning (events,
    final L2 state, geometry, protection)."""
    from repro.api import FiguresRequest
    from repro.core.protected_cache import ProtectionConfig
    from repro.experiments.figures import CHOSEN_INTERVAL
    from repro.experiments.pool import Cell, build_cell_hierarchy
    from repro.experiments.runner import RunConfig, run_refs_with_hierarchy

    protection = ProtectionConfig(
        cleaning_interval=CHOSEN_INTERVAL, ecc_entries_per_set=1
    )
    size = FiguresRequest()
    config = RunConfig(n_refs=size.refs, warmup_refs=size.warmup, seed=seed)
    hierarchy = build_cell_hierarchy(Cell(BENCHMARK, protection, config))
    l2 = hierarchy.l2
    events: List[Event] = []
    access, advance = l2.access, l2.advance

    def record_access(addr, is_write, cycle):
        events.append((False, addr, is_write, cycle))
        return access(addr, is_write, cycle)

    def record_advance(cycle):
        events.append((True, cycle, False, cycle))
        return advance(cycle)

    l2.access, l2.advance = record_access, record_advance
    run_refs_with_hierarchy(BENCHMARK, hierarchy, config, protection)
    return events, _state(l2), config.geometry, protection


def _replay(l2, events: List[Event]) -> float:
    access, advance = l2.access, l2.advance
    t0 = time.perf_counter()
    for is_advance, addr, is_write, cycle in events:
        if is_advance:
            advance(cycle)
        else:
            access(addr, is_write, cycle)
    return time.perf_counter() - t0


def run(seed: int) -> Dict[str, Any]:
    """refs/s per L2 design (median of :data:`REPEATS` interleaved rounds)."""
    from repro.core.policy import available_variants, build_variant_l2
    from repro.experiments.runner import build_l2

    events, final_state, geometry, protection = capture(seed)
    accesses = sum(1 for e in events if not e[0])
    builders = {"plain": lambda: build_l2(geometry, None, seed=seed)}
    for name in available_variants():
        builders[name] = (
            lambda name=name: build_variant_l2(
                name, geometry, protection, seed=seed
            )
        )
    times: Dict[str, List[float]] = {name: [] for name in builders}
    replay_matches = True
    for _ in range(REPEATS):
        for name, build in builders.items():
            l2 = build()
            times[name].append(_replay(l2, events))
            if name == "standard":
                replay_matches &= _state(l2) == final_state
    refs_per_s = {
        name: accesses / statistics.median(samples)
        for name, samples in times.items()
    }
    return {
        "benchmark": BENCHMARK,
        "l2_accesses": accesses,
        "advance_calls": len(events) - accesses,
        "refs_per_s": refs_per_s,
        "protection_cost_ratio": refs_per_s["plain"] / refs_per_s["standard"],
        "replay_matches_recorded_run": replay_matches,
    }
