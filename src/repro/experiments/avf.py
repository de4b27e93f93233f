"""Dirty-data exposure: the scheme's (unquantified-by-the-paper)
reliability *benefit*.

Under both the conventional design and the paper's scheme, dirty data
is protected by SECDED, whose residual failure is a double-bit error in
one protected word while the data is dirty — clean data can always be
refetched (with the controller knowing cleanliness, which the paper's
parity/dirty organisation makes explicit).  The probability of that
residual failure scales with **dirty exposure**: how many line-cycles
of dirty data the cache holds.

The paper's cleaning + ECC-array eviction cut the dirty population by
roughly 2.6× (51.6% → <25%/19.6%), and therefore cut this residual
failure exposure by the same factor — a reliability *improvement* on
top of the area saving.  This module quantifies it:

* :func:`dirty_exposure` — line-cycles of dirty data in a run;
* :func:`expected_uncorrectable` — expected residual (double-bit-in-a-
  word) events, Poisson model over per-word exposure;
* :func:`exposure_comparison` — org vs ours, per benchmark.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.protected_cache import ProtectionConfig
from repro.experiments.pool import Cell, SweepEngine
from repro.experiments.runner import RefRunOutput, RunConfig
from repro.workloads.spec2000 import BENCHMARKS

#: Bits that must stay consistent per protected word: 64 data + 8 check.
CODEWORD_BITS = 72
WORDS_PER_LINE_DEFAULT = 8  # 64-byte lines


def dirty_exposure(out: RefRunOutput, n_lines: int) -> float:
    """Dirty line-cycles accumulated over the measured window."""
    return out.dirty_fraction * n_lines * out.cycles


def p_double_bit(flip_rate_per_bit_cycle: float, exposure_cycles: float) -> float:
    """P(>=2 flips in one codeword over an exposure), Poisson model.

    ``flip_rate_per_bit_cycle`` is the raw soft-error rate per bit per
    cycle (realistic magnitudes are ~1e-25..1e-20; any value works —
    results are used comparatively).
    """
    if flip_rate_per_bit_cycle < 0 or exposure_cycles < 0:
        raise ValueError("rates and exposures must be non-negative")
    lam = flip_rate_per_bit_cycle * CODEWORD_BITS * exposure_cycles
    return 1.0 - math.exp(-lam) * (1.0 + lam)


def expected_uncorrectable(
    out: RefRunOutput,
    n_lines: int,
    flip_rate_per_bit_cycle: float = 1e-12,
    words_per_line: int = WORDS_PER_LINE_DEFAULT,
) -> float:
    """Expected residual (uncorrectable-on-dirty) events in the run.

    Uses the measured dirty-episode statistics when available (episode
    count × P(double flip | mean episode)); falls back to treating the
    aggregate exposure as one episode per dirty line-lifetime otherwise.
    The default flip rate is deliberately large so expectations are
    numerically visible; only *ratios* between configurations matter.
    """
    exposure = dirty_exposure(out, n_lines)
    if exposure <= 0:
        return 0.0
    mean_episode = out.mean_dirty_episode_cycles
    if not mean_episode or mean_episode <= 0:
        # No episode ever completed (nothing was written back): the
        # open episodes span the whole measured window.
        mean_episode = float(out.cycles)
    episodes = exposure / mean_episode
    per_word = p_double_bit(flip_rate_per_bit_cycle, mean_episode)
    return episodes * words_per_line * per_word


def exposure_comparison(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    cleaning_interval: int = 1 << 20,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Dirty exposure of the conventional vs the protected L2.

    Returns, per benchmark: both exposures (in millions of dirty
    line-cycles), the exposure reduction factor, and the ratio of
    expected residual uncorrectable events.  ``engine`` (a
    :class:`~repro.experiments.pool.SweepEngine`, sequential and
    uncached by default) runs the org/ours grid.
    """
    names = benchmarks or sorted(BENCHMARKS)
    n_lines = config.geometry.hierarchy_config().l2.n_lines
    protection = ProtectionConfig(
        cleaning_interval=cleaning_interval, ecc_entries_per_set=1
    )
    cells: List[Cell] = []
    for name in names:
        cells.append(Cell(name, None, config))
        cells.append(Cell(name, protection, config))
    outputs = (engine or SweepEngine()).run_cells(cells)
    out: Dict[str, Dict[str, float]] = {}
    for name, org, ours in zip(names, outputs[0::2], outputs[1::2]):
        e_org = dirty_exposure(org, n_lines)
        e_ours = dirty_exposure(ours, n_lines)
        u_org = expected_uncorrectable(org, n_lines)
        u_ours = expected_uncorrectable(ours, n_lines)
        out[name] = {
            "org Mlc": e_org / 1e6,
            "ours Mlc": e_ours / 1e6,
            "exposure x": e_org / e_ours if e_ours > 0 else float("inf"),
            "events x": u_org / u_ours if u_ours > 0 else float("inf"),
        }
    return out
