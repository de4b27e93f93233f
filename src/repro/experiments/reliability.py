"""End-to-end reliability campaigns over protected lines.

The paper argues its non-uniform scheme keeps dirty data as safe as the
conventional uniformly-ECC cache while clean data, protected only by
parity, is still *recoverable* (refetch).  This module quantifies that
with payload-level fault injection: a population of
:class:`~repro.core.policy.LineProtection` lines goes through
write/clean/read generations while soft errors flip stored bits, and
every read's end-to-end outcome is classified.

Not a figure from the paper — an extension experiment (DESIGN.md §6)
that validates the protection-domain reasoning the paper relies on.

Two layers live here:

* the original single-process event-mix campaign
  (:func:`reliability_campaign` / :func:`compare_policies`), kept for
  its simple, directly-inspectable fault loop; and
* the bridge into :mod:`repro.reliability` — the sharded Monte Carlo
  campaign engine — which replaces assumed dirty fractions with
  *measured* per-benchmark residency (:func:`measured_dirty_fractions`)
  and runs one statistically-stopped campaign per benchmark
  (:func:`benchmark_campaigns`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.policy import (
    LineProtection,
    ProtectionPolicy,
    RecoveryAction,
)
from repro.core.protected_cache import ProtectionConfig
from repro.experiments.pool import Cell, SweepEngine
from repro.experiments.runner import RunConfig


@dataclass(frozen=True)
class ReliabilityConfig:
    """Shape of one injection campaign."""

    n_lines: int = 64
    n_events: int = 5000
    line_bytes: int = 64
    #: Probability an event is a fault strike (vs. a write/clean/read).
    fault_rate: float = 0.10
    #: Probability a strike flips two bits of the same word (vs. one).
    double_bit_fraction: float = 0.15
    #: Probability a non-fault event is a write (dirtying the line).
    write_fraction: float = 0.3
    #: Probability a non-fault event is a cleaning write-back.
    clean_fraction: float = 0.1
    seed: int = 0


@dataclass
class ReliabilityResult:
    """Outcome counts of one campaign."""

    policy: str
    reads: int = 0
    faults_injected: int = 0
    by_action: Dict[RecoveryAction, int] = field(default_factory=dict)

    def record(self, action: RecoveryAction) -> None:
        self.reads += 1
        self.by_action[action] = self.by_action.get(action, 0) + 1

    def rate(self, action: RecoveryAction) -> float:
        return self.by_action.get(action, 0) / self.reads if self.reads else 0.0

    @property
    def unrecovered_rate(self) -> float:
        """Fraction of reads ending in data loss or silent corruption."""
        return self.rate(RecoveryAction.DATA_LOSS) + self.rate(
            RecoveryAction.SILENT_CORRUPTION
        )


def reliability_campaign(
    policy: ProtectionPolicy, config: ReliabilityConfig = ReliabilityConfig()
) -> ReliabilityResult:
    """Run one campaign of ``config.n_events`` against ``policy``.

    Event mix: fault strikes flip 1 or 2 bits of a random line's stored
    payload; writes dirty lines with fresh data; cleans write dirty
    lines back; the remaining events are reads, whose recovery outcome
    is recorded.
    """
    rng = random.Random(config.seed)
    lines: List[LineProtection] = [
        LineProtection(
            policy,
            bytes(rng.getrandbits(8) for _ in range(config.line_bytes)),
            line_bytes=config.line_bytes,
        )
        for _ in range(config.n_lines)
    ]
    result = ReliabilityResult(policy=policy.name)

    for _ in range(config.n_events):
        line = lines[rng.randrange(config.n_lines)]
        roll = rng.random()
        if roll < config.fault_rate:
            result.faults_injected += 1
            byte_idx = rng.randrange(config.line_bytes)
            line.flip(byte_idx, rng.randrange(8))
            if rng.random() < config.double_bit_fraction:
                # Second flip within the same 64-bit word.
                word_start = (byte_idx // 8) * 8
                line.flip(word_start + rng.randrange(8), rng.randrange(8))
        elif roll < config.fault_rate + config.write_fraction:
            line.write(
                bytes(rng.getrandbits(8) for _ in range(config.line_bytes))
            )
        elif roll < (
            config.fault_rate + config.write_fraction + config.clean_fraction
        ):
            if line.dirty:
                line.clean()
        else:
            action, _ = line.access()
            result.record(action)
    return result


def compare_policies(
    policies: Sequence[ProtectionPolicy],
    config: ReliabilityConfig = ReliabilityConfig(),
) -> Dict[str, ReliabilityResult]:
    """Run the same seeded campaign against each policy."""
    return {p.name: reliability_campaign(p, config) for p in policies}


# -- bridge into the sharded campaign engine -------------------------------


def measured_dirty_fractions(
    benchmark: str,
    config: RunConfig = RunConfig(),
    engine=None,
    cleaning_interval: int = 1 << 20,
    ecc_entries: int = 1,
    variant: str = "standard",
) -> Dict[str, float]:
    """Per-scheme P(struck line is dirty), measured from one benchmark.

    Runs the benchmark twice — unprotected (the conventional cache the
    ``uniform-ecc`` and ``parity-only`` schemes model) and under the
    paper's cleaning + shared-ECC protection (``non-uniform``) — and
    returns each scheme's measured average dirty residency, ready for
    :attr:`repro.reliability.CampaignConfig.dirty_fractions`.

    ``variant`` swaps the protected (non-uniform) run's L2 for a policy
    variant from the registry — e.g. ``silent-write`` lowers the dirty
    residency the campaign conditions on.  The unprotected baseline is
    always the standard cache.

    ``engine`` (a :class:`~repro.experiments.pool.SweepEngine`,
    sequential and uncached by default) runs the two cells, so they
    share its workers, cache and profiler with the campaign that
    follows.
    """
    protection = ProtectionConfig(
        cleaning_interval=cleaning_interval, ecc_entries_per_set=ecc_entries
    )
    org, ours = (engine or SweepEngine()).run_cells([
        Cell(benchmark, None, config),
        Cell(benchmark, protection, config, variant=variant),
    ])
    return {
        "uniform-ecc": org.dirty_fraction,
        "parity-only": org.dirty_fraction,
        "non-uniform": ours.dirty_fraction,
    }


def benchmark_campaigns(
    benchmarks: Sequence[str],
    run_config: RunConfig = RunConfig(),
    campaign_config=None,
    engine=None,
    checkpoint_dir: Optional[str] = None,
):
    """One statistically-stopped campaign per benchmark.

    For each benchmark, measure its dirty fractions
    (:func:`measured_dirty_fractions`), substitute them into
    ``campaign_config``, and run the sharded campaign.  Returns
    ``{benchmark: CampaignResult}`` — the per-benchmark
    conventional-vs-paper comparison EXPERIMENTS.md tabulates.

    ``checkpoint_dir``, when given, holds one resumable JSONL checkpoint
    per benchmark (``<dir>/<benchmark>.jsonl``).
    """
    from pathlib import Path

    from repro.reliability import CampaignConfig, run_campaign

    if campaign_config is None:
        campaign_config = CampaignConfig()
    results = {}
    for name in benchmarks:
        fractions = measured_dirty_fractions(name, run_config, engine=engine)
        cfg = replace(campaign_config, dirty_fractions=fractions)
        checkpoint = (
            str(Path(checkpoint_dir) / f"{name}.jsonl")
            if checkpoint_dir
            else None
        )
        results[name] = run_campaign(cfg, engine=engine, checkpoint=checkpoint)
    return results
