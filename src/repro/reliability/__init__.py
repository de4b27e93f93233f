"""Monte Carlo fault-injection campaigns with statistical stopping.

The paper's claim is comparative: non-uniform protection (parity on
clean lines, shared SECDED on dirty lines) matches a uniformly-ECC
cache's *effective* reliability at 59% less area.  Validating that
credibly needs large-scale randomized injection with quantified
confidence — HARP and Cerberus (PAPERS.md) both make the same point —
not a handful of fixed-trial loops.  This package is that harness:

* :mod:`repro.reliability.model` — the fault model: protection domains
  (data / tag / status / check arrays), per-trial lifecycle, and the
  outcome taxonomy (masked / corrected / refetch / DUE / SDC);
* :mod:`repro.reliability.kernel` — the batched injection kernel: the
  shared samplers plus an outcome memo keyed on each strike's draws
  give ~30× the reference path's trial throughput with bit-identical
  outcomes (``--kernel batch|reference``);
* :mod:`repro.reliability.scenarios` — correlated-fault scenario packs
  (``--scenario nominal|burst-heavy|rowcol|low-voltage``): adjacent-bit
  burst PMFs, row/column strike classes and raw-BER scaling, with
  shared samplers that keep both exact kernels bit-identical;
* :mod:`repro.reliability.stopping` — Wilson score intervals and the
  sequential stopping rule (run until the SDC-rate interval is tight);
* :mod:`repro.reliability.estimates` — FIT / MTTF / AVF arithmetic with
  confidence intervals propagated from the trial counts;
* :mod:`repro.reliability.checkpoint` — the JSONL shard store the
  engine's round loop drives, so an interrupted campaign resumes
  exactly where it stopped;
* :mod:`repro.reliability.campaign` — the engine: deterministic
  per-shard seeding, fan-out over
  :class:`repro.experiments.pool.SweepEngine` workers, telemetry.

See ``docs/reliability.md`` for the end-to-end methodology.
"""

from repro.reliability.campaign import (
    KERNELS,
    CampaignAborted,
    CampaignConfig,
    CampaignEngine,
    CampaignResult,
    SchemeResult,
    ShardResult,
    ShardSpec,
    run_campaign,
    run_shard,
    shard_seed,
)
from repro.reliability.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
)
from repro.reliability.kernel import (
    POOL_SIZE,
    LinePool,
    run_trials_batch,
)
from repro.reliability.estimates import (
    HOURS_PER_BILLION,
    RateEstimate,
    ReliabilityEstimate,
    fit_to_mttf_hours,
    mttf_interval,
    scheme_estimate,
)
from repro.reliability.model import (
    FaultDomain,
    FaultModelConfig,
    SCHEMES,
    TrialOutcome,
    domain_bits,
    run_trial,
    scheme_policy,
)
from repro.reliability.scenarios import (
    FaultClass,
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.reliability.stopping import (
    StoppingRule,
    wilson_half_width,
    wilson_interval,
)

__all__ = [
    "CampaignAborted",
    "CampaignCheckpoint",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignResult",
    "CheckpointError",
    "FaultClass",
    "FaultDomain",
    "FaultModelConfig",
    "HOURS_PER_BILLION",
    "KERNELS",
    "LinePool",
    "POOL_SIZE",
    "RateEstimate",
    "ReliabilityEstimate",
    "SCHEMES",
    "Scenario",
    "SchemeResult",
    "ShardResult",
    "ShardSpec",
    "StoppingRule",
    "TrialOutcome",
    "available_scenarios",
    "domain_bits",
    "get_scenario",
    "register_scenario",
    "fit_to_mttf_hours",
    "mttf_interval",
    "run_campaign",
    "run_shard",
    "run_trial",
    "run_trials_batch",
    "scheme_estimate",
    "scheme_policy",
    "shard_seed",
    "wilson_half_width",
    "wilson_interval",
]
