"""The Monte Carlo campaign engine: shards, rounds, stopping, resume.

A campaign estimates each protection scheme's outcome rates by running
randomized injection trials (:mod:`repro.reliability.model`) in
**shards** — fixed-size batches that are the unit of parallelism,
checkpointing and reproducibility:

* **Deterministic seeding.** Shard ``i`` of scheme ``s`` always runs
  under ``shard_seed(seed, s, i)`` (a SHA-256 derivation), so any
  subset of shards can run anywhere, in any order, on any number of
  workers, and still produce the same trials.
* **Fan-out.** Rounds of shards go through
  :meth:`repro.experiments.pool.SweepEngine.map_tasks`, the same worker
  pool the figure sweeps use (``--jobs N``).
* **Checkpoint/resume.** Each completed shard's counts append to a
  JSONL checkpoint (:mod:`repro.reliability.checkpoint`); an
  interrupted campaign reloads them, finishes the partial round, and
  continues — producing the bit-identical aggregate of an
  uninterrupted run.
* **Statistical stopping.** With ``trials=None`` the campaign runs
  round by round until the target rate's Wilson half-width drops below
  the goal (:mod:`repro.reliability.stopping`).  Stopping decisions are
  made only at round boundaries from order-independent aggregates, so
  the stopping point is identical at any ``--jobs`` value and across
  interrupt/resume.  Those aggregates are running per-scheme totals,
  updated as each shard is absorbed (run here, published by a fabric
  peer or reloaded from the checkpoint), so a round boundary costs the
  same however many shards came before it; the result folds every
  shard once, in shard-index order.

Aggregates convert to FIT / MTTF / AVF with confidence intervals via
:mod:`repro.reliability.estimates`; outcomes feed an optional
:class:`~repro.telemetry.tracing.EventTracer` (``campaign_outcome``
events) and :class:`~repro.telemetry.metrics.MetricsRegistry` counters.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.experiments.pool import SweepEngine
from repro.reliability.checkpoint import (
    CampaignCheckpoint,
    config_digest,
)
from repro.reliability.kernel import LinePool, run_trials_batch
from repro.reliability.estimates import (
    DEFAULT_RAW_FIT_PER_MBIT,
    ReliabilityEstimate,
    scheme_estimate,
)
from repro.reliability.model import (
    FaultDomain,
    FaultModelConfig,
    TrialOutcome,
    run_trial,
    scheme_policy,
)
from repro.reliability.stopping import StoppingRule
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import EventTracer

#: The paper's dirty-residency averages (Figures 1 and 7): what fraction
#: of struck lines are dirty under each scheme when no benchmark-specific
#: measurement is supplied.
DEFAULT_DIRTY_FRACTIONS: Dict[str, float] = {
    "uniform-ecc": 0.516,
    "parity-only": 0.516,
    "non-uniform": 0.196,
}

#: Per-trial outcome samples a shard carries back for event tracing.
SAMPLES_PER_SHARD = 32

#: Shard execution kernels.  ``batch`` looks each strike's draws up in
#: an outcome memo and classifies only unseen error patterns
#: (:mod:`repro.reliability.kernel`); ``reference`` builds a live
#: :class:`~repro.core.policy.LineProtection` per trial.  Those two
#: replay the identical random stream under one shard seed, so they
#: produce bit-identical shard results.  ``vector`` draws whole trial
#: blocks with ``numpy.random.Generator`` and classifies them with
#: table gathers (:mod:`repro.reliability.vector`, the ``[fast]``
#: extra): same fault model, same distribution — enforced by a
#: two-proportion statistical gate — but not the same per-trial stream.
KERNELS: Tuple[str, ...] = ("batch", "reference", "vector")


class CampaignAborted(RuntimeError):
    """The campaign stopped because ``should_abort`` returned True.

    Raised out of :meth:`CampaignEngine.run` at the next round boundary
    (or fabric wait-loop iteration) after a cancellation is observed;
    completed shards are already checkpointed, so a later identical
    request resumes rather than restarts.
    """


def shard_seed(master_seed: int, scheme: str, index: int) -> int:
    """The seed shard ``index`` of ``scheme`` always runs under.

    SHA-256 of ``(master_seed, scheme, index)`` — independent of worker
    count, execution order, interruption history and Python hash
    randomization.
    """
    blob = f"{master_seed}:{scheme}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass(frozen=True)
class ShardSpec:
    """One shard's full execution recipe (picklable for the pool)."""

    scheme: str
    index: int
    trials: int
    seed: int
    model: FaultModelConfig
    sample_limit: int = SAMPLES_PER_SHARD
    #: One of :data:`KERNELS`.  ``batch`` and ``reference`` yield the
    #: same :class:`ShardResult` for the same spec; ``vector`` yields a
    #: result of the same distribution.
    kernel: str = "batch"


#: ``TrialOutcome(name)`` without the enum constructor's call overhead.
_OUTCOME_OF: Dict[str, TrialOutcome] = {
    outcome.value: outcome for outcome in TrialOutcome
}


@dataclass
class ShardResult:
    """Outcome counts of one executed shard."""

    scheme: str
    index: int
    trials: int
    seed: int
    #: ``{domain.value: {outcome.value: count}}`` — JSON-able.
    outcomes: Dict[str, Dict[str, int]]
    #: ``(trial offset, domain, dirty, outcome)`` head sample, for
    #: tracing; not persisted in checkpoints.
    samples: List[Tuple[int, str, bool, str]] = field(default_factory=list)

    def outcome_totals(self) -> Dict[TrialOutcome, int]:
        totals: Dict[TrialOutcome, int] = {}
        for per_domain in self.outcomes.values():
            for name, n in per_domain.items():
                outcome = _OUTCOME_OF[name]
                totals[outcome] = totals.get(outcome, 0) + n
        return totals

    def as_record(self) -> Dict[str, Any]:
        """The checkpoint line for this shard."""
        return {
            "scheme": self.scheme,
            "index": self.index,
            "trials": self.trials,
            "seed": self.seed,
            "outcomes": self.outcomes,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ShardResult":
        return cls(
            scheme=record["scheme"],
            index=record["index"],
            trials=record["trials"],
            seed=record["seed"],
            outcomes={
                domain: dict(per)
                for domain, per in record["outcomes"].items()
            },
        )


def run_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard to completion; pure function of the spec.

    Module-level so :meth:`SweepEngine.map_tasks` workers can pickle it.
    Dispatches on ``spec.kernel``: ``batch`` and ``reference`` consume
    the shard seed identically (bit-identical counts); ``vector`` seeds
    its own ``numpy.random.Generator`` from it, so its counts are
    deterministic per spec but only distribution-equivalent to the
    other kernels'.
    """
    policy = scheme_policy(spec.scheme)
    if spec.kernel == "vector" and (
        spec.model.scenario != "nominal" or spec.model.ecc_codec != "secded"
    ):
        # The vectorized kernel only implements the nominal Bernoulli
        # model with the default codecs.  Correlated scenarios fall
        # back to the batched kernel — which is bit-identical to the
        # reference oracle, so the vector kernel's distribution-
        # equivalence gate is trivially satisfied on this path (see
        # docs/reliability.md, "Scenario packs").
        spec = replace(spec, kernel="batch")
    if spec.kernel == "vector":
        from repro.reliability.vector import run_trials_vector

        outcomes, samples = run_trials_vector(
            policy,
            spec.model,
            spec.trials,
            spec.seed,
            sample_limit=spec.sample_limit,
        )
        return ShardResult(
            scheme=spec.scheme,
            index=spec.index,
            trials=spec.trials,
            seed=spec.seed,
            outcomes=outcomes,
            samples=samples,
        )
    if spec.kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {spec.kernel!r}; known: {list(KERNELS)}"
        )
    rng = random.Random(spec.seed)
    if spec.kernel == "batch":
        outcomes, samples = run_trials_batch(
            policy,
            spec.model,
            spec.trials,
            rng,
            sample_limit=spec.sample_limit,
        )
    else:
        pool = LinePool.shared(spec.model.line_bytes)
        outcomes = {}
        samples = []
        for trial in range(spec.trials):
            outcome, domain, dirty = run_trial(
                policy, spec.model, rng, pool
            )
            per_domain = outcomes.setdefault(domain.value, {})
            per_domain[outcome.value] = (
                per_domain.get(outcome.value, 0) + 1
            )
            if len(samples) < spec.sample_limit:
                samples.append(
                    (trial, domain.value, dirty, outcome.value)
                )
    return ShardResult(
        scheme=spec.scheme,
        index=spec.index,
        trials=spec.trials,
        seed=spec.seed,
        outcomes=outcomes,
        samples=samples,
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign.

    ``trials``
        Total trials per scheme; ``None`` (the CLI's ``--trials auto``)
        runs until ``stopping`` is satisfied on ``metric``.
    ``metric``
        The rate the stopping rule targets: an outcome name
        (``sdc``, ``due``, ...) or ``failure`` (SDC + DUE).
    ``dirty_fractions``
        Per-scheme P(struck line is dirty); unlisted schemes fall back
        to :data:`DEFAULT_DIRTY_FRACTIONS`, then to the model's own
        value.  The CLI fills this from a measured benchmark run.
    ``n_lines``
        Lines of the protected structure (the paper's 1 MB / 64 B L2 =
        16384) — only scales the FIT/MTTF conversion.
    ``kernel``
        Shard execution kernel (:data:`KERNELS`).  Excluded from the
        checkpoint digest, so checkpoints stay kernel-portable:
        ``batch`` and ``reference`` produce bit-identical shard
        results, and ``vector`` produces distribution-equivalent ones
        (the statistical gate in ``tests/reliability/test_vector.py``
        covers the mixed-kernel resume case too).
    """

    schemes: Tuple[str, ...] = ("uniform-ecc", "non-uniform")
    trials: Optional[int] = None
    trials_per_shard: int = 500
    shards_per_round: int = 8
    stopping: StoppingRule = StoppingRule()
    metric: str = "sdc"
    seed: int = 0
    model: FaultModelConfig = FaultModelConfig()
    dirty_fractions: Optional[Mapping[str, float]] = None
    raw_fit_per_mbit: float = DEFAULT_RAW_FIT_PER_MBIT
    n_lines: int = 16384
    kernel: str = "batch"

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("campaign needs at least one scheme")
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; known: {list(KERNELS)}"
            )
        if self.kernel == "vector":
            from repro.reliability.vector import HAVE_NUMPY

            if not HAVE_NUMPY:
                raise ValueError(
                    "the 'vector' kernel needs numpy, which is not "
                    "installed; install the optional extra "
                    "(pip install -e .[fast]) or use kernel='batch'"
                )
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be positive (or None for auto)")
        if self.trials_per_shard < 1 or self.shards_per_round < 1:
            raise ValueError("shard sizing must be positive")
        if self.metric != "failure":
            TrialOutcome(self.metric)  # raises on unknown names
        for scheme in self.schemes:
            scheme_policy(scheme)  # raises on unknown names

    def dirty_fraction_for(self, scheme: str) -> float:
        if self.dirty_fractions and scheme in self.dirty_fractions:
            return self.dirty_fractions[scheme]
        return DEFAULT_DIRTY_FRACTIONS.get(scheme, self.model.dirty_fraction)

    def model_for(self, scheme: str) -> FaultModelConfig:
        return replace(
            self.model, dirty_fraction=self.dirty_fraction_for(scheme)
        )

    def metric_successes(self, counts: Mapping[TrialOutcome, int]) -> int:
        if self.metric == "failure":
            return counts.get(TrialOutcome.SDC, 0) + counts.get(
                TrialOutcome.DUE, 0
            )
        return counts.get(TrialOutcome(self.metric), 0)

    def describe(self) -> Dict[str, Any]:
        """Canonical view of everything that shapes the shard schedule.

        This is what the checkpoint digest covers.  Post-processing
        knobs (``raw_fit_per_mbit``, ``n_lines``) are deliberately
        excluded: re-quoting FIT under a different raw rate must not
        invalidate a checkpoint.
        """
        return {
            "schemes": list(self.schemes),
            "trials": self.trials,
            "trials_per_shard": self.trials_per_shard,
            "shards_per_round": self.shards_per_round,
            "stopping": {
                "target_half_width": self.stopping.target_half_width,
                "min_trials": self.stopping.min_trials,
                "max_trials": self.stopping.max_trials,
                "z": self.stopping.z,
            },
            "metric": self.metric,
            "seed": self.seed,
            "model": {
                scheme: self._describe_model(self.model_for(scheme))
                for scheme in self.schemes
            },
        }

    @staticmethod
    def _describe_model(m: FaultModelConfig) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "line_bytes": m.line_bytes,
            "tag_bits": m.tag_bits,
            "status_bits": m.status_bits,
            "dirty_fraction": m.dirty_fraction,
            "double_bit_fraction": m.double_bit_fraction,
            "read_fraction": m.read_fraction,
            "controller_refetch": m.controller_refetch,
        }
        # Scenario and codec change the trial stream, so they belong in
        # the digest — but only as *extra* keys when non-default, so
        # every pre-scenario nominal checkpoint keeps its digest.
        if m.scenario != "nominal":
            entry["scenario"] = m.scenario
        if m.ecc_codec != "secded":
            entry["ecc_codec"] = m.ecc_codec
        return entry


@dataclass
class SchemeResult:
    """One scheme's aggregate over every completed shard."""

    scheme: str
    model: FaultModelConfig
    trials: int
    shards: int
    outcome_counts: Dict[TrialOutcome, int]
    domain_counts: Dict[FaultDomain, Dict[TrialOutcome, int]]
    estimate: ReliabilityEstimate
    #: Achieved Wilson half-width of the campaign's target metric.
    half_width: float
    #: Why the scheme stopped: ``target`` | ``budget`` | ``fixed``.
    stopped_by: str

    def rate(self, outcome: TrialOutcome) -> float:
        return (
            self.outcome_counts.get(outcome, 0) / self.trials
            if self.trials
            else 0.0
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    config: CampaignConfig
    schemes: Dict[str, SchemeResult]
    #: Shards replayed from the checkpoint vs executed this run.
    resumed_shards: int
    executed_shards: int
    #: Shards executed by *other* fabric replicas and absorbed from the
    #: shared store (0 outside a fabric run).
    remote_shards: int = 0

    @property
    def total_trials(self) -> int:
        return sum(s.trials for s in self.schemes.values())


class _SchemeState:
    """Mutable per-scheme accumulation while the campaign runs.

    Every shard enters through :meth:`absorb`, which keeps running
    totals — ``trials`` and ``totals`` (outcome counts) — so the
    per-round stopping check and progress event cost O(1), not a fold
    over every shard so far.  The counts are integers, so the running
    sums equal any fold of the same shard set.  The campaign's result
    still folds once, in ascending shard-index order
    (:meth:`outcome_counts` / :meth:`domain_counts`), which fixes the
    key order of the result documents whatever order the shards
    arrived in.
    """

    def __init__(self, scheme: str) -> None:
        self.scheme = scheme
        self.shard_results: Dict[int, ShardResult] = {}
        self.stopped_by: Optional[str] = None
        self.trials = 0
        self.totals: Dict[TrialOutcome, int] = {}

    def absorb(self, result: ShardResult) -> None:
        """Add one shard; a re-absorbed index replaces its old counts."""
        old = self.shard_results.get(result.index)
        if old is not None:
            self._count(old, -1)
        self.shard_results[result.index] = result
        self._count(result, 1)

    def _count(self, result: ShardResult, sign: int) -> None:
        self.trials += sign * result.trials
        totals = self.totals
        for outcome, n in result.outcome_totals().items():
            totals[outcome] = totals.get(outcome, 0) + sign * n

    def _ordered(self) -> List[ShardResult]:
        """Shard results in shard-index order — the reduction order."""
        return [
            self.shard_results[index]
            for index in sorted(self.shard_results)
        ]

    @property
    def shards_done(self) -> int:
        return len(self.shard_results)

    def outcome_counts(self) -> Dict[TrialOutcome, int]:
        counts: Dict[TrialOutcome, int] = {}
        for result in self._ordered():
            for outcome, n in result.outcome_totals().items():
                counts[outcome] = counts.get(outcome, 0) + n
        return counts

    def domain_counts(self) -> Dict[FaultDomain, Dict[TrialOutcome, int]]:
        counts: Dict[FaultDomain, Dict[TrialOutcome, int]] = {}
        for result in self._ordered():
            for domain_name, per in result.outcomes.items():
                domain = FaultDomain(domain_name)
                acc = counts.setdefault(domain, {})
                for name, n in per.items():
                    outcome = _OUTCOME_OF[name]
                    acc[outcome] = acc.get(outcome, 0) + n
        return counts

    def next_indices(self, count: int) -> List[int]:
        """The ``count`` lowest shard indices not yet completed."""
        indices: List[int] = []
        candidate = 0
        while len(indices) < count:
            if candidate not in self.shard_results:
                indices.append(candidate)
            candidate += 1
        return indices


class CampaignEngine:
    """Drives a campaign: scheduling, checkpointing, stopping, telemetry.

    ``engine``
        The :class:`SweepEngine` that fans shards out (its ``jobs``
        setting is the parallelism); a private sequential engine is
        built when omitted.
    ``checkpoint``
        Path or :class:`CampaignCheckpoint` for durable shard results;
        ``None`` runs without resume support.
    ``tracer`` / ``registry``
        Optional telemetry sinks: per-trial ``campaign_outcome`` events
        (head-sampled per shard) and per-scheme outcome counters.
    ``progress``
        Optional callback receiving JSON-able event dicts as the
        campaign advances: ``resume`` (checkpointed shards reloaded),
        ``shard`` (one shard completed, counters snapshot included) and
        ``round`` (a round boundary with per-scheme trial counts and
        achieved half-widths — the points where stopping decisions are
        made).  This is what the job service streams as NDJSON/SSE.
    ``coordinator``
        Optional shard-lease coordinator (duck-typed to
        :class:`repro.service.fabric.ShardCoordinator`).  When set,
        every round's shards are *leased* from a shared store instead
        of executed unconditionally: this replica runs the shards it
        wins, absorbs results other replicas publish, and steals back
        expired leases from dead replicas — so N engines pointed at one
        fabric cooperatively execute one campaign.  Because stopping
        decisions still happen at round boundaries over the merged
        (index-ordered) aggregate, the result is bit-identical to a
        single-node run.
    ``should_abort``
        Optional zero-arg callable polled at round boundaries and in
        the fabric wait loop; returning True raises
        :class:`CampaignAborted` (completed shards stay checkpointed).
    """

    def __init__(
        self,
        config: CampaignConfig,
        engine: Optional[SweepEngine] = None,
        checkpoint: Union[CampaignCheckpoint, str, None] = None,
        tracer: Optional[EventTracer] = None,
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        coordinator: Optional[Any] = None,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.config = config
        self.engine = engine or SweepEngine()
        if checkpoint is None or isinstance(checkpoint, CampaignCheckpoint):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CampaignCheckpoint(checkpoint)
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()
        self.progress = progress
        self.coordinator = coordinator
        self.should_abort = should_abort
        self.resumed_shards = 0
        self.executed_shards = 0
        self.remote_shards = 0

    def _emit_progress(self, event: Dict[str, Any]) -> None:
        if self.progress is not None:
            self.progress(event)

    def _abort_check(self) -> None:
        if self.should_abort is not None and self.should_abort():
            raise CampaignAborted("campaign canceled")

    # -- scheduling --------------------------------------------------------

    def _fixed_shard_plan(self) -> List[Tuple[int, int]]:
        """(index, trials) for fixed-``trials`` mode (last shard short)."""
        assert self.config.trials is not None
        total, per = self.config.trials, self.config.trials_per_shard
        n_shards = (total + per - 1) // per
        plan = []
        for index in range(n_shards):
            trials = min(per, total - index * per)
            plan.append((index, trials))
        return plan

    def _spec(self, scheme: str, index: int, trials: int) -> ShardSpec:
        return ShardSpec(
            scheme=scheme,
            index=index,
            trials=trials,
            seed=shard_seed(self.config.seed, scheme, index),
            model=self.config.model_for(scheme),
            kernel=self.config.kernel,
        )

    def _auto_round_specs(self, state: _SchemeState) -> List[ShardSpec]:
        """Shards to reach the next round boundary for one scheme.

        Stopping is only ever evaluated at multiples of
        ``shards_per_round`` completed shards, so a resumed partial
        round is first topped up to the boundary — that is what makes
        interrupt/resume bit-identical to an uninterrupted run.
        """
        per_round = self.config.shards_per_round
        into_round = state.shards_done % per_round
        need = per_round - into_round if into_round else per_round
        return [
            self._spec(state.scheme, index, self.config.trials_per_shard)
            for index in state.next_indices(need)
        ]

    def _check_auto_stop(self, state: _SchemeState) -> None:
        """At a round boundary: mark the scheme stopped if warranted."""
        if state.shards_done % self.config.shards_per_round:
            return  # mid-round (resume top-up pending): no decision yet
        trials = state.trials
        if trials == 0:
            return
        successes = self.config.metric_successes(state.totals)
        rule = self.config.stopping
        if trials >= rule.max_trials:
            state.stopped_by = "budget"
        elif rule.should_stop(successes, trials):
            state.stopped_by = "target"

    # -- execution ---------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run (or resume) the campaign to its stopping point."""
        digest = config_digest(self.config.describe())
        states = {
            scheme: _SchemeState(scheme) for scheme in self.config.schemes
        }
        if self.checkpoint is not None:
            for (scheme, index), record in self.checkpoint.load(
                digest
            ).items():
                if scheme in states:
                    states[scheme].absorb(ShardResult.from_record(record))
                    self.resumed_shards += 1
            self.checkpoint.write_header(digest, self.config.describe())
            if self.resumed_shards:
                self._emit_progress({
                    "type": "resume",
                    "resumed_shards": self.resumed_shards,
                    "trials": {
                        scheme: state.trials
                        for scheme, state in states.items()
                    },
                })

        try:
            if self.config.trials is not None:
                self._run_fixed(states)
            else:
                self._run_auto(states)
        finally:
            if self.checkpoint is not None:
                self.checkpoint.close()
        return self._result(states)

    def _run_fixed(self, states: Dict[str, _SchemeState]) -> None:
        plan = self._fixed_shard_plan()
        specs: List[ShardSpec] = []
        for scheme in self.config.schemes:
            state = states[scheme]
            specs.extend(
                self._spec(scheme, index, trials)
                for index, trials in plan
                if index not in state.shard_results
            )
            state.stopped_by = "fixed"
        # Execute round-sized batches rather than one giant map_tasks
        # call: shard records reach the checkpoint between batches, so
        # an interrupt loses at most one round of work per scheme.
        per_batch = self.config.shards_per_round * len(self.config.schemes)
        for start in range(0, len(specs), per_batch):
            self._abort_check()
            self._execute(specs[start : start + per_batch], states)
            self._emit_round(states)

    def _run_auto(self, states: Dict[str, _SchemeState]) -> None:
        for state in states.values():
            self._check_auto_stop(state)
        while True:
            self._abort_check()
            specs: List[ShardSpec] = []
            for scheme in self.config.schemes:
                state = states[scheme]
                if state.stopped_by is None:
                    specs.extend(self._auto_round_specs(state))
            if not specs:
                break
            self._execute(specs, states)
            for state in states.values():
                if state.stopped_by is None:
                    self._check_auto_stop(state)
            self._emit_round(states)

    def _execute(
        self, specs: List[ShardSpec], states: Dict[str, _SchemeState]
    ) -> None:
        if not specs:
            return
        if self.coordinator is not None:
            self._execute_fabric(specs, states)
            return
        results = self.engine.map_tasks(
            run_shard, specs, phase="campaign-shard"
        )
        for result in sorted(results, key=lambda r: (r.scheme, r.index)):
            self._absorb(result, states, remote=False)

    def _execute_fabric(
        self, specs: List[ShardSpec], states: Dict[str, _SchemeState]
    ) -> None:
        """One round through the shared fabric: lease, run, merge, steal.

        Loops until every spec of the round has a result — executed
        here (leases this replica won), published by another replica
        (absorbed as ``remote``), or stolen back after the owning
        replica's lease expired / heartbeat went stale.  The round
        barrier is what keeps every replica's stopping decisions — and
        therefore the shard schedule itself — identical.
        """
        coordinator = self.coordinator
        pending: Dict[Tuple[str, int], ShardSpec] = {
            (spec.scheme, spec.index): spec for spec in specs
        }
        coordinator.announce(list(pending.values()))
        while pending:
            self._abort_check()
            coordinator.heartbeat()
            ordered = [pending[key] for key in sorted(pending)]
            mine, stolen = coordinator.lease(ordered)
            if stolen:
                self._emit_progress({
                    "type": "steal",
                    "shards": [[s.scheme, s.index] for s in stolen],
                })
            if mine:
                results = self.engine.map_tasks(
                    run_shard, mine, phase="campaign-shard"
                )
                for result in sorted(
                    results, key=lambda r: (r.scheme, r.index)
                ):
                    coordinator.complete(result)
                    self._absorb(result, states, remote=False)
                    pending.pop((result.scheme, result.index))
            remote = coordinator.completed(sorted(pending))
            for record in remote:
                result = ShardResult.from_record(record)
                self._absorb(result, states, remote=True)
                pending.pop((result.scheme, result.index))
            if pending and not mine and not remote:
                time.sleep(coordinator.poll_interval)

    def _absorb(
        self,
        result: ShardResult,
        states: Dict[str, _SchemeState],
        remote: bool,
    ) -> None:
        """Fold one completed shard into the running aggregates.

        Local results checkpoint here; remote ones do not — the replica
        that executed them already appended to the shared JSONL log.
        Telemetry counters absorb both, so every replica's counters
        describe the whole campaign, not just its own slice.
        """
        states[result.scheme].absorb(result)
        if remote:
            self.remote_shards += 1
        else:
            self.executed_shards += 1
            if self.checkpoint is not None:
                self.checkpoint.append_shard(result.as_record())
        self._emit_telemetry(result)
        event = {
            "type": "shard",
            "scheme": result.scheme,
            "index": result.index,
            "trials": result.trials,
            "executed_shards": self.executed_shards,
            "resumed_shards": self.resumed_shards,
        }
        if remote:
            event["remote"] = True
            event["remote_shards"] = self.remote_shards
        self._emit_progress(event)

    def _emit_round(self, states: Dict[str, _SchemeState]) -> None:
        """A round boundary: per-scheme aggregates, from the telemetry
        counters' point of view the moment a stopping decision is made."""
        if self.progress is None:
            return
        schemes: Dict[str, Any] = {}
        for scheme, state in states.items():
            successes = self.config.metric_successes(state.totals)
            schemes[scheme] = {
                "trials": state.trials,
                "shards": state.shards_done,
                "half_width": self.config.stopping.half_width(
                    successes, state.trials
                ),
                "stopped_by": state.stopped_by,
            }
        self._emit_progress({
            "type": "round",
            "schemes": schemes,
            "counters": self.registry.snapshot(),
        })

    def _emit_telemetry(self, result: ShardResult) -> None:
        base = f"campaign.{result.scheme}"
        self.registry.counter(f"{base}.shards").inc()
        self.registry.counter(f"{base}.trials").inc(result.trials)
        for outcome, n in result.outcome_totals().items():
            self.registry.counter(f"{base}.{outcome.value}").inc(n)
        if self.tracer is not None:
            start = result.index * self.config.trials_per_shard
            for offset, domain, dirty, outcome in result.samples:
                self.tracer.emit(
                    "campaign_outcome",
                    start + offset,
                    scheme=result.scheme,
                    domain=domain,
                    dirty=dirty,
                    outcome=outcome,
                )

    # -- results -----------------------------------------------------------

    def _result(self, states: Dict[str, _SchemeState]) -> CampaignResult:
        schemes: Dict[str, SchemeResult] = {}
        for scheme in self.config.schemes:
            state = states[scheme]
            counts = state.outcome_counts()
            trials = state.trials
            model = self.config.model_for(scheme)
            # The scenario's raw-BER scaling (e.g. low-voltage 4x) is a
            # FIT-quoting knob like raw_fit_per_mbit itself: applied
            # here, excluded from the checkpoint digest.
            from repro.reliability.scenarios import get_scenario

            ber_scale = get_scenario(model.scenario).ber_scale
            estimate = scheme_estimate(
                scheme,
                scheme_policy(scheme),
                model,
                counts,
                n_lines=self.config.n_lines,
                raw_fit_per_mbit=self.config.raw_fit_per_mbit * ber_scale,
                z=self.config.stopping.z,
            )
            successes = self.config.metric_successes(counts)
            schemes[scheme] = SchemeResult(
                scheme=scheme,
                model=model,
                trials=trials,
                shards=state.shards_done,
                outcome_counts=counts,
                domain_counts=state.domain_counts(),
                estimate=estimate,
                half_width=self.config.stopping.half_width(
                    successes, trials
                ),
                stopped_by=state.stopped_by or "fixed",
            )
        return CampaignResult(
            config=self.config,
            schemes=schemes,
            resumed_shards=self.resumed_shards,
            executed_shards=self.executed_shards,
            remote_shards=self.remote_shards,
        )


def run_campaign(
    config: CampaignConfig = CampaignConfig(),
    engine: Optional[SweepEngine] = None,
    checkpoint: Union[CampaignCheckpoint, str, None] = None,
    tracer: Optional[EventTracer] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignResult:
    """One-call campaign: build the engine, run it, return the result."""
    return CampaignEngine(
        config,
        engine=engine,
        checkpoint=checkpoint,
        tracer=tracer,
        registry=registry,
        progress=progress,
    ).run()


__all__ = [
    "DEFAULT_DIRTY_FRACTIONS",
    "KERNELS",
    "CampaignAborted",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignResult",
    "SAMPLES_PER_SHARD",
    "SchemeResult",
    "ShardResult",
    "ShardSpec",
    "run_campaign",
    "run_shard",
    "shard_seed",
]
