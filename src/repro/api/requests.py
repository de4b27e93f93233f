"""Request dataclasses: the facade's (and the wire's) input surface.

Every operation the CLI and the job service expose is described by a
**frozen dataclass** whose fields are JSON primitives (ints, floats,
strings, tuples), so a request round-trips through
:func:`request_from_dict` / ``as_dict`` unchanged — that is the
service's wire format.

Each field is declared once, here: its default, and in its
``metadata`` (see :func:`_flag`) the help text and grammar its CLI
flag is derived from.  Every input check runs in ``__post_init__``,
so a bad request raises :class:`ReproError` at construction — the CLI
maps it to exit code 2 and the service to an HTTP 400 at POST, before
any work is queued.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.protected_cache import ProtectionConfig
from repro.experiments.runner import RunConfig


class ReproError(Exception):
    """A request that cannot be executed (bad input, missing file).

    The facade's contract is that *invalid inputs* surface as this
    single exception type — the CLI turns it into exit code 2 on
    stderr, the service into an HTTP 400 — while genuine bugs still
    raise whatever they raise.
    """


def _as_dict(obj: Any) -> Any:
    """JSON-able view of a (possibly nested) dataclass."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _as_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _as_dict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_dict(v) for v in obj]
    if isinstance(obj, float) and obj != obj:  # NaN: JSON-hostile
        return None
    return obj


def request_from_dict(cls: type, payload: Mapping[str, Any]) -> Any:
    """Build a request dataclass from a plain dict (the wire format).

    Unknown fields are a :class:`ReproError` — a misspelled option must
    fail loudly, not silently fall back to a default.  Lists arriving
    from JSON are converted to the tuples the frozen dataclasses carry.
    """
    if not isinstance(payload, Mapping):
        raise ReproError(f"{cls.__name__} payload must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ReproError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ReproError(f"bad {cls.__name__}: {err}") from None


def _flag(default: Any, help: Optional[str] = None, **cli: Any) -> Any:
    """A request field whose ``metadata`` declares its CLI flag.

    :mod:`repro.cli` derives the flag from the field's name, type hint
    and default plus these keys: ``help`` (``{enum}`` expands to the
    field's registered values), ``grammar`` (``interval``, ``entries``
    or ``trials``: the CLI's parser for a nullable number), ``metavar``,
    ``choices`` (a sequence, or a zero-argument callable evaluated when
    the parser is built), ``flag`` (a flag name other than
    ``--<field-name>``), ``positional`` and ``group`` (the ``--help``
    section).
    """
    return dataclasses.field(default=default, metadata={"help": help, **cli})


# -- registry-backed values ---------------------------------------------------


def _registry(module: str, name: str) -> Callable[[], List[str]]:
    """A provider of the names registered in ``module.name`` (a
    collection, or a function returning one), imported on first use."""

    def values() -> List[str]:
        found = getattr(importlib.import_module(module), name)
        return list(found() if callable(found) else found)

    return values


def _benchmark_names() -> List[str]:
    return sorted(_registry("repro.workloads", "BENCHMARKS")())


#: Registry-backed noun -> (the word an error lists values under, the
#: provider of the valid values).  A field named after the noun holds
#: one value; a field named after its plural (``codecs``) holds a
#: tuple of them.  The one table behind request validation, the
#: ``{enum}`` in CLI help and ``GET /v1/kinds``.
_REGISTRIES: Dict[str, Tuple[str, Callable[[], List[str]]]] = {
    "variant": (
        "variants", _registry("repro.core.policy", "available_variants")
    ),
    "scenario": (
        "scenarios",
        _registry("repro.reliability.scenarios", "available_scenarios"),
    ),
    "codec": ("codecs", _registry("repro.ecc", "available_codecs")),
    "kernel": ("backends", _registry("repro.reliability.campaign", "KERNELS")),
    "scheme": ("schemes", _registry("repro.autotune", "SCHEMES")),
    "objective": (
        "objectives", _registry("repro.autotune", "available_objectives")
    ),
}


def _enum_providers() -> Dict[str, List[str]]:
    """Registry-backed field name -> its current valid values."""
    providers = {}
    for noun, (_, values) in _REGISTRIES.items():
        providers[noun] = providers[noun + "s"] = values()
    return providers


def _benchmark(name: str) -> str:
    from repro.workloads import get_benchmark

    try:
        get_benchmark(name)
    except ValueError as err:
        raise ReproError(str(err)) from None
    return name


def _validate(request: Any) -> None:
    """The checks every kind shares, keyed by field name.

    Registry-backed fields (:data:`_REGISTRIES`) must name registered
    values, each listed in the error; ``benchmark``/``benchmarks``
    must name known workloads; a ``refs``/``warmup`` pair must be a
    runnable shape.
    """
    for f in dataclasses.fields(request):
        value = getattr(request, f.name)
        noun = f.name[:-1] if f.name.endswith("s") else f.name
        if noun in _REGISTRIES:
            listing, provider = _REGISTRIES[noun]
            allowed = provider()
            for item in value if noun != f.name else (value,):
                if item not in allowed:
                    raise ReproError(
                        f"unknown {noun} {item!r}; "
                        f"available {listing}: {', '.join(allowed)}"
                    )
        elif noun == "benchmark" and value is not None:
            for name in value if noun != f.name else (value,):
                _benchmark(name)
    if hasattr(request, "refs") and (request.refs < 1 or request.warmup < 0):
        raise ReproError("refs must be positive and warmup non-negative")


def _positive_or_none(request: Any, *names: str) -> None:
    for name in names:
        value = getattr(request, name)
        if value is not None and value < 1:
            raise ReproError(f"{name} must be positive or None")


def _run_config(request: Any) -> RunConfig:
    """The run shape of a (validated) request with refs/warmup/seed."""
    return RunConfig(
        n_refs=request.refs, warmup_refs=request.warmup, seed=request.seed
    )


# -- shared CLI declarations --------------------------------------------------

_REFS_HELP = "measured memory references"
_WARMUP_HELP = "warm-up references (stats discarded)"
_INTERVAL_HELP = "cleaning interval, paper-nominal (e.g. 256K, 1M, none)"
_ENTRIES_HELP = "shared ECC entries per set (or 'none' for unconstrained)"
_VARIANT_HELP = (
    "policy variant: {enum} ('silent-write' elides redundant stores, "
    "'wb-compress' compresses write-back traffic; see docs/traffic.md)"
)
_DOUBLE_BIT_HELP = (
    "P(a strike upsets two bits of one codeword) — the multi-bit tail "
    "interleaving suppresses"
)
_RAW_FIT_HELP = "raw SRAM strike rate, FIT per Mbit"
_N_LINES_HELP = "lines of the protected structure (paper L2)"


class _Request:
    """What every request kind shares: the field-keyed checks of
    :func:`_validate` at construction, and the wire document."""

    def __post_init__(self) -> None:
        _validate(self)

    def as_dict(self) -> Dict[str, Any]:
        return _as_dict(self)


# -- run ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunRequest(_Request):
    """One reference-mode run of a benchmark or trace file."""

    benchmark: str = _flag("mesa", choices=_benchmark_names)
    trace: Optional[str] = _flag(
        None, "run a trace file instead of a benchmark"
    )
    #: Cleaning interval in paper-nominal cycles; None disables cleaning.
    interval: Optional[int] = _flag(
        1 << 20, _INTERVAL_HELP, grammar="interval", metavar="CYCLES"
    )
    #: Shared ECC entries per set; None means unconstrained.
    ecc_entries: Optional[int] = _flag(
        1, _ENTRIES_HELP, grammar="entries", metavar="N"
    )
    refs: int = _flag(60_000, _REFS_HELP)
    warmup: int = _flag(20_000, _WARMUP_HELP)
    seed: int = _flag(0)
    variant: str = _flag("standard", _VARIANT_HELP)

    def __post_init__(self) -> None:
        super().__post_init__()
        _positive_or_none(self, "interval", "ecc_entries")

    def protection_config(self) -> Optional[ProtectionConfig]:
        if self.interval is None and self.ecc_entries is None:
            return None
        return ProtectionConfig(
            cleaning_interval=self.interval,
            ecc_entries_per_set=self.ecc_entries,
        )

    def run_config(self) -> RunConfig:
        return _run_config(self)


# -- ipc ----------------------------------------------------------------------


@dataclass(frozen=True)
class IpcRequest(_Request):
    """Org-vs-ours IPC comparison of one benchmark."""

    benchmark: str = _flag("mesa", choices=_benchmark_names)
    insts: int = _flag(120_000)
    interval: Optional[int] = _flag(
        1 << 20, _INTERVAL_HELP, grammar="interval", metavar="CYCLES"
    )
    ecc_entries: Optional[int] = _flag(
        1, _ENTRIES_HELP, grammar="entries", metavar="N"
    )
    seed: int = _flag(0)
    variant: str = _flag("standard", _VARIANT_HELP)

    def __post_init__(self) -> None:
        super().__post_init__()
        _positive_or_none(self, "interval", "ecc_entries")
        if self.insts < 1:
            raise ReproError("insts must be positive")

    protection_config = RunRequest.protection_config


# -- area ---------------------------------------------------------------------


@dataclass(frozen=True)
class AreaRequest(_Request):
    """The Section 5.2 protection-area accounting."""

    ecc_entries: int = _flag(
        1, "shared ECC entries per set", flag="--ecc-area-entries"
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ecc_entries < 1:
            raise ReproError("ecc_entries must be positive")


# -- inject -------------------------------------------------------------------


@dataclass(frozen=True)
class InjectRequest(_Request):
    """A codec-level fault-injection campaign.

    ``codec`` is any name in the :mod:`repro.ecc` registry, so codes
    added via :func:`repro.ecc.register_codec` are immediately
    injectable without touching this layer.
    """

    codec: str = _flag("secded", choices=_REGISTRIES["codec"][1])
    trials: int = _flag(1000)
    flips: int = _flag(1)
    seed: int = _flag(0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.trials < 1 or self.flips < 1:
            raise ReproError("trials and flips must be positive")
        from repro.ecc import get_codec
        from repro.ecc.codec import WORD_BITS

        limit = WORD_BITS + get_codec(self.codec).check_bits_per_word
        if self.flips > limit:
            raise ReproError(
                f"flips must be at most {limit}, the bits of one "
                f"{self.codec} codeword"
            )


# -- figures ------------------------------------------------------------------

FIGURE_CHOICES = (
    "all", "table1", "1", "3", "4", "5", "6", "7", "8", "ipc", "area",
)


@dataclass(frozen=True)
class FiguresRequest(_Request):
    """Regenerate one (or all) of the paper's figures and tables."""

    fig: str = _flag("all", choices=FIGURE_CHOICES)
    refs: int = _flag(60_000, _REFS_HELP)
    warmup: int = _flag(20_000, _WARMUP_HELP)
    seed: int = _flag(0)
    ecc_area_entries: int = _flag(
        1, "shared ECC entries per set of the area section"
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fig not in FIGURE_CHOICES:
            raise ReproError(
                f"unknown figure {self.fig!r}; "
                f"choose from {list(FIGURE_CHOICES)}"
            )
        if self.ecc_area_entries < 1:
            raise ReproError("ecc_area_entries must be positive")


# -- ablate -------------------------------------------------------------------

#: Study name -> repro.experiments driver attribute.
ABLATIONS: Dict[str, str] = {
    "ecc-entries": "ablate_ecc_entries",
    "best-interval": "ablate_best_interval",
    "eager": "ablate_eager_writeback",
    "written-bit": "ablate_written_bit",
    "decay": "ablate_cleaning_policy",
    "replacement": "ablate_replacement",
    "write-buffer": "ablate_write_buffer",
    "cache-size": "ablate_cache_size",
    "energy": "ablate_energy",
}


@dataclass(frozen=True)
class AblateRequest(_Request):
    """Run one ablation study."""

    study: str = _flag("best-interval", choices=sorted(ABLATIONS),
                       positional=True)
    benchmarks: Optional[Tuple[str, ...]] = _flag(
        None, "restrict to these benchmarks", metavar="NAME"
    )
    refs: int = _flag(60_000, _REFS_HELP)
    warmup: int = _flag(20_000, _WARMUP_HELP)
    seed: int = _flag(0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.study not in ABLATIONS:
            raise ReproError(
                f"unknown study {self.study!r}; "
                f"choose from {sorted(ABLATIONS)}"
            )


# -- reliability --------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityRequest(_Request):
    """A Monte Carlo fault-injection campaign across schemes.

    ``trials=None`` is the CLI's ``--trials auto``: run until the
    Wilson half-width ``target`` is met on ``metric``.  ``benchmark``
    substitutes measured per-scheme dirty fractions for the paper's
    averages (``refs``/``warmup``/``seed`` shape that measurement run).
    ``checkpoint`` names a JSONL file completed shards persist to; the
    service fills it in automatically so campaigns survive restarts.
    ``scenario`` picks a correlated-fault scenario pack and ``codec``
    the code in the ECC slot (``repro.reliability.scenarios`` /
    ``docs/codecs.md``); both flow into the checkpoint digest when
    non-default.
    """

    schemes: Tuple[str, ...] = _flag(
        ("uniform-ecc", "non-uniform"), "protection schemes to compare",
        choices=_registry("repro.reliability.model", "SCHEMES"),
    )
    trials: Optional[int] = _flag(
        None,
        "trials per scheme; 'auto' runs until the Wilson half-width "
        "target is met (default)",
        grammar="trials", metavar="N|auto",
    )
    target: float = _flag(
        0.01, "Wilson 95%% half-width to reach on --metric (auto mode)",
        metavar="HW",
    )
    metric: str = _flag(
        "sdc", "rate the stopping rule targets ('failure' = sdc + due)",
        choices=("masked", "corrected", "refetched", "due", "sdc",
                 "failure"),
    )
    trials_per_shard: int = _flag(500)
    shards_per_round: int = _flag(8)
    max_trials: int = _flag(
        1_000_000, "hard per-scheme trial budget in auto mode"
    )
    kernel: str = _flag(
        "batch",
        "shard execution kernel: 'batch' looks each strike's draws up "
        "in an outcome memo and decodes only unseen error patterns "
        "(~30x faster than 'reference', bit-identical results); "
        "'reference' builds a live LineProtection per trial",
    )
    seed: int = _flag(0)
    double_bit_fraction: float = _flag(0.05, _DOUBLE_BIT_HELP, metavar="P")
    raw_fit: float = _flag(1000.0, _RAW_FIT_HELP)
    n_lines: int = _flag(16384, _N_LINES_HELP)
    benchmark: Optional[str] = _flag(
        None,
        "measure per-scheme dirty fractions from this benchmark instead "
        "of using the paper's averages",
        choices=_benchmark_names,
    )
    refs: int = _flag(60_000, "measured references for --benchmark")
    warmup: int = _flag(20_000, "warm-up references for --benchmark")
    checkpoint: Optional[str] = _flag(
        None,
        "JSONL checkpoint: completed shards persist here and an "
        "interrupted campaign resumes from it",
        metavar="PATH",
    )
    scenario: str = _flag(
        "nominal",
        "correlated-fault scenario pack: {enum} (burst/row-column strike "
        "mixtures and raw-BER scaling; see docs/reliability.md). "
        "'nominal' reproduces the classic Bernoulli stream bit-identically",
    )
    codec: str = _flag(
        "secded",
        "code in the ECC protection slot: {enum} (check-bit geometry and "
        "guarantees in docs/codecs.md)",
    )
    #: Policy variant for the dirty-fraction measurement run.
    variant: str = _flag("standard", _VARIANT_HELP)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.campaign_config()  # the campaign's own shape checks

    def campaign_config(
        self, dirty_fractions: Optional[Mapping[str, float]] = None
    ):
        from repro.reliability import (
            CampaignConfig,
            FaultModelConfig,
            StoppingRule,
        )

        try:
            return CampaignConfig(
                schemes=tuple(self.schemes),
                trials=self.trials,
                trials_per_shard=self.trials_per_shard,
                shards_per_round=self.shards_per_round,
                stopping=StoppingRule(
                    target_half_width=self.target,
                    max_trials=self.max_trials,
                ),
                metric=self.metric,
                seed=self.seed,
                model=FaultModelConfig(
                    double_bit_fraction=self.double_bit_fraction,
                    scenario=self.scenario,
                    ecc_codec=self.codec,
                ),
                dirty_fractions=(
                    dict(dirty_fractions) if dirty_fractions else None
                ),
                raw_fit_per_mbit=self.raw_fit,
                n_lines=self.n_lines,
                kernel=self.kernel,
            )
        except ValueError as err:
            raise ReproError(str(err)) from None


# -- autotune -----------------------------------------------------------------

_AXES = "design grid axes"


@dataclass(frozen=True)
class AutotuneRequest(_Request):
    """A Pareto-front exploration of the design grid.

    The grid is the cross product of the axis tuples (``benchmarks`` ×
    ``schemes`` × ``codecs`` × ``intervals`` × ``ecc_entries`` ×
    ``write_buffers`` × ``variants`` × ``scenarios``), canonicalized
    and de-duplicated by :func:`repro.autotune.expand_grid` — axes that
    do not apply to a scheme collapse, so baseline schemes do not
    multiply the grid.  Each point runs a reference-mode simulation
    plus a fixed-``trials`` campaign; ``objectives`` names the
    quantities the front is computed over
    (:func:`repro.autotune.available_objectives`).  Finished points
    persist in the result cache, so an interrupted sweep resumes per
    point.
    """

    benchmarks: Tuple[str, ...] = _flag(
        ("mesa",), "workloads to explore (a front per workload)",
        choices=_benchmark_names, metavar="NAME", group=_AXES,
    )
    schemes: Tuple[str, ...] = _flag(
        ("non-uniform", "uniform-ecc"), "protection schemes: {enum}",
        group=_AXES,
    )
    codecs: Tuple[str, ...] = _flag(
        ("secded", "dected"), "ECC codecs: {enum}", group=_AXES
    )
    intervals: Tuple[int, ...] = _flag(
        (262144, 1048576),
        "cleaning intervals, paper-nominal (e.g. 256K 1M); applies to "
        "non-uniform points only",
        grammar="interval", metavar="CYCLES", group=_AXES,
    )
    ecc_entries: Tuple[int, ...] = _flag(
        (1,), "shared ECC entries per set (non-uniform only)",
        grammar="entries", metavar="N", group=_AXES,
    )
    write_buffers: Tuple[int, ...] = _flag(
        (16,), "write-buffer depths between L2 and memory", metavar="N",
        group=_AXES,
    )
    variants: Tuple[str, ...] = _flag(
        ("standard",),
        "policy variants: {enum} (see docs/traffic.md for the "
        "traffic-aware ones)",
        group=_AXES,
    )
    scenarios: Tuple[str, ...] = _flag(
        ("nominal",), "correlated-fault scenario packs: {enum}",
        group=_AXES,
    )
    objectives: Tuple[str, ...] = _flag(
        ("area", "fit", "traffic"),
        "objectives the front is computed over: {enum} (fit/mttf use "
        "Wilson intervals; dominance is CI-aware)",
    )
    trials: int = _flag(2000, "fixed injection trials per design point")
    trials_per_shard: int = _flag(500)
    kernel: str = _flag("batch", "campaign kernel (batch, reference)")
    seed: int = _flag(0)
    refs: int = _flag(60_000, _REFS_HELP)
    warmup: int = _flag(20_000, _WARMUP_HELP)
    #: CPU-mode instructions, used only when ``ipc`` is an objective.
    insts: int = _flag(120_000, "CPU-mode instructions for the ipc objective")
    double_bit_fraction: float = _flag(0.05, _DOUBLE_BIT_HELP, metavar="P")
    raw_fit: float = _flag(1000.0, _RAW_FIT_HELP)
    n_lines: int = _flag(16384, _N_LINES_HELP)

    def __post_init__(self) -> None:
        super().__post_init__()
        for axis in ("benchmarks", "schemes", "codecs", "intervals",
                     "ecc_entries", "write_buffers", "variants",
                     "scenarios", "objectives"):
            if not getattr(self, axis):
                raise ReproError(f"{axis} must not be empty")
        for interval in self.intervals:
            if not isinstance(interval, int) or interval < 1:
                raise ReproError("intervals must be positive cycle counts")
        for axis in ("ecc_entries", "write_buffers"):
            for value in getattr(self, axis):
                if not isinstance(value, int) or value < 1:
                    raise ReproError(f"{axis} must be positive")
        if len(set(self.objectives)) < 2:
            raise ReproError(
                "autotune needs at least two distinct objectives "
                "(a one-objective front is just the minimum)"
            )
        if "ipc" in self.objectives and self.insts < 1:
            raise ReproError("insts must be positive")
        if self.trials < 1:
            raise ReproError("trials must be positive")
        if self.trials_per_shard < 1:
            raise ReproError("trials_per_shard must be positive")


# -- recommend ----------------------------------------------------------------


@dataclass(frozen=True)
class RecommendRequest(AutotuneRequest):
    """An autotune exploration plus budget-driven scheme selection.

    Inherits every grid axis; at least one of ``fit_budget`` (total
    failure FIT the Wilson 95% *upper* bound must clear) and
    ``area_budget`` (protection KiB) must be set.  The recommender
    needs ``area`` and ``fit`` among the objectives to rank with.
    """

    fit_budget: Optional[float] = _flag(
        None, "total-FIT budget; judged against the Wilson 95%% upper bound",
        metavar="FIT",
    )
    area_budget: Optional[float] = _flag(
        None, "protection-area budget in KiB", metavar="KIB"
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fit_budget is None and self.area_budget is None:
            raise ReproError(
                "recommend needs --fit-budget and/or --area-budget"
            )
        if self.fit_budget is not None and self.fit_budget <= 0:
            raise ReproError("fit_budget must be positive")
        if self.area_budget is not None and self.area_budget <= 0:
            raise ReproError("area_budget must be positive")
        missing = {"area", "fit"} - set(self.objectives)
        if missing:
            raise ReproError(
                "recommend needs the 'area' and 'fit' objectives "
                f"(missing: {', '.join(sorted(missing))})"
            )


__all__ = [
    "ABLATIONS",
    "AblateRequest",
    "AreaRequest",
    "AutotuneRequest",
    "FIGURE_CHOICES",
    "FiguresRequest",
    "InjectRequest",
    "IpcRequest",
    "RecommendRequest",
    "ReliabilityRequest",
    "ReproError",
    "RunRequest",
    "request_from_dict",
]
