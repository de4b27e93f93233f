"""The campaign fault model: domains, outcome taxonomy, trial lifecycle.

One **trial** models a single particle strike against one cache line of
a given protection scheme and classifies its end-to-end architectural
outcome.  The stored state a strike can corrupt is split into four
**protection domains**, weighted by their stored-bit counts (a strike is
a uniformly random bit of the SRAM arrays):

``data``
    The 512-bit payload, guarded by the scheme's data code (parity,
    SECDED, or parity+SECDED-while-dirty).
``tag``
    The tag field plus its own parity bit ("as in Itanium", both
    schemes); modelled by :class:`repro.core.tag_protection.ProtectedTag`.
``status``
    The valid / dirty / written state bits, covered by the same per-tag
    parity bit as the tag.
``check``
    The stored check bits themselves (parity column, SECDED column or
    shared-ECC-array entry) — a real array that real strikes hit.

Outcome taxonomy (the superset of every domain's behaviours):

``masked``
    The fault is never architecturally observed: the line is
    overwritten or evicted clean before any read, or the flipped bit
    was microarchitectural only (e.g. the written bit).
``corrected``
    SECDED repaired the word in place; execution is unaffected.
``refetched``
    A detected error on a *clean* line; the pristine copy is refetched
    from the next level (also spurious refetches from check-bit flips).
``due``
    Detected, Unrecoverable Error: the error is signalled but the only
    up-to-date copy (or its address/state) is lost — a machine check.
``sdc``
    Silent Data Corruption: wrong data (or a wrongly-dropped dirty
    line) with no error signalled.  Only the harness, knowing ground
    truth, can label this.

The per-trial lifecycle and every mapping below are documented, with
the same vocabulary, in ``docs/reliability.md``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.core.policy import (
    LineProtection,
    NonUniformPolicy,
    ProtectionDomain,
    ProtectionPolicy,
    RecoveryAction,
    UniformEccPolicy,
    UniformParityPolicy,
    domain_codec,
)
from repro.core.tag_protection import ProtectedTag, TagOutcome
from repro.ecc.codec import Codec
from repro.ecc.events import CheckOutcome
from repro.reliability.scenarios import (
    check_error_draws,
    check_masks,
    class_cdf,
    data_error_draws,
    data_masks,
    draw_burst_length,
    draw_class,
    flips_for,
    get_scenario,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reliability.kernel import LinePool


class FaultDomain(enum.Enum):
    """Which stored array the strike hit."""

    DATA = "data"
    TAG = "tag"
    STATUS = "status"
    CHECK = "check"


#: Stable sampling order (ties the campaign's determinism contract).
DOMAIN_ORDER: Tuple[FaultDomain, ...] = (
    FaultDomain.DATA,
    FaultDomain.TAG,
    FaultDomain.STATUS,
    FaultDomain.CHECK,
)


class TrialOutcome(enum.Enum):
    """End-to-end architectural outcome of one injected strike."""

    MASKED = "masked"
    CORRECTED = "corrected"
    REFETCHED = "refetched"
    DUE = "due"
    SDC = "sdc"

    @property
    def is_failure(self) -> bool:
        """Counts against the scheme (the AVF numerator)."""
        return self in (TrialOutcome.DUE, TrialOutcome.SDC)


#: Protection schemes a campaign can compare.
SCHEMES: Dict[str, Type[ProtectionPolicy]] = {
    "uniform-ecc": UniformEccPolicy,
    "non-uniform": NonUniformPolicy,
    "parity-only": UniformParityPolicy,
}


def scheme_policy(name: str) -> ProtectionPolicy:
    """Instantiate the policy a scheme name refers to."""
    try:
        return SCHEMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None


@dataclass(frozen=True)
class FaultModelConfig:
    """Per-scheme parameters of the strike model.

    ``dirty_fraction``
        P(the struck line is dirty) — the scheme's measured dirty
        residency (paper: 51.6% conventional, 19.6% full scheme), the
        quantity the campaign can also measure per benchmark.
    ``double_bit_fraction``
        P(a strike upsets two bits of the same codeword) — the
        multi-bit-upset tail.
    ``read_fraction``
        P(the struck line is demand-read before eviction/overwrite) —
        the architectural-masking derate.  Unread *clean* lines mask
        their faults; unread *dirty* lines are still checked on the
        write-back path.
    ``controller_refetch``
        The campaign's controller consults the dirty bit on a
        detected-uncorrectable error and refetches *clean* lines from
        the next level (both schemes — the paper's "clean data can
        always be refetched" argument, cf. ``repro.experiments.avf``).
        ``False`` reproduces the stricter line-level semantics of
        :meth:`repro.core.policy.LineProtection.access`, where only
        parity-guarded lines take the refetch path.
    ``scenario``
        Named correlated-fault scenario pack
        (:mod:`repro.reliability.scenarios`).  ``nominal`` draws the
        historical Bernoulli trial stream bit for bit; any other
        scenario (adjacent bursts, row/column strikes, ...) draws other
        strike shapes and changes the checkpoint digest.
    ``ecc_codec``
        Registry name of the code in the ECC protection slot (default
        SECDED).  Swapping in ``dected`` or ``rs-symbol`` reruns the
        same campaign under a stronger geometry.
    """

    line_bytes: int = 64
    tag_bits: int = 24
    #: valid + dirty + written (bit indices 0 / 1 / 2 below).
    status_bits: int = 3
    dirty_fraction: float = 0.5
    double_bit_fraction: float = 0.05
    read_fraction: float = 0.7
    controller_refetch: bool = True
    scenario: str = "nominal"
    ecc_codec: str = "secded"

    def __post_init__(self) -> None:
        if self.line_bytes % 8 != 0 or self.line_bytes <= 0:
            raise ValueError("line_bytes must be a positive multiple of 8")
        for name in ("dirty_fraction", "double_bit_fraction", "read_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.status_bits < 2:
            raise ValueError("status_bits must include valid and dirty")
        from repro.ecc import available_codecs

        get_scenario(self.scenario)  # raises ValueError with the listing
        if self.ecc_codec not in available_codecs():
            raise ValueError(
                f"unknown codec {self.ecc_codec!r}; "
                f"known: {available_codecs()}"
            )

    def codecs(self) -> Optional[dict]:
        """Domain-codec overrides for :class:`LineProtection` et al.

        ``None`` for the default SECDED slot, so every consumer keeps
        the exact historical code path (and trial stream) unless a
        different code was asked for.
        """
        if self.ecc_codec == "secded":
            return None
        return {ProtectionDomain.ECC: self.ecc_codec}


_VALID_BIT, _DIRTY_BIT = 0, 1  # status-bit layout; >=2 are heuristic bits


def domain_bits(
    policy: ProtectionPolicy, dirty: bool, config: FaultModelConfig
) -> Dict[FaultDomain, int]:
    """Stored bits per domain for a line of the given state.

    These weights make the strike model area-proportional: a domain is
    hit with probability (its bits) / (all stored bits of the line),
    which is exactly how a uniform strike over the SRAM arrays lands.
    """
    return {
        FaultDomain.DATA: config.line_bytes * 8,
        FaultDomain.TAG: config.tag_bits + 1,  # + its parity bit
        FaultDomain.STATUS: config.status_bits,
        FaultDomain.CHECK: policy.check_bits_per_line(
            config.line_bytes, dirty, codecs=config.codecs()
        ),
    }


_ACTION_TO_OUTCOME = {
    # A CLEAN_READ after injection means the codecs absorbed the flip
    # without architectural effect (e.g. a stale-parity flip shadowed
    # by ECC recovery): nothing was observed.
    RecoveryAction.CLEAN_READ: TrialOutcome.MASKED,
    RecoveryAction.CORRECTED_IN_PLACE: TrialOutcome.CORRECTED,
    RecoveryAction.REFETCHED: TrialOutcome.REFETCHED,
    RecoveryAction.DATA_LOSS: TrialOutcome.DUE,
    RecoveryAction.SILENT_CORRUPTION: TrialOutcome.SDC,
}

_TAG_TO_OUTCOME = {
    TagOutcome.OK: TrialOutcome.MASKED,
    TagOutcome.INVALIDATED_REFETCH: TrialOutcome.REFETCHED,
    TagOutcome.DATA_LOSS: TrialOutcome.DUE,
    # The tag silently names another address: a dirty line writes back
    # to the wrong place, a clean aliased hit returns wrong data.
    TagOutcome.SILENT_ALIAS: TrialOutcome.SDC,
}


def _finish(
    action: RecoveryAction, dirty: bool, controller_refetch: bool
) -> TrialOutcome:
    """The controller's verdict on a line-level recovery action."""
    if controller_refetch and not dirty and action is RecoveryAction.DATA_LOSS:
        # Detected-uncorrectable on a *clean* line: the line-level
        # decoder gives up, but the controller knows the line is clean
        # and refetches the pristine copy from the next level.
        return TrialOutcome.REFETCHED
    return _ACTION_TO_OUTCOME[action]


def _build_line(
    policy: ProtectionPolicy, dirty: bool, config: FaultModelConfig,
    rng: random.Random, pool: "LinePool",
) -> LineProtection:
    """Construct a live line around a pooled payload.

    The payload comes from the pre-generated :class:`LinePool`, not the
    trial stream: every registered code is GF(2)-linear, so an outcome is a
    pure function of the injected *error pattern* and never of the
    payload bits.  Drawing only a pool index here (instead of 64–128
    payload bytes) keeps the per-trial random stream identical between
    this reference path and the batched kernel
    (:func:`repro.reliability.kernel.run_trials_batch`), which is what
    makes their outcome counts exactly equal under one shard seed.
    """
    payload = pool.payload_bytes(rng.randrange(pool.size))
    line = LineProtection(
        policy, payload, line_bytes=config.line_bytes,
        codecs=config.codecs(),
    )
    if dirty:
        line.write(payload)
    return line


def _observe(
    line: LineProtection, dirty: bool, config: FaultModelConfig,
    rng: random.Random,
) -> TrialOutcome:
    """Read the struck line the way the machine eventually would.

    With probability ``read_fraction`` the fault sits on the demand-read
    path.  Otherwise a clean line is evicted or overwritten unread (the
    fault is architecturally masked), while a dirty line still flows
    through the checked write-back path — the same decode-and-recover
    sequence as a read.
    """
    if not dirty and rng.random() >= config.read_fraction:
        return TrialOutcome.MASKED
    action, _ = line.access()
    return _finish(action, dirty, config.controller_refetch)


def _inject_tag(
    dirty: bool, flips: int, config: FaultModelConfig, rng: random.Random
) -> TrialOutcome:
    tag = ProtectedTag(rng.getrandbits(config.tag_bits), config.tag_bits)
    for bit in rng.sample(range(config.tag_bits), min(flips, config.tag_bits)):
        tag.flip(bit)
    # Tags are consulted on every subsequent access *and* at eviction
    # (the write-back needs the address), so there is no unread masking.
    return _TAG_TO_OUTCOME[tag.check(dirty)]


def _inject_status(
    dirty: bool, flips: int, config: FaultModelConfig, rng: random.Random
) -> TrialOutcome:
    """Status-bit strike; the bits share the tag's parity cover.

    An odd number of flips is parity-detected: recoverable on a clean
    line (invalidate + refetch), a DUE on a dirty line (its state is no
    longer trustworthy, and the data cannot be safely dropped *or*
    written back).  An even number is silent; the harm then depends on
    which bits flipped:

    * dirty bit on a dirty line — reads as clean, the modified data is
      silently discarded at eviction: SDC;
    * valid bit on a dirty line — the line vanishes with its data: SDC;
    * anything else (dirty bit on a clean line → spurious write-back of
      identical data; written bit → cleaning heuristic only): masked.
    """
    struck = rng.sample(
        range(config.status_bits), min(flips, config.status_bits)
    )
    if len(struck) % 2 == 1:
        return TrialOutcome.DUE if dirty else TrialOutcome.REFETCHED
    if dirty and (_DIRTY_BIT in struck or _VALID_BIT in struck):
        return TrialOutcome.SDC
    return TrialOutcome.MASKED


#: CheckOutcome severity, mirroring ``LineCodec.check_line``'s worst-of
#: ordering (UNDETECTED classifies like DETECTED in ``access``).
_SEVERITY = {
    CheckOutcome.OK: 0,
    CheckOutcome.CORRECTED: 1,
    CheckOutcome.DETECTED: 2,
    CheckOutcome.UNDETECTED: 2,
}


class TrialPlan:
    """Per-(policy, config) state shared by every kernel's trials.

    Holds the class mixture, the domain-roll thresholds, the check-column
    widths per line state, the pattern classifier :meth:`classify` and
    the batched kernel's draw-keyed outcome memo.  Obtain one through
    :func:`plan_for`.
    """

    __slots__ = (
        "classes", "cdf", "cum", "total", "recovery", "parity_bits",
        "ecc_bits", "codec_by_domain", "controller_refetch",
        "class_bounds", "length_bounds", "lengths", "key_stride",
        "outcome_memo",
    )

    def __init__(
        self, policy: ProtectionPolicy, config: FaultModelConfig
    ) -> None:
        codecs = config.codecs()
        self.classes = get_scenario(config.scenario).resolve(
            config.double_bit_fraction
        )
        self.cdf = class_cdf(self.classes)
        #: The live codec guarding each slot (registry defaults unless
        #: the config overrides the ECC code).
        self.codec_by_domain: Dict[ProtectionDomain, Codec] = {
            domain: domain_codec(domain, codecs)
            for domain in (ProtectionDomain.PARITY, ProtectionDomain.ECC)
        }
        self.controller_refetch = config.controller_refetch
        self.cum: Dict[bool, List[float]] = {}
        self.total: Dict[bool, float] = {}
        self.recovery: Dict[bool, ProtectionDomain] = {}
        self.parity_bits: Dict[bool, int] = {}
        self.ecc_bits: Dict[bool, int] = {}
        for dirty in (False, True):
            weights = domain_bits(policy, dirty, config)
            # Domain roll thresholds, accumulated in DOMAIN_ORDER: a
            # strike lands in a domain with probability ∝ its bits.
            acc, cum = 0.0, []
            for domain in DOMAIN_ORDER:
                acc += weights[domain]
                cum.append(acc)
            self.cum[dirty] = cum
            self.total[dirty] = acc
            self.recovery[dirty] = policy.recovery_domain(dirty, codecs)
            domains = policy.domains_for(dirty)
            for slot, widths in (
                (ProtectionDomain.PARITY, self.parity_bits),
                (ProtectionDomain.ECC, self.ecc_bits),
            ):
                widths[dirty] = (
                    self.codec_by_domain[slot].check_bits_per_word
                    if slot in domains
                    else 0
                )
        # The batched kernel's inlined class and burst-length draws:
        # draw_class / draw_burst_length's thresholds with the last one
        # raised to infinity, so a bisect lands where their loops do,
        # float edge included (the loops then fall back to the last
        # entry too).
        inf = float("inf")
        self.class_bounds = tuple(self.cdf[:-1]) + (inf,)
        self.length_bounds: List[Tuple[float, ...]] = []
        self.lengths: List[Tuple[int, ...]] = []
        for cls in self.classes:
            acc, bounds = 0.0, []
            for _, probability in cls.burst_pmf:
                acc += probability
                bounds.append(acc)
            # Empty for non-burst classes, which draw no length.
            self.length_bounds.append(
                tuple(bounds[:-1]) + (inf,) if bounds else ()
            )
            self.lengths.append(
                tuple(length for length, _ in cls.burst_pmf) or (0,)
            )
        #: Outcome value per packed draw key: ``draws * key_stride +
        #: ((length index * classes + class index) * 2 + check) * 2 +
        #: dirty`` (see :func:`repro.reliability.kernel.run_trials_batch`).
        #: Bounded: one entry at most per distinct strike of this plan.
        self.key_stride = 4 * len(self.classes) * max(
            len(lengths) for lengths in self.lengths
        )
        self.outcome_memo: Dict[int, str] = {}

    def domain(self, dirty: bool, roll: float) -> FaultDomain:
        """The domain a ``[0, total)`` roll lands in."""
        for domain, bound in zip(DOMAIN_ORDER, self.cum[dirty]):
            if roll < bound:
                return domain
        return DOMAIN_ORDER[-1]  # pragma: no cover - float edge

    def classify(
        self, dirty: bool, column: str, masks: Dict[int, int]
    ) -> TrialOutcome:
        """Outcome of reading a line whose ``column`` carries ``masks``.

        ``column`` is ``"data"``, ``"parity"`` or ``"ecc"`` and ``masks``
        the strike's ``{word index: error mask}`` as the samplers in
        :mod:`repro.reliability.scenarios` draw it.  The codes are
        GF(2)-linear, so decoding the stored line is decoding the pure
        error pattern against the all-zero codeword:
        ``codec.check(e_data, e_check)`` per struck word, the worst-of
        reduction of :meth:`repro.ecc.codec.LineCodec.check_line`, the
        recovery contract of :meth:`LineProtection.access` ("repaired ==
        golden" becomes "every residual is zero") and then the
        controller's refetch.  Only the pattern and the line state
        matter; the batched kernel memoises the result per strike draw
        (:attr:`outcome_memo`), so each pattern is decoded about once.
        """
        recovery = self.recovery[dirty]
        if column != "data" and column != recovery.value:
            # Stale check bits of a column the recovery code never
            # consults (e.g. parity shadowed by ECC): nothing observed.
            action = RecoveryAction.CLEAN_READ
        else:
            codec = self.codec_by_domain[recovery]
            worst = residual = 0
            for mask in masks.values():
                result = (
                    codec.check(mask, 0)
                    if column == "data"
                    else codec.check(0, mask)
                )
                worst = max(worst, _SEVERITY[result.outcome])
                residual |= result.data
            if worst == 2:
                # Signalled.  A correcting code gives up (the controller
                # may still refetch a clean line); detect-only recovery
                # refetches clean lines unconditionally.
                action = (
                    RecoveryAction.DATA_LOSS
                    if codec.corrects or dirty
                    else RecoveryAction.REFETCHED
                )
            elif residual:
                action = RecoveryAction.SILENT_CORRUPTION
            elif worst == 1:
                action = RecoveryAction.CORRECTED_IN_PLACE
            else:
                action = RecoveryAction.CLEAN_READ
        return _finish(action, dirty, self.controller_refetch)


_PLANS: Dict[Tuple[str, FaultModelConfig], TrialPlan] = {}


def plan_for(policy: ProtectionPolicy, config: FaultModelConfig) -> TrialPlan:
    """The memoised :class:`TrialPlan` of one (policy, config)."""
    key = (policy.name, config)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = TrialPlan(policy, config)
    return plan


def _apply_data_masks(line: LineProtection, masks: Dict[int, int]) -> None:
    """XOR per-word error masks into the stored payload bit by bit."""
    for word, mask in masks.items():
        base = word * 8
        while mask:
            bit = (mask & -mask).bit_length() - 1
            line.flip(base + (bit >> 3), bit & 7)
            mask &= mask - 1


def run_trial(
    policy: ProtectionPolicy,
    config: FaultModelConfig,
    rng: random.Random,
    pool: Optional["LinePool"] = None,
) -> Tuple[TrialOutcome, FaultDomain, bool]:
    """One strike: sample state, domain and shape; classify.

    Returns ``(outcome, struck domain, line was dirty)``.  This is the
    **reference kernel**: every trial XORs the sampled error pattern into
    a live :class:`LineProtection` and decodes it with the real codec
    machinery, which makes it the oracle the pattern classifier
    (:meth:`TrialPlan.classify`) is tested against.  ``pool`` supplies the
    payloads (see :func:`_build_line`); when omitted the process-wide
    shared pool is used.

    Draw order (the cross-kernel determinism contract, see
    :mod:`repro.reliability.scenarios`): dirty roll → domain roll →
    class roll → burst length (burst classes only) → the shared
    samplers' domain-specific draws → read roll (clean lines only).
    :func:`repro.reliability.kernel.run_trials_batch` consumes the
    identical stream through the same samplers, so a seeded rng replays
    the identical trial in either kernel.
    """
    if pool is None:
        from repro.reliability.kernel import LinePool

        pool = LinePool.shared(config.line_bytes)
    plan = plan_for(policy, config)
    dirty = rng.random() < config.dirty_fraction
    domain = plan.domain(dirty, rng.random() * plan.total[dirty])
    cls = draw_class(rng, plan.classes, plan.cdf)
    length = draw_burst_length(rng, cls)
    if domain is FaultDomain.DATA:
        line = _build_line(policy, dirty, config, rng, pool)
        masks = data_masks(
            cls, length, config.line_bytes,
            data_error_draws(rng, cls, config.line_bytes),
        )
        _apply_data_masks(line, masks)
        outcome = _observe(line, dirty, config, rng)
    elif domain is FaultDomain.CHECK:
        line = _build_line(policy, dirty, config, rng, pool)
        # The column widths come from the codecs actually guarding the
        # live line, not from the plan, so the oracle checks the plan's
        # widths (through the shared draws) rather than assuming them.
        parity_bits = (
            line.codecs[ProtectionDomain.PARITY].check_bits_per_word
            if line.parity_checks is not None
            else 0
        )
        ecc_bits = (
            line.codecs[ProtectionDomain.ECC].check_bits_per_word
            if line.ecc_checks is not None
            else 0
        )
        words = config.line_bytes // 8
        column, cmasks = check_masks(
            cls, length, words, parity_bits, ecc_bits,
            check_error_draws(rng, cls, words, parity_bits, ecc_bits),
        )
        target = (
            line.ecc_checks if column == "ecc" else line.parity_checks
        )
        assert target is not None
        for word, mask in cmasks.items():
            target[word] ^= mask
        outcome = _observe(line, dirty, config, rng)
    elif domain is FaultDomain.TAG:
        outcome = _inject_tag(dirty, flips_for(cls, length), config, rng)
    else:
        outcome = _inject_status(
            dirty, flips_for(cls, length), config, rng
        )
    return outcome, domain, dirty

def stored_bits_per_line(
    policy: ProtectionPolicy, config: FaultModelConfig, dirty_fraction: float
) -> float:
    """Expected stored bits per line, averaging check bits over state.

    The FIT conversion scales the raw per-bit strike rate by this (×
    the line count): non-uniform protection stores fewer vulnerable
    bits when the cache is mostly clean, and that area saving is part
    of the paper's reliability story.
    """
    per_state = {
        state: sum(domain_bits(policy, state, config).values())
        for state in (False, True)
    }
    return (
        dirty_fraction * per_state[True]
        + (1.0 - dirty_fraction) * per_state[False]
    )


__all__ = [
    "DOMAIN_ORDER",
    "FaultDomain",
    "FaultModelConfig",
    "SCHEMES",
    "TrialOutcome",
    "domain_bits",
    "run_trial",
    "scheme_policy",
    "stored_bits_per_line",
]
