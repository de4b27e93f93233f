"""Correlated-fault scenario packs: strike classes beyond Bernoulli.

The nominal fault model treats a strike as one flipped bit with a
scalar ``double_bit_fraction`` tail.  Field data (HARP's on-die ECC
profiles, Cerberus' cross-layer co-design argument — see PAPERS.md)
says real upsets also arrive as *adjacent-bit bursts* along a particle
track and as *row/column-correlated* multi-bit events, and that the
right protection code depends on which of those dominates.  This module
makes that a first-class axis: a **scenario** is a named mixture of
:class:`FaultClass` strike shapes plus a raw-BER scaling knob, selected
per campaign with ``repro reliability --scenario NAME``.

Determinism contract
--------------------
Both exact injection kernels (``reference`` and ``batch``) draw every
trial, nominal included, through the *same* sampler functions below,
in the same order: dirty roll → domain roll → class roll
(:func:`draw_class`) → burst length (:func:`draw_burst_length`, burst
classes only) → the domain-specific position draws
(:func:`data_error_draws` / :func:`check_error_draws`).  Sharing the
position samplers — rather than replicating their draw sequences — is
what keeps the two kernels bit-identical under one shard seed for every
scenario; the batched kernel inlines only the one-``random()`` class
and burst-length rolls.  The nominal mixture is ordered so these
samplers replay the pre-scenario nominal stream exactly (see
:meth:`Scenario.resolve`).
Checkpoint digests fold the scenario name in (``nominal`` keeps the
historical digest), so shards from different scenarios can never be
spliced together.

The position samplers return their draws packed into one int, a
hashable key; :func:`data_masks` / :func:`check_masks` are pure
functions from that key to the *error pattern*: ``{word index: 64-bit
mask}`` for data strikes, ``(column, {word index: column mask})`` for
check strikes.  The reference kernel XORs the pattern into a live
:class:`~repro.core.policy.LineProtection`; the batched kernel memoises
outcomes on the key and builds the pattern only for an unseen key, for
the pattern classifier
(:meth:`repro.reliability.model.TrialPlan.classify`), which decodes it
against the zero codeword (GF(2) linearity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Strike-shape kinds a :class:`FaultClass` may take.
CLASS_KINDS = ("single", "word2", "burst", "column")


@dataclass(frozen=True)
class FaultClass:
    """One strike shape with its mixture weight.

    ``single``
        One flipped bit (the nominal model's base case).
    ``word2``
        Two random bits of one 64-bit codeword — the historical
        ``double_bit_fraction`` tail (the second draw may cancel the
        first, exactly as in the nominal model).
    ``burst``
        ``L`` *adjacent* bits along the array's bit order, ``L`` drawn
        per strike from ``burst_pmf``; bursts wrap and may straddle a
        word (or check-column) boundary — the MBU shape interleaving
        and symbol codes are designed against.
    ``column``
        The same bit offset upset in ``span_words`` consecutive words —
        a column/bitline failure correlated *across* codewords, the
        shape per-word codes cannot see as multi-bit.
    """

    kind: str
    weight: float
    #: ``((length, probability), ...)`` — burst classes only.
    burst_pmf: Tuple[Tuple[int, float], ...] = ()
    #: Words a column strike spans — column classes only.
    span_words: int = 4

    def __post_init__(self) -> None:
        if self.kind not in CLASS_KINDS:
            raise ValueError(
                f"unknown fault class kind {self.kind!r}; "
                f"known: {list(CLASS_KINDS)}"
            )
        if self.weight < 0.0:
            raise ValueError("fault class weight must be non-negative")
        if self.kind == "burst":
            if not self.burst_pmf:
                raise ValueError("burst class needs a burst_pmf")
            total = 0.0
            for length, probability in self.burst_pmf:
                if length < 2:
                    raise ValueError("burst lengths must be >= 2")
                if probability < 0.0:
                    raise ValueError("burst probabilities must be >= 0")
                total += probability
            if abs(total - 1.0) > 1e-9:
                raise ValueError("burst_pmf probabilities must sum to 1")
        if self.kind == "column" and self.span_words < 2:
            raise ValueError("column class needs span_words >= 2")


@dataclass(frozen=True)
class Scenario:
    """A named strike mixture plus its raw-rate scaling.

    ``ber_scale`` multiplies the campaign's ``raw_fit_per_mbit`` at
    estimate time (low-voltage operation raises the raw upset rate
    without changing per-strike shapes much); like the other
    FIT-quoting knobs it is *excluded* from checkpoint digests.
    ``from_double_bit_fraction`` marks the nominal scenario, whose
    class mixture is derived from the model's ``double_bit_fraction``
    instead of a fixed tuple.
    """

    name: str
    description: str
    classes: Tuple[FaultClass, ...] = ()
    ber_scale: float = 1.0
    from_double_bit_fraction: bool = False

    def __post_init__(self) -> None:
        if self.ber_scale <= 0.0:
            raise ValueError("ber_scale must be positive")
        if not self.from_double_bit_fraction:
            total = sum(cls.weight for cls in self.classes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"scenario {self.name!r} class weights must sum to 1"
                )

    def resolve(
        self, double_bit_fraction: float
    ) -> Tuple[FaultClass, ...]:
        """The concrete class mixture for one model configuration.

        The nominal mixture lists ``word2`` first: its cumulative
        weights are then ``(dbf, dbf + (1 - dbf))`` and the last one
        rounds to exactly 1.0, so :func:`draw_class` spends one
        ``random()`` and picks ``word2`` exactly when ``random() < dbf``
        — the historical multiplicity roll, bit for bit.
        """
        if self.from_double_bit_fraction:
            return (
                FaultClass("word2", double_bit_fraction),
                FaultClass("single", 1.0 - double_bit_fraction),
            )
        return self.classes


# -- the scenario registry ----------------------------------------------------

_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> None:
    """Register a scenario preset (idempotent re-register by name)."""
    if not scenario.name:
        raise ValueError("scenario name must be non-empty")
    _SCENARIOS[scenario.name] = scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {available_scenarios()}"
        ) from None


def available_scenarios() -> List[str]:
    """Registered scenario names, ``nominal`` first then alphabetical."""
    return sorted(_SCENARIOS, key=lambda name: (name != "nominal", name))


register_scenario(Scenario(
    name="nominal",
    description=(
        "The paper's Bernoulli model: single strikes with the "
        "double_bit_fraction same-word tail, drawn through the same "
        "samplers as every other scenario."
    ),
    from_double_bit_fraction=True,
))

register_scenario(Scenario(
    name="burst-heavy",
    description=(
        "Deep-submicron MBU regime: nearly half of strikes are "
        "adjacent-bit bursts of 2-6 cells along a particle track."
    ),
    classes=(
        FaultClass("single", 0.50),
        FaultClass("burst", 0.45, burst_pmf=(
            (2, 0.50), (3, 0.25), (4, 0.15), (6, 0.10),
        )),
        FaultClass("word2", 0.05),
    ),
))

register_scenario(Scenario(
    name="rowcol",
    description=(
        "Row/column-correlated faults: bursts along a wordline plus "
        "bitline strikes repeating one bit offset across 4 consecutive "
        "words of the subarray."
    ),
    classes=(
        FaultClass("single", 0.40),
        FaultClass("burst", 0.30, burst_pmf=((2, 0.60), (4, 0.40))),
        FaultClass("column", 0.30, span_words=4),
    ),
))

register_scenario(Scenario(
    name="low-voltage",
    description=(
        "Near-threshold operation: 4x the raw upset rate and a heavier "
        "multi-bit tail (weakened cells upset in clusters)."
    ),
    ber_scale=4.0,
    classes=(
        FaultClass("single", 0.35),
        FaultClass("burst", 0.45, burst_pmf=(
            (2, 0.35), (3, 0.25), (4, 0.20), (6, 0.10), (8, 0.10),
        )),
        FaultClass("word2", 0.20),
    ),
))


# -- shared samplers (the cross-kernel determinism contract) ------------------
#
# Integer positions are drawn with ``rng._randbelow(n)``: the exact draw
# ``rng.randrange(n)`` makes for ``n > 0`` (so the historical streams and
# NOMINAL_GOLDEN hold), minus randrange's argument plumbing, which costs
# more than a memoised classification in the batched kernel's loop.


def class_cdf(classes: Tuple[FaultClass, ...]) -> List[float]:
    """Cumulative class weights, in the same float-accumulation order
    both kernels compare rolls against (cf. ``model.TrialPlan.domain``)."""
    acc, cdf = 0.0, []
    for cls in classes:
        acc += cls.weight
        cdf.append(acc)
    return cdf


def draw_class(
    rng: random.Random,
    classes: Tuple[FaultClass, ...],
    cdf: List[float],
) -> FaultClass:
    """One strike-class draw (always exactly one ``rng.random()``)."""
    roll = rng.random() * cdf[-1]
    for cls, bound in zip(classes, cdf):
        if roll < bound:
            return cls
    return classes[-1]  # pragma: no cover - float edge


def draw_burst_length(rng: random.Random, cls: FaultClass) -> int:
    """Burst-length draw; non-burst classes consume *no* rng state."""
    if cls.kind != "burst":
        return 0
    roll = rng.random()
    acc = 0.0
    for length, probability in cls.burst_pmf:
        acc += probability
        if roll < acc:
            return length
    return cls.burst_pmf[-1][0]  # pragma: no cover - float edge


def flips_for(cls: FaultClass, length: int) -> int:
    """Upset multiplicity for the tag/status arrays (no bit adjacency
    there worth modelling: the arrays are a few dozen bits wide)."""
    if cls.kind == "single":
        return 1
    if cls.kind == "word2":
        return 2
    if cls.kind == "burst":
        return length
    return cls.span_words


def data_error_draws(
    rng: random.Random, cls: FaultClass, line_bytes: int
) -> int:
    """The position draws of one data-array strike, packed into one int.

    This is *the* draw order of a data strike — both kernels call it,
    so it is written once.  Per kind:

    * ``single``: byte, bit — the nominal model's own two draws;
    * ``word2``: byte, bit, second byte-in-word, second bit;
    * ``burst``: one start-bit draw (the length was drawn before);
    * ``column``: bit offset, start word.

    Each draw ``d`` below ``n`` is one mixed-radix digit, the first
    draw in the lowest digit, so the key is a small int that is
    hashable and memoisable; :func:`data_masks` turns it into the
    error pattern.  (Operands evaluate left to right, so each
    expression draws in the order written.)
    """
    randbelow = rng._randbelow
    kind = cls.kind
    if kind == "single":
        return randbelow(line_bytes) + line_bytes * randbelow(8)
    if kind == "word2":
        key = randbelow(line_bytes) + line_bytes * randbelow(8)
        return key + line_bytes * 8 * (randbelow(8) + 8 * randbelow(8))
    if kind == "burst":
        return randbelow(line_bytes * 8)
    return randbelow(64) + 64 * randbelow(line_bytes // 8)


def data_masks(
    cls: FaultClass, length: int, line_bytes: int, draws: int
) -> Dict[int, int]:
    """Error pattern ``{word index: 64-bit mask}`` of a data strike.

    A pure function of the :func:`data_error_draws` key: bursts run
    ``length`` adjacent bits of the line's little-endian bit order,
    wrapping at the line end; column strikes repeat one bit offset in
    ``span_words`` consecutive words (wrapping).
    """
    words = line_bytes // 8
    kind = cls.kind
    if kind == "single" or kind == "word2":
        byte_idx, rest = draws % line_bytes, draws // line_bytes
        mask = 1 << ((byte_idx % 8) * 8 + rest % 8)
        if kind == "word2":
            rest //= 8
            mask ^= 1 << (rest % 8 * 8 + rest // 8)
        return {byte_idx // 8: mask}
    if kind == "burst":
        total = line_bytes * 8
        masks: Dict[int, int] = {}
        for i in range(length):
            position = (draws + i) % total
            word = position // 64
            masks[word] = masks.get(word, 0) | 1 << (position % 64)
        return masks
    offset, start_word = draws % 64, draws // 64
    span = min(cls.span_words, words)
    return {(start_word + i) % words: 1 << offset for i in range(span)}


def check_error_draws(
    rng: random.Random,
    cls: FaultClass,
    words: int,
    parity_bits: int,
    ecc_bits: int,
) -> int:
    """The draws of one check-array strike, packed into one int.

    Word, then the struck column — chosen in proportion to its stored
    bits with one ``rng.random()``, as in the nominal model — then the
    bit positions within the column: one for ``single``, ``burst`` and
    ``column`` strikes, two for ``word2``; a 1-bit-per-word column
    draws none.  Digits as in :func:`data_error_draws`: word, then
    column (0 parity, 1 ECC), then positions; :func:`check_masks`
    builds the pattern from the key.
    """
    word = rng._randbelow(words)
    strike_ecc = rng.random() * (parity_bits + ecc_bits) < ecc_bits
    key = word + words * strike_ecc
    col_bits = ecc_bits if strike_ecc else parity_bits
    if col_bits > 1:
        key += 2 * words * rng._randbelow(col_bits)
        if cls.kind == "word2":
            key += 2 * words * col_bits * rng._randbelow(col_bits)
    return key


def check_masks(
    cls: FaultClass,
    length: int,
    words: int,
    parity_bits: int,
    ecc_bits: int,
    draws: int,
) -> Tuple[str, Dict[int, int]]:
    """Error pattern ``(column, {word index: column mask})`` of a
    check strike, from its :func:`check_error_draws` key.

    ``column`` is ``"parity"`` or ``"ecc"``.  A ``word2`` strike on a
    1-bit-per-word column lands its second bit in the neighbouring
    word's entry; bursts run along the column's bit order across
    consecutive words; column strikes repeat one bit offset down
    ``span_words`` words of the chosen column.
    """
    word, rest = draws % words, draws // words
    strike_ecc = rest % 2
    positions = rest // 2
    column = "ecc" if strike_ecc else "parity"
    col_bits = ecc_bits if strike_ecc else parity_bits
    kind = cls.kind
    if col_bits > 1:
        first, second = positions % col_bits, positions // col_bits
    else:
        first = second = 0
    if kind == "single":
        return column, {word: 1 << first}
    if kind == "word2":
        if col_bits > 1:
            return column, {word: 1 << first ^ 1 << second}
        return column, {word: 1, (word + 1) % words: 1}
    if kind == "burst":
        total = words * col_bits
        start = word * col_bits + first
        masks: Dict[int, int] = {}
        for i in range(length):
            position = (start + i) % total
            struck = position // col_bits
            masks[struck] = masks.get(struck, 0) | 1 << (
                position % col_bits
            )
        return column, masks
    span = min(cls.span_words, words)
    return column, {
        (word + i) % words: 1 << first for i in range(span)
    }


__all__ = [
    "CLASS_KINDS",
    "FaultClass",
    "Scenario",
    "available_scenarios",
    "check_error_draws",
    "check_masks",
    "class_cdf",
    "data_error_draws",
    "data_masks",
    "draw_burst_length",
    "draw_class",
    "flips_for",
    "get_scenario",
    "register_scenario",
]
