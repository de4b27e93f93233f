"""Exact outcome probabilities of the nominal fault model.

The nominal model is small enough to evaluate in full instead of
sampling it: a strike is a (line state, domain, multiplicity, flip
positions) case with a probability fixed by the
:class:`~repro.reliability.model.FaultModelConfig`, and this module
walks every case and finds its outcome on live objects — a
:class:`~repro.core.policy.LineProtection` read through ``access()``
for data and check strikes, a :class:`~repro.core.tag_protection.
ProtectedTag` for tag strikes, and the status-bit rule of
``docs/reliability.md`` for status strikes.  Nothing here goes through
the kernels' ``TrialPlan`` (its weights, thresholds, pattern
classifier or outcome memo), so the result is an independent oracle
for the batched kernel's counts (``test_exact_nominal.py``).

The model, as ``repro.reliability.model.run_trial`` samples it:

* the line is dirty with probability ``dirty_fraction``;
* the struck domain is chosen in proportion to its stored bits: the
  payload, the tag plus its parity bit, the status bits, and the check
  bits the line stores in that state;
* the strike upsets two bits with probability ``double_bit_fraction``
  and one bit otherwise;
* data: the first bit is uniform over the line, a second one uniform
  over the same 64-bit word (it cancels the first when they coincide);
* check: a uniform word, then the parity or the ECC column in
  proportion to its bits per word, then uniform positions within the
  word's column entry; a double strike on a one-bit column flips the
  entries of the word and of the next word;
* tag and status: one or two distinct bits of the field (the tag's
  parity bit is weighted as stored area but never flipped);
* a clean line's data or check strike goes unread with probability
  ``1 - read_fraction`` and is masked; tags and status bits are
  consulted at eviction too, so they are never masked that way;
* with ``controller_refetch`` a detected-uncorrectable error on a clean
  line is refetched from the next level.

One shortcut: a double data strike's in-word position pairs are each
decoded once, in word ``(p1 + p2) % words``, not in every word.  Every
word carries the same code, so the word index cannot change the
outcome; the single-bit cases, decoded at all ``8 * line_bytes``
positions, cover every word too.
"""

import functools
import itertools
import random
from fractions import Fraction
from typing import Dict, Tuple

from repro.core.policy import LineProtection, ProtectionDomain, RecoveryAction
from repro.core.tag_protection import ProtectedTag, TagOutcome
from repro.reliability.model import FaultModelConfig, scheme_policy

#: Outcome of a line-level recovery action (before the controller).
ACTION_OUTCOME = {
    RecoveryAction.CLEAN_READ: "masked",
    RecoveryAction.CORRECTED_IN_PLACE: "corrected",
    RecoveryAction.REFETCHED: "refetched",
    RecoveryAction.DATA_LOSS: "due",
    RecoveryAction.SILENT_CORRUPTION: "sdc",
}

TAG_OUTCOME = {
    TagOutcome.OK: "masked",
    TagOutcome.INVALIDATED_REFETCH: "refetched",
    TagOutcome.DATA_LOSS: "due",
    TagOutcome.SILENT_ALIAS: "sdc",
}

#: ``{(domain, outcome): probability}`` over all strikes.
Distribution = Dict[Tuple[str, str], Fraction]

_VALID_BIT, _DIRTY_BIT = 0, 1


def _add(dist: dict, key, weight: Fraction) -> None:
    # A zero weight (an unread line's outcome when ``read_fraction`` is
    # 0 or 1) is no case at all: keep it out of the distribution.
    if weight:
        dist[key] = dist.get(key, Fraction(0)) + weight


def _fresh_line(scheme: str, dirty: bool, line_bytes: int) -> LineProtection:
    # Any payload will do: the codes are linear, so outcomes depend on
    # the error pattern only.
    payload = random.Random(line_bytes).randbytes(line_bytes)
    line = LineProtection(scheme_policy(scheme), payload, line_bytes)
    if dirty:
        line.write(payload)
    return line


@functools.lru_cache(maxsize=None)
def line_actions(scheme: str, dirty: bool, line_bytes: int) -> dict:
    """Recovery-action distributions of data and check strikes.

    Returns ``{"check_bits": stored check bits of the line,
    ("data" | "check", flips): {RecoveryAction: probability}}``.
    Independent of every other model knob, so it is computed once per
    (scheme, state, line size).
    """
    words = line_bytes // 8
    result: dict = {}

    def decode(corrupt) -> RecoveryAction:
        line = _fresh_line(scheme, dirty, line_bytes)
        corrupt(line)
        return line.access()[0]

    def flip_data(line, word, position):
        line.flip(word * 8 + position // 8, position % 8)

    singles: dict = {}
    for bit in range(line_bytes * 8):
        action = decode(lambda line: line.flip(bit // 8, bit % 8))
        _add(singles, action, Fraction(1, line_bytes * 8))
    doubles: dict = {}
    # (p1, p2) and (p2, p1) are the same pattern: decode it once.
    for p1, p2 in itertools.combinations_with_replacement(range(64), 2):
        word = (p1 + p2) % words

        def corrupt(line):
            flip_data(line, word, p1)
            flip_data(line, word, p2)

        ordered = 1 if p1 == p2 else 2
        _add(doubles, decode(corrupt), Fraction(ordered, 64 * 64))
    result["data", 1], result["data", 2] = singles, doubles

    probe = _fresh_line(scheme, dirty, line_bytes)
    columns = [
        (name, probe.codecs[domain].check_bits_per_word)
        for name, domain, stored in (
            ("parity", ProtectionDomain.PARITY, probe.parity_checks),
            ("ecc", ProtectionDomain.ECC, probe.ecc_checks),
        )
        if stored is not None
    ]
    per_word = sum(bits for _, bits in columns)
    result["check_bits"] = words * per_word
    for flips in (1, 2):
        dist: dict = {}
        for (name, bits), word in itertools.product(columns, range(words)):
            if flips == 1:
                patterns = [{word: 1 << q} for q in range(bits)]
            elif bits > 1:
                patterns = [
                    {word: 1 << q1 ^ 1 << q2}
                    for q1, q2 in itertools.product(range(bits), repeat=2)
                ]
            else:
                patterns = [{word: 1, (word + 1) % words: 1}]
            weight = Fraction(bits, per_word) / words / len(patterns)
            for masks in patterns:

                def corrupt(line):
                    checks = (
                        line.parity_checks if name == "parity"
                        else line.ecc_checks
                    )
                    for struck, mask in masks.items():
                        checks[struck] ^= mask

                _add(dist, decode(corrupt), weight)
        result["check", flips] = dist
    return result


def _field_strikes(bits: int, flips: int):
    """Every ordered choice of ``flips`` distinct bits, equally likely."""
    picks = list(itertools.permutations(range(bits), min(flips, bits)))
    return picks, Fraction(1, len(picks))


def tag_outcomes(dirty: bool, flips: int, tag_bits: int) -> dict:
    dist: dict = {}
    picks, weight = _field_strikes(tag_bits, flips)
    for struck in picks:
        tag = ProtectedTag(0x5A5A5A % (1 << tag_bits), tag_bits)
        for bit in struck:
            tag.flip(bit)
        _add(dist, TAG_OUTCOME[tag.check(dirty)], weight)
    return dist


def status_outcomes(dirty: bool, flips: int, status_bits: int) -> dict:
    """The status bits share the tag's parity bit: an odd number of
    flips is detected (a DUE on a dirty line, a refetch on a clean
    one); an even number is silent, and silently corrupts a dirty line
    when its valid or dirty bit is among them."""
    dist: dict = {}
    picks, weight = _field_strikes(status_bits, flips)
    for struck in picks:
        if len(struck) % 2:
            outcome = "due" if dirty else "refetched"
        elif dirty and {_VALID_BIT, _DIRTY_BIT} & set(struck):
            outcome = "sdc"
        else:
            outcome = "masked"
        _add(dist, outcome, weight)
    return dist


def exact_distribution(scheme: str, config: FaultModelConfig) -> Distribution:
    """P(domain, outcome) of one nominal strike on ``scheme``."""
    assert config.scenario == "nominal" and config.ecc_codec == "secded"
    read = Fraction(config.read_fraction)
    double = Fraction(config.double_bit_fraction)
    dirty_p = Fraction(config.dirty_fraction)
    dist: Distribution = {}
    for dirty, p_state in ((False, 1 - dirty_p), (True, dirty_p)):
        if not p_state:
            continue
        actions = line_actions(scheme, dirty, config.line_bytes)
        weights = {
            "data": config.line_bytes * 8,
            "tag": config.tag_bits + 1,
            "status": config.status_bits,
            "check": actions["check_bits"],
        }
        total = sum(weights.values())
        for flips, p_flips in ((1, 1 - double), (2, double)):
            if not p_flips:
                continue
            for domain, weight in weights.items():
                p = p_state * p_flips * Fraction(weight, total)
                if domain == "tag":
                    outcomes = tag_outcomes(dirty, flips, config.tag_bits)
                elif domain == "status":
                    outcomes = status_outcomes(
                        dirty, flips, config.status_bits
                    )
                else:
                    outcomes = {}
                    for action, q in actions[domain, flips].items():
                        outcome = ACTION_OUTCOME[action]
                        if (
                            outcome == "due"
                            and not dirty
                            and config.controller_refetch
                        ):
                            outcome = "refetched"
                        if dirty:
                            _add(outcomes, outcome, q)
                        else:
                            _add(outcomes, outcome, q * read)
                            _add(outcomes, "masked", q * (1 - read))
                for outcome, q in outcomes.items():
                    _add(dist, (domain, outcome), p * q)
    return dist
