"""Parity check code: one even-parity bit per 64-bit data word.

This is the code Itanium and POWER4 use for L1 arrays and the code the
paper applies to *every* L2 line (clean or dirty) in its scheme.  Parity
detects any odd number of bit flips and corrects nothing; the recovery
action for a clean line is a refetch from the next memory level.
"""

from __future__ import annotations

from repro.ecc.codec import Codec, register_codec
from repro.ecc.events import CheckOutcome, CheckResult


def _parity64(word: int) -> int:
    """Return the even-parity bit (XOR reduction) of a 64-bit word."""
    word ^= word >> 32
    word ^= word >> 16
    word ^= word >> 8
    word ^= word >> 4
    word ^= word >> 2
    word ^= word >> 1
    return word & 1


class ParityCodec(Codec):
    """Single even-parity bit per 64-bit word (detect-only)."""

    name = "parity"
    check_bits_per_word = 1
    corrects = False

    def encode(self, word: int) -> int:
        self._validate_word(word)
        return _parity64(word)

    def check(self, word: int, check: int) -> CheckResult:
        self._validate_word(word)
        self._validate_check(check)
        if _parity64(word) == check:
            return CheckResult(outcome=CheckOutcome.OK, data=word)
        return CheckResult(outcome=CheckOutcome.DETECTED, data=word, syndrome=1)


class InterleavedParityCodec(Codec):
    """``ways`` interleaved parity bits per 64-bit word.

    Parity bit *j* covers data bits ``j, j+ways, j+2*ways, …`` — the
    physical-interleaving trick real arrays use so a multi-bit upset
    (one particle flipping adjacent cells) lands each flipped bit in a
    *different* parity domain.  Detects every burst of up to ``ways``
    adjacent bits; a single parity bit (``ways=1``) already misses
    2-bit bursts.

    Still detect-only: recovery for clean lines is a refetch, as with
    plain parity.
    """

    name = "interleaved-parity"
    corrects = False

    def __init__(self, ways: int = 8) -> None:
        if not 1 <= ways <= 64:
            raise ValueError("interleave ways must be in 1..64")
        self.ways = ways
        self.check_bits_per_word = ways
        # Mask of data bits in each interleave domain.
        self._masks = []
        for j in range(ways):
            mask = 0
            for bit in range(j, 64, ways):
                mask |= 1 << bit
            self._masks.append(mask)

    def encode(self, word: int) -> int:
        self._validate_word(word)
        check = 0
        for j, mask in enumerate(self._masks):
            check |= _parity64(word & mask) << j
        return check

    def check(self, word: int, check: int) -> CheckResult:
        self._validate_word(word)
        self._validate_check(check)
        syndrome = self.encode(word) ^ check
        if syndrome == 0:
            return CheckResult(outcome=CheckOutcome.OK, data=word)
        return CheckResult(
            outcome=CheckOutcome.DETECTED, data=word, syndrome=syndrome
        )


register_codec(ParityCodec.name, ParityCodec)
register_codec(InterleavedParityCodec.name, InterleavedParityCodec)
