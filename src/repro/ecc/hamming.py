"""SECDED (Single Error Correction, Double Error Detection) code.

This is an extended Hamming(72,64) code: seven Hamming parity bits plus
one overall parity bit protect each 64-bit data word, i.e. 8 check bits
per 64 data bits — exactly the 12.5% overhead the paper quotes for the
Itanium L2.  The paper applies this code only to dirty lines.

Codeword layout
---------------
Positions ``1..71`` follow the textbook Hamming arrangement: parity bits
occupy the power-of-two positions (1, 2, 4, 8, 16, 32, 64) and the 64
data bits fill the remaining positions in ascending order.  Position 0
holds the overall (even) parity of the other 71 bits.  The 8 check bits
are packed as ``overall << 7 | hamming`` where ``hamming`` bit *j* is the
parity bit at position ``2**j``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ecc.codec import WORD_BITS, Codec, register_codec
from repro.ecc.events import CheckOutcome, CheckResult
from repro.ecc.parity import _parity64

#: Codeword positions used by data bits (all non-power-of-two in 1..71).
_DATA_POSITIONS: List[int] = [
    p for p in range(1, 72) if p & (p - 1) != 0
]
assert len(_DATA_POSITIONS) == WORD_BITS

#: Map codeword position -> data bit index, for correction.
_POS_TO_DATABIT: Dict[int, int] = {p: i for i, p in enumerate(_DATA_POSITIONS)}

#: For each of the 7 Hamming parity bits, the mask of data bits it covers.
_COVER_MASKS: List[int] = []
for _j in range(7):
    _mask = 0
    for _i, _p in enumerate(_DATA_POSITIONS):
        if _p & (1 << _j):
            _mask |= 1 << _i
    _COVER_MASKS.append(_mask)


def _encode_reference(word: int) -> int:
    """Loop-based SECDED encode (the readable textbook form).

    Kept as the ground truth the precomputed byte tables are built from
    (and cross-checked against in the tests); hot paths go through
    :func:`encode_word` instead.
    """
    hamming = 0
    for j in range(7):
        hamming |= _parity64(word & _COVER_MASKS[j]) << j
    overall = _parity64(word) ^ _parity64(hamming)
    return (overall << 7) | hamming


#: Per-byte SECDED check contributions: ``SYNDROME_TABLES[k][b]`` is the
#: 8-bit check value of the word whose byte ``k`` (little-endian, bits
#: ``8k..8k+7``) is ``b`` and whose other bytes are zero.  The code is
#: GF(2)-linear, so the check bits of any word are the XOR of its eight
#: per-byte contributions — eight table lookups instead of a full
#: loop-based encode.
SYNDROME_TABLES: List[tuple] = [
    tuple(_encode_reference(value << (8 * k)) for value in range(256))
    for k in range(8)
]

def encode_word(word: int) -> int:
    """Table-driven SECDED encode of one 64-bit word (≈7× the loop)."""
    t = SYNDROME_TABLES
    return (
        t[0][word & 0xFF]
        ^ t[1][(word >> 8) & 0xFF]
        ^ t[2][(word >> 16) & 0xFF]
        ^ t[3][(word >> 24) & 0xFF]
        ^ t[4][(word >> 32) & 0xFF]
        ^ t[5][(word >> 40) & 0xFF]
        ^ t[6][(word >> 48) & 0xFF]
        ^ t[7][(word >> 56) & 0xFF]
    )


class SecDedCodec(Codec):
    """Extended Hamming(72,64): corrects 1-bit, detects 2-bit errors."""

    name = "secded"
    check_bits_per_word = 8
    corrects = True

    def encode(self, word: int) -> int:
        self._validate_word(word)
        return encode_word(word)

    def check(self, word: int, check: int) -> CheckResult:
        self._validate_word(word)
        self._validate_check(check)
        stored_hamming = check & 0x7F
        recomputed = encode_word(word) & 0x7F
        syndrome = stored_hamming ^ recomputed
        # Even parity over the full 72-bit codeword: 0 when clean.
        overall = _parity64(word) ^ _parity64(check)

        if syndrome == 0 and overall == 0:
            return CheckResult(outcome=CheckOutcome.OK, data=word)

        if overall == 1:
            # Odd-weight error: assume single bit, locate and repair it.
            return self._correct_single(word, syndrome)

        # Non-zero syndrome with even overall parity: double-bit error.
        return CheckResult(
            outcome=CheckOutcome.DETECTED, data=word, syndrome=syndrome
        )

    def _correct_single(self, word: int, syndrome: int) -> CheckResult:
        """Repair the single-bit error located by ``syndrome``."""
        if syndrome == 0:
            # The flipped bit is the overall parity bit itself; data intact.
            return CheckResult(
                outcome=CheckOutcome.CORRECTED,
                data=word,
                syndrome=syndrome,
                corrected_bit=0,
            )
        if syndrome & (syndrome - 1) == 0:
            # A Hamming parity bit flipped; data intact.
            return CheckResult(
                outcome=CheckOutcome.CORRECTED,
                data=word,
                syndrome=syndrome,
                corrected_bit=syndrome,
            )
        databit: Optional[int] = _POS_TO_DATABIT.get(syndrome)
        if databit is None:
            # Syndrome points outside the codeword: at least 3 bits flipped.
            return CheckResult(
                outcome=CheckOutcome.DETECTED, data=word, syndrome=syndrome
            )
        return CheckResult(
            outcome=CheckOutcome.CORRECTED,
            data=word ^ (1 << databit),
            syndrome=syndrome,
            corrected_bit=syndrome,
        )


register_codec(SecDedCodec.name, SecDedCodec)
