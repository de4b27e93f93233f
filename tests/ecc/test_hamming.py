"""Tests for the SECDED(72,64) codec: the full single/double error contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import CheckOutcome, SecDedCodec
from repro.ecc.codec import WORD_MASK, CodewordError
from repro.ecc.hamming import _COVER_MASKS, _DATA_POSITIONS

WORDS = st.integers(min_value=0, max_value=WORD_MASK)
CODE_BITS = st.integers(min_value=0, max_value=71)


def corrupt(word: int, check: int, bit: int):
    """Flip codeword bit ``bit`` (0..63 data, 64..71 check)."""
    if bit < 64:
        return word ^ (1 << bit), check
    return word, check ^ (1 << (bit - 64))


@pytest.fixture
def codec():
    return SecDedCodec()


class TestConstruction:
    def test_64_data_positions(self):
        assert len(_DATA_POSITIONS) == 64

    def test_data_positions_are_not_powers_of_two(self):
        for p in _DATA_POSITIONS:
            assert p & (p - 1) != 0

    def test_cover_masks_union_is_full_word(self):
        acc = 0
        for m in _COVER_MASKS:
            acc |= m
        assert acc == WORD_MASK

    def test_every_data_bit_covered_by_at_least_two_parities(self):
        """Positions are non-powers of two, so >= 2 index bits are set."""
        for i in range(64):
            covering = sum(1 for m in _COVER_MASKS if m & (1 << i))
            assert covering >= 2

    def test_check_bits_per_word(self, codec):
        assert codec.check_bits_per_word == 8


class TestEncode:
    def test_zero_word_encodes_to_zero(self, codec):
        assert codec.encode(0) == 0

    def test_encode_in_range(self, codec):
        assert 0 <= codec.encode(WORD_MASK) < 256

    def test_encode_rejects_out_of_range(self, codec):
        with pytest.raises(CodewordError):
            codec.encode(1 << 64)
        with pytest.raises(CodewordError):
            codec.encode(-5)

    @given(WORDS, WORDS)
    def test_encode_is_linear(self, a, b):
        """Hamming codes are linear: H(a^b) == H(a)^H(b)."""
        codec = SecDedCodec()
        assert codec.encode(a ^ b) == codec.encode(a) ^ codec.encode(b)


class TestClean:
    @given(WORDS)
    def test_clean_word_passes(self, word):
        codec = SecDedCodec()
        result = codec.check(word, codec.encode(word))
        assert result.outcome is CheckOutcome.OK
        assert result.data == word
        assert result.syndrome == 0


class TestSingleError:
    @given(WORDS, CODE_BITS)
    @settings(max_examples=300)
    def test_any_single_flip_corrected(self, word, bit):
        """SEC: every 1-bit error anywhere in the codeword is repaired."""
        codec = SecDedCodec()
        check = codec.encode(word)
        fw, fc = corrupt(word, check, bit)
        result = codec.check(fw, fc)
        assert result.outcome is CheckOutcome.CORRECTED
        assert result.data == word

    def test_overall_parity_bit_flip_corrected(self, codec):
        word = 0x0123_4567_89AB_CDEF
        check = codec.encode(word)
        result = codec.check(word, check ^ 0x80)  # bit 7 = overall parity
        assert result.outcome is CheckOutcome.CORRECTED
        assert result.data == word

    def test_hamming_parity_bit_flip_corrected(self, codec):
        word = 0xFFFF_0000_FFFF_0000
        check = codec.encode(word)
        for j in range(7):
            result = codec.check(word, check ^ (1 << j))
            assert result.outcome is CheckOutcome.CORRECTED
            assert result.data == word


class TestDoubleError:
    @given(
        WORDS,
        st.lists(CODE_BITS, min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=300)
    def test_any_double_flip_detected(self, word, bits):
        """DED: every 2-bit error is detected and never miscorrected."""
        codec = SecDedCodec()
        fw, fc = word, codec.encode(word)
        for b in bits:
            fw, fc = corrupt(fw, fc, b)
        result = codec.check(fw, fc)
        assert result.outcome is CheckOutcome.DETECTED


class TestCheckValidation:
    def test_check_rejects_oversized_check(self, codec):
        with pytest.raises(CodewordError):
            codec.check(0, 256)

    def test_check_rejects_oversized_word(self, codec):
        with pytest.raises(CodewordError):
            codec.check(1 << 64, 0)
