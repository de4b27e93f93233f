"""Tests for the parity codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ecc import CheckOutcome, ParityCodec
from repro.ecc.codec import WORD_MASK, CodewordError
from repro.ecc.parity import _parity64

WORDS = st.integers(min_value=0, max_value=WORD_MASK)
BITS = st.integers(min_value=0, max_value=63)


@pytest.fixture
def codec():
    return ParityCodec()


class TestParityBit:
    def test_zero_word_has_even_parity(self):
        assert _parity64(0) == 0

    def test_single_bit_has_odd_parity(self):
        for b in range(64):
            assert _parity64(1 << b) == 1

    def test_two_bits_have_even_parity(self):
        assert _parity64(0b11) == 0
        assert _parity64((1 << 63) | 1) == 0

    @given(WORDS)
    def test_matches_popcount(self, word):
        assert _parity64(word) == bin(word).count("1") % 2


class TestEncode:
    def test_check_bits_per_word(self, codec):
        assert codec.check_bits_per_word == 1

    def test_encode_is_zero_or_one(self, codec):
        assert codec.encode(0) in (0, 1)
        assert codec.encode(WORD_MASK) == 0  # 64 ones -> even

    def test_encode_rejects_oversized_word(self, codec):
        with pytest.raises(CodewordError):
            codec.encode(1 << 64)

    def test_encode_rejects_negative_word(self, codec):
        with pytest.raises(CodewordError):
            codec.encode(-1)


class TestCheck:
    @given(WORDS)
    def test_clean_word_passes(self, word):
        codec = ParityCodec()
        result = codec.check(word, codec.encode(word))
        assert result.outcome is CheckOutcome.OK
        assert result.data == word

    @given(WORDS, BITS)
    def test_single_flip_detected(self, word, bit):
        codec = ParityCodec()
        check = codec.encode(word)
        result = codec.check(word ^ (1 << bit), check)
        assert result.outcome is CheckOutcome.DETECTED

    @given(WORDS, BITS, BITS)
    def test_double_flip_escapes_parity(self, word, b1, b2):
        """Parity misses any even number of flips — by construction."""
        codec = ParityCodec()
        check = codec.encode(word)
        corrupted = word ^ (1 << b1) ^ (1 << b2)
        result = codec.check(corrupted, check)
        if b1 == b2:
            assert result.outcome is CheckOutcome.OK  # flips cancel
        else:
            assert result.outcome is CheckOutcome.OK  # undetectable

    @given(WORDS)
    def test_check_bit_flip_detected(self, word):
        codec = ParityCodec()
        check = codec.encode(word)
        result = codec.check(word, check ^ 1)
        assert result.outcome is CheckOutcome.DETECTED

    def test_check_rejects_bad_check_bits(self, codec):
        with pytest.raises(CodewordError):
            codec.check(0, 2)

    def test_detected_result_flags_error(self, codec):
        result = codec.check(1, 0)
        assert result.outcome.is_error_signalled
        assert not result.ok
