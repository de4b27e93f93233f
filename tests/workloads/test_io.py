"""Tests for trace file I/O."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import MemRef, get_benchmark, make_ref_stream
from repro.workloads.io import (
    BINARY_MAGIC,
    TraceFormatError,
    load_trace,
    save_trace,
    save_trace_binary,
    save_trace_text,
    summarize_trace,
)

REFS = st.lists(
    st.builds(
        MemRef,
        st.booleans(),
        st.integers(0, (1 << 48) - 1),
        st.integers(0, 64),
    ),
    max_size=200,
)


class TestRoundTrip:
    @given(REFS)
    @settings(max_examples=30, deadline=None)
    def test_binary_roundtrip(self, refs):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/t.bin"
            n = save_trace_binary(refs, path)
            assert n == len(refs)
            assert list(load_trace(path)) == refs

    @given(REFS)
    @settings(max_examples=30, deadline=None)
    def test_text_roundtrip(self, refs):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/t.txt"
            save_trace_text(refs, path)
            assert list(load_trace(path)) == refs

    def test_benchmark_stream_roundtrip(self, tmp_path):
        refs = list(
            itertools.islice(
                make_ref_stream(get_benchmark("mcf"), 65536, seed=2), 1000
            )
        )
        path = tmp_path / "mcf.bin"
        save_trace(refs, path, fmt="binary")
        assert list(load_trace(path)) == refs


class TestFormats:
    def test_binary_has_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace_binary([MemRef(True, 0x40, 1)], path)
        assert path.read_bytes().startswith(BINARY_MAGIC)

    def test_text_is_readable(self, tmp_path):
        path = tmp_path / "t.txt"
        save_trace_text([MemRef(True, 0x1234, 3)], path)
        assert "W 0x1234 3" in path.read_text()

    def test_text_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n\nR 0x40 2  # inline comment\nW 0x80\n")
        refs = list(load_trace(path))
        assert refs == [MemRef(False, 0x40, 2), MemRef(True, 0x80, 0)]

    def test_unknown_save_format_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            save_trace([], tmp_path / "t", fmt="json")

    def test_oversized_gap_rejected_in_binary(self, tmp_path):
        with pytest.raises(TraceFormatError):
            save_trace_binary([MemRef(False, 0, 1 << 16)], tmp_path / "t.bin")


class TestMalformed:
    def test_bad_op_letter(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("X 0x40 1\n")
        with pytest.raises(TraceFormatError, match="bad op"):
            list(load_trace(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("R 0x40 1 9 9\n")
        with pytest.raises(TraceFormatError, match="2-3 fields"):
            list(load_trace(path))

    def test_negative_gap(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("R 0x40 -1\n")
        with pytest.raises(TraceFormatError, match="negative"):
            list(load_trace(path))

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace_binary([MemRef(False, 0x40, 0)], path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError, match="truncated"):
            list(load_trace(path))


class TestSummary:
    def test_counts(self):
        refs = [
            MemRef(False, 0, 2),
            MemRef(True, 8, 3),   # same 64B line as the first
            MemRef(True, 128, 0),
        ]
        s = summarize_trace(refs)
        assert s.records == 3
        assert s.writes == 2
        assert s.write_ratio == pytest.approx(2 / 3)
        assert s.footprint_lines == 2
        assert s.footprint_bytes == 128
        assert s.instructions == 3 + 5

    def test_empty(self):
        s = summarize_trace([])
        assert s.records == 0
        assert s.write_ratio == 0.0
