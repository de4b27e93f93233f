"""Tests for trace-driven runs through the experiment runner."""

from repro.core import ProtectionConfig
from repro.experiments import RunConfig, run_trace
from repro.workloads import MemRef, get_benchmark, make_ref_stream

FAST = RunConfig(n_refs=5_000, warmup_refs=1_000)


def synthetic_refs(n, stride=8, writes_every=3):
    return [
        MemRef(i % writes_every == 0, (i * stride) % (1 << 18), 1)
        for i in range(n)
    ]


class TestRunTrace:
    def test_list_input(self):
        out = run_trace(synthetic_refs(6_000), None, FAST, label="synthetic")
        assert out.benchmark == "synthetic"
        assert out.refs == FAST.n_refs

    def test_generator_input(self):
        stream = make_ref_stream(get_benchmark("swim"), 64 * 1024, seed=0)
        out = run_trace(stream, None, FAST)
        assert out.refs == FAST.n_refs

    def test_short_trace_ends_early(self):
        out = run_trace(synthetic_refs(2_000), None, FAST)
        assert out.refs == 1_000  # 2000 total - 1000 warm-up

    def test_trace_exhausted_by_warmup(self):
        out = run_trace(synthetic_refs(500), None, FAST)
        assert out.refs == 0
        assert out.writeback_fraction == 0.0

    def test_protection_applies(self):
        refs = synthetic_refs(6_000, stride=64, writes_every=1)
        protected = run_trace(
            refs,
            ProtectionConfig(cleaning_interval=1 << 16,
                             ecc_entries_per_set=1),
            FAST,
        )
        assert protected.peak_dirty_fraction <= 0.25 + 1e-9

    def test_matches_run_refs_for_same_stream(self):
        """run_trace(stream) == run_refs(name) for the same benchmark."""
        from repro.experiments import run_refs

        via_name = run_refs("mcf", None, FAST)
        stream = make_ref_stream(
            get_benchmark("mcf"), FAST.geometry.l2_bytes, seed=FAST.seed
        )
        via_trace = run_trace(stream, None, FAST)
        assert via_trace.dirty_fraction == via_name.dirty_fraction
        assert via_trace.writeback_fraction == via_name.writeback_fraction
