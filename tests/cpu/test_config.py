"""Tests for processor configuration (Table 1)."""

import pytest

from repro.cpu import FunctionalUnits, OpClass, ProcessorConfig
from repro.cpu.trace import EXEC_LATENCY, Inst


class TestTable1Defaults:
    def test_ruu_and_lsq(self):
        cfg = ProcessorConfig()
        assert cfg.ruu_entries == 64
        assert cfg.lsq_entries == 32

    def test_widths(self):
        cfg = ProcessorConfig()
        assert cfg.decode_width == 4
        assert cfg.issue_width == 4
        assert cfg.commit_width == 4

    def test_functional_units(self):
        fu = FunctionalUnits()
        assert fu.int_add == 4
        assert fu.int_mul == 1
        assert fu.fp_add == 1
        assert fu.fp_mul == 1

    def test_pool_covers_every_op_class(self):
        pool = FunctionalUnits().pool()
        for op in OpClass:
            assert op in pool
            assert pool[op] >= 1

    def test_describe_mentions_table1_values(self):
        text = ProcessorConfig().describe()
        assert "64-entry RUU" in text
        assert "32-entry LSQ" in text
        assert "4 INT add" in text
        assert "1 FP mult/div" in text


class TestTraceTypes:
    def test_latency_for_every_op(self):
        for op in OpClass:
            assert EXEC_LATENCY[op] >= 1

    def test_is_mem(self):
        assert OpClass.LOAD.is_mem
        assert OpClass.STORE.is_mem
        assert not OpClass.BRANCH.is_mem
        assert not OpClass.INT_ALU.is_mem

    def test_inst_defaults(self):
        inst = Inst(OpClass.INT_ALU, pc=0x400000)
        assert inst.dest == -1
        assert inst.srcs == ()
        assert not inst.taken

    def test_inst_repr_is_informative(self):
        load = Inst(OpClass.LOAD, 0x400000, addr=0x1234)
        assert "LOAD" in repr(load)
        assert "0x1234" in repr(load)
        br = Inst(OpClass.BRANCH, 0x400000, taken=True)
        assert "taken=True" in repr(br)


class TestValidation:
    """Degenerate machines are refused at construction, naming the field."""

    @pytest.mark.parametrize("name", [
        "ruu_entries", "lsq_entries", "decode_width", "issue_width",
        "commit_width",
    ])
    def test_widths_and_queues_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            ProcessorConfig(**{name: 0})

    @pytest.mark.parametrize("size", [0, 2, 24, 48])
    def test_fetch_block_must_be_a_power_of_two(self, size):
        with pytest.raises(ValueError, match="^fetch_block_bytes"):
            ProcessorConfig(fetch_block_bytes=size)

    def test_fetch_block_of_one_instruction_is_allowed(self):
        assert ProcessorConfig(fetch_block_bytes=4).fetch_block_bytes == 4

    @pytest.mark.parametrize("name", [
        "int_add", "int_mul", "fp_add", "fp_mul", "mem_ports",
    ])
    def test_every_unit_class_needs_a_unit(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            FunctionalUnits(**{name: 0})
