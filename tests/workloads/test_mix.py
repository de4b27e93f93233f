"""Tests for the instruction mixer."""

import itertools
import random

import pytest

from repro.cpu import OpClass
from repro.workloads import InstructionMixer, MemRef, MixConfig
from repro.workloads.generators import streaming_stream


def refs(n=200, seed=0, gap=2):
    rng = random.Random(seed)
    return [
        MemRef(rng.random() < 0.3, rng.randrange(1 << 16) & ~7, gap)
        for _ in range(n)
    ]


def expand(ref_list, config=None, seed=0):
    mixer = InstructionMixer(config or MixConfig(), seed=seed)
    return list(mixer.expand(ref_list))


class TestStructure:
    def test_every_ref_becomes_a_mem_inst(self):
        ref_list = refs(100)
        insts = expand(ref_list)
        mem = [i for i in insts if i.op.is_mem]
        assert len(mem) == 100
        assert [i.addr for i in mem] == [r.addr for r in ref_list]
        assert [i.op is OpClass.STORE for i in mem] == [
            r.is_write for r in ref_list
        ]

    def test_gap_zero_emits_back_to_back_mem(self):
        insts = expand([MemRef(False, 0, 0), MemRef(True, 8, 0)])
        assert all(i.op.is_mem or i.op is OpClass.BRANCH for i in insts)

    def test_fillers_match_gaps(self):
        insts = expand([MemRef(False, 0, 5)])
        non_mem = [i for i in insts if not i.op.is_mem]
        assert len(non_mem) == 5  # 5 fillers, possibly some are branches

    def test_loads_have_destinations(self):
        insts = expand(refs(50))
        for i in insts:
            if i.op is OpClass.LOAD:
                assert i.dest >= 0
            if i.op is OpClass.STORE:
                assert i.dest == -1


class TestPcStream:
    def test_pcs_stay_in_loop_body(self):
        cfg = MixConfig(loop_body_insts=128)
        insts = expand(refs(300), cfg)
        for i in insts:
            assert cfg.code_base <= i.pc < cfg.code_base + 128 * 4

    def test_branches_at_fixed_slots(self):
        cfg = MixConfig(loop_body_insts=64, branch_period=8)
        insts = expand(refs(400, gap=3), cfg)
        branch_pcs = {i.pc for i in insts if i.op is OpClass.BRANCH}
        slots = {(pc - cfg.code_base) // 4 for pc in branch_pcs}
        expected = set(range(7, 64, 8)) | {63}
        assert slots <= expected

    def test_back_edge_always_taken_to_base(self):
        cfg = MixConfig(loop_body_insts=32, branch_period=100)
        insts = expand(refs(200, gap=3), cfg)
        back = [
            i for i in insts
            if i.op is OpClass.BRANCH and i.pc == cfg.code_base + 31 * 4
        ]
        assert back
        assert all(i.taken and i.target == cfg.code_base for i in back)


class TestMixRatios:
    def test_fp_fraction_controls_fp_ops(self):
        fp_heavy = expand(refs(500, gap=4), MixConfig(fp_fraction=0.9))
        int_heavy = expand(refs(500, gap=4), MixConfig(fp_fraction=0.1))

        def fp_share(insts):
            alus = [
                i for i in insts
                if i.op in (OpClass.FP_ALU, OpClass.FP_MUL,
                            OpClass.INT_ALU, OpClass.INT_MUL)
            ]
            fp = [i for i in alus if i.op in (OpClass.FP_ALU, OpClass.FP_MUL)]
            return len(fp) / len(alus)

        assert fp_share(fp_heavy) > 0.8
        assert fp_share(int_heavy) < 0.2

    def test_branch_personalities_are_biased(self):
        cfg = MixConfig(loop_body_insts=64, branch_period=8,
                        random_branch_fraction=0.0)
        insts = expand(refs(3000, gap=3), cfg, seed=1)
        from collections import defaultdict

        outcomes = defaultdict(list)
        for i in insts:
            if i.op is OpClass.BRANCH:
                outcomes[i.pc].append(i.taken)
        for pc, taken in outcomes.items():
            if len(taken) < 20:
                continue
            rate = sum(taken) / len(taken)
            assert rate < 0.15 or rate > 0.85  # strongly biased


class TestDeterminism:
    def test_same_seed_same_stream(self):
        ref_list = refs(150, seed=5)
        a = expand(list(ref_list), seed=9)
        b = expand(list(ref_list), seed=9)
        assert [(i.op, i.pc, i.addr, i.taken) for i in a] == [
            (i.op, i.pc, i.addr, i.taken) for i in b
        ]

    def test_works_with_generator_input(self):
        rng = random.Random(0)
        stream = streaming_stream(rng, ws_bytes=8192)
        mixer = InstructionMixer(MixConfig(), seed=0)
        insts = list(itertools.islice(mixer.expand(stream), 500))
        assert len(insts) == 500


class TestValidation:
    """A degenerate mix is refused at construction, naming the field."""

    @pytest.mark.parametrize("name", [
        "branch_period", "loop_body_insts", "registers",
    ])
    def test_counts_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            MixConfig(**{name: 0})

    def test_smallest_mix_expands(self):
        cfg = MixConfig(branch_period=1, loop_body_insts=1, registers=1)
        insts = expand(refs(20), cfg)
        assert sum(i.op.is_mem for i in insts) == 20
