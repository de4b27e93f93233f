"""Tests for the out-of-order core timing model."""

from repro.cache import HierarchyConfig, MemoryHierarchy
from repro.cache.cache import CacheConfig, WritePolicy
from repro.cpu import Inst, OoOCore, OpClass, ProcessorConfig
from repro.cpu.config import FunctionalUnits
from tests.cpu.longhand import BandwidthGate


def make_hierarchy():
    cfg = HierarchyConfig(
        l1i=CacheConfig("l1i", 4096, 4, 32,
                        write_policy=WritePolicy.WRITE_THROUGH,
                        write_allocate=False),
        l1d=CacheConfig("l1d", 4096, 4, 32,
                        write_policy=WritePolicy.WRITE_THROUGH,
                        write_allocate=False),
        l2=CacheConfig("l2", 65536, 4, 64, hit_latency=10),
    )
    return MemoryHierarchy(config=cfg)


def make_core(**proc_kw):
    return OoOCore(make_hierarchy(), config=ProcessorConfig(**proc_kw))


def alu(pc, dest=-1, srcs=()):
    return Inst(OpClass.INT_ALU, pc, dest=dest, srcs=srcs)


def alu_block(n, pc0=0x400000):
    return [alu(pc0 + i * 4, dest=i % 8) for i in range(n)]


class TestBandwidthGate:
    def test_admits_width_per_cycle(self):
        gate = BandwidthGate(2)
        assert [gate.admit(5) for _ in range(5)] == [5, 5, 6, 6, 7]

    def test_time_never_regresses(self):
        gate = BandwidthGate(4)
        gate.admit(10)
        assert gate.admit(3) == 10

    def test_new_cycle_resets_count(self):
        gate = BandwidthGate(1)
        assert gate.admit(0) == 0
        assert gate.admit(5) == 5


class TestThroughput:
    def test_independent_alus_reach_issue_width(self):
        """Independent 1-cycle ops on a 4-wide machine: IPC approaches 4
        once the cold I-cache misses of the first loop amortise."""
        core = make_core()
        insts = [alu(0x400000 + (i % 64) * 4, dest=-1) for i in range(8000)]
        res = core.run(insts)
        assert res.ipc > 3.0

    def test_dependent_chain_limits_to_one_per_cycle(self):
        core = make_core()
        insts = [
            Inst(OpClass.INT_ALU, 0x400000 + (i % 64) * 4, dest=1, srcs=(1,))
            for i in range(500)
        ]
        res = core.run(insts)
        assert res.ipc < 1.2

    def test_single_mul_unit_serialises_muls(self):
        """INT_MUL latency 3, one unpipelined unit -> <= 1/3 IPC."""
        core = make_core()
        insts = [
            Inst(OpClass.INT_MUL, 0x400000 + (i % 64) * 4, dest=-1)
            for i in range(300)
        ]
        res = core.run(insts)
        assert res.ipc < 0.45

    def test_more_int_units_help_mixed_code(self):
        narrow = OoOCore(
            make_hierarchy(),
            config=ProcessorConfig(
                functional_units=FunctionalUnits(int_add=1)
            ),
        )
        wide = make_core()
        # Independent ALU ops: 4 adders beat 1 adder.
        insts = [alu(0x400000 + (i % 64) * 4) for i in range(600)]
        ipc_narrow = narrow.run(list(insts)).ipc
        ipc_wide = wide.run(list(insts)).ipc
        assert ipc_wide > ipc_narrow * 1.5


class TestMemoryBehaviour:
    def test_load_miss_stalls_dependents(self):
        core = make_core()
        insts = []
        for i in range(50):
            insts.append(
                Inst(OpClass.LOAD, 0x400000 + (i % 64) * 4,
                     addr=0x100000 + i * 4096, dest=1)
            )
            insts.append(
                Inst(OpClass.INT_ALU, 0x400000 + ((i + 1) % 64) * 4,
                     dest=2, srcs=(1,))
            )
        res = core.run(insts)
        assert res.ipc < 0.3  # every load misses to memory

    def test_cache_hits_keep_ipc_high(self):
        """Loads that hit the L1D sustain the 2 memory ports' bandwidth."""
        core = make_core()
        insts = [
            Inst(OpClass.LOAD, 0x400000 + (i % 64) * 4, addr=0x1000, dest=-1)
            for i in range(2000)
        ]
        res = core.run(insts)
        assert res.ipc > 1.0

    def test_stores_reach_hierarchy_at_commit(self):
        core = make_core()
        insts = [
            Inst(OpClass.STORE, 0x400000 + (i % 64) * 4, addr=0x2000 + i * 8)
            for i in range(10)
        ]
        res = core.run(insts)
        assert res.stores == 10
        assert core.hierarchy.stats.stores == 10

    def test_load_store_counts(self):
        core = make_core()
        insts = [
            Inst(OpClass.LOAD, 0x400000, addr=0x1000, dest=1),
            Inst(OpClass.STORE, 0x400004, addr=0x1008),
        ]
        res = core.run(insts)
        assert res.loads == 1
        assert res.stores == 1


class TestBranches:
    def test_mispredicts_slow_the_machine(self):
        import random

        rng = random.Random(0)

        def stream(predictable):
            insts = []
            for i in range(600):
                pc = 0x400000 + (i % 64) * 4
                if i % 5 == 4:
                    taken = True if predictable else rng.random() < 0.5
                    insts.append(
                        Inst(OpClass.BRANCH, pc, taken=taken, target=0x400000)
                    )
                else:
                    insts.append(alu(pc))
            return insts

        ipc_good = make_core().run(stream(True)).ipc
        ipc_bad = make_core().run(stream(False)).ipc
        assert ipc_good > ipc_bad

    def test_branch_counts(self):
        core = make_core()
        insts = [
            Inst(OpClass.BRANCH, 0x400000, taken=True, target=0x400000)
            for _ in range(20)
        ]
        res = core.run(insts)
        assert res.branches == 20
        assert res.mispredicts <= res.branches


class TestOccupancyLimits:
    def test_small_ruu_hurts_under_memory_latency(self):
        def mem_stream():
            return [
                Inst(OpClass.LOAD, 0x400000 + (i % 64) * 4,
                     addr=0x100000 + i * 4096, dest=-1)
                for i in range(60)
            ] + [alu(0x400000 + (i % 64) * 4) for i in range(600)]

        big = OoOCore(make_hierarchy(), config=ProcessorConfig(ruu_entries=64))
        small = OoOCore(make_hierarchy(), config=ProcessorConfig(ruu_entries=4))
        assert big.run(mem_stream()).ipc > small.run(mem_stream()).ipc

    def test_zero_instructions(self):
        res = make_core().run([])
        assert res.instructions == 0
        assert res.ipc == 0.0
