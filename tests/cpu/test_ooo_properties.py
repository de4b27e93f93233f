"""Property tests for the out-of-order timing model's invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import OoOCore, OpClass, ProcessorConfig
from repro.workloads import InstructionMixer, MixConfig
from repro.workloads.generators import MemRef
from tests.cpu.test_ooo import make_hierarchy


def random_stream(seed, n):
    """A deterministic random instruction stream via the mixer."""
    rng = random.Random(seed)
    refs = [
        MemRef(rng.random() < 0.3,
               rng.randrange(1 << 18) & ~7,
               rng.randint(0, 4))
        for _ in range(n)
    ]
    mixer = InstructionMixer(MixConfig(), seed=seed)
    return list(mixer.expand(refs))


class TestTimingInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_ipc_bounded_by_machine_width(self, seed):
        insts = random_stream(seed, 300)
        core = OoOCore(make_hierarchy())
        res = core.run(insts)
        assert res.ipc <= core.config.commit_width
        assert res.cycles >= len(insts) // core.config.commit_width

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_counts_partition_the_stream(self, seed):
        insts = random_stream(seed, 300)
        res = OoOCore(make_hierarchy()).run(insts)
        assert res.instructions == len(insts)
        n_loads = sum(1 for i in insts if i.op is OpClass.LOAD)
        n_stores = sum(1 for i in insts if i.op is OpClass.STORE)
        n_branches = sum(1 for i in insts if i.op is OpClass.BRANCH)
        assert res.loads == n_loads
        assert res.stores == n_stores
        assert res.branches == n_branches
        assert res.mispredicts <= res.branches

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_deterministic(self, seed):
        insts = random_stream(seed, 200)
        a = OoOCore(make_hierarchy()).run(list(insts))
        b = OoOCore(make_hierarchy()).run(list(insts))
        assert a.cycles == b.cycles
        assert a.mispredicts == b.mispredicts

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_extra_memory_latency_never_speeds_up(self, seed):
        """A machine with slower memory cannot finish earlier."""
        from repro.cache import HierarchyConfig, MemoryHierarchy
        from repro.cache.mainmem import MemoryConfig
        from repro.cache.cache import CacheConfig, WritePolicy

        def hierarchy(lat):
            cfg = HierarchyConfig(
                l1i=CacheConfig("l1i", 4096, 4, 32,
                                write_policy=WritePolicy.WRITE_THROUGH,
                                write_allocate=False),
                l1d=CacheConfig("l1d", 4096, 4, 32,
                                write_policy=WritePolicy.WRITE_THROUGH,
                                write_allocate=False),
                l2=CacheConfig("l2", 32768, 4, 64, hit_latency=10),
                memory=MemoryConfig(latency_cycles=lat),
            )
            return MemoryHierarchy(config=cfg)

        insts = random_stream(seed, 250)
        fast = OoOCore(hierarchy(50)).run(list(insts))
        slow = OoOCore(hierarchy(400)).run(list(insts))
        assert slow.cycles >= fast.cycles

    def test_wider_machine_not_slower(self):
        insts = random_stream(7, 600)
        narrow = OoOCore(
            make_hierarchy(),
            config=ProcessorConfig(decode_width=1, issue_width=1,
                                   commit_width=1),
        ).run(list(insts))
        wide = OoOCore(make_hierarchy()).run(list(insts))
        assert wide.cycles <= narrow.cycles

    def test_avg_load_latency_at_least_hit_latency(self):
        insts = random_stream(11, 400)
        core = OoOCore(make_hierarchy())
        res = core.run(insts)
        if res.loads:
            assert res.avg_load_latency >= 1.0
