"""Tests for the energy model."""

import pytest

from repro.cache import MemoryHierarchy
from repro.cache.energy import EnergyParams, estimate_energy
from repro.experiments import RunConfig, SCALED_GEOMETRY
from repro.experiments.runner import build_hierarchy
from repro.core import ProtectionConfig


def driven_hierarchy(protection=None, n=4000):
    """A hierarchy with some traffic through it."""
    import itertools

    from repro.workloads import get_benchmark, make_ref_stream

    config = RunConfig(n_refs=n, warmup_refs=0)
    h = build_hierarchy(config, protection)
    stream = make_ref_stream(
        get_benchmark("mesa"), SCALED_GEOMETRY.l2_bytes, seed=0
    )
    cycle = 0
    for ref in itertools.islice(stream, n):
        cycle += 1 + ref.gap
        (h.store if ref.is_write else h.load)(ref.addr, cycle)
    return h


def energy(h, *args, **kwargs):
    """``estimate_energy`` of a hierarchy's snapshot."""
    return estimate_energy(h.snapshot(), h.config, *args, **kwargs)


class TestValidation:
    def test_unknown_scheme(self):
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            energy(h, "magic")

    def test_bad_dirty_fraction(self):
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            energy(h, "proposed", dirty_fraction=1.5)


class TestComponents:
    def test_idle_hierarchy_zero_energy(self):
        h = MemoryHierarchy()
        e = energy(h, "conventional")
        assert e.total_nj == 0.0

    def test_components_present(self):
        h = driven_hierarchy()
        e = energy(h, "conventional")
        for key in ("L1 arrays", "L2 array", "off-chip bus", "DRAM",
                    "L2 ECC logic", "L1 parity logic"):
            assert key in e.components
            assert e.components[key] >= 0.0

    def test_rows_end_with_total(self):
        h = driven_hierarchy()
        e = energy(h, "conventional")
        rows = e.rows()
        assert rows[-1][0] == "total"
        assert rows[-1][1] == pytest.approx(e.total_nj)

    def test_units(self):
        h = driven_hierarchy()
        e = energy(h, "conventional")
        assert e.total_uj == pytest.approx(e.total_nj / 1000)


class TestSchemeComparison:
    def test_proposed_cuts_coding_energy(self):
        """The paper's scheme does less ECC work at the same traffic."""
        h = driven_hierarchy()
        conv = energy(h, "conventional")
        prop = energy(h, "proposed", dirty_fraction=0.3)
        assert (
            prop.components["L2 ECC logic"]
            < conv.components["L2 ECC logic"]
        )
        # Array/bus/DRAM identical on the same hierarchy.
        assert prop.components["DRAM"] == conv.components["DRAM"]

    def test_coding_energy_grows_with_dirty_fraction(self):
        h = driven_hierarchy()
        low = energy(h, "proposed", dirty_fraction=0.1)
        high = energy(h, "proposed", dirty_fraction=0.9)
        assert (
            high.components["L2 ECC logic"]
            >= low.components["L2 ECC logic"]
        )

    def test_org_and_ours_end_to_end(self):
        """Two real runs of the same workload, one per scheme."""
        org = driven_hierarchy(protection=None)
        protection = ProtectionConfig(
            cleaning_interval=1 << 18, ecc_entries_per_set=1
        )
        ours = driven_hierarchy(protection=protection)
        conv = energy(org, "conventional", 1.0)
        prop = energy(ours, "proposed", 0.2)
        # Coding logic: proposed well below conventional.
        assert (
            prop.components["L2 ECC logic"]
            < conv.components["L2 ECC logic"]
        )

    def test_custom_params_scale(self):
        h = driven_hierarchy()
        base = energy(h, "conventional")
        doubled = energy(
            h, "conventional",
            params=EnergyParams(dram_access=60.0),
        )
        assert doubled.components["DRAM"] == pytest.approx(
            2 * base.components["DRAM"]
        )


class TestSnapshotCounters:
    def test_snapshot_energy_equals_the_live_counters(self):
        """The registry snapshot carries every counter the model reads,
        so a snapshot's energy is the live hierarchy's, bit for bit."""
        h = driven_hierarchy(ProtectionConfig(
            cleaning_interval=1 << 18, ecc_entries_per_set=1
        ))
        params = EnergyParams()
        l1 = h.l1i.stats.accesses + h.l1d.stats.accesses
        l2, mem = h.l2.stats, h.memory.stats
        words = h.l2.config.line_bytes * 8 // 64
        reads = l2.read_hits + l2.read_misses
        writes = l2.write_hits + l2.write_misses
        ops = (reads + writes + l2.fills + l2.writebacks_total) * words
        assert energy(h, "conventional").components == {
            "L1 arrays": l1 * params.l1_access,
            "L2 array": l2.accesses * params.l2_access,
            "off-chip bus": (mem.bytes_read + mem.bytes_written)
            * params.bus_per_byte,
            "DRAM": mem.transactions * params.dram_access,
            "L1 parity logic": (
                l1 * (h.l1d.config.line_bytes * 8 // 64)
                * params.parity_per_word
            ),
            "L2 ECC logic": ops * params.ecc_per_word,
            "L2 parity logic": 0.0,
        }
        ecc_words = (
            (writes - l2.elided_ecc_updates) * words
            + reads * 0.25 * words
            + l2.writebacks_total * words
        )
        proposed = energy(h, "proposed", 0.25).components
        assert proposed["L2 parity logic"] == ops * params.parity_per_word
        assert proposed["L2 ECC logic"] == ecc_words * params.ecc_per_word
