"""Tests for the energy model."""

import pytest

from repro.cache import MemoryHierarchy
from repro.cache.energy import (
    EnergyParams,
    compare_schemes,
    estimate_energy,
)
from repro.experiments import RunConfig, SCALED_GEOMETRY
from repro.experiments.runner import _build_hierarchy
from repro.core import ProtectionConfig


def driven_hierarchy(protection=None, n=4000):
    """A hierarchy with some traffic through it."""
    import itertools

    from repro.workloads import get_benchmark, make_ref_stream

    config = RunConfig(n_refs=n, warmup_refs=0)
    h = _build_hierarchy(config, protection)
    stream = make_ref_stream(
        get_benchmark("mesa"), SCALED_GEOMETRY.l2_bytes, seed=0
    )
    cycle = 0
    for ref in itertools.islice(stream, n):
        cycle += 1 + ref.gap
        (h.store if ref.is_write else h.load)(ref.addr, cycle)
    return h


class TestValidation:
    def test_unknown_scheme(self):
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            estimate_energy(h, "magic")

    def test_bad_dirty_fraction(self):
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            estimate_energy(h, "proposed", dirty_fraction=1.5)


class TestComponents:
    def test_idle_hierarchy_zero_energy(self):
        h = MemoryHierarchy()
        e = estimate_energy(h, "conventional")
        assert e.total_nj == 0.0

    def test_components_present(self):
        h = driven_hierarchy()
        e = estimate_energy(h, "conventional")
        for key in ("L1 arrays", "L2 array", "off-chip bus", "DRAM",
                    "L2 ECC logic", "L1 parity logic"):
            assert key in e.components
            assert e.components[key] >= 0.0

    def test_rows_end_with_total(self):
        h = driven_hierarchy()
        e = estimate_energy(h, "conventional")
        rows = e.rows()
        assert rows[-1][0] == "total"
        assert rows[-1][1] == pytest.approx(e.total_nj)

    def test_units(self):
        h = driven_hierarchy()
        e = estimate_energy(h, "conventional")
        assert e.total_uj == pytest.approx(e.total_nj / 1000)


class TestSchemeComparison:
    def test_proposed_cuts_coding_energy(self):
        """The paper's scheme does less ECC work at the same traffic."""
        h = driven_hierarchy()
        conv = estimate_energy(h, "conventional")
        prop = estimate_energy(h, "proposed", dirty_fraction=0.3)
        assert (
            prop.components["L2 ECC logic"]
            < conv.components["L2 ECC logic"]
        )
        # Array/bus/DRAM identical on the same hierarchy.
        assert prop.components["DRAM"] == conv.components["DRAM"]

    def test_coding_energy_grows_with_dirty_fraction(self):
        h = driven_hierarchy()
        low = estimate_energy(h, "proposed", dirty_fraction=0.1)
        high = estimate_energy(h, "proposed", dirty_fraction=0.9)
        assert (
            high.components["L2 ECC logic"]
            >= low.components["L2 ECC logic"]
        )

    def test_compare_schemes_end_to_end(self):
        """Full comparison over two real runs of the same workload."""
        org = driven_hierarchy(protection=None)
        protection = ProtectionConfig(
            cleaning_interval=1 << 18, ecc_entries_per_set=1
        )
        ours = driven_hierarchy(protection=protection)
        out = compare_schemes(org, ours, proposed_dirty_fraction=0.2)
        assert set(out) == {"conventional", "proposed"}
        # Coding logic: proposed well below conventional.
        assert (
            out["proposed"].components["L2 ECC logic"]
            < out["conventional"].components["L2 ECC logic"]
        )

    def test_custom_params_scale(self):
        h = driven_hierarchy()
        base = estimate_energy(h, "conventional")
        doubled = estimate_energy(
            h, "conventional",
            params=EnergyParams(dram_access=60.0),
        )
        assert doubled.components["DRAM"] == pytest.approx(
            2 * base.components["DRAM"]
        )
