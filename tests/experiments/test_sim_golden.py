"""Golden pin of the reference-mode and CPU-mode simulator outputs.

Every paper figure is computed from :func:`run_refs` / :func:`run_ipc`
outputs, so this pins the SHA-256 of the *whole* output record — every
field, including the full registry ``snapshot`` — over a small grid:
three benchmarks × the four L2 configurations the figures use, the full
scheme under every registered variant (on mesa and gap), a three-level
hierarchy with a protected L3, and CPU-mode runs: org/ours pairs on
swim and mcf, a silent-write run, a run under a stressed processor
configuration, and the instruction mixer's own stream.

A performance change to the simulator hot path must leave every digest
unchanged.  A digest change means a simulated bit moved: find out why,
never re-pin to make a change pass.  Only stdlib-driven benchmarks
(no zipf) are used, so the pin holds with and without numpy installed.
"""

import dataclasses
import hashlib
import json
import sys
from dataclasses import replace

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import MemoryHierarchy
from repro.core import ProtectedL2, ProtectionConfig
from repro.core.policy import available_variants
from repro.cpu.config import FunctionalUnits, ProcessorConfig
from repro.experiments.runner import (
    SCALED_GEOMETRY,
    RunConfig,
    run_ipc,
    run_ref_stream,
    run_refs,
)
from repro.workloads import (
    InstructionMixer,
    MemRef,
    MixConfig,
    get_benchmark,
    make_ref_stream,
)

CONFIG = RunConfig(n_refs=6000, warmup_refs=2000)

PROTECTIONS = {
    "plain": None,
    "clean64K": ProtectionConfig(
        cleaning_interval=64 * 1024, ecc_entries_per_set=None
    ),
    "clean4M": ProtectionConfig(
        cleaning_interval=4 * 1024 * 1024, ecc_entries_per_set=None
    ),
    "full": ProtectionConfig(cleaning_interval=1 << 20, ecc_entries_per_set=1),
}


def digest(output) -> str:
    """SHA-256 of a run output's every field (floats by exact repr)."""
    doc = json.dumps(
        dataclasses.asdict(output), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(doc.encode()).hexdigest()


REF_GOLDEN = {
    ("swim", "plain"):
        "bcb50d3dd5fb753dae93427f3bca6e0cf20f81711dd15f8013694c43e1b892be",
    ("swim", "clean64K"):
        "8a50b0f9b62a2334a98d57cdc01cc7f35dc04088b6665cc8840c180f03ce7844",
    ("swim", "clean4M"):
        "ab31926c7fb588ec0f2d1fc0e33e0c272ff82595f2fcc487ccf9f48bc7a0b789",
    ("swim", "full"):
        "8263141ee79bc72fc2641fa931ae530f21c7b4d92a3ace2e27210a876965c3b2",
    ("mcf", "plain"):
        "4e0de0386a2bf1a11049304acb0fd778fe2c45c03a1ec42c6c1090857430b598",
    ("mcf", "clean64K"):
        "08952b6244dd1cd1319991231acb3045aaea307d31e8bcf0222d9a728e809332",
    ("mcf", "clean4M"):
        "2934e24aa9ddea1a754ef9120d8d388b64c07d63c85b373a19cc67ce983e16fa",
    ("mcf", "full"):
        "fe743d58e7180015fa24f23cbef55a07110adbe174a1fbdacb3b25da6c6a632a",
    ("mesa", "plain"):
        "15034f48f169ae6382b05dc0301ca494da8da60338da86b43d62c1915941b7f9",
    ("mesa", "clean64K"):
        "d1c1cd8f7323687a61fbe35d19bafc5b586bd84912889d6a31cf0fc68ab9b9e0",
    ("mesa", "clean4M"):
        "51bf2a81802ba056fd18aeecef2af762adb9337e135d09ec3d4da707db5146fe",
    ("mesa", "full"):
        "505630956054b1efd0c27072b48e569fe6e6ca9e73c63a90a45f6439264b5f50",
}

#: The full scheme under every registered variant.  mesa is the grid
#: the figures use; on gap the written bit changes the outcome, so the
#: no-written-bit sweep is pinned on a run where it differs.
VARIANT_GOLDEN = {
    ("mesa", "standard"):
        "505630956054b1efd0c27072b48e569fe6e6ca9e73c63a90a45f6439264b5f50",
    ("mesa", "decay"):
        "9948dd3eaabdcb0ac1d2f8bfca3857c2fd69cb87558f9d260150c1565988e0ad",
    ("mesa", "eager"):
        "d62c803cc130313092ee54dc9e03e19a6f10f22c775aac18d0887e1e2347317a",
    ("mesa", "no-written-bit"):
        "505630956054b1efd0c27072b48e569fe6e6ca9e73c63a90a45f6439264b5f50",
    ("mesa", "silent-write"):
        "1bbfea15a1417e875555936a2f9bf2302da6b4455a2ce607373287fd6e5de991",
    ("mesa", "wb-compress"):
        "846bee892ee2bd4f19238fee7e13b7a8073842345db716467149147dbfe41add",
    ("gap", "standard"):
        "5a80ff29eb21c0ec7168466ce369bd5440b859cece95798ff8d45b2bd02c8ae3",
    ("gap", "decay"):
        "ec0c481daba94ae46b395c68c656fdece94cb26ebe07da5e0f202e976d7a1a27",
    ("gap", "eager"):
        "466a17173449851386b57e84df2788b063a71a6b021343d5039f2bb6fe7464ff",
    ("gap", "no-written-bit"):
        "45f5bdb204eb4e859213ad8a2e1d0e8f97accdfe94754f5924e2aa2a57474c71",
    ("gap", "silent-write"):
        "67e3b7cefd8de4dbb4f29f17e27117fdafe18309a9b118ab24adc8572b6f7ff0",
    ("gap", "wb-compress"):
        "7fccea07539d15fbdfe82a016be8cdf7dfd61095b6ee8673c06b721ee0dc3c43",
}

L3_GOLDEN = (
    "1d127e323c21745c84680e7089c0ec9fea31272c3a685bd08a82155b46fa24fb"
)

IPC_GOLDEN = {
    "plain":
        "ca051236a2432f825435ad6b11a1fed0c4632d0a3b78f77407875d47f30a5e30",
    "full":
        "77efd4ca357511c256bf1b2e853e055019c3a23fc8560af04499ecaa35fc8a53",
}
if sys.version_info >= (3, 12):
    # ``energy_uj`` totals its components with ``sum()``, which rounds
    # floats with compensated summation from CPython 3.12 on: the plain
    # run's total moves by one ulp there, every other field is the same.
    IPC_GOLDEN["plain"] = (
        "c0582f110c1d3821a50426ca708f5fe9468cab4fd4585e5872595e393bf14fbf"
    )


@pytest.mark.parametrize("bench,protection", sorted(REF_GOLDEN))
def test_run_refs_is_pinned(bench, protection):
    out = run_refs(bench, PROTECTIONS[protection], CONFIG)
    assert digest(out) == REF_GOLDEN[bench, protection]


def test_every_variant_is_pinned():
    for bench in ("mesa", "gap"):
        pinned = [v for b, v in VARIANT_GOLDEN if b == bench]
        assert sorted(pinned) == sorted(available_variants())


@pytest.mark.parametrize("bench,variant", sorted(VARIANT_GOLDEN))
def test_variant_is_pinned(bench, variant):
    out = run_refs(bench, PROTECTIONS["full"], CONFIG, variant=variant)
    assert digest(out) == VARIANT_GOLDEN[bench, variant]


def test_three_level_protected_l3_is_pinned():
    base = SCALED_GEOMETRY.hierarchy_config()
    l3_cfg = CacheConfig(
        "l3", size_bytes=4 * base.l2.size_bytes, ways=8, line_bytes=64,
        hit_latency=25,
    )
    l3 = ProtectedL2(
        l3_cfg,
        ProtectionConfig(
            cleaning_interval=SCALED_GEOMETRY.scaled_interval(1 << 20),
            ecc_entries_per_set=1,
        ),
    )
    hierarchy = MemoryHierarchy(config=replace(base, l3=l3_cfg), l3=l3)
    stream = make_ref_stream(
        get_benchmark("swim"), SCALED_GEOMETRY.l2_bytes, seed=CONFIG.seed
    )
    out = run_ref_stream(stream, hierarchy, CONFIG, label="swim")
    assert digest(out) == L3_GOLDEN


@pytest.mark.parametrize("protection", sorted(IPC_GOLDEN))
def test_run_ipc_is_pinned(protection):
    out = run_ipc("swim", PROTECTIONS[protection], CONFIG, n_insts=6000)
    assert digest(out) == IPC_GOLDEN[protection]


#: CPU-mode runs beyond the swim pair: the INT pair, a traffic-aware
#: variant, and a small machine whose RUU/LSQ fill up, whose fetch and
#: commit gates saturate at width 2 and whose two-unit multiply pools
#: tie on their first-minimum unit choice.
STRESS_PROCESSOR = ProcessorConfig(
    ruu_entries=8,
    lsq_entries=4,
    decode_width=2,
    commit_width=2,
    functional_units=FunctionalUnits(int_mul=2, fp_mul=2),
)

IPC_RUNS = {
    "mcf-plain": ("mcf", "plain", "standard", None),
    "mcf-full": ("mcf", "full", "standard", None),
    "swim-silent-write": ("swim", "full", "silent-write", None),
    "swim-stress": ("swim", "full", "standard", STRESS_PROCESSOR),
}

IPC_RUN_GOLDEN = {
    "mcf-plain":
        "9efa7b7bd2f101803d124d407e84e9e9c77d9b83d18a9cc8f41bcb90bd033504",
    "mcf-full":
        "8a71fcc269e6e2d8c298b0c6955fe59ec8d269c731af7e4e23c4c389408f01f2",
    "swim-silent-write":
        "2a80336cc6607365e164d1c7782a930aede0a52241ba43317df3744cbfcc456f",
    "swim-stress":
        "e68280e8478c2bf8e25ef88599a658ced5ab4db75f138df0fffc0a89729a95e3",
}
if sys.version_info >= (3, 12):
    # The plain run's ``energy_uj`` moves by one ulp, as for swim above.
    IPC_RUN_GOLDEN["mcf-plain"] = (
        "c94f011141308a8907426bea4cefb87ad2f4c7b85685f10a67aa7a3f8b68c756"
    )


@pytest.mark.parametrize("name", sorted(IPC_RUN_GOLDEN))
def test_ipc_run_is_pinned(name):
    bench, protection, variant, processor = IPC_RUNS[name]
    out = run_ipc(
        bench, PROTECTIONS[protection], CONFIG, n_insts=6000,
        processor=processor, variant=variant,
    )
    assert digest(out) == IPC_RUN_GOLDEN[name]


def mixer_digest(fp_fraction: float) -> str:
    """SHA-256 of 20k mixed instructions from two ``expand`` calls on
    one mixer — the first runs its references dry, the second is cut
    mid-stream — plus the mixer's register and RNG state after."""
    import itertools
    import random

    rng = random.Random(3)
    refs = [
        MemRef(rng.random() < 0.3, rng.randrange(1 << 20) & ~7,
               rng.randrange(7))
        for _ in range(8000)
    ]
    mixer = InstructionMixer(MixConfig(fp_fraction=fp_fraction), seed=5)
    first = list(mixer.expand(refs[:2000]))
    second = list(
        itertools.islice(mixer.expand(refs[2000:]), 20000 - len(first))
    )
    h = hashlib.sha256()
    for inst in first + second:
        h.update(repr((
            int(inst.op), inst.pc, inst.addr, inst.dest, inst.srcs,
            inst.taken, inst.target,
        )).encode())
    h.update(repr((
        len(first), len(second), mixer._emitted, mixer._next_reg,
        mixer._recent_dests, mixer._rng.getstate(),
    )).encode())
    return h.hexdigest()


MIXER_GOLDEN = {
    "fp": "e35405142f480ec446900b6a877f9871a61498c900d113816166cee39f50a2ed",
    "int": "0b66a2a727173ccc34c979e4f07f40b4b4a5242964350dfa69eaf8392da69805",
}


@pytest.mark.parametrize("suite,fp_fraction", [("fp", 0.5), ("int", 0.1)])
def test_mixer_stream_is_pinned(suite, fp_fraction):
    assert mixer_digest(fp_fraction) == MIXER_GOLDEN[suite]


# -- edge cases of the reference-mode pipeline ---------------------------------
#
# Runs whose streams or hierarchies sit at the edges of what the
# reference-mode path accepts: values no narrow column holds, a stream
# that ends inside its warm-up, a hierarchy driven twice, and ablations
# whose knobs sit on either side of the L1 (write-buffer depth above,
# L2 size below).


def doc_digest(doc) -> str:
    """SHA-256 of a plain JSON-able document (floats by exact repr)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def wide_trace(path):
    """A text trace of swim's first 4000 references with a 70000-cycle
    gap and loads/stores to blocks at and beyond 2**62 (one past 2**64)
    woven in, saved and loaded back through the text trace format."""
    import itertools

    from repro.workloads.io import load_trace, save_trace_text

    refs = list(itertools.islice(
        make_ref_stream(
            get_benchmark("swim"), SCALED_GEOMETRY.l2_bytes, seed=0
        ),
        4000,
    ))
    high = [(1 << 62) + 64 * k for k in range(3)] + [(1 << 64) + 128]
    for i in range(300, 4000, 97):
        addr = high[(i // 97) % len(high)] + (i % 8) * 4
        refs[i] = MemRef(i % 3 == 0, addr, refs[i].gap)
    refs[1200] = MemRef(False, refs[1200].addr, 70000)
    refs[2500] = MemRef(True, (1 << 62) + 8, 70000)
    save_trace_text(refs, path)
    return load_trace(path)


EDGE_GOLDEN = {
    "wide-trace":
        "07ff5a0874a56bf0e6f33aa8ef910e06d7e90d652437e533e7965c0ad35f26be",
    "short-trace":
        "e03d0fd89274176ec677dbd19a3dfc32fc6b5912cd6b057dcc56ac49e281e06c",
    "reused-swim":
        "8263141ee79bc72fc2641fa931ae530f21c7b4d92a3ace2e27210a876965c3b2",
    "reused-mcf":
        "0a923bb00cbe557ab3e160bbf12206a333fd84d174ed6e4f9f5328ce7ec74ba1",
    "ablate-write-buffer":
        "285a922b2d973cee4e9595028d28409a68cd285a4cea9f3b43fa2f9dab2b9771",
    "ablate-cache-size":
        "1dfcb4a706b39d4c75526dd56f4a6aaa8249b0b0f5f5f3b0a4f1944239731a02",
    "ablate-replacement":
        "3812a51c7680e19c9583994285b4766b1054aca6ef75172b831f28ace11c1fbc",
    "ablate-energy":
        "6810939ded3a296baae80e2e48d3ab8f814b42c8129ac7c8ee00f6cc5cf4e496",
    "ablate-bus-width":
        "f31a57005fb7885a4af6d34bc40eddc890bcdc8a4623eb39b44ad142034a4c80",
}


def test_wide_text_trace_is_pinned(tmp_path):
    from repro.experiments.runner import run_trace

    out = run_trace(
        wide_trace(tmp_path / "wide.trace"), PROTECTIONS["full"],
        RunConfig(n_refs=3000, warmup_refs=1000), label="wide",
    )
    assert digest(out) == EDGE_GOLDEN["wide-trace"]


def test_trace_shorter_than_warmup_is_pinned():
    import itertools

    from repro.experiments.runner import run_trace

    refs = list(itertools.islice(
        make_ref_stream(get_benchmark("mcf"), SCALED_GEOMETRY.l2_bytes),
        1500,
    ))
    out = run_trace(refs, PROTECTIONS["clean64K"], CONFIG, label="short")
    assert out.refs == 0
    assert digest(out) == EDGE_GOLDEN["short-trace"]


def test_hierarchy_driven_twice_is_pinned():
    from repro.experiments.runner import build_l2, run_refs_with_hierarchy

    protection = PROTECTIONS["full"]
    hierarchy = MemoryHierarchy(
        config=SCALED_GEOMETRY.hierarchy_config(),
        l2=build_l2(SCALED_GEOMETRY, protection),
    )
    first = run_refs_with_hierarchy("swim", hierarchy, CONFIG, protection)
    second = run_refs_with_hierarchy("mcf", hierarchy, CONFIG, protection)
    assert digest(first) == EDGE_GOLDEN["reused-swim"]
    assert digest(second) == EDGE_GOLDEN["reused-mcf"]


def test_write_buffer_ablation_is_pinned():
    from repro.experiments.ablations import ablate_write_buffer

    doc = ablate_write_buffer(CONFIG, ["swim", "mcf"], depths=(1, 64))
    assert doc_digest(doc) == EDGE_GOLDEN["ablate-write-buffer"]


def test_cache_size_ablation_is_pinned():
    from repro.experiments.ablations import ablate_cache_size

    doc = ablate_cache_size(CONFIG, ["swim", "mcf"])
    assert doc_digest(doc) == EDGE_GOLDEN["ablate-cache-size"]


def test_replacement_ablation_is_pinned():
    from repro.experiments.ablations import ablate_replacement

    doc = ablate_replacement(CONFIG, ["swim", "mcf"])
    assert doc_digest(doc) == EDGE_GOLDEN["ablate-replacement"]


def test_energy_ablation_is_pinned():
    from repro.experiments.ablations import ablate_energy

    doc = ablate_energy(CONFIG, ["swim", "mcf"])
    assert doc_digest(doc) == EDGE_GOLDEN["ablate-energy"]


def test_bus_width_ablation_is_pinned():
    from repro.experiments.ablations import ablate_bus_width

    doc = ablate_bus_width(
        CONFIG, ["swim", "mcf"], widths=(4, 8, 16), n_insts=12000
    )
    assert doc_digest(doc) == EDGE_GOLDEN["ablate-bus-width"]
