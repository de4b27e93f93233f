"""Grid expansion, point identity, and the explorer's determinism.

The acceptance contract — fronts bit-identical across ``--jobs``
values and across a mid-sweep resume — is smoke-tested end to end by
``scripts/autotune_smoke.py``; these tests pin the pieces it rests on
at unit size: canonicalization collapses inapplicable axes, the cache
key covers every field of the task, and :func:`explore` serves a warm
cache without executing.
"""

import dataclasses

import pytest

from repro.autotune import (
    PointMetrics,
    PointTask,
    expand_grid,
    explore,
    point_key,
)
from repro.experiments.pool import ResultCache, SweepEngine


def grid(**overrides):
    axes = dict(
        benchmarks=("mesa",),
        schemes=("non-uniform",),
        codecs=("secded",),
        intervals=(262144,),
        ecc_entries=(1,),
        write_buffers=(16,),
        variants=("standard",),
        scenarios=("nominal",),
    )
    axes.update(overrides)
    return expand_grid(**axes)


def task(point, **overrides):
    fields = dict(
        point=point,
        trials=200,
        trials_per_shard=100,
        kernel="batch",
        seed=0,
        refs=4000,
        warmup=1000,
        insts=0,
        double_bit_fraction=0.05,
        raw_fit=1000.0,
        n_lines=16384,
        measure_ipc=False,
    )
    fields.update(overrides)
    return PointTask(**fields)


class TestExpandGrid:
    def test_uniform_ecc_collapses_cleaning_axes(self):
        points = grid(
            schemes=("uniform-ecc",),
            intervals=(262144, 1048576),
            ecc_entries=(1, 2),
            variants=("standard", "decay"),
        )
        assert len(points) == 1
        (p,) = points
        assert p.interval is None and p.ecc_entries is None
        assert p.variant == "standard"

    def test_parity_only_collapses_the_codec_axis_too(self):
        points = grid(
            schemes=("parity-only",), codecs=("secded", "dected"),
        )
        assert len(points) == 1
        assert points[0].codec == "secded"

    def test_eager_variant_collapses_the_interval_axis(self):
        points = grid(
            variants=("eager",), intervals=(262144, 1048576),
        )
        assert len(points) == 1
        assert points[0].interval is None

    def test_non_uniform_keeps_the_full_cross_product(self):
        points = grid(
            codecs=("secded", "dected"),
            intervals=(262144, 1048576),
            ecc_entries=(1, 2),
        )
        assert len(points) == 8

    def test_first_seen_order_is_preserved(self):
        points = grid(
            schemes=("uniform-ecc", "non-uniform"),
            intervals=(1048576, 262144),
        )
        assert points[0].scheme == "uniform-ecc"
        assert [p.interval for p in points[1:]] == [1048576, 262144]

    def test_mixed_grid_counts(self):
        # 2 non-uniform intervals + 1 uniform-ecc + 1 parity-only.
        points = grid(
            schemes=("non-uniform", "uniform-ecc", "parity-only"),
            intervals=(262144, 1048576),
        )
        assert len(points) == 4


class TestLabels:
    def test_defaults_are_suppressed(self):
        (p,) = grid()
        assert p.label == "non-uniform/secded/256K"

    def test_non_defaults_appear(self):
        (p,) = grid(
            codecs=("dected",), ecc_entries=(2,), write_buffers=(8,),
            variants=("decay",), scenarios=("low-voltage",),
        )
        assert "dected" in p.label
        assert "e2" in p.label
        assert "wb8" in p.label
        assert "decay" in p.label
        assert "low-voltage" in p.label

    def test_baseline_scheme_label_is_short(self):
        (p,) = grid(schemes=("uniform-ecc",))
        assert p.label == "uniform-ecc/secded"


class TestPointKey:
    def test_any_describe_field_changes_the_key(self):
        (p,) = grid()
        a = task(p)
        assert point_key(a, "v") != point_key(task(p, trials=201), "v")
        assert point_key(a, "v") != point_key(
            task(dataclasses.replace(p, scenario="low-voltage")), "v"
        )

    def test_code_version_changes_the_key(self):
        (p,) = grid()
        assert point_key(task(p), "v1") != point_key(task(p), "v2")


class TestExplore:
    @pytest.fixture(scope="class")
    def tasks(self):
        points = grid(schemes=("non-uniform", "parity-only"))
        return [task(p) for p in points]

    def test_warm_cache_executes_nothing_and_matches(
        self, tasks, tmp_path_factory
    ):
        cache = ResultCache(str(tmp_path_factory.mktemp("autotune")))
        cold, executed, cached = explore(
            tasks, engine=SweepEngine(jobs=1, cache=cache)
        )
        assert (executed, cached) == (len(tasks), 0)
        warm, executed, cached = explore(
            tasks, engine=SweepEngine(jobs=1, cache=cache)
        )
        assert (executed, cached) == (0, len(tasks))
        assert warm == cold
        assert all(isinstance(m, PointMetrics) for m in warm)

    def test_results_follow_task_order(self, tasks, tmp_path_factory):
        cache = ResultCache(str(tmp_path_factory.mktemp("autotune")))
        explore(tasks, engine=SweepEngine(jobs=1, cache=cache))
        flipped, _, _ = explore(
            list(reversed(tasks)),
            engine=SweepEngine(jobs=1, cache=cache),
        )
        assert [m.point for m in flipped] == [
            t.point for t in reversed(tasks)
        ]

    def test_progress_events_cover_every_point(
        self, tasks, tmp_path_factory
    ):
        cache = ResultCache(str(tmp_path_factory.mktemp("autotune")))
        events = []
        explore(
            tasks,
            engine=SweepEngine(jobs=1, cache=cache),
            progress=events.append,
        )
        points = [e for e in events if e["type"] == "point"]
        assert len(points) == len(tasks)
        assert points[-1]["done"] == points[-1]["total"] == len(tasks)

    def test_an_abort_keeps_finished_points_in_the_cache(self, tmp_path):
        """Aborting between batches loses nothing: finished points are
        in the result cache and the rerun completes the rest."""
        from repro.reliability.campaign import CampaignAborted

        points = grid(schemes=("non-uniform", "parity-only"))
        tasks = [task(p) for p in points]
        cache = ResultCache(str(tmp_path / "cache"))
        calls = []

        def abort_after_first():
            return len(calls) >= 1

        def record(event):
            if event.get("type") == "point":
                calls.append(event)

        # Batch size is 2*jobs, so with jobs=1 the first batch holds
        # both points only when len<=2 — force one-point batches by
        # aborting after the first batch's events arrive.
        with pytest.raises(CampaignAborted):
            explore(
                tasks * 2,  # two batches of two at jobs=1
                engine=SweepEngine(jobs=1, cache=cache),
                progress=record,
                should_abort=abort_after_first,
            )
        _, executed, cached = explore(
            tasks, engine=SweepEngine(jobs=1, cache=cache),
        )
        assert executed + cached == len(tasks)
        assert cached >= 1  # the aborted run's first batch was kept
