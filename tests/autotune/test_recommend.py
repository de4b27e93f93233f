"""Budget recommender semantics plus the CLI's golden table.

The conservative rule (a FIT budget is judged against the Wilson 95%
*upper* bound, and feasibility of any point implies a feasible front
point) is exercised on synthetic metrics; the golden test pins the
full ``repro recommend`` rendering for a tiny pinned grid — seed,
trials and workload fixed — so any drift in the numbers *or* the
presentation is a visible diff.
"""

import contextlib
import io

from repro.autotune import (
    DesignPoint,
    PointMetrics,
    feasible,
    pareto_front,
    recommend,
    resolve_objectives,
)
from repro.cli import main as cli_main


def metrics(label_n, area, fit, benchmark="mesa"):
    point = DesignPoint(
        benchmark=benchmark,
        scheme="non-uniform",
        codec="secded",
        interval=262144 + label_n,  # distinct labels for tie-breaks
        ecc_entries=1,
        write_buffer=16,
        variant="standard",
        scenario="nominal",
    )
    return PointMetrics(
        point=point,
        area_kib=area,
        fit=fit,
        mttf_hours=(1e6, 5e5, 2e6),
        energy_uj=1.0,
        ipc=None,
        traffic_pct=1.0,
        dirty_pct=10.0,
        trials=200,
    )


def front_of(points):
    specs = resolve_objectives(("area", "fit"))
    return pareto_front(
        [{s.name: s.interval(m) for s in specs} for m in points],
        [s.name for s in specs],
    )


class TestFeasible:
    def test_no_budgets_means_everything_is_feasible(self):
        assert feasible(metrics(0, 54.0, (300.0, 200.0, 400.0)),
                        None, None)

    def test_fit_budget_uses_the_upper_bound(self):
        m = metrics(0, 54.0, (300.0, 200.0, 400.0))
        assert feasible(m, 400.0, None)
        assert not feasible(m, 399.0, None)  # value 300 is not enough

    def test_area_budget_is_exact(self):
        m = metrics(0, 54.0, (300.0, 200.0, 400.0))
        assert feasible(m, None, 54.0)
        assert not feasible(m, None, 53.9)


class TestRecommend:
    def test_min_area_feasible_front_point_wins(self):
        points = [
            metrics(0, 132.0, (50.0, 10.0, 90.0)),
            metrics(1, 54.0, (300.0, 200.0, 400.0)),
            metrics(2, 20.0, (900.0, 700.0, 1100.0)),
        ]
        chosen, best = recommend(points, front_of(points),
                                 fit_budget=500.0)
        assert chosen == 1  # index 2 violates FIT, 1 is smaller than 0
        assert best == {"min_fit_hi": 90.0, "min_area_kib": 20.0}

    def test_infeasible_returns_none_with_best_numbers(self):
        points = [metrics(0, 54.0, (300.0, 200.0, 400.0))]
        chosen, best = recommend(points, front_of(points),
                                 fit_budget=100.0)
        assert chosen is None
        assert best["min_fit_hi"] == 400.0

    def test_area_ties_break_on_fit_then_label(self):
        points = [
            metrics(1, 54.0, (300.0, 200.0, 400.0)),
            metrics(0, 54.0, (250.0, 150.0, 350.0)),
        ]
        chosen, _ = recommend(points, front_of(points), area_budget=60.0)
        assert chosen == 1  # same area, lower FIT point estimate

    def test_feasible_point_implies_feasible_front_choice(self):
        # Index 1 is feasible but dominated by 0; the recommendation
        # must still succeed (on the dominator), per the docstring's
        # conservative-rule consequence.
        points = [
            metrics(0, 54.0, (100.0, 50.0, 150.0)),
            metrics(1, 60.0, (300.0, 200.0, 400.0)),
        ]
        front = front_of(points)
        assert front == [0]
        chosen, _ = recommend(points, front, fit_budget=400.0)
        assert chosen == 0

    def test_empty_metrics(self):
        chosen, best = recommend([], [], fit_budget=1.0)
        assert chosen is None and best == {}


GOLDEN_FLAGS = [
    "recommend",
    "--benchmarks", "mesa",
    "--schemes", "non-uniform", "uniform-ecc", "parity-only",
    "--codecs", "secded",
    "--intervals", "256K",
    "--objectives", "area", "fit",
    "--trials", "200",
    "--trials-per-shard", "100",
    "--refs", "4000",
    "--warmup", "1000",
    "--seed", "0",
    "--fit-budget", "3000",
    "--area-budget", "100",
]

GOLDEN = """\
budgets: FIT ≤ 3000 (95% upper bound), area ≤ 100 KiB
Recommended design points
benchmark  recommended point   area KiB  FIT
---------  ------------------  --------  ---------------
mesa       parity-only/secded  20.0      685.0 (≤1078.8)

mesa: Pareto front over area, fit (* = non-dominated, CI-aware)
   design point             area  fit
-  -----------------------  ----  ------------------
*  non-uniform/secded/256K  54    344.2 [175.6, 662]
*  uniform-ecc/secded       132   0 [0, 177.9]
*  parity-only/secded       20    685 [426.8, 1079]

grid: 3 points (3 executed, 0 cached)
"""


def test_golden_recommend_table(tmp_path):
    """The pinned grid's rendering, numbers and all.

    Compared line by line with trailing padding stripped (the table
    renderer right-pads cells); everything else must match exactly.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(GOLDEN_FLAGS + ["--cache-dir", str(tmp_path)])
    assert rc == 0
    got = [line.rstrip() for line in out.getvalue().splitlines()]
    assert got == GOLDEN.splitlines()
