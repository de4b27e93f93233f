"""The arithmetic of ``scripts/perf_pairs.py`` on canned result lines.

No perfbench run happens here: each pair is two ``perfbench/run.py``
stdouts written by hand, and the bounds are the shape of
``BENCHMARK.json``'s ``end_to_end`` list.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

BOUNDS = {
    "pass_loops": ("lower", 0.25),
    "throughput_per_loop": ("higher", 0.25),
}


def stdout(pass_loops, throughput, failed=0, attempted=10):
    """A perfbench stdout: report lines, then the JSON result line."""
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "pass_loops": {"value": pass_loops, "unit": "loops"},
            "throughput_per_loop": {"value": throughput, "unit": "1/loop"},
        },
    }
    return (
        "perfbench ipc seed=1 trace=0 passes=3\n"
        "  pass_loops  1 loops n=3\n\n"
        + json.dumps(result) + "\n"
    )


def pair(base, head):
    return (
        perf_pairs.parse_result(stdout(*base)),
        perf_pairs.parse_result(stdout(*head)),
    )


def test_parse_reads_the_last_line():
    result = perf_pairs.parse_result(stdout(423.6, 1771.0))
    assert perf_pairs.metric_values(result) == {
        "pass_loops": 423.6, "throughput_per_loop": 1771.0,
    }


def test_parse_rejects_a_run_without_a_result():
    with pytest.raises(ValueError):
        perf_pairs.parse_result("")
    with pytest.raises(ValueError):
        perf_pairs.parse_result('{"correct": true}\n')


def test_medians_and_the_median_ratio():
    """Sides' medians and the median of the per-pair ratios (not the
    ratio of the medians)."""
    pairs = [
        pair((400.0, 10.0), (300.0, 10.0)),   # ratio 0.75
        pair((100.0, 10.0), (90.0, 12.0)),    # ratio 0.90
        pair((200.0, 10.0), (190.0, 11.0)),   # ratio 0.95
    ]
    rows, problems = perf_pairs.summarise(pairs, BOUNDS)
    assert problems == []
    by_name = {row[0]: row[1:] for row in rows}
    base_mid, head_mid, spread, wins, mid, worse = by_name["pass_loops"]
    assert (base_mid, head_mid) == (200.0, 190.0)
    assert spread == pytest.approx(300.0)  # quartiles 100 and 400
    assert wins == 3
    assert mid == pytest.approx(0.90)
    assert not worse
    # Throughput ties in the first pair: it wins for neither side.
    assert by_name["throughput_per_loop"][3] == 2
    assert by_name["throughput_per_loop"][4] == pytest.approx(1.1)


def test_a_lower_is_better_metric_past_its_bound_fails():
    pairs = [
        pair((100.0, 10.0), (130.0, 10.0)),
        pair((100.0, 10.0), (126.0, 10.0)),
    ]
    rows, problems = perf_pairs.summarise(pairs, BOUNDS)
    assert [row[0] for row in rows if row[-1]] == ["pass_loops"]
    assert len(problems) == 1 and problems[0].startswith("pass_loops")


def test_a_higher_is_better_metric_past_its_bound_fails():
    pairs = [pair((100.0, 10.0), (100.0, 7.0))]
    _, problems = perf_pairs.summarise(pairs, BOUNDS)
    assert len(problems) == 1 and "throughput_per_loop" in problems[0]


def test_exactly_at_the_bound_passes():
    assert not perf_pairs.worse_than_bound("lower", 0.25, 1.25)
    assert not perf_pairs.worse_than_bound("higher", 0.25, 0.75)
    assert perf_pairs.worse_than_bound("lower", 0.25, 1.2501)
    assert perf_pairs.worse_than_bound("higher", 0.25, 0.7499)


def test_a_larger_failed_share_fails():
    pairs = [pair((100.0, 10.0, 0), (100.0, 10.0, 1))]
    _, problems = perf_pairs.summarise(pairs, BOUNDS)
    assert len(problems) == 1 and "failed share" in problems[0]
    same = [pair((100.0, 10.0, 1), (100.0, 10.0, 1))]
    assert perf_pairs.summarise(same, BOUNDS)[1] == []


def test_quartile_spread():
    assert perf_pairs.quartile_spread([5.0]) == 0.0
    assert perf_pairs.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0


def test_zero_over_zero_is_no_change():
    assert perf_pairs.ratio(0.0, 0.0) == 1.0
    assert perf_pairs.ratio(1.0, 0.0) == float("inf")


def test_bounds_come_from_benchmark_json():
    bounds = perf_pairs.load_bounds(_SCRIPT.parents[1])
    assert bounds["pass_loops"] == ("lower", 0.25)
    assert bounds["throughput_per_loop"][0] == "higher"
