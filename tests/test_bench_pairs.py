"""The summary of scripts/bench_pairs.py on synthetic pairs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "node_steps_per_s": "higher"}


def side(wall, rate, attempted=10, failed=0):
    return {"wall_s": wall, "node_steps_per_s": rate, "attempted": attempted, "failed": failed}


def synthetic_pairs():
    walls = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (1.4, 1.0), (0.9, 1.3)]
    pairs = [
        {"workload": "w", "seed": i, "first": "parent",
         "parent": side(p, 1.0 / p), "change": side(c, 1.0 / c, failed=i % 2)}
        for i, (p, c) in enumerate(walls)
    ]
    pairs.append({"workload": "other", "seed": 9, "first": "change",
                  "parent": side(2.0, 0.5), "change": side(2.0, 0.5)})
    pairs.append({"workload": "other", "seed": 10, "first": "parent",
                  "parent": side(2.0, 0.5), "change": side(2.2, 0.4)})
    return pairs


def test_summary_medians_quartiles_wins_and_failures():
    summary = bench_pairs.summarize(synthetic_pairs(), BETTER)
    assert list(summary) == ["w", "other"]
    w = summary["w"]
    assert w["pairs"] == 5
    wall = w["wall_s"]
    # Parent 0.9, 1.0, 1.1, 1.2, 1.4; change 0.8, 0.9, 1.0, 1.1, 1.3.
    assert wall["parent"] == pytest.approx({"median": 1.1, "q1": 1.0, "q3": 1.2})
    assert wall["change"] == pytest.approx({"median": 1.0, "q1": 0.9, "q3": 1.1})
    assert wall["parent_quartile_spread"] == pytest.approx(0.2)
    assert wall["median_change"] == pytest.approx(1.0 / 1.1 - 1.0)
    # Lower wins for wall_s: pairs 0, 1 and 3; pair 2 is a tie, pair 4 a loss.
    assert wall["change_wins"] == 3
    # Higher wins for the rate, the same pairs.
    assert w["node_steps_per_s"]["change_wins"] == 3
    assert w["failed_ops"] == {"parent": 0, "change": 2}
    assert w["attempted_ops"] == {"parent": 50, "change": 50}
    other = summary["other"]
    assert other["pairs"] == 2
    assert other["wall_s"]["change_wins"] == 0
    assert other["node_steps_per_s"]["change_wins"] == 0


def test_metric_directions_come_from_the_benchmark_declaration():
    benchmark = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                                {"name": "node_steps_per_s", "better": "higher"}]}
    assert bench_pairs.end_to_end_metrics(benchmark) == BETTER


@pytest.mark.parametrize("bad", ["sandwich-local", "=3", "w=0", "w=x"])
def test_plan_rejects_malformed_entries(bad):
    with pytest.raises(SystemExit):
        bench_pairs.parse_plan([bad])


def test_plan_keeps_order_and_counts():
    assert bench_pairs.parse_plan(["a=10", "b=3"]) == [("a", 10), ("b", 3)]


def solve_side(wall, rss, failed=0):
    return {"wall_s": wall, "peak_rss_mb": rss, "attempted": 1, "failed": failed}


def test_solve_summary_of_wall_time_and_peak_rss():
    rows = [{"workload": "solve-local", "first": "parent",
             "parent": solve_side(p, 60.0 + i), "change": solve_side(c, 37.0, failed=int(c > 3.0))}
            for i, (p, c) in enumerate([(2.8, 2.6), (2.9, 2.7), (2.7, 3.1)])]
    rows.append({"workload": "solve-nonlocal", "first": "change",
                 "parent": solve_side(1.2, 32.4), "change": solve_side(1.1, 32.4)})
    summary = bench_pairs.summarize(rows, bench_pairs.SOLVE_METRICS)
    assert list(summary) == ["solve-local", "solve-nonlocal"]
    local = summary["solve-local"]
    assert local["wall_s"]["change_wins"] == 2
    assert local["wall_s"]["parent"] == pytest.approx({"median": 2.8, "q1": 2.75, "q3": 2.85})
    assert local["peak_rss_mb"]["change_wins"] == 3
    assert local["peak_rss_mb"]["median_change"] == pytest.approx(37.0 / 61.0 - 1.0)
    assert local["failed_ops"] == {"parent": 0, "change": 1}
    assert local["attempted_ops"] == {"parent": 3, "change": 3}
    # One pair: its values are the median and both quartiles; equal RSS is a tie.
    single = summary["solve-nonlocal"]
    assert single["wall_s"]["change"] == {"median": 1.1, "q1": 1.1, "q3": 1.1}
    assert single["wall_s"]["parent_quartile_spread"] == 0.0
    assert single["peak_rss_mb"]["change_wins"] == 0
