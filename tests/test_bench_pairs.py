"""The summary of scripts/bench_pairs.py on synthetic pairs; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "node_steps_per_s": "higher"}
BOUNDS = {"wall_s": 0.25, "node_steps_per_s": 0.25}


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
    summary = bench_pairs.summarize(synthetic_pairs(), BETTER, BOUNDS)
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
    # 3 of 5 wins is no gain, and the median is better, so no regression.
    assert wall["verdict"] == "no regression"
    # The "other" rate is 10% worse in the median, inside its 25% bound.
    assert other["node_steps_per_s"]["verdict"] == "no regression"


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 103.0, 97.0, 100.0]


@pytest.mark.parametrize("change, direction, expected", [
    # Every pair won, the median 15% better against a 2% spread.
    ([p * 1.15 for p in PARENT], "higher", "gain"),
    ([p * 0.85 for p in PARENT], "lower", "gain"),
    # Nine of ten pairs won still counts.
    ([p * 1.15 for p in PARENT[:9]] + [PARENT[9] * 0.99], "higher", "gain"),
    # Eight of ten is no gain; the median is better, so no regression.
    ([p * 1.15 for p in PARENT[:8]] + [p * 0.99 for p in PARENT[8:]], "higher", "no regression"),
    # Worse by 30% against a 25% bound, in either direction.
    ([p * 0.7 for p in PARENT], "higher", "regression"),
    ([p * 1.3 for p in PARENT], "lower", "regression"),
    # Worse by 20%: within the bound.
    ([p * 1.2 for p in PARENT], "lower", "no regression"),
])
def test_verdict_on_synthetic_pairs(change, direction, expected):
    assert bench_pairs.compare(PARENT, change, direction, 0.25)["verdict"] == expected


def test_verdict_unresolved_only_when_the_parent_spreads_past_the_bound():
    # Parent quartiles 1.0 and 2.0 about a median of 1.5: a spread of 67%.
    parent = [1.0, 2.0] * 5
    assert bench_pairs.compare(parent, [1.4, 1.9] * 5, "lower", 0.25)["verdict"] == "unresolved"
    # Every change run below every parent run: resolved although no gain.
    assert bench_pairs.compare(parent, [0.9] * 10, "lower", 0.25)["verdict"] == "no regression"
    # A bound wider than the spread: no regression.
    assert bench_pairs.compare(parent, [1.4, 1.9] * 5, "lower", 1.0)["verdict"] == "no regression"
    # A regression beyond the bound is named as such even then.
    assert bench_pairs.compare(parent, [3.0] * 10, "lower", 0.25)["verdict"] == "regression"


def test_metric_directions_come_from_the_benchmark_declaration():
    benchmark = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                                {"name": "node_steps_per_s", "better": "higher", "bound": 0.1}]}
    assert bench_pairs.end_to_end_metrics(benchmark) == BETTER
    assert bench_pairs.end_to_end_bounds(benchmark) == {"wall_s": 0.25, "node_steps_per_s": 0.1}


@pytest.mark.parametrize("bad", ["sandwich-local", "=3", "w=0", "w=x"])
def test_plan_rejects_malformed_entries(bad):
    with pytest.raises(SystemExit):
        bench_pairs.parse_plan([bad])


def test_plan_keeps_order_and_counts():
    assert bench_pairs.parse_plan(["a=10", "b=3"]) == [("a", 10), ("b", 3)]


def test_run_seconds_come_from_the_benchmark_declaration(monkeypatch, tmp_path):
    # Every pair, the traced one too, runs as long as the benchmark does.
    benchmark = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    run_seconds = benchmark["run_seconds"]
    asked = []

    def fake_run_bench(tree, workload, seed, seconds, trace):
        asked.append(seconds)
        return {**dict.fromkeys(bench_pairs.end_to_end_metrics(benchmark), 1.0),
                "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    monkeypatch.setattr(bench_pairs, "host_facts", dict)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out), "w=2"]
    assert bench_pairs.main(argv + ["--traced", "w"]) == 0
    assert asked == [run_seconds] * 6
    assert f"--seconds {run_seconds:g} --trace 0" in json.loads(out.read_text())["what"]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--seconds", "5"])


def solve_side(wall, rss, failed=0):
    return {"wall_s": wall, "peak_rss_mb": rss, "attempted": 1, "failed": failed}


def test_solve_summary_of_wall_time_and_peak_rss():
    rows = [{"workload": "solve-local", "first": "parent",
             "parent": solve_side(p, 60.0 + i), "change": solve_side(c, 37.0, failed=int(c > 3.0))}
            for i, (p, c) in enumerate([(2.8, 2.6), (2.9, 2.7), (2.7, 3.1)])]
    rows.append({"workload": "solve-nonlocal", "first": "change",
                 "parent": solve_side(1.2, 32.4), "change": solve_side(1.1, 32.4)})
    summary = bench_pairs.summarize(rows, bench_pairs.SOLVE_METRICS,
                                    {"wall_s": 0.25, "peak_rss_mb": 0.05})
    assert list(summary) == ["solve-local", "solve-nonlocal"]
    local = summary["solve-local"]
    assert local["wall_s"]["change_wins"] == 2
    assert local["wall_s"]["parent"] == pytest.approx({"median": 2.8, "q1": 2.75, "q3": 2.85})
    assert local["peak_rss_mb"]["change_wins"] == 3
    assert local["peak_rss_mb"]["median_change"] == pytest.approx(37.0 / 61.0 - 1.0)
    assert local["peak_rss_mb"]["verdict"] == "gain"
    assert local["failed_ops"] == {"parent": 0, "change": 1}
    assert local["attempted_ops"] == {"parent": 3, "change": 3}
    # One pair: its values are the median and both quartiles; equal RSS is a tie.
    single = summary["solve-nonlocal"]
    assert single["wall_s"]["change"] == {"median": 1.1, "q1": 1.1, "q3": 1.1}
    assert single["wall_s"]["parent_quartile_spread"] == 0.0
    assert single["peak_rss_mb"]["change_wins"] == 0


@pytest.mark.parametrize("line, expected", [
    ("3 failed, 338 passed, 1 error in 40.12s",
     {"passed": 338, "failed": 3, "errors": 1, "pytest_s": 40.12}),
    ("341 passed in 51.99s", {"passed": 341, "failed": 0, "errors": 0, "pytest_s": 51.99}),
    ("1 failed, 2 passed, 3 warnings, 2 errors in 3723.00s (1:02:03)",
     {"passed": 2, "failed": 1, "errors": 2, "pytest_s": 3723.0}),
    ("no tests ran in 0.01s", {"passed": 0, "failed": 0, "errors": 0, "pytest_s": 0.01}),
    ("", {"passed": 0, "failed": 0, "errors": 0, "pytest_s": None}),
], ids=["mixed", "all-passed", "warnings-and-errors", "none-ran", "no-summary"])
def test_pytest_summary_counts(line, expected):
    assert bench_pairs.parse_pytest_summary(line) == expected


def test_host_facts_name_numpy_lapack(monkeypatch):
    import numpy

    lapack = numpy.__config__.CONFIG["Build Dependencies"]["lapack"]
    facts = bench_pairs.host_facts()
    assert facts["numpy_lapack"] == f"{lapack['name']} {lapack['version']}"
    monkeypatch.setattr(bench_pairs, "LAPACK_PROBE", "raise SystemExit(1)")
    assert bench_pairs.numpy_lapack() is None
