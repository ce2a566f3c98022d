#!/usr/bin/env python3
"""Alternated parent/change pairs of ``bench/run.py``, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --out BENCH_14.json --seed 1401 sandwich-local=10 converge-stefan=3 --solves 10

Each positional argument names a workload and how many pairs to run.  A pair
runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once
in each source tree, with T the ``run_seconds`` of ``BENCHMARK.json``, the
parent first in even pairs and the change first in odd ones; seeds count up
from ``--seed`` over all pairs.  ``--traced W`` adds one pair with
``--trace 1`` (per-layer metrics), and ``--tier1`` times the tier-1 test
suite once in each tree, after the pairs.  ``--solves N`` runs N
alternated pairs of each single solve in ``SOLVES``, one fresh
``python -m frontlab solve`` process per side, and records each child's wall
time and peak RSS (from ``os.wait4``, which reports that child alone).  The
output holds host facts, every pair's end-to-end metrics and, per workload
or solve, each metric's median and quartiles on both sides, the pairs the
change won, a verdict (gain, regression, unresolved or no regression) and
the failed and attempted operations.  Metric names, their better direction
and their bounds come from ``BENCHMARK.json``; a solve's wall time and peak
RSS take the bounds of the workload metrics of the same names.  Standard
library only: the host facts read numpy's LAPACK in a child process.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# name -> frontlab solve arguments (without --out): the single solves of the
# ROADMAP's performance aim.
SOLVES = {
    "solve-local": ["--config", "configs/stefan.cfg", "--solver", "local",
                    "--nx", "2048", "--dt", "1e-4"],
    "solve-nonlocal": ["--config", "configs/stefan.cfg", "--solver", "nonlocal", "--eps", "0.05"],
}
SOLVE_METRICS = {"wall_s": "lower", "peak_rss_mb": "lower"}


def end_to_end_metrics(benchmark: dict) -> dict[str, str]:
    """Name -> "lower" or "higher" for each end-to-end metric of BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def end_to_end_bounds(benchmark: dict) -> dict[str, float]:
    """Name -> the relative bound of each end-to-end metric of BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; one value is all three (quantiles needs two)."""
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4,
                                          method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    """One metric on alternated pairs (parent[i], change[i]): both sides'
    median and quartiles, the pairs the change won (ties count for neither),
    the relative change of the median, the parent's quartile spread and a
    verdict, given the metric's relative bound:

    - "gain": the change wins at least 9 of 10 pairs and its median is
      better by more than the parent's quartile spread;
    - "regression": its median is worse than the parent's by more than
      ``bound`` of the parent's median;
    - "unresolved": the parent's quartile spread exceeds ``bound`` of its
      median and not every change run beats every parent run;
    - "no regression": any other case.
    """
    sign = 1.0 if direction == "higher" else -1.0
    stats = {"parent": quartiles(parent), "change": quartiles(change)}
    median = {side: stats[side]["median"] for side in SIDES}
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    better_by = sign * (median["change"] - median["parent"])
    if wins >= 0.9 * len(parent) and better_by > spread:
        verdict = "gain"
    elif better_by < -bound * abs(median["parent"]):
        verdict = "regression"
    elif spread > bound * abs(median["parent"]) and not all(
            sign * (c - p) > 0.0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        **stats,
        "change_wins": wins,
        "median_change": median["change"] / median["parent"] - 1.0,
        "parent_quartile_spread": spread,
        "verdict": verdict,
    }


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload: :func:`compare` for each metric, with its bound from
    ``bounds``; failed and attempted operations summed per side."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {"pairs": len(runs)}
        for name, direction in better.items():
            entry[name] = compare([p["parent"][name] for p in runs],
                                  [p["change"][name] for p in runs], direction, bounds[name])
        for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
            entry[key] = {side: sum(p[side][field] for p in runs) for side in SIDES}
        summary[workload] = entry
    return summary


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` process in tree; its metrics plus the operation counts."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row["attempted"] = result["attempted"]
    row["failed"] = result["failed"]
    return row


def run_solve(tree: Path, name: str) -> dict:
    """One fresh ``python -m frontlab solve`` process in tree: its wall time,
    its own peak RSS and whether it failed (a nonzero exit)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory(prefix="bench_solve_") as out:
        cmd = [sys.executable, "-m", "frontlab", "solve", *SOLVES[name], "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
            "attempted": 1, "failed": int(proc.returncode != 0)}


def run_solve_pairs(trees: dict[str, Path], count: int) -> list[dict]:
    """count alternated pairs of every solve in SOLVES, parent first in even pairs."""
    pairs = []
    for name in SOLVES:
        for i in range(count):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": name, "first": order[0]}
            for side in order:
                pair[side] = run_solve(trees[side], name)
            print(json.dumps(pair), file=sys.stderr)
            pairs.append(pair)
    return pairs


def parse_pytest_summary(line: str) -> dict:
    """The passed, failed and error counts and the seconds of a pytest
    summary line such as "3 failed, 338 passed, 1 error in 40.12s"; a count
    the line does not name is 0, and missing seconds are None."""
    counts = {key: re.search(rf"(\d+) {word}\b", line)
              for key, word in (("passed", "passed"), ("failed", "failed"),
                                ("errors", "errors?"))}
    took = re.search(r"in ([\d.]+)s", line)
    return {
        "pytest_s": float(took.group(1)) if took else None,
        **{key: int(m.group(1)) if m else 0 for key, m in counts.items()},
    }


def run_tier1(tree: Path) -> dict:
    """Wall time, pytest's exit status, own time and pass, fail and error
    counts of the tier-1 suite in tree."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {
        "wall_s": round(wall, 2),
        "exit_status": proc.returncode,
        **parse_pytest_summary(last),
        "summary": last,
    }


# Prints the name and version of the LAPACK numpy was built against, which
# the local solver calls.
LAPACK_PROBE = ("import numpy; lapack = numpy.__config__.CONFIG['Build Dependencies']['lapack']; "
                "print(lapack['name'], lapack['version'])")


def numpy_lapack() -> str | None:
    """numpy's LAPACK as "name version", read in a child process so that this
    script imports no numpy; None when the child fails."""
    proc = subprocess.run([sys.executable, "-c", LAPACK_PROBE], capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def host_facts() -> dict:
    facts = {"cores": os.cpu_count(), "machine": platform.machine(),
             "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    facts["numpy_lapack"] = numpy_lapack()
    return facts


def parse_plan(items: list[str]) -> list[tuple[str, int]]:
    plan = []
    for item in items:
        workload, _, count = item.partition("=")
        if not workload or not count.isdigit() or int(count) < 1:
            raise SystemExit(f"expected WORKLOAD=PAIRS, got {item!r}")
        plan.append((workload, int(count)))
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", nargs="*", help="WORKLOAD=PAIRS, e.g. sandwich-local=10")
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--parent-label", default=None, help="default: the tree's name")
    parser.add_argument("--change-label", default=None, help="default: the tree's name")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--traced", default=None, help="workload of one traced pair")
    parser.add_argument("--tier1", action="store_true", help="time the tier-1 suite once per tree")
    parser.add_argument("--solves", type=int, default=0, metavar="N",
                        help="alternated pairs of each single solve")
    args = parser.parse_args(argv)
    plan = parse_plan(args.plan)
    if args.solves < 0 or not (plan or args.solves):
        parser.error("give WORKLOAD=PAIRS items, a positive --solves, or both")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better, bounds = end_to_end_metrics(benchmark), end_to_end_bounds(benchmark)
    seconds = benchmark["run_seconds"]

    seed = args.seed
    pairs = []
    for workload, count in plan:
        for i in range(count):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, seed, seconds, 0)
            print(json.dumps(pair), file=sys.stderr)
            pairs.append(pair)
            seed += 1

    record = {
        "what": "Alternated parent/change pairs of `python3 bench/run.py --workload W "
        f"--seed N --seconds {seconds:g} --trace 0`, each side run in its own source "
        f"tree, seeds {args.seed}-{seed - 1}",
        "parent": args.parent_label or trees["parent"].name,
        "change": args.change_label or trees["change"].name,
        "host": host_facts(),
        "summary": summarize(pairs, better, bounds),
        "pairs": pairs,
    }
    if args.traced:
        traced = {"workload": args.traced, "seed": seed}
        for side in SIDES:
            traced[side] = run_bench(trees[side], args.traced, seed, seconds, 1)
        record["traced_pair"] = traced
    if args.solves:
        solve_pairs = run_solve_pairs(trees, args.solves)
        record["solves"] = {
            "what": f"{args.solves} alternated pairs per solve of a fresh `python -m frontlab "
            "solve` process in each tree; wall time and the child's own peak RSS (os.wait4)",
            "commands": {name: "frontlab solve " + " ".join(a) for name, a in SOLVES.items()},
            "summary": summarize(solve_pairs, SOLVE_METRICS, bounds),
            "pairs": solve_pairs,
        }
    if args.tier1:
        record["tier1"] = {
            "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "runs": "one each, parent first, back to back, after the benchmark pairs",
            **{side: run_tier1(trees[side]) for side in SIDES},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
