"""frontlab benchmark: one workload per fresh process, one JSON result line.

    python3 bench/run.py --workload converge-stefan --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The process sets up, then runs whole rounds of the workload until
the next round would end after ``--seconds`` (at least one round).  Before
each round it times one fresh set-up process; ``setup_s`` is their median.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` every
other round runs with each layer wrapped and it prints the per-layer metrics
of the traced rounds, with the tracing overhead measured against the untraced
ones.  The last stdout line is the result.
"""

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5  # at least; one more runs before each round
WORKLOAD_NAMES = ("converge-stefan", "sandwich-local", "nonlocal-fisher")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("node_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="accepted; inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str) -> tuple[float, float]:
    """Spawn-to-ready seconds of a fresh set-up process, and its import time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        try:
            status = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if status != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed with status {status}")
    return ready, float(json.loads(line)["import_s"])


@dataclass
class Round:
    wall: float  # the workload's timed section
    round_s: float  # the whole round, checks included
    solve_s: float  # inside local/nonlocal solve calls
    node_steps: int
    results: list  # (label, ok) per operation attempted
    traced: bool


def timed_round(workload, out: Path, traced: bool) -> Round:
    """One round with the solve meter on; failed checks are reported on stderr."""
    meter = tracing.SolveMeter()
    meter.install()
    t0 = time.perf_counter()
    try:
        wall, results = workload.run_round(out)
    finally:
        meter.uninstall()
    round_s = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    for label, ok in results:
        if not ok:
            print(f"check failed: {label}", file=sys.stderr)
    return Round(wall, round_s, meter.seconds, meter.node_steps, results, traced)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }
    )


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "frontlab" / "__init__.py").is_file():
        print(f"error: no frontlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    run_root = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    run_root.mkdir(parents=True, exist_ok=True)
    rounds, probes = [], []
    try:
        if tracer:
            tracer.install()
        workload.setup(ROOT, run_root)
        if tracer:
            tracer.uninstall()
        budget_start = time.perf_counter()
        while True:
            # Set-up probes run between rounds, so they sample the machine
            # over the same window as the rounds.
            probes.append(probe_setup(args.workload))
            # A traced run alternates untraced and traced rounds; the
            # difference between the two is the tracing overhead.
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.phase = f"round{len(rounds)}"
                tracer.install()
            try:
                rounds.append(timed_round(workload, run_root / f"round{len(rounds)}", traced))
            finally:
                if traced:
                    tracer.uninstall()
            enough = tracer is None or len(rounds) >= 2
            if enough and time.perf_counter() - budget_start + rounds[-1].round_s > args.seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(run_root, ignore_errors=True)

    setup_s = statistics.median(p[0] for p in probes)
    import_s = statistics.median(p[1] for p in probes)
    results = [r for rnd in rounds for r in rnd.results]
    failed = sum(1 for _, ok in results if not ok)
    untraced = [r for r in rounds if not r.traced]
    print("round wall_s: " + " ".join(f"{r.wall:.4f}" for r in rounds), file=sys.stderr)
    if tracer:
        totals = tracer.phase_totals()
        (ROOT / ".bench_runs").mkdir(exist_ok=True)
        tracer.write_spans(ROOT / ".bench_runs" / f"spans-{args.workload}.csv.gz")
        phases = [f"round{k}" for k, r in enumerate(rounds) if r.traced]
        traced_walls = [r.wall for r in rounds if r.traced]
        metrics = tracing.layer_metrics(
            totals, phases, import_s, traced_walls, [r.wall for r in untraced]
        )
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.fmean(r.wall for r in untraced),
            "node_steps_per_s": sum(r.node_steps for r in untraced)
            / sum(r.solve_s for r in untraced),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    print(result_line(failed == 0, len(results), failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
