"""Fast tests of the benchmark itself: metric names, checks, instrumentation.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from frontlab import kernels, local_solver, nonlocal_solver, problem, runio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names_units(entries):
    return [(m["name"], m["unit"]) for m in entries]


def test_metric_names_and_units_match_benchmark_json():
    assert list(run.END_TO_END) == _names_units(SPEC["end_to_end"])
    assert list(tracing.LAYER_METRICS) == _names_units(SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_result_line_prints_every_metric_with_its_unit():
    values = {name: 1.5 for name, _ in tracing.LAYER_METRICS}
    line = json.loads(run.result_line(True, 9, 0, values, tracing.LAYER_METRICS))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(tracing.LAYER_METRICS)


def test_layer_metrics_cover_the_per_layer_list():
    values = tracing.layer_metrics({}, ["round0"], 0.3, [2.0], [1.5])
    assert set(values) == {name for name, _ in tracing.LAYER_METRICS}
    assert values["trace.overhead_s"] == pytest.approx(0.5)


def test_sweep_checks_reject_a_rising_error():
    eps = [0.2, 0.1, 0.05]
    assert checks.strictly_decreasing([0.06, 0.04, 0.025])
    assert not checks.strictly_decreasing([0.06, 0.04, 0.05])
    assert checks.positive_rate(eps, [0.06, 0.04, 0.025])
    assert not checks.positive_rate(eps, [0.025, 0.04, 0.06])
    assert not checks.positive_rate(eps, [0.06, 0.059, 0.058])  # rate below 0.25
    assert not checks.positive_rate(eps, [0.06, 0.01, 0.008])  # poor fit
    assert not checks.positive_rate(eps, [0.06, float("nan"), 0.02])


def test_loglog_fit_recovers_a_power_law():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    rate, r2 = checks.loglog_fit(eps, 3.0 * eps**0.6)
    assert rate == pytest.approx(0.6)
    assert r2 == pytest.approx(1.0)


def test_front_checks_reject_asymmetry_and_retreat():
    h = np.array([1.0, 1.1, 1.2])
    assert checks.symmetric_fronts(-h, h)
    g = -h.copy()
    g[1] = np.nextafter(g[1], 0.0)  # one ulp off
    assert not checks.symmetric_fronts(g, h)
    assert checks.fronts_never_retreat(-h, h)
    assert not checks.fronts_never_retreat(-h, np.array([1.0, 1.2, 1.1]))
    assert not checks.fronts_never_retreat(np.array([-1.0, -1.2, -1.1]), h)


def test_value_and_order_checks_reject_doctored_arrays():
    assert checks.within([0.0, 0.5, 1.0], 0.0, 1.0)
    assert not checks.within([0.0, -1e-12, 1.0], 0.0, 1.0)
    assert not checks.within([0.0, 1.0 + 1e-12], 0.0, 1.0)
    assert checks.ordered([1.0, 1.1], [1.0, 1.2], [1.0, 1.3])
    assert not checks.ordered([1.0, 1.25], [1.0, 1.2], [1.0, 1.3])
    assert not checks.ordered([1.0], [1.0, 1.2], [1.0, 1.3])


def test_stefan_mass_defect_is_zero_for_an_exact_ledger():
    x = np.linspace(-1.0, 1.0, 2001)
    v = 1.0 - x * x
    mass0 = checks.trapezoid(x, v)
    assert mass0 == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert checks.stefan_mass_defect(x, v, -1.0, 1.0, 1.0, 1.0, 1.0, mass0) == 0.0
    assert checks.stefan_mass_defect(x, v, -1.1, 1.0, 1.0, 1.0, 1.0, mass0) > 1e-3


def _write_tree(out, sweep_rows, fronts_h):
    class Track:
        def __init__(self, h):
            self.boundary_times = np.linspace(0.0, 0.25, len(h))
            self.boundary_h = np.asarray(h, dtype=float)
            self.boundary_g = -self.boundary_h

    runio.write_sweep_csv(sweep_rows, out / "sweep.csv")
    for name, h in fronts_h.items():
        runio.write_boundary_csv(Track(h), out / name / "boundary.csv")


def test_converge_check_flags_a_doctored_sweep_tree(tmp_path):
    wl = workloads.ConvergeStefan()
    wl.setup(ROOT, tmp_path)
    good_h = {"reference": [1.0, 1.1, 1.2]}
    good_h.update({f"eps_{e:g}": [1.0, 1.1, 1.2] for e in workloads.CONVERGE_EPS})
    good = [(0.2, 0.06, 0.04, 0.04), (0.1, 0.04, 0.03, 0.03), (0.05, 0.025, 0.02, 0.02)]

    out = tmp_path / "good"
    _write_tree(out, good, good_h)
    assert all(ok for _, ok in wl.check(out))

    bad = [(0.2, 0.06, 0.04, 0.04), (0.1, 0.07, 0.03, 0.03), (0.05, 0.025, 0.02, 0.02)]
    bad_h = dict(good_h, reference=[1.0, 1.2, 1.1])
    out = tmp_path / "bad"
    _write_tree(out, bad, bad_h)
    failed = {label for label, ok in wl.check(out) if not ok}
    assert "sup error decreases" in failed
    assert "reference: fronts advance" in failed
    assert all(ok is False for _, ok in wl.check(tmp_path / "missing"))
    assert all(ok is False for _, ok in wl.check(tmp_path / "good", ok=False))


def _tiny_local(vconf, preset):
    knobs = local_solver.preset_knobs(preset, 0.05, 0.4)
    return local_solver.solve(vconf, knobs, n_cells=32, dt=1e-3)


def test_sandwich_check_flags_swapped_bounds_and_negative_values(tmp_path):
    wl = workloads.SandwichLocal()
    wl.setup(ROOT, tmp_path)
    wl.vconf = problem.validate(problem.symmetric_stefan(T=0.02))
    sols = {"i1": _tiny_local(wl.vconf, "i1"), "i2": _tiny_local(wl.vconf, "i2"),
            "plain": _tiny_local(wl.vconf, "none")}
    report_ok = type("Report", (), {"ok": True})()
    results = dict(wl.check(sols, report_ok))
    assert results["h_i2 <= h <= h_i1"] and results["g_i1 <= g <= g_i2"]
    assert results["plain: symmetric fronts"] and results["plain: values >= 0"]

    swapped = dict(sols, i1=sols["i2"], i2=sols["i1"])
    results = dict(wl.check(swapped, report_ok))
    assert not results["h_i2 <= h <= h_i1"]
    assert not results["g_i1 <= g <= g_i2"]

    sols["plain"].snapshots[-1].values[3] = -1e-9
    sols["plain"].boundary_g[-1] -= 1e-12
    results = dict(wl.check(sols, report_ok))
    assert not results["plain: values >= 0"]
    assert not results["plain: symmetric fronts"]


def test_fisher_check_flags_values_above_the_cap(tmp_path):
    wl = workloads.NonlocalFisher()
    wl.setup(ROOT, tmp_path)
    wl.vconf = problem.validate(problem.fisher_kpp_config(T=0.01))
    sol = nonlocal_solver.solve(wl.vconf, wl.kernel, eps=0.2)
    assert all(ok for _, ok in wl.check({"modified": sol}))
    sol.snapshots[-1].values[len(sol.snapshots[-1].values) // 2] = 1.0 + 1e-9
    failed = [label for label, ok in wl.check({"modified": sol}) if not ok]
    assert failed == ["modified: values in [0, 1]"]


def test_active_node_counts_match_the_solver_mask():
    vconf = problem.validate(problem.fisher_kpp_config(T=0.05))
    kernel = kernels.KernelSpec("epanechnikov")
    sol = nonlocal_solver.solve(vconf, kernel, eps=0.1, dx=0.1 / 12)
    for state in sol.snapshots:
        expected = int(np.count_nonzero(state.active_mask()))
        assert tracing.active_node_counts([state.g], [state.h], state.dx)[0] == expected
    assert tracing.active_node_counts([-0.25], [0.25], 0.125)[0] == 3  # ends excluded


def test_tracer_patches_every_namespace_and_restores_them():
    originals = {
        mod: mod.eval_reaction for mod in (problem, local_solver, nonlocal_solver)
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(mod.eval_reaction is not fn for mod, fn in originals.items())
        tracer.phase = "round0"
        vconf = problem.validate(problem.symmetric_stefan(T=0.01))
        local_solver.solve(vconf, n_cells=32, dt=1e-3)
    finally:
        tracer.uninstall()
    assert all(mod.eval_reaction is fn for mod, fn in originals.items())
    totals = tracer.phase_totals()["round0"]
    assert totals["local_solver.step.calls"] == 10
    assert totals["problem.eval_reaction.calls"] == 20
    assert totals["local_solver.step.self_s"] <= totals["local_solver.step.s"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sandwich-local", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
