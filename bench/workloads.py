"""The benchmark's workloads: set-up, one timed round, and its checks.

Every input is a fixed config file from ``configs/`` with no randomness, its
horizon shortened to ``HORIZON``; the benchmark's ``--seed`` therefore selects
nothing.  The shorter horizon keeps a round near three seconds, so one run
holds about ten rounds and reports their median: on a shared 2-core machine
the speed of identical work drifts by tens of percent over tens of seconds,
and one long round per run does not average that out.  A round runs the same
operations every time, so the share of failed operations is the same in every
run.  Each workload class has a ``setup`` that does what a user's process pays
before the first march step (config load and validation, kernel constants,
operator and flux stencils for the workload's eps values) and a ``run_round``
that returns the timed seconds plus ``(label, ok)`` pairs, one per operation
attempted.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

import checks
from frontlab import analysis, cli, kernels, local_solver, nonlocal_solver, problem, runio

KERNEL = "epanechnikov"
HORIZON = 0.25

CONVERGE_EPS = (0.2, 0.1, 0.05)
CONVERGE_REFERENCE_NX = 2048
CONVERGE_REFERENCE_DT = 1e-4
CONVERGE_DX_RATIO = 16.0

SANDWICH_NX = 1024
SANDWICH_DT = 1e-4
SANDWICH_EPS = 0.05
SANDWICH_GAMMA1 = 0.4
SANDWICH_TOL = 1e-6  # acceptance criterion 6, local half

FISHER_EPS = 0.05
FISHER_BETA = 0.5
FISHER_DX_RATIO = 16.0  # the solver's default dx = eps / 16


def _load(root: Path, name: str):
    config = problem.with_horizon(problem.load_config(root / "configs" / name), HORIZON)
    return problem.require_valid(problem.validate(config))


def _warm_nonlocal(kernel, eps_values, dx_ratio: float) -> None:
    """Kernel constants and the cold stencils the solver will look up."""
    kernels.c_star(kernel)
    kernels.c_zero(kernel)
    for eps in eps_values:
        n_sub = int(round(eps / (eps / dx_ratio)))  # as the solver derives it from dx
        nonlocal_solver.operator_stencil(kernel, n_sub)
        nonlocal_solver.flux_weights(kernel, max(2, n_sub))


def _quadratic_bump_mass(vconf) -> float:
    return 4.0 / 3.0 * vconf.initial.V * vconf.h0


class ConvergeStefan:
    """``cli.cmd_converge`` on the Stefan config: the acceptance sweep."""

    name = "converge-stefan"

    def setup(self, root: Path, work: Path) -> None:
        self.vconf = _load(root, "stefan.cfg")
        self.config_path = str(work / "stefan.cfg")  # cmd_converge reads a file
        problem.save_config(self.vconf.config, self.config_path)
        self.kernel = kernels.KernelSpec(KERNEL)
        _warm_nonlocal(self.kernel, CONVERGE_EPS, CONVERGE_DX_RATIO)

    def run_round(self, out: Path):
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            status = cli.cmd_converge(
                config_path=self.config_path,
                eps_list=list(CONVERGE_EPS),
                out_dir=str(out),
                kernel=self.kernel,
                reference_nx=CONVERGE_REFERENCE_NX,
                reference_dt=CONVERGE_REFERENCE_DT,
                dx_ratio=CONVERGE_DX_RATIO,
                jobs=1,
            )
        wall = time.perf_counter() - t0
        n_solves = 1 + len(CONVERGE_EPS)
        results = [("solve", status == 0)] * n_solves
        return wall, results + self.check(out, ok=status == 0)

    def check(self, out: Path, ok: bool = True):
        labels = ["sup error decreases", "g error decreases", "h error decreases",
                  "positive rate", "reference h(T) in (h0, h0 + mass/2)"]
        run_dirs = [out / "reference"] + [out / f"eps_{eps:g}" for eps in CONVERGE_EPS]
        for run_dir in run_dirs:
            labels += [f"{run_dir.name}: symmetric fronts", f"{run_dir.name}: fronts advance"]
        if not ok:
            return [(label, False) for label in labels]
        try:
            sweep = runio.read_sweep_csv(out / "sweep.csv")
            fronts = [runio.read_boundary_csv(d / "boundary.csv") for d in run_dirs]
        except (OSError, ValueError):
            return [(label, False) for label in labels]
        order = np.argsort(-sweep[:, 0])
        sweep = sweep[order]
        v = self.vconf
        h_cap = v.h0 + (v.mu / (2.0 * v.d)) * _quadratic_bump_mass(v)
        h_ref = fronts[0][2][-1]
        results = [checks.strictly_decreasing(sweep[:, col]) for col in (1, 2, 3)]
        results.append(checks.positive_rate(sweep[:, 0], sweep[:, 1]))
        results.append(bool(v.h0 < h_ref < h_cap))
        for _, g, h in fronts:
            results += [checks.symmetric_fronts(g, h), checks.fronts_never_retreat(g, h)]
        return list(zip(labels, results))


class SandwichLocal:
    """Perturbed local runs (i1, i2) around the plain one: criterion 6's local half."""

    name = "sandwich-local"

    def setup(self, root: Path, work: Path) -> None:
        self.vconf = _load(root, "stefan.cfg")
        self.knobs = {
            "i1": local_solver.preset_knobs("i1", SANDWICH_EPS, SANDWICH_GAMMA1),
            "i2": local_solver.preset_knobs("i2", SANDWICH_EPS, SANDWICH_GAMMA1),
            "plain": local_solver.INERT_KNOBS,
        }

    def run_round(self, out: Path):
        t0 = time.perf_counter()
        sols = {
            name: local_solver.solve(self.vconf, knobs, n_cells=SANDWICH_NX, dt=SANDWICH_DT)
            for name, knobs in self.knobs.items()
        }
        report = analysis.sandwich_check(sols["i2"], sols["plain"], sols["i1"], tol=SANDWICH_TOL)
        wall = time.perf_counter() - t0
        return wall, [("solve", True)] * len(sols) + self.check(sols, report)

    def check(self, sols, report):
        lower, mid, upper = sols["i2"], sols["plain"], sols["i1"]
        v = self.vconf
        x, u = mid.snapshot_nodes(len(mid.snapshots) - 1)
        defect = checks.stefan_mass_defect(
            x, u, mid.boundary_g[-1], mid.boundary_h[-1], v.d, v.mu, v.h0,
            _quadratic_bump_mass(v),
        )
        results = [
            ("sandwich_check ok", bool(report.ok)),
            ("h_i2 <= h <= h_i1", checks.ordered(lower.boundary_h, mid.boundary_h, upper.boundary_h)),
            ("g_i1 <= g <= g_i2", checks.ordered(upper.boundary_g, mid.boundary_g, lower.boundary_g)),
            ("plain mass ledger <= 1e-3", defect <= 1e-3),
        ]
        for name, sol in sols.items():
            values = np.concatenate([s.values for s in sol.snapshots])
            results.append((f"{name}: symmetric fronts",
                            checks.symmetric_fronts(sol.boundary_g, sol.boundary_h)))
            results.append((f"{name}: values >= 0", checks.within(values, 0.0, np.inf)))
        return results


class NonlocalFisher:
    """Modified and unmodified flux laws on the Fisher-KPP config."""

    name = "nonlocal-fisher"

    def setup(self, root: Path, work: Path) -> None:
        self.vconf = _load(root, "fisher.cfg")
        self.kernel = kernels.KernelSpec(KERNEL)
        _warm_nonlocal(self.kernel, (FISHER_EPS,), FISHER_DX_RATIO)
        self.variants = {
            "modified": nonlocal_solver.NonlocalVariant("modified", beta=FISHER_BETA),
            "unmodified": nonlocal_solver.NonlocalVariant(
                "unmodified", c1=kernels.c_star(self.kernel)
            ),
        }

    def run_round(self, out: Path):
        t0 = time.perf_counter()
        sols = {
            name: nonlocal_solver.solve(self.vconf, self.kernel, eps=FISHER_EPS, variant=variant)
            for name, variant in self.variants.items()
        }
        rows = analysis.mass_residual(sols["unmodified"], self.vconf, self.vconf.d / self.vconf.mu)
        wall = time.perf_counter() - t0
        results = [("solve", True)] * len(sols)
        results.append(("mass ledger rows finite, zero at t = 0",
                        bool(np.all(np.isfinite(rows)) and rows[0, 1] == 0.0)))
        return wall, results + self.check(sols)

    def check(self, sols):
        reaction = self.vconf.reaction
        cap = max(self.vconf.initial.V, reaction.a / reaction.b)
        results = []
        for name, sol in sols.items():
            values = np.concatenate([s.values for s in sol.snapshots])
            results += [
                (f"{name}: values in [0, {cap:g}]", checks.within(values, 0.0, cap)),
                (f"{name}: symmetric fronts",
                 checks.symmetric_fronts(sol.boundary_g, sol.boundary_h)),
                (f"{name}: fronts advance",
                 checks.fronts_never_retreat(sol.boundary_g, sol.boundary_h)),
            ]
        return results


WORKLOADS = {w.name: w for w in (ConvergeStefan, SandwichLocal, NonlocalFisher)}
