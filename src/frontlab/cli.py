"""Batch entry point: single solves, eps sweeps, and property verification.

Subcommands:

    solve     run one local or nonlocal solve from a config file and write
              boundary/snapshot CSVs plus run metadata
    converge  run a local reference and a family of nonlocal runs across eps,
              writing an (eps, errors) sweep CSV and a fitted rate JSON
    verify    run a named property suite at desk-scale resolutions and print
              a pass/fail table

Exit codes: 0 success, 2 inadmissible input (violations are listed), 3
solver failure (a machine-readable error JSON is written next to the run).
Everything is deterministic; rerunning a manifest reproduces files byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, kernels, local_solver, nonlocal_solver, problem, runio
from .errors import FrontlabError, SolverError

VERIFY_SUITES = ("kernel", "local", "nonlocal", "sandwich", "mass", "all")


@dataclass
class RunManifest:
    config_path: str
    solver: str
    out_dir: str
    preset: str = "none"
    gamma1: float = 0.4
    eps: float = 0.1
    variant: str = "modified"
    beta: float = 0.5
    c1: float | None = None
    kernel: str = "epanechnikov"
    kernel_file: str | None = None
    nx: int = 512
    dx: float | None = None
    dt: float | None = None
    cfl_sigma: float = 0.5
    snapshots: int = 65


def _load_kernel(manifest) -> kernels.KernelSpec:
    if manifest.kernel_file:
        return kernels.from_file(manifest.kernel_file)
    return kernels.KernelSpec(manifest.kernel)


def _variant(manifest) -> nonlocal_solver.NonlocalVariant:
    if manifest.variant == "unmodified":
        if manifest.c1 is None:
            raise ValueError("unmodified variant requires --c1")
        return nonlocal_solver.NonlocalVariant("unmodified", c1=manifest.c1)
    return nonlocal_solver.NonlocalVariant("modified", beta=manifest.beta)


def cmd_solve(manifest: RunManifest) -> int:
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        config = problem.load_config(manifest.config_path)
    except (OSError, ValueError) as exc:
        runio.write_error_json("bad_config", str(exc), None, out / "error.json")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    vconf = problem.validate(config)
    if not vconf.ok:
        message = "; ".join(vconf.violations)
        runio.write_error_json("invalid_config", message, None, out / "error.json")
        print(f"inadmissible config: {message}", file=sys.stderr)
        return 2

    try:
        if manifest.solver == "local":
            knobs = local_solver.preset_knobs(manifest.preset, manifest.eps, manifest.gamma1)
            sol = local_solver.solve(vconf, knobs, n_cells=manifest.nx, dt=manifest.dt)
            meta = {
                "solver": "local",
                "preset": manifest.preset,
                "gamma1": manifest.gamma1,
                "eps": manifest.eps,
                "nx": manifest.nx,
                "dt": sol.dt,
                "horizon": sol.horizon,
            }
        elif manifest.solver == "nonlocal":
            kernel = _load_kernel(manifest)
            variant = _variant(manifest)
            sol = nonlocal_solver.solve(
                vconf,
                kernel,
                eps=manifest.eps,
                variant=variant,
                dx=manifest.dx,
                dt=manifest.dt,
                cfl_sigma=manifest.cfl_sigma,
            )
            meta = {
                "solver": "nonlocal",
                "eps": sol.eps,
                "variant": variant.kind,
                "beta": variant.beta if variant.kind == "modified" else None,
                "c1": variant.c1,
                "dx": sol.dx,
                "dt": sol.dt,
                "kernel": manifest.kernel if not manifest.kernel_file else "custom",
                "cfl_sigma": manifest.cfl_sigma,
                "horizon": sol.horizon,
            }
        else:
            raise ValueError(f"unknown solver {manifest.solver!r}")
        runio.write_boundary_csv(sol, out / "boundary.csv")
        for k in range(len(sol.snapshots)):
            x, v = sol.snapshot_nodes(k)
            runio.write_snapshot_csv(x, v, out / f"snapshot_{k:03d}.csv")
        meta["snapshot_times"] = [float(t) for t in sol.snapshot_times]
        runio.write_metadata_json(meta, out / "metadata.json")
    except SolverError as exc:
        runio.write_error_json(exc.code, str(exc), exc.time_of_failure, out / "error.json")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except FrontlabError as exc:
        runio.write_error_json(exc.code, str(exc), None, out / "error.json")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        runio.write_error_json("bad_manifest", str(exc), None, out / "error.json")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _nonlocal_run(vconf, kernel, eps, variant, dx_ratio, cfl_sigma):
    return nonlocal_solver.solve(
        vconf, kernel, eps=eps, variant=variant, dx=eps / dx_ratio, cfl_sigma=cfl_sigma
    )


def cmd_converge(
    config_path: str,
    eps_list,
    out_dir: str,
    variant: nonlocal_solver.NonlocalVariant | None = None,
    kernel: kernels.KernelSpec | None = None,
    reference_nx: int = 2048,
    reference_dt: float = 1e-4,
    dx_ratio: float = 16.0,
    cfl_sigma: float = 0.5,
    jobs: int = 1,
) -> int:
    """Local reference plus one nonlocal run per eps; errors, CSV, rate fit."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if len(eps_list) < 3:
        print("error: need at least 3 eps values for a rate fit", file=sys.stderr)
        return 2
    try:
        config = problem.load_config(config_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    vconf = problem.validate(config)
    if not vconf.ok:
        print("inadmissible config: " + "; ".join(vconf.violations), file=sys.stderr)
        return 2
    kernel = kernel if kernel is not None else kernels.KernelSpec("epanechnikov")
    variant = variant if variant is not None else nonlocal_solver.NonlocalVariant()

    try:
        reference = local_solver.solve(vconf, n_cells=reference_nx, dt=reference_dt)
        runio.write_boundary_csv(reference, out / "reference" / "boundary.csv")
        runio.write_metadata_json(
            {"solver": "local", "nx": reference_nx, "dt": reference.dt},
            out / "reference" / "metadata.json",
        )

        eps_values = list(eps_list)
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                sols = list(
                    pool.map(
                        _nonlocal_run,
                        [vconf] * len(eps_values),
                        [kernel] * len(eps_values),
                        eps_values,
                        [variant] * len(eps_values),
                        [dx_ratio] * len(eps_values),
                        [cfl_sigma] * len(eps_values),
                    )
                )
        else:
            sols = [
                _nonlocal_run(vconf, kernel, eps, variant, dx_ratio, cfl_sigma)
                for eps in eps_values
            ]
    except SolverError as exc:
        runio.write_error_json(exc.code, str(exc), exc.time_of_failure, out / "error.json")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except FrontlabError as exc:
        runio.write_error_json(exc.code, str(exc), None, out / "error.json")
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    for eps, sol in zip(eps_values, sols):
        report = analysis.sup_error(sol, reference)
        rows.append((eps, report.overall_sup, report.boundary_sup[0], report.boundary_sup[1]))
        run_dir = out / f"eps_{eps:g}"
        runio.write_boundary_csv(sol, run_dir / "boundary.csv")
        runio.write_metadata_json(
            {
                "solver": "nonlocal",
                "eps": eps,
                "variant": variant.kind,
                "beta": variant.beta if variant.kind == "modified" else None,
                "c1": variant.c1,
                "dx": sol.dx,
                "dt": sol.dt,
                "kernel": kernel.family,
                "cfl_sigma": cfl_sigma,
            },
            run_dir / "metadata.json",
        )
        runio.atomic_write_text(run_dir / "errors.json", report.to_json() + "\n")

    runio.write_sweep_csv(rows, out / "sweep.csv")
    fit = analysis.fit_rate([(r[0], r[1]) for r in rows])
    runio.atomic_write_text(out / "ratefit.json", fit.to_json() + "\n")
    runio.atomic_write_text(out / "ratefit.csv", fit.to_csv())
    for eps, sup, ge, he in rows:
        print(f"eps={eps:g}: sup_error={sup:.6g} g_error={ge:.6g} h_error={he:.6g}")
    print(f"gamma_hat={fit.gamma_hat:.4f} r_squared={fit.r_squared:.4f}")
    return 0


# -- verification suites ------------------------------------------------------


def _check_kernel_suite():
    epan = kernels.KernelSpec("epanechnikov")
    tri = kernels.KernelSpec("triangle")
    quart = kernels.KernelSpec("quartic")
    checks = [
        ("c_star(epanechnikov) = 10", abs(kernels.c_star(epan) - 10.0) <= 1e-10),
        ("c_zero(epanechnikov) = 16/3", abs(kernels.c_zero(epan) - 16.0 / 3.0) <= 1e-10),
        ("c_star(triangle) = 12", abs(kernels.c_star(tri) - 12.0) <= 1e-10),
        ("c_zero(triangle) = 6", abs(kernels.c_zero(tri) - 6.0) <= 1e-10),
    ]
    for kern, name in ((epan, "epanechnikov"), (tri, "triangle"), (quart, "quartic")):
        checks.append(
            (f"c_zero < c_star ({name})", kernels.c_zero(kern) < kernels.c_star(kern))
        )
        checks.append(
            (f"tail weight W(0) = 1/2 ({name})",
             abs(kernels.boundary_weight(kern, 0.0) - 0.5) <= 1e-12)
        )
    return checks


def _check_local_suite():
    vconf = problem.validate(problem.symmetric_stefan(T=0.2))
    sol = local_solver.solve(vconf, n_cells=256, dt=2e-4)
    rows = analysis.mass_residual(sol, vconf, vconf.d / vconf.mu)
    inert = local_solver.solve(vconf, local_solver.preset_knobs("i1", 0.0), n_cells=64, dt=5e-4)
    plain = local_solver.solve(vconf, n_cells=64, dt=5e-4)
    identical = all(
        np.array_equal(a.values, b.values) for a, b in zip(inert.snapshots, plain.snapshots)
    )
    return [
        ("boundaries move monotonically", bool(np.all(np.diff(sol.boundary_h) > 0.0))),
        ("symmetry defect <= 1e-10", analysis.symmetry_defect(sol, 16, 512) <= 1e-10),
        ("values stay nonnegative",
         min(float(np.min(s.values)) for s in sol.snapshots) >= 0.0),
        ("mass residual <= 1e-3", float(np.max(np.abs(rows[:, 1]))) <= 1e-3),
        ("eps = 0 knobs are inert bit-for-bit", identical),
    ]


def _check_nonlocal_suite():
    epan = kernels.KernelSpec("epanechnikov")
    eps = 0.1
    dx = eps / 32.0
    jm = int(round(2.5 / dx))
    x = np.arange(-jm, jm + 1) * dx
    u = np.where((x > -2.0) & (x < 2.0), x * x, 0.0)
    state = nonlocal_solver.EulerianState(0.0, -2.0, 2.0, dx, -jm, u)
    op = nonlocal_solver.apply_nonlocal_operator(state, epan, eps, d=1.0)
    interior = (x > -2.0 + 1.5 * eps) & (x < 2.0 - 1.5 * eps)
    op_err = float(np.max(np.abs(op[interior] - 2.0)))

    const = nonlocal_solver.EulerianState(0.0, -2.0, 2.0, dx, -jm, np.ones_like(u))
    flux = nonlocal_solver.boundary_flux(
        const, epan, eps, 1.0, nonlocal_solver.NonlocalVariant("modified", beta=0.5), "right"
    )
    flux_err = abs(flux - eps**-0.5) * eps**0.5

    vconf = problem.validate(problem.symmetric_stefan(T=0.1))
    sol = nonlocal_solver.solve(vconf, epan, eps=0.1)
    return [
        ("operator consistency on x^2 <= 0.04", op_err <= 0.04),
        ("constant-profile flux matches tail identity", flux_err <= 1e-6),
        ("symmetric run stays symmetric", analysis.symmetry_defect(sol, 16, 512) <= 1e-10),
        ("values stay nonnegative",
         min(float(np.min(s.values)) for s in sol.snapshots) >= 0.0),
    ]


def _check_sandwich_suite():
    vconf = problem.validate(problem.symmetric_stefan(T=0.3))
    eps, gamma1 = 0.05, 0.4
    kw = dict(n_cells=512, dt=2e-4)
    upper = local_solver.solve(vconf, local_solver.preset_knobs("i1", eps, gamma1), **kw)
    lower = local_solver.solve(vconf, local_solver.preset_knobs("i2", eps, gamma1), **kw)
    mid = local_solver.solve(vconf, **kw)
    local_rep = analysis.sandwich_check(lower, mid, upper, tol=1e-5, time_samples=33)
    epan = kernels.KernelSpec("epanechnikov")
    nl = nonlocal_solver.solve(vconf, epan, eps=eps, dx=eps / 8.0)
    slack = 10.0 * eps**gamma1 * vconf.sup_v0
    nl_rep = analysis.sandwich_check(lower, nl, upper, tol=slack, time_samples=33)
    return [
        ("perturbed local runs bracket the plain one", local_rep.ok),
        ("nonlocal run sits between perturbed local runs", nl_rep.ok),
    ]


def _check_mass_suite():
    epan = kernels.KernelSpec("epanechnikov")
    vconf = problem.validate(problem.symmetric_stefan(T=0.3))
    local_sol = local_solver.solve(vconf, n_cells=256, dt=2e-4)
    local_rows = analysis.mass_residual(local_sol, vconf, vconf.d / vconf.mu)
    c_star = kernels.c_star(epan)
    right = nonlocal_solver.solve(
        vconf, epan, eps=0.1, variant=nonlocal_solver.NonlocalVariant("unmodified", c1=c_star)
    )
    wrong = nonlocal_solver.solve(
        vconf, epan, eps=0.1,
        variant=nonlocal_solver.NonlocalVariant("unmodified", c1=0.5 * c_star),
    )
    r_right = float(np.max(np.abs(analysis.mass_residual(right, vconf, 1.0)[:, 1])))
    r_wrong = float(np.max(np.abs(analysis.mass_residual(wrong, vconf, 1.0)[:, 1])))
    return [
        ("local mass residual <= 1e-3", float(np.max(np.abs(local_rows[:, 1]))) <= 1e-3),
        ("halved flux constant inflates the residual >= 5x", r_wrong >= 5.0 * r_right),
    ]


def cmd_verify(suite: str = "all") -> int:
    """Run a named property suite; print a pass/fail table; 0 iff all pass."""
    builders = {
        "kernel": _check_kernel_suite,
        "local": _check_local_suite,
        "nonlocal": _check_nonlocal_suite,
        "sandwich": _check_sandwich_suite,
        "mass": _check_mass_suite,
    }
    names = list(builders) if suite == "all" else [suite]
    all_ok = True
    for name in names:
        for label, ok in builders[name]():
            all_ok &= bool(ok)
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label}")
    return 0 if all_ok else 1


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frontlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run a single solve from a config file")
    ps.add_argument("--config", required=True)
    ps.add_argument("--solver", choices=("local", "nonlocal"), default="local")
    ps.add_argument("--out", required=True)
    ps.add_argument("--preset", choices=("i1", "i2", "none"), default="none")
    ps.add_argument("--gamma1", type=float, default=0.4)
    ps.add_argument("--eps", type=float, default=0.1)
    ps.add_argument("--variant", choices=("modified", "unmodified"), default="modified")
    ps.add_argument("--beta", type=float, default=0.5)
    ps.add_argument("--c1", type=float, default=None)
    ps.add_argument("--kernel", default="epanechnikov")
    ps.add_argument("--kernel-file", default=None)
    ps.add_argument("--nx", type=int, default=512)
    ps.add_argument("--dx", type=float, default=None)
    ps.add_argument("--dt", type=float, default=None)
    ps.add_argument("--cfl-sigma", type=float, default=0.5)

    pc = sub.add_parser("converge", help="eps sweep against a local reference")
    pc.add_argument("--config", required=True)
    pc.add_argument("--eps", type=float, action="append", required=True)
    pc.add_argument("--out", required=True)
    pc.add_argument("--variant", choices=("modified", "unmodified"), default="modified")
    pc.add_argument("--beta", type=float, default=0.5)
    pc.add_argument("--c1", type=float, default=None)
    pc.add_argument("--kernel", default="epanechnikov")
    pc.add_argument("--nx", type=int, default=2048, help="local reference cells")
    pc.add_argument("--dt", type=float, default=1e-4, help="local reference step")
    pc.add_argument("--dx-ratio", type=float, default=16.0, help="eps/dx for nonlocal runs")
    pc.add_argument("--jobs", type=int, default=1)

    pv = sub.add_parser("verify", help="run a property suite")
    pv.add_argument("suite", nargs="?", choices=VERIFY_SUITES, default="all")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--verify" in argv:  # flag spelling accepted as an alias
        k = argv.index("--verify")
        argv = ["verify"] + argv[k + 1 : k + 2]
    args = build_parser().parse_args(argv)

    if args.command == "solve":
        manifest = RunManifest(
            config_path=args.config,
            solver=args.solver,
            out_dir=args.out,
            preset=args.preset,
            gamma1=args.gamma1,
            eps=args.eps,
            variant=args.variant,
            beta=args.beta,
            c1=args.c1,
            kernel=args.kernel,
            kernel_file=args.kernel_file,
            nx=args.nx,
            dx=args.dx,
            dt=args.dt,
            cfl_sigma=args.cfl_sigma,
        )
        return cmd_solve(manifest)
    if args.command == "converge":
        if args.variant == "unmodified":
            if args.c1 is None:
                print("error: unmodified variant requires --c1", file=sys.stderr)
                return 2
            variant = nonlocal_solver.NonlocalVariant("unmodified", c1=args.c1)
        else:
            variant = nonlocal_solver.NonlocalVariant("modified", beta=args.beta)
        return cmd_converge(
            config_path=args.config,
            eps_list=args.eps,
            out_dir=args.out,
            variant=variant,
            kernel=kernels.KernelSpec(args.kernel),
            reference_nx=args.nx,
            reference_dt=args.dt,
            dx_ratio=args.dx_ratio,
            jobs=args.jobs,
        )
    return cmd_verify(args.suite)


if __name__ == "__main__":
    sys.exit(main())
