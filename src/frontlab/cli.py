"""Batch entry point: single solves, eps sweeps, and property verification.

Subcommands:

    solve     run one local or nonlocal solve from a config file and write
              boundary/snapshot CSVs plus run metadata
    converge  run a local reference and a family of nonlocal runs across eps,
              writing an (eps, errors) sweep CSV and a fitted rate JSON
    verify    run the acceptance gate's property criteria (1-6 and 8, from
              ``frontlab.checks``) and print the gate's line for each

Exit codes: 0 success, 2 inadmissible input, 3 solver failure.  On every
exit-2 or exit-3 failure both ``solve`` and ``converge`` write
``error.json`` (``{code, message, time_of_failure}``) into the output
directory, and each run first removes the ``error.json`` a run before it
left there, so the file marks a failure of the latest run only; a
successful ``solve`` also removes the snapshot CSVs an earlier solve left
before it writes its own.  An
``--out`` that cannot be made a directory (an existing file, or a path
below one) is ``bad_manifest`` on stderr alone, with nowhere to write the
file.  Exit 2 codes: ``bad_config`` (the config file cannot be read or
parsed), ``invalid_config`` (it violates the hypotheses; the violated rules
are listed), ``bad_manifest`` (an inadmissible option value or eps list),
and the code of any other package error (``degenerate_kernel``,
``degenerate_fit``, ...).  Exit 3 codes are the solver failures
(``resolution_too_coarse``, ``domain_too_small``, ``positivity_loss``,
``degenerate_domain``, ``cfl_violation``), which also record
``time_of_failure``.  Everything is deterministic; rerunning a command
reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, checks, kernels, local_solver, nonlocal_solver, problem, runio
from .errors import FrontlabError, SolverError


def _fail(out: Path, code: str, message, status: int = 2, time_of_failure=None) -> int:
    runio.write_error_json(code, str(message), time_of_failure, out / "error.json")
    print(f"error ({code}): {message}", file=sys.stderr)
    return status


def _guarded(config_path: str, out_dir: str, run) -> int:
    """Load and validate the config, return ``run(vconf, out)``; map failures.

    The one failure path of ``solve`` and ``converge``: every exit-2 or
    exit-3 failure writes ``out/error.json``, and a run removes the one an
    earlier run left (see the module docstring).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").unlink(missing_ok=True)
    except OSError as exc:
        print(f"error (bad_manifest): {exc}", file=sys.stderr)
        return 2
    try:
        config = problem.load_config(config_path)
    except (OSError, ValueError) as exc:
        return _fail(out, "bad_config", exc)
    vconf = problem.validate(config)
    if not vconf.ok:
        return _fail(out, "invalid_config", "; ".join(vconf.violations))
    try:
        return run(vconf, out)
    except SolverError as exc:
        return _fail(out, exc.code, exc, 3, exc.time_of_failure)
    except FrontlabError as exc:
        return _fail(out, exc.code, exc)
    except ValueError as exc:
        return _fail(out, "bad_manifest", exc)


def _variant(kind: str, beta: float, c1: float | None) -> nonlocal_solver.NonlocalVariant:
    if kind == "unmodified":
        if c1 is None:
            raise ValueError("unmodified variant requires --c1")
        return nonlocal_solver.NonlocalVariant("unmodified", c1=c1)
    return nonlocal_solver.NonlocalVariant("modified", beta=beta)


def _nonlocal_meta(sol, kernel: kernels.KernelSpec) -> dict:
    variant = sol.variant
    return {
        "solver": "nonlocal",
        "eps": sol.eps,
        "variant": variant.kind,
        "beta": variant.beta if variant.kind == "modified" else None,
        "c1": variant.c1 if variant.kind == "unmodified" else None,
        "dx": sol.dx,
        "dt": sol.dt,
        "kernel": kernel.family,
        "cfl_sigma": nonlocal_solver.CFL_SIGMA,
    }


def cmd_solve(args: argparse.Namespace) -> int:
    """One local or nonlocal solve from parsed ``solve`` arguments."""

    def run(vconf, out):
        if args.solver == "local":
            knobs = local_solver.preset_knobs(args.preset, args.eps, args.gamma1)
            sol = local_solver.solve(vconf, knobs, n_cells=args.nx, dt=args.dt)
            meta = {
                "solver": "local",
                "preset": args.preset,
                "gamma1": args.gamma1,
                "eps": args.eps,
                "nx": args.nx,
                "dt": sol.dt,
            }
        else:
            if args.kernel_file:
                kernel = kernels.from_file(args.kernel_file)
            else:
                kernel = kernels.KernelSpec(args.kernel)
            sol = nonlocal_solver.solve(
                vconf,
                kernel,
                eps=args.eps,
                variant=_variant(args.variant, args.beta, args.c1),
                dx=args.dx,
                dt=args.dt,
            )
            meta = _nonlocal_meta(sol, kernel)
        # An earlier solve into this --out may have written more snapshots.
        for stale in out.glob("snapshot_*.csv"):
            stale.unlink()
        runio.write_boundary_csv(sol, out / "boundary.csv")
        for k in range(len(sol.snapshots)):
            x, v = sol.snapshot_nodes(k)
            runio.write_snapshot_csv(x, v, out / f"snapshot_{k:03d}.csv")
        meta["horizon"] = sol.horizon
        meta["snapshot_times"] = [float(t) for t in sol.snapshot_times]
        runio.write_metadata_json(meta, out / "metadata.json")
        return 0

    return _guarded(args.config, args.out, run)


def _sweep(vconf, out, eps_list, variant, kernel, reference_nx, reference_dt, dx_ratio) -> int:
    eps_values = list(eps_list)
    run_dirs = [f"eps_{eps:g}" for eps in eps_values]
    if (len(eps_values) < 3 or len(set(run_dirs)) < len(run_dirs)
            or not all(0.0 < eps < math.inf for eps in eps_values)):
        raise ValueError(
            f"a rate fit needs at least 3 distinct, positive, finite eps values, each with its "
            f"own run dir eps_<eps:g>, got {eps_values}"
        )
    if not 0.0 < dx_ratio < math.inf:
        raise ValueError(f"dx_ratio must be positive and finite, got {dx_ratio}")
    for eps in eps_values:
        nonlocal_solver.check_setup(vconf, eps, variant, eps / dx_ratio)
    reference = local_solver.solve(vconf, n_cells=reference_nx, dt=reference_dt)
    runio.write_boundary_csv(reference, out / "reference" / "boundary.csv")
    runio.write_metadata_json(
        {"solver": "local", "nx": reference_nx, "dt": reference.dt},
        out / "reference" / "metadata.json",
    )
    # Every eps is solved before any run dir is written, so a failed solve
    # leaves only reference/ and error.json.
    sols = [nonlocal_solver.solve(vconf, kernel, eps=eps, variant=variant, dx=eps / dx_ratio)
            for eps in eps_values]

    rows = []
    for eps, name, sol in zip(eps_values, run_dirs, sols):
        report = analysis.sup_error(sol, reference)
        rows.append((eps, report.overall_sup, report.boundary_sup[0], report.boundary_sup[1]))
        run_dir = out / name
        runio.write_boundary_csv(sol, run_dir / "boundary.csv")
        meta = _nonlocal_meta(sol, kernel)
        runio.write_metadata_json(meta, run_dir / "metadata.json")
        runio.atomic_write_text(run_dir / "errors.json", report.to_json() + "\n")

    runio.write_sweep_csv(rows, out / "sweep.csv")
    fit = analysis.fit_rate([(r[0], r[1]) for r in rows])
    runio.atomic_write_text(out / "ratefit.json", fit.to_json() + "\n")
    for eps, sup, ge, he in rows:
        print(f"eps={eps:g}: sup_error={sup:.6g} g_error={ge:.6g} h_error={he:.6g}")
    print(f"gamma_hat={fit.gamma_hat:.4f} r_squared={fit.r_squared:.4f}")
    return 0


def cmd_converge(
    config_path: str,
    eps_list,
    out_dir: str,
    variant: nonlocal_solver.NonlocalVariant | None = None,
    kernel: kernels.KernelSpec | None = None,
    reference_nx: int = 2048,
    reference_dt: float = 1e-4,
    dx_ratio: float = 16.0,
    jobs: int = 1,
) -> int:
    """Local reference plus one nonlocal run per eps; errors, CSV, rate fit.

    The sweep is serial; ``jobs`` is kept for callers that pass ``jobs=1``,
    and any other value is a ``bad_manifest`` error.
    """
    variant = variant if variant is not None else nonlocal_solver.NonlocalVariant()
    kernel = kernel if kernel is not None else kernels.KernelSpec("epanechnikov")

    def run(vconf, out):
        if jobs != 1:
            raise ValueError(f"converge runs its eps values serially; jobs must be 1, got {jobs}")
        return _sweep(vconf, out, eps_list, variant, kernel, reference_nx, reference_dt,
                      dx_ratio)

    return _guarded(config_path, out_dir, run)


def cmd_verify(which: str = "all") -> int:
    """Run criterion ``which`` (a number) or ``all`` of ``checks.CRITERIA`` in
    key order; print the gate's line for each; 0 iff all pass."""
    numbers = list(checks.CRITERIA) if which == "all" else [int(which)]
    all_ok = True
    for n in numbers:
        ok, label = checks.CRITERIA[n]()
        all_ok &= bool(ok)
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {label}")
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

    pv = sub.add_parser("verify", help="run acceptance criteria 1-6 and 8")
    pv.add_argument("which", nargs="?", choices=(*map(str, checks.CRITERIA), "all"),
                    default="all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "converge":

        def run(vconf, out):
            variant = _variant(args.variant, args.beta, args.c1)
            kernel = kernels.KernelSpec(args.kernel)
            return _sweep(vconf, out, args.eps, variant, kernel, args.nx, args.dt,
                          args.dx_ratio)

        return _guarded(args.config, args.out, run)
    return cmd_verify(args.which)


if __name__ == "__main__":
    sys.exit(main())
