"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``).  The
expensive eps sweeps are shared session fixtures; the determinism criterion
reruns them from scratch and compares bytes.
"""

import numpy as np
import pytest

from frontlab import analysis as A
from frontlab import checks as C
from frontlab import cli
from frontlab import kernels as K
from frontlab import local_solver as L
from frontlab import nonlocal_solver as NL
from frontlab import problem as P
from frontlab import runio

EPAN = K.KernelSpec("epanechnikov")
SWEEP_EPS = [0.2, 0.1, 0.05]


def report(num: int, label: str, ok: bool):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="session")
def stefan_vconf():
    return P.validate(P.symmetric_stefan(T=1.0))


@pytest.fixture(scope="session")
def config_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    stefan = root / "stefan.cfg"
    fisher = root / "fisher.cfg"
    P.save_config(P.symmetric_stefan(T=1.0), stefan)
    P.save_config(P.fisher_kpp_config(T=1.0), fisher)
    return {"stefan": stefan, "fisher": fisher}


def run_sweep(config_path, out_dir) -> int:
    return cli.cmd_converge(
        str(config_path),
        SWEEP_EPS,
        str(out_dir),
        reference_nx=2048,
        reference_dt=1e-4,
    )


@pytest.fixture(scope="session")
def sweep_dirs(config_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps_a")
    dirs = {}
    for name, cfg in config_files.items():
        out = root / name
        assert run_sweep(cfg, out) == 0
        dirs[name] = out
    return dirs


def test_criterion_1_kernel_constants():
    ok = abs(K.c_star(EPAN) - 10.0) <= 1e-10
    ok &= abs(K.c_zero(EPAN) - 16.0 / 3.0) <= 1e-10
    for family in K.BUILTIN_FAMILIES:
        kern = K.KernelSpec(family)
        ok &= K.c_zero(kern) < K.c_star(kern)
    report(1, "kernel constants and flux/operator ordering", ok)


def test_criterion_2_operator_consistency():
    e_quad = C.operator_error(0.1, np.square, lambda x: 2.0)
    e_quad_half = C.operator_error(0.05, np.square, lambda x: 2.0)
    ok = e_quad <= 0.04
    # The moment-matched stencil is exact on quadratics, so both errors sit at
    # the rounding floor; accept either a strict decrease or both at floor.
    ok &= (e_quad_half < e_quad) or max(e_quad, e_quad_half) <= 1e-8
    e_sin = C.operator_error(0.1, np.sin, lambda x: -np.sin(x))
    e_sin_half = C.operator_error(0.05, np.sin, lambda x: -np.sin(x))
    ok &= e_sin <= 0.02 and e_sin_half < e_sin
    report(2, f"operator consistency (x^2 err {e_quad:.2e}, sin ratio "
              f"{e_sin / e_sin_half:.2f})", ok)


def test_criterion_3_constant_profile_flux():
    eps = 0.05
    variants = (NL.NonlocalVariant("modified", beta=0.5),
                NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN)))
    ok = True
    for mu in (1.0, 2.5):
        for variant in variants:
            ok &= C.constant_flux_error(eps, eps / 16.0, mu, variant) <= 1e-6
    report(3, "constant-profile flux matches the tail-mass identity", ok)


def test_criterion_4_symmetry(stefan_vconf):
    local = L.solve(stefan_vconf, n_cells=512, dt=2.5e-4)
    ok = float(np.max(np.abs(local.boundary_g + local.boundary_h))) <= 1e-10
    ok &= A.symmetry_defect(local) <= 1e-10
    nonlocal_sol = NL.solve(stefan_vconf, EPAN, eps=0.1)
    ok &= float(np.max(np.abs(nonlocal_sol.boundary_g + nonlocal_sol.boundary_h))) <= 1e-10
    ok &= A.symmetry_defect(nonlocal_sol) <= 1e-10
    report(4, "symmetric data evolves symmetrically in both solvers", ok)


def test_criterion_5_mass_balance(stefan_vconf):
    def residual(n_cells, dt):
        return C.max_mass_residual(L.solve(stefan_vconf, n_cells=n_cells, dt=dt), stefan_vconf)

    coarse = residual(512, 1e-4)
    fine = residual(1024, 5e-5)
    ok = coarse <= 1e-3 and coarse >= 3.0 * fine
    report(5, f"mass ledger closes ({coarse:.2e} -> {fine:.2e}, "
              f"ratio {coarse / fine:.2f})", ok)


def test_criterion_6_sandwich(stefan_vconf):
    local_rep, nl_rep, (lower, nl, upper) = C.sandwich(
        stefan_vconf, 1024, 1e-4, 16.0, 1e-6, A.DEFAULT_TIME_SAMPLES
    )
    ok = local_rep.ok and nl_rep.ok
    # Domain inclusions for the nonlocal middle hold without any slack.
    ts = np.linspace(0.0, 1.0, 64)
    ok &= bool(np.all(lower.g_of(ts) >= nl.g_of(ts) - 1e-9))
    ok &= bool(np.all(nl.g_of(ts) >= upper.g_of(ts) - 1e-9))
    ok &= bool(np.all(lower.h_of(ts) <= nl.h_of(ts) + 1e-9))
    ok &= bool(np.all(nl.h_of(ts) <= upper.h_of(ts) + 1e-9))
    report(6, f"perturbed runs sandwich plain and nonlocal solutions "
              f"(worst {max(local_rep.max_violation, 0):.2e})", ok)


def test_criterion_7_convergence(sweep_dirs):
    ok = True
    rates = {}
    for name, out in sweep_dirs.items():
        data = runio.read_sweep_csv(out / "sweep.csv")
        ok &= bool(np.all(np.diff(data[:, 1]) < 0.0))  # solution sup error
        ok &= bool(np.all(np.diff(data[:, 2]) < 0.0))  # g error
        ok &= bool(np.all(np.diff(data[:, 3]) < 0.0))  # h error
        fit = A.RateFit.from_json((out / "ratefit.json").read_text())
        ok &= fit.gamma_hat >= 0.25 and fit.r_squared >= 0.9
        rates[name] = fit.gamma_hat
    report(7, "errors shrink with eps "
              f"(gamma_hat: {', '.join(f'{k}={v:.2f}' for k, v in rates.items())})", ok)


def test_criterion_8_coefficient_necessity(stefan_vconf):
    ratio = C.c1_halving_ratio(stefan_vconf, 0.05)
    report(8, f"halving the flux constant inflates the mass residual {ratio:.1f}x", ratio >= 5.0)


def test_criterion_9_determinism(config_files, sweep_dirs, tmp_path_factory):
    def tree_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    root_b = tmp_path_factory.mktemp("sweeps_b")
    ok = True
    for name, cfg in config_files.items():
        out_b = root_b / name
        assert run_sweep(cfg, out_b) == 0
        ok &= tree_bytes(sweep_dirs[name]) == tree_bytes(out_b)
    report(9, "independent sweep reruns are byte-identical", ok)
