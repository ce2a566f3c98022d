"""Property measurements shared by ``frontlab verify`` and the acceptance gate.

Each measurement is computed by one function here and returned as a number
(or as the reports it is read from); callers apply their own thresholds.
``SUITES`` holds the verdicts of ``frontlab verify``: each suite returns
``(label, ok)`` pairs at desk-scale resolutions.
"""

from __future__ import annotations

import numpy as np

from . import analysis, kernels, local_solver, nonlocal_solver, problem

EPAN = kernels.KernelSpec("epanechnikov")


def _state(dx: float, profile) -> nonlocal_solver.EulerianState:
    """Fronts at -2 and 2, ``profile(x)`` on the nodes x_j = j dx of [-2.5, 2.5]."""
    jm = int(round(2.5 / dx))
    values = profile(np.arange(-jm, jm + 1) * dx)
    return nonlocal_solver.EulerianState(0.0, -2.0, 2.0, dx, -jm, values)


def operator_error(eps: float, u, u_xx) -> float:
    """Sup |L_eps u - u_xx| at dx = eps/32 over the nodes 1.5 eps inside (-2, 2).

    ``u`` is zero-extended outside (-2, 2); ``u_xx`` is its second derivative.
    """
    state = _state(eps / 32.0, lambda x: np.where((x > -2.0) & (x < 2.0), u(x), 0.0))
    x = state.grid()
    out = nonlocal_solver.apply_nonlocal_operator(state, EPAN, eps, d=1.0)
    interior = (x > -2.0 + 1.5 * eps) & (x < 2.0 - 1.5 * eps)
    return float(np.max(np.abs(out[interior] - u_xx(x[interior]))))


def constant_flux_error(eps: float, dx: float, mu: float, variant) -> float:
    """Relative error of h' on the profile u = 1 against the tail-mass identity.

    On u = 1 the flux window integrates W over [0, 1], which is 1/c_zero, so
    h' = mu * coefficient / c_zero for either flux law.
    """
    h_dot = nonlocal_solver.boundary_flux(_state(dx, np.ones_like), EPAN, eps, mu, variant, "right")
    expected = mu * variant.coefficient(EPAN, eps) / kernels.c_zero(EPAN)
    return abs(h_dot - expected) / expected


def max_mass_residual(sol, vconf) -> float:
    """Largest |residual| of the mass ledger with coefficient d / mu."""
    return float(np.max(np.abs(analysis.mass_residual(sol, vconf, vconf.d / vconf.mu)[:, 1])))


def c1_halving_ratio(vconf, eps: float) -> float:
    """Mass residual of the unmodified law at c1 = c*/2 over that at c1 = c*."""
    c_star = kernels.c_star(EPAN)

    def residual(c1):
        variant = nonlocal_solver.NonlocalVariant("unmodified", c1=c1)
        return max_mass_residual(nonlocal_solver.solve(vconf, EPAN, eps=eps, variant=variant), vconf)

    return residual(0.5 * c_star) / residual(c_star)


def sandwich(vconf, n_cells: int, dt: float, dx_ratio: float, local_tol: float,
             time_samples: int):
    """Sandwich reports of the plain local run and a nonlocal run at eps = 0.05.

    Both must sit between the i2 (lower) and i1 (upper) local runs with
    gamma1 = 0.4: the plain run within ``local_tol``, the nonlocal run (at
    dx = eps/dx_ratio) within the slack 10 eps^gamma1 sup v0.  Returns the
    two reports and the runs (lower, nonlocal, upper).
    """
    eps, gamma1 = 0.05, 0.4
    kw = dict(n_cells=n_cells, dt=dt)
    upper = local_solver.solve(vconf, local_solver.preset_knobs("i1", eps, gamma1), **kw)
    lower = local_solver.solve(vconf, local_solver.preset_knobs("i2", eps, gamma1), **kw)
    mid = local_solver.solve(vconf, **kw)
    nl = nonlocal_solver.solve(vconf, EPAN, eps=eps, dx=eps / dx_ratio)
    slack = 10.0 * eps**gamma1 * vconf.sup_v0
    return (
        analysis.sandwich_check(lower, mid, upper, tol=local_tol, time_samples=time_samples),
        analysis.sandwich_check(lower, nl, upper, tol=slack, time_samples=time_samples),
        (lower, nl, upper),
    )


def _nonnegative(sol) -> bool:
    return min(float(np.min(s.values)) for s in sol.snapshots) >= 0.0


def kernel_suite():
    tri = kernels.KernelSpec("triangle")
    checks = [
        ("c_star(epanechnikov) = 10", abs(kernels.c_star(EPAN) - 10.0) <= 1e-10),
        ("c_zero(epanechnikov) = 16/3", abs(kernels.c_zero(EPAN) - 16.0 / 3.0) <= 1e-10),
        ("c_star(triangle) = 12", abs(kernels.c_star(tri) - 12.0) <= 1e-10),
        ("c_zero(triangle) = 6", abs(kernels.c_zero(tri) - 6.0) <= 1e-10),
    ]
    for name in ("epanechnikov", "triangle", "quartic"):
        kern = kernels.KernelSpec(name)
        checks.append((f"c_zero < c_star ({name})", kernels.c_zero(kern) < kernels.c_star(kern)))
        checks.append((f"tail weight W(0) = 1/2 ({name})",
                       abs(kernels.boundary_weight(kern, 0.0) - 0.5) <= 1e-12))
    return checks


def local_suite():
    vconf = problem.validate(problem.symmetric_stefan(T=0.2))
    sol = local_solver.solve(vconf, n_cells=256, dt=2e-4)
    inert = local_solver.solve(vconf, local_solver.preset_knobs("i1", 0.0), n_cells=64, dt=5e-4)
    plain = local_solver.solve(vconf, n_cells=64, dt=5e-4)
    identical = all(
        np.array_equal(a.values, b.values) for a, b in zip(inert.snapshots, plain.snapshots)
    )
    return [
        ("boundaries move monotonically", bool(np.all(np.diff(sol.boundary_h) > 0.0))),
        ("symmetry defect <= 1e-10", analysis.symmetry_defect(sol, 16, 512) <= 1e-10),
        ("values stay nonnegative", _nonnegative(sol)),
        ("mass residual <= 1e-3", max_mass_residual(sol, vconf) <= 1e-3),
        ("eps = 0 knobs are inert bit-for-bit", identical),
    ]


def nonlocal_suite():
    modified = nonlocal_solver.NonlocalVariant("modified", beta=0.5)
    vconf = problem.validate(problem.symmetric_stefan(T=0.1))
    sol = nonlocal_solver.solve(vconf, EPAN, eps=0.1)
    return [
        ("operator consistency on x^2 <= 0.04",
         operator_error(0.1, np.square, lambda x: 2.0) <= 0.04),
        ("constant-profile flux matches tail identity",
         constant_flux_error(0.1, 0.1 / 32.0, 1.0, modified) <= 1e-6),
        ("symmetric run stays symmetric", analysis.symmetry_defect(sol, 16, 512) <= 1e-10),
        ("values stay nonnegative", _nonnegative(sol)),
    ]


def sandwich_suite():
    vconf = problem.validate(problem.symmetric_stefan(T=0.3))
    local_rep, nl_rep, _ = sandwich(vconf, 512, 2e-4, 8.0, 1e-5, 33)
    return [
        ("perturbed local runs bracket the plain one", local_rep.ok),
        ("nonlocal run sits between perturbed local runs", nl_rep.ok),
    ]


def mass_suite():
    vconf = problem.validate(problem.symmetric_stefan(T=0.3))
    local_sol = local_solver.solve(vconf, n_cells=256, dt=2e-4)
    return [
        ("local mass residual <= 1e-3", max_mass_residual(local_sol, vconf) <= 1e-3),
        ("halved flux constant inflates the residual >= 5x", c1_halving_ratio(vconf, 0.1) >= 5.0),
    ]


SUITES = {
    "kernel": kernel_suite,
    "local": local_suite,
    "nonlocal": nonlocal_suite,
    "sandwich": sandwich_suite,
    "mass": mass_suite,
}
