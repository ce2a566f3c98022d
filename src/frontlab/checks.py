"""Property criteria of the acceptance gate, run by ``frontlab verify``.

``CRITERIA`` maps a criterion number of the gate (``tests/test_acceptance.py``)
to a function of no arguments that returns ``(ok, label)``; the label carries
the measured detail.  Each criterion's resolutions and thresholds are written
here only.  Criteria 7 and 9 read the files of ``frontlab converge`` and its
rerun, so they stay in the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import analysis, kernels, local_solver, nonlocal_solver, problem

EPAN = kernels.KernelSpec("epanechnikov")


def _stefan() -> problem.ValidatedConfig:
    return problem.validate(problem.symmetric_stefan(T=1.0))


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


def max_mass_residual(sol, vconf) -> float:
    """Largest |residual| of the mass ledger with coefficient d / mu."""
    return float(np.max(np.abs(analysis.mass_residual(sol, vconf, vconf.d / vconf.mu)[:, 1])))


def sandwich(vconf):
    """Sandwich reports of the plain local run and a nonlocal run at eps = 0.05.

    Both must sit between the i2 (lower) and i1 (upper) local runs with
    gamma1 = 0.4, all at nx = 1024 and dt = 1e-4: the plain run within 1e-6,
    the nonlocal run (at dx = eps/16) within the slack 10 eps^gamma1 sup v0.
    Returns the two reports, the slack and the runs (lower, plain, nonlocal,
    upper).
    """
    eps, gamma1 = 0.05, 0.4
    kw = dict(n_cells=1024, dt=1e-4)
    upper = local_solver.solve(vconf, local_solver.preset_knobs("i1", eps, gamma1), **kw)
    lower = local_solver.solve(vconf, local_solver.preset_knobs("i2", eps, gamma1), **kw)
    mid = local_solver.solve(vconf, **kw)
    nl = nonlocal_solver.solve(vconf, EPAN, eps=eps, dx=eps / 16.0)
    slack = 10.0 * eps**gamma1 * vconf.sup_v0
    return (
        analysis.sandwich_check(lower, mid, upper, tol=1e-6),
        analysis.sandwich_check(lower, nl, upper, tol=slack),
        slack,
        (lower, mid, nl, upper),
    )


def criterion_1():
    ok = abs(kernels.c_star(EPAN) - 10.0) <= 1e-10
    ok &= abs(kernels.c_zero(EPAN) - 16.0 / 3.0) <= 1e-10
    for family in kernels.BUILTIN_FAMILIES:
        kern = kernels.KernelSpec(family)
        ok &= kernels.c_zero(kern) < kernels.c_star(kern)
    return ok, "kernel constants and flux/operator ordering"


def criterion_2():
    e_quad = operator_error(0.1, np.square, lambda x: 2.0)
    e_quad_half = operator_error(0.05, np.square, lambda x: 2.0)
    ok = e_quad <= 0.04
    # The moment-matched stencil is exact on quadratics, so both errors sit at
    # the rounding floor; accept either a strict decrease or both at floor.
    ok &= (e_quad_half < e_quad) or max(e_quad, e_quad_half) <= 1e-8
    e_sin = operator_error(0.1, np.sin, lambda x: -np.sin(x))
    e_sin_half = operator_error(0.05, np.sin, lambda x: -np.sin(x))
    ok &= e_sin <= 0.02 and e_sin_half < e_sin
    return ok, (f"operator consistency (x^2 err {e_quad:.2e}, sin ratio "
                f"{e_sin / e_sin_half:.2f})")


def criterion_3():
    # On u = 1 the flux window integrates W over [0, 1], which is 1/c_zero, so
    # h' = mu * coefficient / c_zero for either flux law.
    eps = 0.05
    state = _state(eps / 16.0, np.ones_like)
    variants = (nonlocal_solver.NonlocalVariant("modified", beta=0.5),
                nonlocal_solver.NonlocalVariant("unmodified", c1=kernels.c_star(EPAN)))
    ok = True
    for mu in (1.0, 2.5):
        for variant in variants:
            h_dot = nonlocal_solver.boundary_flux(state, EPAN, eps, mu, variant)[1]
            expected = mu * variant.coefficient(EPAN, eps) / kernels.c_zero(EPAN)
            ok &= abs(h_dot - expected) / expected <= 1e-6
    return ok, "constant-profile flux matches the tail-mass identity"


def criterion_4():
    vconf = _stefan()
    ok = True
    for sol in (local_solver.solve(vconf, n_cells=512, dt=2.5e-4),
                nonlocal_solver.solve(vconf, EPAN, eps=0.1)):
        ok &= float(np.max(np.abs(sol.boundary_g + sol.boundary_h))) <= 1e-10
        ok &= analysis.symmetry_defect(sol) <= 1e-10
    return ok, "symmetric data evolves symmetrically in both solvers"


def criterion_5():
    vconf = _stefan()

    def residual(n_cells, dt):
        return max_mass_residual(local_solver.solve(vconf, n_cells=n_cells, dt=dt), vconf)

    coarse = residual(512, 1e-4)
    fine = residual(1024, 5e-5)
    ok = coarse <= 1e-3 and coarse >= 3.0 * fine
    return ok, f"mass ledger closes ({coarse:.2e} -> {fine:.2e}, ratio {coarse / fine:.2f})"


def criterion_6():
    local_rep, nl_rep, _, (lower, _, nl, upper) = sandwich(_stefan())
    ok = local_rep.ok and nl_rep.ok
    # Domain inclusions for the nonlocal middle hold without any slack.
    ts = np.linspace(0.0, 1.0, 64)
    ok &= bool(np.all(lower.g_of(ts) >= nl.g_of(ts) - 1e-9))
    ok &= bool(np.all(nl.g_of(ts) >= upper.g_of(ts) - 1e-9))
    ok &= bool(np.all(lower.h_of(ts) <= nl.h_of(ts) + 1e-9))
    ok &= bool(np.all(nl.h_of(ts) <= upper.h_of(ts) + 1e-9))
    return ok, (f"perturbed runs sandwich plain and nonlocal solutions "
                f"(worst {max(local_rep.max_violation, 0):.2e})")


def criterion_8():
    vconf = _stefan()

    def residual(c1):
        variant = nonlocal_solver.NonlocalVariant("unmodified", c1=c1)
        return max_mass_residual(nonlocal_solver.solve(vconf, EPAN, eps=0.05, variant=variant),
                                 vconf)

    c_star = kernels.c_star(EPAN)
    ratio = residual(0.5 * c_star) / residual(c_star)
    return ratio >= 5.0, f"halving the flux constant inflates the mass residual {ratio:.1f}x"


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    8: criterion_8,
}
