import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontlab import analysis as A
from frontlab import kernels as K
from frontlab import local_solver as L
from frontlab import nonlocal_solver as NL
from frontlab import problem as P
from frontlab.errors import DegenerateFit, HorizonMismatch
from frontlab.trajectory import march


@pytest.fixture(scope="module")
def vconf():
    return P.validate(P.symmetric_stefan(T=0.1))


@pytest.fixture(scope="module")
def local_sol(vconf):
    return L.solve(vconf, n_cells=64, dt=5e-4)


@pytest.fixture(scope="module")
def nonlocal_sol(vconf):
    return NL.solve(vconf, K.KernelSpec("epanechnikov"), eps=0.1)


def shifted_copy(sol, c):
    """Test double: same trajectory with values shifted by c inside the domain."""

    class Shifted:
        horizon = sol.horizon
        dt = sol.dt
        boundary_g = sol.boundary_g
        boundary_h = sol.boundary_h

        def g_of(self, t):
            return sol.g_of(t)

        def h_of(self, t):
            return sol.h_of(t)

        def sample(self, t, x):
            base = sol.sample(t, x)
            inside = (np.asarray(x) > self.g_of(t)) & (np.asarray(x) < self.h_of(t))
            return np.where(inside, base + c, base)

    return Shifted()


def test_sup_error_identity(local_sol):
    rep = A.sup_error(local_sol, local_sol)
    assert rep.overall_sup == 0.0
    assert rep.boundary_sup == (0.0, 0.0)
    assert np.max(rep.per_time_sup) == rep.overall_sup


def test_sup_error_constant_shift(local_sol):
    rep = A.sup_error(local_sol, shifted_copy(local_sol, 0.25))
    assert rep.overall_sup == pytest.approx(0.25, abs=1e-12)


def test_sup_error_is_pseudometric(local_sol, nonlocal_sol, vconf):
    third = L.solve(vconf, n_cells=96, dt=5e-4)
    ab = A.sup_error(local_sol, nonlocal_sol).overall_sup
    ba = A.sup_error(nonlocal_sol, local_sol).overall_sup
    ac = A.sup_error(local_sol, third).overall_sup
    cb = A.sup_error(third, nonlocal_sol).overall_sup
    assert ab == ba
    assert ab <= ac + cb + 1e-12


def test_sup_error_horizon_mismatch(local_sol):
    other = L.solve(P.validate(P.symmetric_stefan(T=0.05)), n_cells=64, dt=5e-4)
    with pytest.raises(HorizonMismatch):
        A.sup_error(local_sol, other)


def test_fit_rate_exact_power_laws():
    fit = A.fit_rate([(0.2, 0.2), (0.1, 0.1), (0.05, 0.05)])
    assert fit.gamma_hat == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = A.fit_rate([(0.2, np.sqrt(0.2)), (0.1, np.sqrt(0.1)), (0.05, np.sqrt(0.05))])
    assert fit.gamma_hat == pytest.approx(0.5, abs=1e-12)
    fit = A.fit_rate([(0.2, 0.7), (0.1, 0.7), (0.05, 0.7)])
    assert fit.gamma_hat == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(-2.0, 2.0),
    c=st.floats(1e-3, 1e3),
)
@example(gamma=1e-10, c=2.0)
def test_fit_rate_recovers_synthetic_exponent(gamma, c):
    eps = np.array([0.4, 0.2, 0.1, 0.05])
    pairs = list(zip(eps, c * eps**gamma))
    fit = A.fit_rate(pairs)
    assert fit.gamma_hat == pytest.approx(gamma, abs=1e-9)
    # For |gamma| below about 1e-9 the log errors are nearly constant and the
    # rounding of log(c * eps**gamma) alone (about 1e-16) leaves the data's
    # true R^2 below 1 - 1e-12, whatever the fit does; the bound only holds
    # where the spread of the data dwarfs that rounding.
    if abs(gamma) >= 1e-6:
        assert fit.r_squared >= 1.0 - 1e-12


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        A.fit_rate([(0.2, 0.1), (0.1, 0.05)])
    with pytest.raises(DegenerateFit):
        A.fit_rate([(0.2, 0.1), (0.1, 0.0), (0.05, 0.01)])
    with pytest.raises(DegenerateFit):
        A.fit_rate([(0.1, 0.1), (0.1, 0.2), (0.05, 0.01)])
    # log(eps) needs positive finite eps; least squares used to fail in LAPACK.
    for bad in (np.nan, 0.0, -0.05, np.inf):
        with pytest.raises(DegenerateFit, match="positive and finite"):
            A.fit_rate([(0.2, 0.1), (0.1, 0.05), (bad, 0.01)])
    with pytest.raises(DegenerateFit, match="positive and finite"):
        A.fit_rate([(0.2, 0.1), (np.nan, 0.05), (np.nan, 0.01)])
    # A NaN or infinite error would give gamma_hat = nan, which to_json
    # refuses with a bare ValueError.
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateFit, match="errors must be positive and finite"):
            A.fit_rate([(0.2, 0.1), (0.1, bad), (0.05, 0.02)])


def test_rate_fit_json_round_trip():
    fit = A.fit_rate([(0.2, 0.11), (0.1, 0.06), (0.05, 0.028)])
    assert json.loads(fit.to_json()) == {
        "eps": list(fit.eps), "errors": list(fit.errors),
        "gamma_hat": fit.gamma_hat, "r_squared": fit.r_squared,
    }


def test_error_report_json(local_sol, nonlocal_sol):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = A.sup_error(local_sol, nonlocal_sol)
    data = json.loads(rep.to_json(), parse_constant=reject)
    assert data["overall_sup"] == rep.overall_sup
    assert data["boundary_sup_g"] == rep.boundary_sup[0]
    assert len(data["per_time_sup"]) == A.TIME_SAMPLES == 64
    assert data["meta"]["time_samples"] == 64
    assert data["meta"]["space_samples"] == A.SPACE_SAMPLES == 1024
    assert data["meta"]["eps_b"] == 0.1
    assert data["meta"]["eps_a"] is None  # the local solution has no eps
    swapped = A.sup_error(nonlocal_sol, local_sol)
    assert json.loads(swapped.to_json(), parse_constant=reject)["meta"]["eps_b"] is None
    fit = A.fit_rate([(0.2, 0.11), (0.1, 0.06), (0.05, 0.028)])
    json.loads(fit.to_json(), parse_constant=reject)
    bad = A.ErrorReport(rep.times, rep.per_time_sup, float("nan"), rep.boundary_sup, rep.meta)
    with pytest.raises(ValueError):
        bad.to_json()


def test_mass_residual_zero_at_t0(local_sol, vconf):
    rows = A.mass_residual(local_sol, vconf, coefficient=1.0)
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == 0.0


@pytest.mark.parametrize("which", ["local", "nonlocal"])
def test_mass_residual_zero_reaction_adds_exactly_nothing(local_sol, nonlocal_sol, vconf, which):
    # The zero reaction is the scalar 0.0; its integral is still exactly 0,
    # so the rows are the mass and width terms alone, byte for byte.
    sol = local_sol if which == "local" else nonlocal_sol
    rows = A.mass_residual(sol, vconf, coefficient=0.7)
    masses = np.array([np.trapezoid(v, x) for x, v in map(sol.snapshot_nodes,
                                                           range(len(sol.snapshots)))])
    width = np.array([s.h - s.g for s in sol.snapshots])
    expected = masses - masses[0] + 0.7 * (width - 2.0 * vconf.h0)
    assert rows[:, 1].tobytes() == expected.tobytes()


def test_mass_residual_small_on_fine_local_run(vconf):
    sol = L.solve(vconf, n_cells=512, dt=1e-4)
    rows = A.mass_residual(sol, vconf, coefficient=vconf.d / vconf.mu)
    assert np.max(np.abs(rows[:, 1])) <= 1e-4


def test_mass_residual_tracks_reaction_term():
    vcf = P.validate(P.fisher_kpp_config(T=0.1))
    sol = L.solve(vcf, n_cells=256, dt=1e-4)
    rows = A.mass_residual(sol, vcf, coefficient=1.0)
    assert np.max(np.abs(rows[:, 1])) <= 1e-3


def test_sandwich_identity(local_sol):
    rep = A.sandwich_check(local_sol, local_sol, local_sol, tol=0.0)
    assert rep.ok
    assert rep.max_violation <= 0.0


def test_sandwich_detects_violation(local_sol):
    shifted = shifted_copy(local_sol, 0.3)
    rep = A.sandwich_check(shifted, local_sol, shifted, tol=1e-6)
    assert not rep.ok
    assert rep.max_violation == pytest.approx(0.3, abs=1e-10)
    assert rep.where[0] == "value: lower > mid"


def test_symmetry_defect_zero_for_symmetric(local_sol, nonlocal_sol):
    assert A.symmetry_defect(local_sol) <= 1e-13
    assert A.symmetry_defect(nonlocal_sol) <= 1e-13


def test_symmetry_defect_detects_shift(vconf):
    # A hand-built skewed bump on (-1, 1), marched by the local step through
    # one workspace for its 63 interior nodes, as a solve does.
    xi = np.linspace(-1.0, 1.0, 65)
    state = L.FixedDomainState(t=0.0, g=-1.0, h=1.0, values=(1.0 - xi * xi) * (1.0 + 0.3 * xi))
    work = L._Workspace(63)
    sol = march(L.LocalSolution, state,
                lambda s, dt: L.step(s, dt, vconf, L.INERT_KNOBS, work), vconf.T, 5e-4,
                n_cells=64)
    assert A.symmetry_defect(sol) > 1e-3
