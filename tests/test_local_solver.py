import ctypes
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

from frontlab import local_solver as L
from frontlab import problem as P
from frontlab.errors import CflViolation, DegenerateDomain, OutOfHorizon, PositivityLoss
from frontlab.trajectory import march, plan_steps


@pytest.fixture(scope="module")
def stefan_short():
    return P.validate(P.symmetric_stefan(T=0.25))


def quadratic_state(n=128, g=-1.0, h=1.0):
    xi = np.arange(n + 1) / n
    x = (1.0 - xi) * g + xi * h
    w = 1.0 - x**2
    w[0] = w[-1] = 0.0
    return L.FixedDomainState(t=0.0, g=g, h=h, values=w)


def test_boundary_velocities_quadratic_oracle():
    # v(x) = 1 - x^2 has v_x(-1) = 2 and v_x(1) = -2: speeds (-2, 2) at mu = 1.
    st = quadratic_state(n=256)
    g_dot, h_dot = L.boundary_velocities(st, L.INERT_KNOBS, mu=1.0)
    assert g_dot == pytest.approx(-2.0, abs=1e-10)
    assert h_dot == pytest.approx(2.0, abs=1e-10)


def test_boundary_velocities_zero_interior_leaves_shift():
    n = 64
    st = L.FixedDomainState(0.0, -1.0, 1.0, np.zeros(n + 1))
    knobs = L.PerturbationKnobs(A=0.0, B=1.5, gamma1=0.4, eps=0.1)
    g_dot, h_dot = L.boundary_velocities(st, knobs, mu=1.0)
    shift = 1.5 * 0.1**0.4
    assert g_dot == pytest.approx(-shift, rel=1e-15)
    assert h_dot == pytest.approx(shift, rel=1e-15)


def test_boundary_velocities_symmetric_is_exactly_antisymmetric():
    st = quadratic_state(n=128)
    g_dot, h_dot = L.boundary_velocities(st, L.INERT_KNOBS, mu=0.7)
    assert g_dot == -h_dot


def test_boundary_velocities_degenerate_domain():
    st = L.FixedDomainState(0.0, 0.0, 1e-9, np.zeros(65))
    with pytest.raises(DegenerateDomain):
        L.boundary_velocities(st, L.INERT_KNOBS, mu=1.0)


def banded_average(r, rhs):
    """Reference: two ``solve_banded`` calls, the data and its reflection, averaged."""
    ab = np.empty((3, rhs.size))
    ab[0, :] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :] = -r
    forward = solve_banded((1, 1), ab, rhs, check_finite=False)
    backward = solve_banded((1, 1), ab, rhs[::-1], check_finite=False)[::-1]
    return 0.5 * (forward + backward)


def within_backward_error(r, x, rhs):
    """max |(I - r D2) x - rhs| <= 4 eps ((1 + 4r) max|x| + max|rhs|), plus
    16 (1 + 4r) times the smallest subnormal for roundings below the normal
    range (a subnormal x is stored to that absolute spacing only)."""
    padded = np.concatenate([[0.0], x, [0.0]])
    residual = (1.0 + 2.0 * r) * x - r * (padded[:-2] + padded[2:]) - rhs
    scale = (1.0 + 4.0 * r) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    tiny = np.nextafter(0.0, 1.0)
    bound = 4.0 * np.finfo(float).eps * scale + 16.0 * (1.0 + 4.0 * r) * tiny
    return np.max(np.abs(residual)) <= bound


tridiagonal_inputs = st.tuples(
    st.floats(1e-3, 1e3),
    hnp.arrays(float, st.integers(3, 300), elements=st.floats(-1e6, 1e6)),
)


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@settings(max_examples=100, deadline=None)
@given(case=tridiagonal_inputs)
def test_tridiagonal_solve_backward_error_matches_banded_average(parity, case):
    # Both parities of the size: the split solve has a centre row for odd m
    # and two special diagonal entries for even m.  The reference meets the
    # same bound, so the bound is no looser than what it needs.
    r, rhs = case
    if rhs.size % 2 != parity:
        rhs = rhs[:-1]
    assert within_backward_error(r, L._solve_tridiagonal_symmetric(r, rhs), rhs)
    assert within_backward_error(r, banded_average(r, rhs), rhs)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 64, 65, 1023, 1024])
def test_tridiagonal_solve_keeps_symmetric_and_antisymmetric_data_exactly(m):
    rhs = np.random.default_rng(m).uniform(-1.0, 1.0, m)
    symmetric = rhs + rhs[::-1]
    antisymmetric = rhs - rhs[::-1]
    for r in (1e-3, 0.7, 1e3):
        x = L._solve_tridiagonal_symmetric(r, symmetric)
        assert x[::-1].tobytes() == x.tobytes()
        x = L._solve_tridiagonal_symmetric(r, antisymmetric)
        assert x[::-1].tobytes() == (0.0 - x).tobytes()


def test_tridiagonal_solve_reflects_signed_zeros_exactly():
    # A subnormal and zeros of both signs in the split data; the solve must
    # still return the same bytes for the data and its reflection.
    rhs = np.array([-5e-324, -0.0, -0.0])
    forward = L._solve_tridiagonal_symmetric(1e-3, rhs)
    mirrored = L._solve_tridiagonal_symmetric(1e-3, rhs[::-1])
    assert mirrored.tobytes() == forward[::-1].tobytes()


def stacked_split_solve(r, rhs):
    """Oracle: the split solve as one m-row system, both blocks stacked with a
    zero coupling entry, factored by one ``pttrf`` and solved by one
    ``pttrs``, then recombined as the solver recombines."""
    m = rhs.size
    k = m // 2
    odd = m - 2 * k
    d_buf, e_buf, b_buf = ((ctypes.c_double * size)() for size in (m, m - 1, m))
    diag, off, x = np.frombuffer(d_buf), np.frombuffer(e_buf), np.frombuffer(b_buf)
    diag.fill(2.0 + 4.0 * r)
    off.fill(-2.0 * r)
    if odd:
        diag[k] = 1.0 + 2.0 * r
    else:
        diag[k - 1] = 2.0 + 2.0 * r
        diag[k] = 2.0 + 6.0 * r
    off[k - 1 + odd] = 0.0
    head, tail = rhs[:k], rhs[:m - k - 1:-1]
    np.add(head, tail, out=x[:k])
    np.subtract(head, tail, out=x[:m - k - 1:-1])
    if odd:
        x[k] = rhs[k]
    pttrf, pttrs = L._lapack_pt()
    n, one, info = ctypes.c_int64(m), ctypes.c_int64(1), ctypes.c_int64()
    pttrf(ctypes.byref(n), d_buf, e_buf, ctypes.byref(info))
    assert info.value == 0
    pttrs(ctypes.byref(n), ctypes.byref(one), d_buf, e_buf, b_buf, ctypes.byref(n),
          ctypes.byref(info))
    assert info.value == 0
    out = np.empty(m)
    np.add(x[:k], x[:m - k - 1:-1], out=out[:k])
    np.subtract(x[:k], x[:m - k - 1:-1], out=out[:m - k - 1:-1])
    if odd:
        out[k] = x[k]
    out += 0.0
    return out


def oracle_data(m):
    """Data of each kind the blocks can see: both parts, one part only, and
    signed zeros with subnormals (whose parts round to zero or not)."""
    rng = np.random.default_rng(m)
    b = rng.uniform(-1.0, 1.0, m)
    tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0], m)
    return {
        "symmetric": b + b[::-1],
        "antisymmetric": b - b[::-1],
        "skewed": (b + b[::-1]) * (1.0 + 0.3 * np.linspace(-1.0, 1.0, m)),
        "barely-skewed": (b + b[::-1]) + 1e-12 * np.linspace(0.0, 1.0, m),
        "signed-zeros": np.where(np.arange(m) % 2, -0.0, 0.0),
        "subnormals": tiny,
        "symmetric-subnormals": tiny + tiny[::-1],
    }


@pytest.mark.parametrize("m", [2, 3, 4, 5, 64, 65, 1023, 1024])
def test_tridiagonal_solve_same_bytes_as_stacked_oracle(m):
    # One workspace for every call, so factors held from earlier r values
    # and data kinds are in play, and a fresh workspace per call.
    work = L._Workspace(m)
    for r in (1e-3, 0.7, 0.7, 1e3):
        for kind, rhs in oracle_data(m).items():
            expected = stacked_split_solve(r, rhs).tobytes()
            assert L._solve_tridiagonal_symmetric(r, rhs, work=work).tobytes() == expected, kind
            assert L._solve_tridiagonal_symmetric(r, rhs).tobytes() == expected, kind


@settings(max_examples=100, deadline=None)
@given(case=tridiagonal_inputs)
def test_tridiagonal_solve_is_reflection_equivariant(case):
    r, rhs = case
    forward = L._solve_tridiagonal_symmetric(r, rhs)
    mirrored = L._solve_tridiagonal_symmetric(r, rhs[::-1])
    assert mirrored.tobytes() == forward[::-1].tobytes()


def test_tridiagonal_factorization_failure_is_reported():
    # r = -1 makes the split matrix indefinite, so pttrf stops with info > 0.
    with pytest.raises(np.linalg.LinAlgError, match="pttrf info"):
        L._solve_tridiagonal_symmetric(-1.0, np.ones(8))


def test_lapack_lookup_names_a_missing_symbol():
    # A numpy linked to another LAPACK lacks the scipy_*_64_ symbols.
    path = np.linalg._umath_linalg.__file__
    with pytest.raises(ImportError, match="scipy_dnosuch_64_") as caught:
        L._lapack_function("dnosuch")
    assert caught.value.name == "scipy_dnosuch_64_"
    assert caught.value.path == path
    assert path in str(caught.value)


def solution_bytes(sol) -> bytes:
    """Boundary tracks and every snapshot of a solution, as raw bytes."""
    parts = [sol.boundary_times, sol.boundary_g, sol.boundary_h]
    parts += [s.values for s in sol.snapshots]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


def count_factorizations(monkeypatch) -> list[int]:
    """Record the row count of each pttrf call of workspaces made from now on."""
    pttrf, pttrs = L._lapack_pt()
    sizes = []

    def counted(n, d, e, info):
        sizes.append(n._obj.value)
        return pttrf(n, d, e, info)

    monkeypatch.setattr(L, "_lapack_pt", lambda: (counted, pttrs))
    return sizes


def freeze_fronts(monkeypatch, vel):
    """Pin the front speeds to vel: step reads them from boundary_velocities."""
    monkeypatch.setattr(L, "boundary_velocities", lambda state, knobs, mu: vel)


def add_forcing(monkeypatch, forcing):
    """Add forcing(t, x) at the interior nodes as the last explicit term."""
    explicit_terms = L._explicit_terms

    def forced(w, t, g, h, *args):
        terms = explicit_terms(w, t, g, h, *args)
        xi, one_minus = L._unit_grid(w.size - 1)
        terms += forcing(t, one_minus * g + xi * h)
        return terms

    monkeypatch.setattr(L, "_explicit_terms", forced)


def freeze_and_force(monkeypatch):
    freeze_fronts(monkeypatch, (-0.3, 0.5))
    add_forcing(monkeypatch, lambda t, x: 0.1 * np.cos(x) * (1.0 + t))


SOLVE_CASES = {
    "stefan-i1": (P.symmetric_stefan(T=0.05), dict(knobs=L.preset_knobs("i1", 0.05)), None),
    "fisher-plain": (P.fisher_kpp_config(T=0.05), {}, None),
    "stefan-override-source": (P.symmetric_stefan(T=0.05), {}, freeze_and_force),
}


def solve_case(monkeypatch, case):
    """The case's validated config and solve arguments, its seams in place."""
    cfg, kwargs, seams = SOLVE_CASES[case]
    if seams is not None:
        seams(monkeypatch)
    return P.validate(cfg), kwargs


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_factors_once_per_step_plus_one(monkeypatch, case):
    # The corrector's matrix is the next predictor's, so N steps factor each
    # block they use N + 1 times: 95 nodes split into a symmetric block of 48
    # rows and an antisymmetric one of 47.  A mirror-symmetric run never
    # factors the second; the pinned asymmetric fronts of the override case
    # need it at every r.  A second solve starts again from no factor.
    vconf, kwargs = solve_case(monkeypatch, case)
    sizes = count_factorizations(monkeypatch)
    blocks = [48, 47] if case == "stefan-override-source" else [48]
    for _ in range(2):
        sizes.clear()
        sol = L.solve(vconf, n_cells=96, dt=1e-3, **kwargs)
        n_steps = sol.boundary_times.size - 1
        assert n_steps == 50
        assert sizes == blocks * (n_steps + 1)
    assert not hasattr(L, "_split_factor")  # no module-level factor cache


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_corrector_r_is_next_predictor_r_bitwise(monkeypatch, case):
    vconf, kwargs = solve_case(monkeypatch, case)
    seen = []
    solve = L._solve_tridiagonal_symmetric

    def recording(r, rhs, out=None, work=None):
        seen.append(r)
        return solve(r, rhs, out, work)

    monkeypatch.setattr(L, "_solve_tridiagonal_symmetric", recording)
    L.solve(vconf, n_cells=96, dt=1e-3, **kwargs)
    r = np.array(seen)
    assert r.size == 100
    predictor, corrector = r[0::2], r[1::2]
    # The fronts move, so consecutive steps have different matrices ...
    assert np.all(predictor[1:] != predictor[:-1])
    # ... and each corrector's r is the next predictor's, bit for bit.
    assert corrector[:-1].tobytes() == predictor[1:].tobytes()


def test_workspace_holds_no_hidden_state():
    # Solving A, then B, then A again gives A's bytes every time, and the
    # same bytes as marches whose steps each build a fresh workspace.
    stefan = P.validate(P.symmetric_stefan(T=0.05))
    fisher = P.validate(P.fisher_kpp_config(T=0.05))
    knobs = L.preset_knobs("i2", 0.05)
    runs = [(stefan, knobs, 128, 1e-3), (fisher, L.INERT_KNOBS, 97, 5e-4)] * 2
    runs.pop()

    def fresh_per_step(vconf, knobs, n_cells, dt):
        return march(L.LocalSolution, L.initial_state(vconf, n_cells),
                     lambda state, dt: L.step(state, dt, vconf, knobs), vconf.T, dt,
                     n_cells=n_cells)

    warm = [solution_bytes(L.solve(vconf, knobs, n_cells=n, dt=dt))
            for vconf, knobs, n, dt in runs]
    cold = [solution_bytes(fresh_per_step(*run)) for run in runs]
    assert warm[0] == warm[2]
    assert warm == cold


def test_solves_in_two_threads_give_the_serial_bytes():
    # The LAPACK calls release the GIL, so two solves run at once; each
    # solve's buffers, its factors included, are its own.
    stefan = P.validate(P.symmetric_stefan(T=0.05))
    fisher = P.validate(P.fisher_kpp_config(T=0.05))
    runs = [lambda: L.solve(stefan, L.preset_knobs("i1", 0.05), n_cells=128, dt=1e-3),
            lambda: L.solve(fisher, n_cells=97, dt=5e-4)]
    serial = [solution_bytes(run()) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between and around the calls
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda run: solution_bytes(run()), runs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2


def test_tridiagonal_solve_same_bytes_as_fresh_workspace():
    # Alternating r values and data with and without an antisymmetric part,
    # through one workspace per size, each return what a solve with a fresh
    # workspace returns.
    rng = np.random.default_rng(14)
    data = {}
    for m in (1023, 1024):
        b = rng.uniform(-1.0, 1.0, m)
        data[m] = [b + b[::-1], b, b + b[::-1]]
    works = {m: L._Workspace(m) for m in data}
    for r in (0.3, 0.3, 17.0, 0.3, 17.0):
        for m in (1023, 1024, 1023):
            for rhs in data[m]:
                warm = L._solve_tridiagonal_symmetric(r, rhs, work=works[m])
                assert warm.tobytes() == L._solve_tridiagonal_symmetric(r, rhs).tobytes()


def test_step_preserves_symmetry_exactly(stefan_short):
    state = L.initial_state(stefan_short, 128)
    for _ in range(50):
        state = L.step(state, 1e-4, stefan_short)
    assert state.g + state.h == 0.0
    assert np.array_equal(state.values, state.values[::-1])


def test_step_one_step_boundary_growth(stefan_short):
    # |v0'(h0)| = 2V/h0, so h moves at mu*2V/h0 to leading order.
    dt = 1e-5
    state = L.step(L.initial_state(stefan_short, 256), dt, stefan_short)
    assert state.h == pytest.approx(1.0 + dt * 2.0, abs=1e-7)
    assert state.g == pytest.approx(-1.0 - dt * 2.0, abs=1e-7)


def test_step_cfl_violation(stefan_short):
    state = L.initial_state(stefan_short, 128)
    with pytest.raises(CflViolation):
        L.step(state, 0.1, stefan_short)


def test_solve_reaction_step_guard():
    # Fisher-KPP with a = b = 100 has L0 = 320, so dt = 0.005 breaks
    # dt * L0 <= 1/2 at the first step, after every earlier guard passes.
    vconf = P.validate(P.fisher_kpp_config(T=0.05, a=100.0, b=100.0))
    assert vconf.L0 == 320.0
    with pytest.raises(CflViolation) as info:
        L.solve(vconf, n_cells=64, dt=0.005)
    assert str(info.value) == "dt * L0 = 1.600 > 1/2; reduce dt"
    assert info.value.time_of_failure == 0.0


COLLAPSE_WIDTH = 1.05e-6  # just above MIN_GAP = 1e-6


@pytest.mark.parametrize("speeds, calls", [
    ((0.9, 0.9), 1),  # the predictor moves each front 0.9 width/32 inward: width 0.991e-6
    ((0.7, 0.9), 2),  # predictor width 1.004e-6; the corrector's mean 0.8 gives gap1 0.9975e-6
], ids=["predictor", "corrector"])
def test_step_collapse_within_a_step_is_degenerate_domain(stefan_short, monkeypatch, speeds,
                                                          calls):
    # Each front moves inward at speeds[k] in stage k.  dt = width / 32 keeps
    # both stages' advection CFL ratios below 1 on 32 cells; the density is
    # zero, so no positivity check fires first.  The predictor check raises
    # before the corrector's speeds are asked for, the gap1 check after.
    assert L.MIN_GAP == 1e-6
    state = L.FixedDomainState(0.5, -COLLAPSE_WIDTH / 2, COLLAPSE_WIDTH / 2, np.zeros(33))
    asked = []

    def inward(state, knobs, mu):
        s = speeds[len(asked)]
        asked.append(state)
        return s, -s

    monkeypatch.setattr(L, "boundary_velocities", inward)
    with pytest.raises(DegenerateDomain) as info:
        L.step(state, COLLAPSE_WIDTH / 32, stefan_short)
    assert str(info.value) == "domain collapsed within a step"
    assert info.value.time_of_failure == 0.5
    assert len(asked) == calls


def nodewise_advection_cfl(g, h, vel, dt, n):
    """dt max |chi| / dxi over all n + 1 nodes, chi = [(1 - xi) g' + xi h'] / (h - g)."""
    xi = np.arange(n + 1) / n
    chi = ((1.0 - xi) * vel[0] + xi * vel[1]) / (h - g)
    return dt * float(np.max(np.abs(chi))) / (1.0 / n)


def test_oversized_dt_fails_where_the_nodewise_cfl_first_exceeds_one(monkeypatch):
    # Fronts pinned to move inward at 1/2 each: the domain shrinks, the
    # advection CFL ratio grows, and the run fails mid-way, at the step
    # (predictor at g, h or corrector at the new fronts) and with the ratio
    # that the nodewise maximum names.
    vconf = P.validate(P.symmetric_stefan(T=1.5))
    n, vel = 64, (0.5, -0.5)
    n_steps, dt = plan_steps(vconf.T, 0.03)
    g, h, t = -vconf.h0, vconf.h0, 0.0
    for _ in range(n_steps):
        g1 = g + dt * (0.5 * (vel[0] + vel[0]))
        h1 = h + dt * (0.5 * (vel[1] + vel[1]))
        over = [c for c in (nodewise_advection_cfl(g, h, vel, dt, n),
                            nodewise_advection_cfl(g1, h1, vel, dt, n)) if c > 1.0 + 1e-12]
        if over:
            break
        g, h, t = g1, h1, t + dt
    assert over and 0.5 < t < vconf.T
    freeze_fronts(monkeypatch, vel)
    with pytest.raises(CflViolation) as info:
        L.solve(vconf, n_cells=n, dt=0.03)
    assert info.value.time_of_failure == t
    assert str(info.value) == f"advection CFL {over[0]:.3f} > 1; reduce dt"


def test_step_positivity_loss(stefan_short, monkeypatch):
    state = L.initial_state(stefan_short, 64)
    freeze_fronts(monkeypatch, (0.0, 0.0))
    add_forcing(monkeypatch, lambda t, x: -30.0 * np.ones_like(x))
    with pytest.raises(PositivityLoss):
        st = state
        for _ in range(200):
            st = L.step(st, 1e-3, stefan_short)


def test_step_negative_predictor_is_positivity_loss(stefan_short, monkeypatch):
    # The predictor dips below zero (to about -0.013) and the corrector's
    # forcing would lift it back; clamping the predictor must not hide that.
    state = L.initial_state(stefan_short, 64)
    freeze_fronts(monkeypatch, (0.0, 0.0))
    add_forcing(monkeypatch, lambda t, x: np.full_like(x, -100.0 if t == 0.0 else 100.0))
    with pytest.raises(PositivityLoss) as info:
        L.step(state, 1e-3, stefan_short)
    assert info.value.time_of_failure == pytest.approx(1e-3)


def test_step_nan_value_is_positivity_loss(stefan_short):
    # NaN compares False with everything, so a guard written as
    # "min < floor" would let it through.
    state = L.initial_state(stefan_short, 64)
    state.values[32] = np.nan
    with pytest.raises(PositivityLoss):
        L.step(state, 1e-4, stefan_short)


def test_manufactured_solution_convergence(stefan_short, monkeypatch):
    # Frozen boundaries, forcing chosen so v*(t,x) = exp(-t)(1 - x^2) is exact.
    vconf = P.validate(P.symmetric_stefan(T=0.1))

    def exact(t, x):
        return np.exp(-t) * (1.0 - x**2)

    def forcing(t, x):
        return -np.exp(-t) * (1.0 - x**2) + 2.0 * np.exp(-t)

    freeze_fronts(monkeypatch, (0.0, 0.0))
    add_forcing(monkeypatch, forcing)
    errors = []
    cells = [32, 64, 128, 256]
    for n in cells:
        sol = L.solve(vconf, n_cells=n, dt=0.1 / n)
        x, w = sol.snapshot_nodes(len(sol.snapshots) - 1)
        errors.append(np.max(np.abs(w - exact(0.1, x))))
    order = np.polyfit(np.log(1.0 / np.asarray(cells, float)), np.log(errors), 1)[0]
    assert order >= 1.8


def test_solve_monotone_boundaries(stefan_short):
    sol = L.solve(stefan_short, n_cells=128, dt=2e-4)
    assert np.all(np.diff(sol.boundary_h) > 0.0)
    assert np.all(np.diff(sol.boundary_g) < 0.0)


def test_solve_eps_zero_matches_inert_bitwise(stefan_short):
    for preset in ("i1", "i2"):
        knobs = L.preset_knobs(preset, eps=0.0)
        a = L.solve(stefan_short, knobs, n_cells=64, dt=5e-4)
        b = L.solve(stefan_short, L.INERT_KNOBS, n_cells=64, dt=5e-4)
        assert np.array_equal(a.boundary_h, b.boundary_h)
        assert np.array_equal(a.boundary_g, b.boundary_g)
        assert all(
            np.array_equal(sa.values, sb.values)
            for sa, sb in zip(a.snapshots, b.snapshots)
        )


def test_solve_reproducible_bitwise(stefan_short):
    a = L.solve(stefan_short, n_cells=64, dt=5e-4)
    b = L.solve(stefan_short, n_cells=64, dt=5e-4)
    assert np.array_equal(a.boundary_h, b.boundary_h)
    assert all(np.array_equal(sa.values, sb.values) for sa, sb in zip(a.snapshots, b.snapshots))


def test_solve_symmetric_run_exact(stefan_short):
    # 1 - xi is built as xi reversed, so any n_cells, not only a power of
    # two, gives exact mirrors.
    for n_cells in (128, 96, 1000):
        sol = L.solve(stefan_short, n_cells=n_cells, dt=2e-4)
        assert np.max(np.abs(sol.boundary_g + sol.boundary_h)) == 0.0
        for k, s in enumerate(sol.snapshots):
            assert np.array_equal(s.values, s.values[::-1])
            assert np.min(s.values) >= 0.0
            x, _ = sol.snapshot_nodes(k)
            assert np.array_equal(x, -x[::-1])


@pytest.mark.parametrize("preset", ["i1", "i2"])
def test_solve_matches_banded_average_reference(stefan_short, monkeypatch, preset):
    # A whole solve with the split solve stays within rounding of the same
    # solve with the reference tridiagonal solve, and both keep g + h == 0.
    knobs = L.preset_knobs(preset, 0.05)
    split = L.solve(stefan_short, knobs, n_cells=256)

    def reference(r, rhs, out, work):
        out[:] = banded_average(r, rhs)
        return out

    monkeypatch.setattr(L, "_solve_tridiagonal_symmetric", reference)
    ref = L.solve(stefan_short, knobs, n_cells=256)
    for sol in (split, ref):
        assert np.all(sol.boundary_g + sol.boundary_h == 0.0)
    assert np.max(np.abs(split.boundary_g - ref.boundary_g)) <= 1e-12
    assert np.max(np.abs(split.boundary_h - ref.boundary_h)) <= 1e-12
    for a, b in zip(split.snapshots, ref.snapshots):
        assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_solve_perturbation_sandwich():
    vconf = P.validate(P.symmetric_stefan(T=0.4))
    kw = dict(n_cells=1024, dt=1e-4)
    upper = L.solve(vconf, L.preset_knobs("i1", 0.05), **kw)
    lower = L.solve(vconf, L.preset_knobs("i2", 0.05), **kw)
    mid = L.solve(vconf, L.INERT_KNOBS, **kw)
    ts = np.linspace(0.0, 0.4, 33)
    assert np.all(lower.g_of(ts) >= mid.g_of(ts) - 1e-12)
    assert np.all(mid.g_of(ts) >= upper.g_of(ts) - 1e-12)
    assert np.all(lower.h_of(ts) <= mid.h_of(ts) + 1e-12)
    assert np.all(mid.h_of(ts) <= upper.h_of(ts) + 1e-12)
    xs = np.linspace(-2.5, 2.5, 1024)
    for t in ts:
        assert np.max(lower.sample(t, xs) - mid.sample(t, xs)) <= 1e-6
        assert np.max(mid.sample(t, xs) - upper.sample(t, xs)) <= 1e-6


def test_solve_mass_balance_residual_shrinks():
    vconf = P.validate(P.symmetric_stefan(T=0.25))

    def residual(sol):
        masses = [np.trapezoid(*reversed(sol.snapshot_nodes(k))) for k in range(len(sol.snapshots))]
        masses = np.asarray(masses)
        ts = sol.snapshot_times
        return np.max(np.abs(masses - masses[0] + sol.h_of(ts) - sol.g_of(ts) - 2.0))

    coarse = residual(L.solve(vconf, n_cells=256, dt=4e-4))
    fine = residual(L.solve(vconf, n_cells=512, dt=2e-4))
    assert coarse < 1e-3
    assert fine < coarse / 2.5


def test_solve_mu_comparison(stefan_short):
    cfg2 = P.validate(P.ProblemConfig(mu=2.0, T=0.25))
    slow = L.solve(stefan_short, n_cells=128, dt=2e-4)
    fast = L.solve(cfg2, n_cells=128, dt=2e-4)
    ts = np.linspace(0.0, 0.25, 26)
    assert np.all(slow.h_of(ts) <= fast.h_of(ts) + 10.0 * 2e-4)


def test_sample_semantics(stefan_short):
    sol = L.solve(stefan_short, n_cells=128, dt=2e-4)
    assert sol.sample(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    t = 0.2
    assert sol.sample(t, float(sol.g_of(t))) == 0.0
    assert sol.sample(t, float(sol.g_of(t)) - 1.0) == 0.0
    assert sol.sample(t, float(sol.h_of(t)) + 0.3) == 0.0
    assert sol.sample(t, 0.0) > 0.0
    with pytest.raises(OutOfHorizon):
        sol.sample(0.26, 0.0)


def test_knobs_validation():
    with pytest.raises(ValueError):
        L.PerturbationKnobs(A=-1.0)
    with pytest.raises(ValueError):
        L.PerturbationKnobs(gamma1=0.6)
    with pytest.raises(ValueError):
        L.preset_knobs("i3", 0.1)
    for bad in (dict(A=np.inf), dict(B=np.nan), dict(eps=np.inf), dict(eps=np.nan)):
        with pytest.raises(ValueError, match="finite"):
            L.PerturbationKnobs(**bad)


def test_solve_rejects_invalid_config():
    bad = P.validate(P.ProblemConfig(initial=P.InitialDataSpec(V=0.0)))
    with pytest.raises(ValueError):
        L.solve(bad, n_cells=64, dt=1e-3)
