import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frontlab import kernels as K
from frontlab import nonlocal_solver as NL
from frontlab import problem as P
from frontlab.errors import (
    CflViolation,
    DomainTooSmall,
    OutOfHorizon,
    PositivityLoss,
    ResolutionTooCoarse,
)
from test_kernels import POLY, poly_moment

EPAN = K.KernelSpec("epanechnikov")
MOD = NL.NonlocalVariant("modified", beta=0.5)


def make_state(profile, eps=0.1, dx=None, half_width=2.0, extent=3.0):
    dx = eps / 16.0 if dx is None else dx
    jm = int(round(extent / dx))
    x = np.arange(-jm, jm + 1) * dx
    u = np.where((x > -half_width) & (x < half_width), profile(x), 0.0)
    return NL.EulerianState(0.0, -half_width, half_width, dx, -jm, np.asarray(u, float))


@pytest.fixture(scope="module")
def stefan_vconf():
    return P.validate(P.symmetric_stefan(T=0.1))


# -- operator -----------------------------------------------------------------


def test_stencil_moments_and_positivity():
    for n_sub in (8, 16, 32):
        w = NL.operator_stencil(EPAN, n_sub)
        z = np.arange(-n_sub, n_sub + 1) / n_sub
        assert np.all(w >= 0.0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-13)
        assert np.dot(w, z * z) == pytest.approx(2.0 * K.moment(EPAN, 2), abs=1e-13)
        assert np.array_equal(w, w[::-1])


def epanechnikov_hat_rows(n_sub):
    """Exact hat moments integral_0^1 J(z) hat_i(z) dz and flux weights
    integral_0^1 J(z) H_i(z) dz (H_i the antiderivative of hat_i from 0), as
    integral_0^1 W(w) hat_i(w) dw with W(w) = integral_w^1 J (Fubini), at
    z_i = w_i = i / n_sub: two lists of Fractions."""
    c = POLY["epanechnikov"]
    tail = [sum(Fraction(cj) / (j + 1) for j, cj in enumerate(c))]
    tail += [-Fraction(cj) / (j + 1) for j, cj in enumerate(c)]  # W's coefficients

    def against_hat(coeffs, i):
        lo, mid, hi = (Fraction(i + k, n_sub) for k in (-1, 0, 1))

        def m(k, a, b):
            return poly_moment(coeffs, k, a, b)

        rise = m(1, lo, mid) - lo * m(0, lo, mid) if i > 0 else 0  # hat (z - lo) / delta
        fall = hi * m(0, mid, hi) - m(1, mid, hi) if i < n_sub else 0  # hat (hi - z) / delta
        return n_sub * (rise + fall)

    return ([against_hat(c, i) for i in range(n_sub + 1)],
            [against_hat(tail, i) for i in range(n_sub + 1)])


@pytest.mark.parametrize("n_sub", [8, 12])
def test_stencil_and_flux_weights_match_exact_rationals(n_sub):
    # Each node against the exact hat moments, moment-corrected in Fractions
    # as operator_stencil corrects them, and the exact flux weights.
    half, flux = epanechnikov_hat_rows(n_sub)
    weights = half[:0:-1] + half
    z2 = [Fraction(m, n_sub) ** 2 for m in range(-n_sub, n_sub + 1)]
    s0, s2, s4 = (sum(w * z**k for w, z in zip(weights, z2)) for k in (0, 1, 2))
    target2 = 2 * poly_moment(POLY["epanechnikov"], 2)
    det = s0 * s4 - s2 * s2
    alpha = ((1 - s0) * s4 - (target2 - s2) * s2) / det
    gamma = ((target2 - s2) * s0 - (1 - s0) * s2) / det
    exact = [float(w * (1 + alpha + gamma * z)) for w, z in zip(weights, z2)]
    assert NL.operator_stencil(EPAN, n_sub) == pytest.approx(exact, rel=0, abs=1e-15)
    exact_flux = [float(f) for f in flux]
    assert NL.flux_weights(EPAN, n_sub) == pytest.approx(exact_flux, rel=0, abs=1e-15)


def test_cached_kernel_arrays_are_read_only():
    # The cached arrays are shared by every later solve, so an in-place edit
    # must fail instead of changing them.
    for array in (NL.operator_stencil(EPAN, 16), NL.flux_weights(EPAN, 16),
                  K._GL_NODES, K._GL_WEIGHTS):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_cold_stencil_and_flux_weights_make_one_quadrature_call_each(monkeypatch):
    kernel = K.KernelSpec("quartic")  # a new object: every per-kernel cache is cold
    calls = []
    original = K.integrate_against

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(K, "integrate_against", counting)

    def count(build):
        calls.clear()
        build()
        return len(calls)

    # The first stencil also computes the kernel's cached second moment, which c_star reuses.
    assert count(lambda: NL.operator_stencil(kernel, 16)) == 2
    assert count(lambda: K.c_star(kernel)) == 0
    assert count(lambda: NL.operator_stencil(kernel, 12)) == 1
    assert count(lambda: NL.flux_weights(kernel, 16)) == 1
    assert count(lambda: NL.flux_weights(kernel, 12)) == 1


def test_operator_constant_profile_vanishes():
    st_const = make_state(lambda x: np.ones_like(x))
    out = NL.apply_nonlocal_operator(st_const, EPAN, 0.1, d=1.0)
    x = st_const.grid()
    interior = (x > -2.0 + 0.15) & (x < 2.0 - 0.15)
    assert np.max(np.abs(out[interior])) <= 1e-8


def test_operator_linear_profile_vanishes():
    st_lin = make_state(lambda x: x + 3.0)
    out = NL.apply_nonlocal_operator(st_lin, EPAN, 0.1, d=1.0)
    x = st_lin.grid()
    interior = (x > -1.8) & (x < 1.8)
    assert np.max(np.abs(out[interior])) <= 1e-7


def test_operator_quadratic_gives_second_derivative():
    d = 0.7
    st_quad = make_state(lambda x: x * x, dx=0.1 / 32)
    out = NL.apply_nonlocal_operator(st_quad, EPAN, 0.1, d=d)
    x = st_quad.grid()
    interior = (x > -2.0 + 0.15) & (x < 2.0 - 0.15)
    assert np.max(np.abs(out[interior] - 2.0 * d)) <= 0.04 * d


def test_operator_sine_consistency_improves_with_eps():
    errs = {}
    for eps in (0.1, 0.05):
        st_sin = make_state(np.sin, eps=eps, dx=eps / 32)
        out = NL.apply_nonlocal_operator(st_sin, EPAN, eps, d=1.0)
        x = st_sin.grid()
        interior = (x > -2.0 + 1.5 * eps) & (x < 2.0 - 1.5 * eps)
        errs[eps] = float(np.max(np.abs(out[interior] + np.sin(x[interior]))))
    assert errs[0.1] <= 0.02
    assert errs[0.05] < errs[0.1]


def full_grid_operator(state, kernel, eps, d):
    """Reference: zero-extended full-grid np.convolve, masked to (g, h)."""
    stencil = NL.operator_stencil(kernel, int(round(eps / state.dx)))
    conv = np.convolve(state.values, stencil, mode="same")
    out = d * K.c_star(kernel) / eps**2 * (conv - state.values)
    out[~state.active_mask()] = 0.0
    return out


@settings(max_examples=40, deadline=None)
@given(
    u=hnp.arrays(dtype=float, shape=121, elements=st.floats(0.0, 1.0)),
    ends=st.tuples(st.integers(-60, -9), st.integers(9, 60)),
    fracs=st.tuples(st.sampled_from([0.0, 0.5, 0.999]), st.sampled_from([0.0, 0.25, 1e-9])),
    pad=st.integers(0, 12),
)
def test_operator_matches_full_grid_convolution(u, ends, fracs, pad):
    # The window may sit closer to the grid's ends than the stencil's reach
    # (pad < 8), which the full-grid reference handles by zero extension.
    eps, dx = 0.1, 0.1 / 8
    g, h = (ends[0] - fracs[0]) * dx, (ends[1] + fracs[1]) * dx
    j_min = ends[0] - pad - 1
    size = ends[1] - j_min + pad + 2
    x = (j_min + np.arange(size)) * dx
    vals = np.where((x > g) & (x < h), np.resize(u, size), 0.0)
    state = NL.EulerianState(0.0, g, h, dx, j_min, vals)
    out = NL.apply_nonlocal_operator(state, EPAN, eps, d=0.7)
    ref = full_grid_operator(state, EPAN, eps, d=0.7)
    scale = 0.7 * K.c_star(EPAN) / eps**2  # times max(u) <= 1
    assert np.max(np.abs(out - ref)) <= 1e-14 * scale
    assert np.all(out[~state.active_mask()] == 0.0)
    # The operator's nonzero rows lie in the window the state carries.
    lo, hi = state.window
    assert not np.any(out[:lo]) and not np.any(out[hi:])


@settings(max_examples=20, deadline=None)
@given(u=hnp.arrays(dtype=float, shape=70, elements=st.floats(0.0, 1.0)))
def test_operator_symmetric_state_exact_mirror(u):
    eps, dx = 0.1, 0.1 / 16
    jm = 90
    x = np.arange(-jm, jm + 1) * dx
    half = 0.4321
    sym = np.concatenate([u[::-1], u[:1], u])  # length 141, centred on x = 0
    vals = np.zeros(x.size)
    vals[jm - 70 : jm + 71] = sym
    vals[(x <= -half) | (x >= half)] = 0.0
    state = NL.EulerianState(0.0, -half, half, dx, -jm, vals)
    assert np.array_equal(state.values, state.values[::-1])
    out = NL.apply_nonlocal_operator(state, EPAN, eps, d=1.0)
    assert np.array_equal(out, out[::-1])


def convolve_symmetric_oracle(values, stencil, lo, hi):
    """The m-loop the ordered reduction replaced: node j accumulates, from
    +0.0 as ``np.einsum`` does, s_0 u_j, then s_m (u_{j-m} + u_{j+m}) for
    m = 1..n, in turn."""
    n = stencil.size // 2
    a, b = lo - n, hi + n
    u = values[max(a, 0) : min(b, values.size)]
    if a < 0 or b > values.size:
        u = np.concatenate([np.zeros(max(-a, 0)), u, np.zeros(max(b - values.size, 0))])
    width = hi - lo
    out = np.zeros(width)
    out += stencil[n] * u[n : n + width]
    for m in range(1, n + 1):
        out += stencil[n + m] * (u[n - m : n - m + width] + u[n + m : n + m + width])
    return out


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 32),
    size=st.integers(1, 90),
    symmetric=st.booleans(),
)
def test_convolve_symmetric_matches_m_loop_bitwise(data, n, size, symmetric):
    # Any even stencil, signed data, and windows of every width from 0 up,
    # placed anywhere on the grid including flush with either end.
    half = data.draw(hnp.arrays(float, n + 1, elements=st.floats(0.0, 1.0)))
    stencil = np.concatenate([half[:0:-1], half])
    u = data.draw(hnp.arrays(float, size, elements=st.floats(-1e3, 1e3)))
    if symmetric:
        vals = np.concatenate([u[::-1], u[1:]])  # mirror-symmetric about its middle node
        lo = data.draw(st.integers(0, vals.size // 2))
        windows = [(lo, vals.size - lo), (0, vals.size)]
    else:
        vals = u
        lo = data.draw(st.integers(0, vals.size))
        hi = data.draw(st.integers(lo, vals.size))
        windows = [(lo, hi), (0, hi), (lo, vals.size)]
    for lo, hi in windows:
        out = NL._convolve_symmetric(vals, stencil, lo, hi)
        assert out.tobytes() == convolve_symmetric_oracle(vals, stencil, lo, hi).tobytes()
        if symmetric:
            assert out.tobytes() == out[::-1].tobytes()


@pytest.mark.parametrize("n_sub", [8, 16, 32])
@pytest.mark.parametrize("family", K.BUILTIN_FAMILIES)
def test_convolve_symmetric_builtin_stencils_long_windows_bitwise(family, n_sub):
    # The solver's own stencils on windows of about 1 500 nodes: whole,
    # flush with either end, in the middle, and a mirror-symmetric state.
    stencil = NL.operator_stencil(K.KernelSpec(family), n_sub)
    rng = np.random.default_rng(n_sub)
    u = rng.uniform(0.0, 1.0, 1500)
    sym = np.concatenate([u[:750][::-1], u[:1], u[:750]])
    for vals, lo, hi in [(u, 0, 1500), (u, 0, 700), (u, 800, 1500), (u, 13, 1487),
                         (sym, 0, sym.size), (sym, 5, sym.size - 5)]:
        out = NL._convolve_symmetric(vals, stencil, lo, hi)
        assert out.tobytes() == convolve_symmetric_oracle(vals, stencil, lo, hi).tobytes()
    out = NL._convolve_symmetric(sym, stencil, 5, sym.size - 5)
    assert out.tobytes() == out[::-1].tobytes()


def test_operator_rate_is_positive_zero_where_the_reach_holds_only_zeros():
    # Hand-built states of +-0.0 with a few nonzero nodes: wherever a node's
    # whole reach of n_sub nodes each side holds +-0.0, also where every one
    # is -0.0, the rate is +0.0, never -0.0.
    eps, n_sub = 0.1, 8
    dx = eps / n_sub
    rng = np.random.default_rng(29)
    for _ in range(5):
        vals = np.where(rng.random(80) < 0.5, -0.0, 0.0)
        vals[:30] = -0.0
        vals[rng.integers(40, 80, 3)] = rng.uniform(0.1, 1.0, 3)
        state = NL.EulerianState(0.0, -40.5 * dx, 39.5 * dx, dx, -40, vals)
        assert state.window == (0, vals.size)
        out = NL.apply_nonlocal_operator(state, EPAN, eps, d=1.0)
        padded = np.concatenate([np.zeros(n_sub), vals, np.zeros(n_sub)])
        quiet = np.array([not padded[j : j + 2 * n_sub + 1].any() for j in range(vals.size)])
        assert quiet[n_sub : 30 - n_sub].all()  # reach of -0.0 alone
        assert np.array_equal(out[quiet], np.zeros(quiet.sum()))
        assert not np.signbit(out[quiet]).any()


def test_kernel_quadratures_do_not_grow_with_steps(monkeypatch):
    kernel = K.KernelSpec("epanechnikov")
    variant = NL.NonlocalVariant("modified", beta=0.5)
    vc = {T: P.validate(P.symmetric_stefan(T=T)) for T in (0.05, 0.1)}
    NL.solve(vc[0.05], kernel, eps=0.1, variant=variant, dx=0.1 / 8)  # warm the caches
    calls = []
    original = K.integrate_against

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(K, "integrate_against", counting)
    counts = []
    for T in (0.05, 0.1):
        calls.clear()
        NL.solve(vc[T], kernel, eps=0.1, variant=variant, dx=0.1 / 8)
        counts.append(len(calls))
    assert counts[1] == counts[0]


def test_operator_resolution_guard(stefan_vconf):
    st_coarse = make_state(lambda x: np.ones_like(x), dx=0.1 / 4)
    with pytest.raises(ResolutionTooCoarse):
        NL.apply_nonlocal_operator(st_coarse, EPAN, 0.1, d=1.0)
    with pytest.raises(ResolutionTooCoarse) as info:
        NL.step(NL.initial_state(stefan_vconf, 0.1 / 4), 1e-4, stefan_vconf, EPAN, 0.1, MOD)
    assert info.value.time_of_failure == 0.0


@pytest.mark.parametrize("ratio", [16.5, 12.4])
def test_fractional_eps_over_dx_is_rejected(stefan_vconf, ratio):
    # The stencil would reach round(eps/dx) dx while the scale d c*/eps^2
    # uses eps: on x^2 the operator gave 2d times 0.940 (16.5) or 0.937 (12.4).
    state = make_state(lambda x: x * x, dx=0.1 / ratio)
    with pytest.raises(ValueError, match="is not an integer"):
        NL.apply_nonlocal_operator(state, EPAN, 0.1, d=1.0)
    with pytest.raises(ValueError, match="is not an integer"):
        NL.solve(stefan_vconf, EPAN, eps=0.1, variant=MOD, dx=0.1 / ratio)


@pytest.mark.parametrize("ratio", [11, 16, 20])
def test_integer_eps_over_dx_is_exact_on_quadratics(ratio):
    state = make_state(lambda x: x * x, dx=0.1 / ratio)  # 0.1 / (0.1/11) is 11 - 2e-15
    out = NL.apply_nonlocal_operator(state, EPAN, 0.1, d=1.0)
    interior = np.abs(state.grid()) < 1.8
    assert np.max(np.abs(out[interior] - 2.0)) <= 1e-10


# -- state window -------------------------------------------------------------


def _front(sign):
    """A front in units of dx: +0.0 or -0.0, or on a node or between nodes."""
    off_node = st.builds(lambda j, f: sign * (j + f), st.integers(0, 40),
                         st.sampled_from([0.0, 0.5, 1e-9, 0.999]))
    return st.one_of(st.sampled_from([0.0, -0.0]), off_node)


@settings(max_examples=200, deadline=None)
@given(
    dx=st.sampled_from([0.1 / 16, 1.0 / 64, 0.037]),
    g=_front(-1.0),
    h=_front(1.0),
    j_min=st.integers(-50, 10),
    size=st.integers(0, 100),
)
@example(dx=0.037, g=-3.5, h=2.25, j_min=-50, size=100)  # storage wider than the window
@example(dx=0.037, g=-40.0, h=40.0, j_min=-50, size=45)  # storage ending inside it
@example(dx=1.0 / 64, g=-0.0, h=0.0, j_min=-1, size=3)
def test_state_window_is_active_mask_range(dx, g, h, j_min, size):
    state = NL.EulerianState(0.0, g * dx, h * dx, dx, j_min, np.zeros(size))
    lo, hi = state.window
    assert 0 <= lo <= hi  # an empty window may start past the stored nodes
    assert np.flatnonzero(state.active_mask()).tolist() == list(range(lo, hi))


def test_state_pads_its_window_with_zeros():
    # Nodes strictly inside (g, h) that the caller does not store are stored
    # as +0.0: on the right, and on the left with j_min moved down.
    dx = 0.1
    state = NL.EulerianState(0.0, -0.95, 0.55, dx, -2, np.array([0.5, 0.75, 1.0]))
    assert (state.j_min, state.window) == (-9, (0, 15))
    assert state.values.tobytes() == np.concatenate(
        [np.zeros(7), [0.5, 0.75, 1.0], np.zeros(5)]).tobytes()
    # Storage beyond the window is kept as given, the same array.
    wide = np.zeros(30)
    assert NL.EulerianState(0.0, -0.95, 0.55, dx, -15, wide).values is wide


def test_step_finds_the_window_once(stefan_vconf, monkeypatch):
    state = NL.initial_state(stefan_vconf, 0.1 / 16)
    calls = []
    original = NL._window

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(NL, "_window", counting)
    new = NL.step(state, 1e-4, stefan_vconf, EPAN, 0.1, MOD)
    assert calls == [(new.g, new.h, new.dx)]


def test_step_takes_n_sub_once_per_layer(stefan_vconf, monkeypatch):
    # One _n_sub for both fronts' flux and one for the operator.
    state = NL.initial_state(stefan_vconf, 0.1 / 16)
    calls = []
    original = NL._n_sub

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(NL, "_n_sub", counting)
    NL.step(state, 1e-4, stefan_vconf, EPAN, 0.1, MOD)
    assert calls == [(state.dx, 0.1, state.t)] * 2


@pytest.mark.parametrize("front", [-1e300, -np.inf, np.inf, np.nan, -(2.0**52) * 0.01],
                         ids=["-1e300", "-inf", "inf", "nan", "-2^52dx"])
@pytest.mark.parametrize("side", ["g", "h"])
def test_window_rejects_fronts_not_finite_or_past_2_52_dx(front, side):
    # The node search would never end (-1e300), overflow (inf) or fail on an
    # untyped conversion (NaN); a typed ValueError comes first, also when a
    # hand-built state finds its window.
    dx = 0.01
    g, h = (front, 1.0) if side == "g" else (-1.0, -front)
    with pytest.raises(ValueError, match=r"within 2\^52 dx"):
        NL._window(g, h, dx)
    with pytest.raises(ValueError, match=r"within 2\^52 dx"):
        NL.EulerianState(0.0, g, h, dx, 0, np.zeros(3))
    # Just inside the bound the window is exact.
    assert NL._window(-(2.0**51) * dx, 2.0**51 * dx, dx) == (1 - 2**51, 2**51 - 1)


# -- boundary flux ------------------------------------------------------------


def interp_pinned_oracle(state, ys):
    """The hand-built reconstruction ``np.interp`` replaced: the cell index is
    clamped to the grid, and a cell straddling g or h ramps to zero there."""
    u, dx = state.values, state.dx
    pos = np.asarray(ys, dtype=float) / dx
    j = np.clip(np.floor(pos).astype(int), state.j_min, state.j_min + u.size - 2)
    frac = pos - j
    k = j - state.j_min
    x_left = j * dx
    x_right = x_left + dx
    vals = u[k] * (1.0 - frac) + u[k + 1] * frac
    straddle_g = (x_left < state.g) & (x_right > state.g)
    span = np.where(straddle_g, x_right - state.g, 1.0)
    vals = np.where(straddle_g, u[k + 1] * np.clip((ys - state.g) / span, 0.0, 1.0), vals)
    straddle_h = (x_left < state.h) & (x_right > state.h)
    span = np.where(straddle_h, state.h - x_left, 1.0)
    return np.where(straddle_h, u[k] * np.clip((state.h - ys) / span, 0.0, 1.0), vals)


@settings(max_examples=100, deadline=None)
@given(
    u=hnp.arrays(dtype=float, shape=150, elements=st.floats(0.0, 1e3)),
    dx=st.sampled_from([0.1 / 16, 0.05 / 16, 1.0 / 64, 0.037]),
    ends=st.tuples(st.integers(-60, -3), st.integers(3, 60)),
    fracs=st.tuples(st.sampled_from([0.0, 0.5, 1e-9]), st.sampled_from([0.0, 0.25, 0.999])),
    pad=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    ys=hnp.arrays(dtype=float, shape=40, elements=st.floats(0.0, 1.0)),
)
def test_interp_pinned_matches_oracle_exact_at_nodes_zero_beyond_fronts(u, dx, ends, fracs, pad,
                                                                        ys):
    # A state with zeros at every node on or outside [g, h], fronts on nodes
    # (frac 0) or between them, storing pad nodes beyond each end of the
    # window: pad 0, as in a solver state, leaves out the side node.  The
    # oracle reads the same profile on a grid reaching past both fronts.
    g, h = (ends[0] - fracs[0]) * dx, (ends[1] + fracs[1]) * dx
    j_lo, j_hi = NL._window(g, h, dx)
    j_min = j_lo - 6
    x = (j_min + np.arange(j_hi - j_min + 7)) * dx
    vals = np.where((x > g) & (x < h), np.resize(u, x.size), 0.0)
    wide = NL.EulerianState(0.0, g, h, dx, j_min, vals)
    kept = slice(6 - pad[0], x.size - 6 + pad[1])
    state = NL.EulerianState(0.0, g, h, dx, j_lo - pad[0], vals[kept])
    ys = x[0] + ys * (x[-1] - x[0])

    got = NL.interp_pinned(state, ys)
    assert got.tobytes() == NL.interp_pinned(wide, ys).tobytes()
    # The oracle's fraction y/dx - j carries the rounding of y/dx, so the two
    # agree to a few ulp of max|u| per unit of |y/dx|.
    tol = 4.0 * np.finfo(float).eps * np.max(vals) * np.maximum(np.abs(ys / dx), 1.0)
    assert np.all(np.abs(got - interp_pinned_oracle(wide, ys)) <= tol)
    inside = (x > g) & (x < h)
    assert np.array_equal(NL.interp_pinned(state, x[inside]), vals[inside])
    beyond = np.concatenate([[g, h], x[~inside], ys[(ys <= g) | (ys >= h)]])
    assert np.all(NL.interp_pinned(state, beyond) == 0.0)

    # Criterion 3's constant profile, u = 1 on every node: a front lying
    # exactly on a node keeps that node's value.
    ones = NL.EulerianState(0.0, ends[0] * dx, ends[1] * dx, dx, j_min, np.ones(x.size))
    assert np.all(NL.interp_pinned(ones, [ones.g, ones.h]) == 1.0)


def test_flux_constant_profile_fubini_oracle():
    eps = 0.05
    st_const = make_state(lambda x: np.ones_like(x), eps=eps, half_width=2.0)
    st_const = NL.EulerianState(0.0, -2.0, 2.0, st_const.dx, st_const.j_min,
                                np.ones_like(st_const.values))
    h_dot = NL.boundary_flux(st_const, EPAN, eps, 1.0, MOD)[1]
    assert h_dot == pytest.approx(eps**-0.5, rel=1e-6)
    unmod = NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN))
    h_dot2 = NL.boundary_flux(st_const, EPAN, eps, 1.0, unmod)[1]
    assert h_dot2 == pytest.approx(K.c_star(EPAN) / (K.c_zero(EPAN) * eps), rel=1e-6)


def test_flux_general_beta_offset():
    # Any offset exponent in (0, 1): constant profile still gives mu*eps^-beta.
    eps = 0.05
    dx = eps / 16.0
    jm = int(round(3.0 / dx))
    state = NL.EulerianState(0.0, -2.0, 2.0, dx, -jm, np.ones(2 * jm + 1))
    for beta in (0.3, 0.7):
        variant = NL.NonlocalVariant("modified", beta=beta)
        h_dot = NL.boundary_flux(state, EPAN, eps, 1.0, variant)[1]
        assert h_dot == pytest.approx(eps**-beta, rel=1e-6)


def test_flux_scaled_by_mu_and_signed():
    eps = 0.05
    st_const = make_state(lambda x: np.ones_like(x), eps=eps)
    left, right = NL.boundary_flux(st_const, EPAN, eps, 2.0, MOD)
    assert right > 0.0
    assert left == -right  # symmetric state: exact mirror


def test_flux_empty_window_is_zero():
    eps = 0.1
    st_bump = make_state(lambda x: np.maximum(0.0, 0.25 - x * x), eps=eps)
    assert NL.boundary_flux(st_bump, EPAN, eps, 1.0, MOD) == (0.0, 0.0)


def test_flux_domain_too_small():
    eps = 0.1
    dx = eps / 16
    jm = 200
    u = np.zeros(2 * jm + 1)
    tight = NL.EulerianState(0.0, -0.4, 0.4, dx, -jm, u)
    with pytest.raises(DomainTooSmall):
        NL.boundary_flux(tight, EPAN, eps, 1.0, MOD)


def test_flux_weights_sum_to_first_moment():
    for n in (8, 16, 64):
        om = NL.flux_weights(EPAN, n)
        assert np.all(om >= 0.0)
        assert np.sum(om) == pytest.approx(K.moment(EPAN, 1), abs=1e-13)


def boundary_flux_full_window(state, kernel, eps, mu, variant):
    """The flux law read through interp_pinned over the whole active window,
    at the samples front - offset - eps i/n_sub: (g', h')."""
    n_sub = round(eps / state.dx)
    omega = NL.flux_weights(kernel, n_sub)
    offset, coeff = variant.offset(eps), variant.coefficient(kernel, eps)
    eps_w = eps * (np.arange(n_sub + 1) / n_sub)
    right = float(np.dot(omega, NL.interp_pinned(state, state.h - offset - eps_w)))
    left = float(np.dot(omega, NL.interp_pinned(mirrored(state), -state.g - offset - eps_w)))
    return -mu * coeff * left, mu * coeff * right


def mirrored(state):
    """The state reflected about x = 0, its values copied."""
    size = state.values.size
    return NL.EulerianState(state.t, -state.h, -state.g, state.dx,
                            -(state.j_min + size - 1), state.values[::-1].copy())


FLUX_VARIANTS = [
    NL.NonlocalVariant("modified", beta=0.3), MOD, NL.NonlocalVariant("modified", beta=0.7),
    NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN)),
]


@st.composite
def flux_states(draw, eps, n_sub, variant):
    """A state whose fronts lie on a node (frac 0) or between nodes; pad 0
    ends the grid flush with the first node at or beyond each front, pad -1,
    as in a solver state, with the last node inside; its values beyond the
    fronts are zeros or arbitrary.  The unmodified law (offset 0) samples h
    itself."""
    dx = eps / n_sub
    reach = math.ceil((variant.offset(eps) + eps) / dx)
    ends = (-reach - draw(st.integers(1, 40)), reach + draw(st.integers(1, 40)))
    fracs = (draw(st.sampled_from([0.0, 0.5, 1e-9, 0.999])),
             draw(st.sampled_from([0.0, 0.25, 1e-9, 0.999])))
    pad = (draw(st.integers(-1, 4)), draw(st.integers(-1, 4)))
    g, h = (ends[0] - fracs[0]) * dx, (ends[1] + fracs[1]) * dx
    j_min = math.floor(g / dx) - pad[0]
    size = math.ceil(h / dx) + pad[1] - j_min + 1
    x = (j_min + np.arange(size)) * dx
    u = draw(hnp.arrays(float, size, elements=st.floats(0.0, 1e3)))
    vals = np.where((x > g) & (x < h), u, 0.0) if draw(st.booleans()) else u
    return NL.EulerianState(0.0, g, h, dx, j_min, vals)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    eps=st.sampled_from([0.2, 0.1, 0.05]),
    n_sub=st.sampled_from([8, 11, 16]),
    variant=st.sampled_from(FLUX_VARIANTS),
)
def test_boundary_flux_matches_full_window_oracle(data, eps, n_sub, variant):
    # The two-slice sum regroups the reconstruction's arithmetic and spaces
    # its samples by dx instead of eps/n_sub, so it agrees with interp_pinned
    # to rounding: a few ulp of the largest term the sum can hold.
    state = data.draw(flux_states(eps, n_sub, variant))
    mu = 1.3
    omega = NL.flux_weights(EPAN, n_sub)
    scale = mu * variant.coefficient(EPAN, eps) * float(np.sum(omega)) * np.max(state.values)
    for speed, expected in zip(NL.boundary_flux(state, EPAN, eps, mu, variant),
                               boundary_flux_full_window(state, EPAN, eps, mu, variant)):
        assert abs(speed - expected) <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    eps=st.sampled_from([0.2, 0.1, 0.05]),
    n_sub=st.sampled_from([8, 11, 16]),
    variant=st.sampled_from(FLUX_VARIANTS),
)
def test_boundary_flux_left_is_mirrored_right_bitwise(data, eps, n_sub, variant):
    # The left sum reads the mirrored state through the right sum's code, so
    # g' of a state is -h' of its mirror.
    state = data.draw(flux_states(eps, n_sub, variant))
    flipped = mirrored(state)
    for a, b in [(state, flipped), (flipped, state)]:
        left = NL.boundary_flux(a, EPAN, eps, 1.3, variant)[0]
        right = NL.boundary_flux(b, EPAN, eps, 1.3, variant)[1]
        assert np.float64(left).tobytes() == np.float64(-right).tobytes()


@pytest.mark.parametrize("stored", [False, True], ids=["front_node_unstored", "front_node_stored"])
@pytest.mark.parametrize("ends", [(-70, 90), (-71, 93), (-69, 97)])
def test_boundary_flux_unmodified_front_on_a_node(ends, stored):
    # Offset 0 puts sample 0 on the front itself.  A front exactly on a node
    # reads that node's value: its exact zero when the state does not store
    # it, as in a solver state, and the stored value otherwise.
    eps, dx = 0.1, 0.1 / 16
    variant = NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN))
    g, h = ends[0] * dx, ends[1] * dx
    j_lo, j_hi = NL._window(g, h, dx)
    x = np.arange(j_lo - 1, j_hi + 2) * dx
    vals = 1.0 + 0.5 * np.sin(7.0 * x)
    state = NL.EulerianState(0.0, g, h, dx, j_lo - 1, vals) if stored else (
        NL.EulerianState(0.0, g, h, dx, j_lo, vals[1:-1]))
    scale = K.c_star(EPAN) / eps * float(np.sum(NL.flux_weights(EPAN, 16))) * 1.5
    for speed, expected in zip(NL.boundary_flux(state, EPAN, eps, 1.0, variant),
                               boundary_flux_full_window(state, EPAN, eps, 1.0, variant)):
        assert abs(speed - expected) <= 1e-14 * scale
    # Sample 0 carries the front node's value with its weight omega_0.
    omega0 = NL.flux_weights(EPAN, 16)[0] * K.c_star(EPAN) / eps
    unstored = NL.EulerianState(0.0, g, h, dx, j_lo, vals[1:-1])
    gap = (NL.boundary_flux(state, EPAN, eps, 1.0, variant)[1]
           - NL.boundary_flux(unstored, EPAN, eps, 1.0, variant)[1])
    assert gap == pytest.approx(omega0 * vals[-1] if stored else 0.0, abs=1e-12)


@pytest.mark.parametrize("fracs", [(0.0, 0.0), (0.3, 0.6), (1e-9, 0.999)])
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
def test_boundary_flux_linear_profile_is_analytic(beta, fracs):
    # The reconstruction is exact on a linear profile and the hat weights
    # integrate w W(w) exactly, so the flux law's integral is
    # u(y0) M1 - u' eps M2 / 2 (M_k = integral_0^1 z^k J, y0 = front - offset)
    # to rounding, for either front.
    eps, mu = 0.1, 1.3
    dx = eps / 16
    variant = NL.NonlocalVariant("modified", beta=beta)
    g, h = (-100 - fracs[0]) * dx, (120 + fracs[1]) * dx
    x = np.arange(-101, 122) * dx
    a, b = 2.0, 0.75
    state = NL.EulerianState(0.0, g, h, dx, -101, np.where((x > g) & (x < h), a + b * x, 0.0))
    m1, m2 = K.moment(EPAN, 1), K.moment(EPAN, 2)
    offset, coeff = variant.offset(eps), variant.coefficient(EPAN, eps)
    right = mu * coeff * ((a + b * (h - offset)) * m1 - b * eps * m2 / 2.0)
    left = -mu * coeff * ((a + b * (g + offset)) * m1 + b * eps * m2 / 2.0)
    assert NL.boundary_flux(state, EPAN, eps, mu, variant) == pytest.approx((left, right),
                                                                           rel=1e-14)


# -- step ---------------------------------------------------------------------


def test_step_symmetric_state_stays_symmetric(stefan_vconf):
    state = NL.initial_state(stefan_vconf, dx=0.1 / 16)
    for _ in range(20):
        state = NL.step(state, 5e-4, stefan_vconf, EPAN, 0.1, MOD)
    assert state.g + state.h == 0.0
    assert np.array_equal(state.values, state.values[::-1])


def test_step_cfl_guard(stefan_vconf):
    state = NL.initial_state(stefan_vconf, dx=0.1 / 16)
    with pytest.raises(CflViolation):
        NL.step(state, 0.1, stefan_vconf, EPAN, 0.1, MOD)


def test_solve_reaction_step_guard():
    # L0 = 320 and the planned step 0.05 / 17 give dt * L0 = 0.941 > 1/2,
    # while the dispersal CFL and the front move pass.
    vconf = P.validate(P.fisher_kpp_config(T=0.05, a=100.0, b=100.0))
    assert vconf.L0 == 320.0
    with pytest.raises(CflViolation) as info:
        NL.solve(vconf, EPAN, eps=0.2, variant=MOD, dt=0.003)
    assert str(info.value) == "dt * L0 = 0.941 > 1/2; reduce dt"
    assert info.value.time_of_failure == 0.0


def test_step_front_move_guard():
    # With mu = 1e300 the first speeds are about 1.7e300: the step raises
    # before it looks for the nodes of a front near 1e297, a search that
    # would never end past 2^53 dx.
    vconf = P.validate(replace(P.symmetric_stefan(T=0.01), mu=1e300))
    state = NL.initial_state(vconf, dx=0.2 / 16)
    with pytest.raises(CflViolation, match="front move") as info:
        NL.step(state, 1e-3, vconf, EPAN, 0.2, MOD)
    assert info.value.time_of_failure == 0.0


@settings(max_examples=40, deadline=None)
@given(
    u=hnp.arrays(
        dtype=float,
        shape=81,
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )
)
def test_step_preserves_positivity(u, stefan_vconf):
    # Convexity: with nonneg weights and dt*d*c_star/eps^2 <= 1 the update is
    # a convex combination of nonneg values, whatever the profile.
    eps = 0.4
    dx = eps / 8.0
    jm = 40
    x = np.arange(-jm, jm + 1) * dx
    vals = np.where((x > -1.6) & (x < 1.6), u, 0.0)
    state = NL.EulerianState(0.0, -1.6, 1.6, dx, -jm, vals)
    dt = 0.99 * eps * eps / (1.0 * K.c_star(EPAN))
    dt = min(dt, 0.4)  # keep dt * L0 in bounds for the zero reaction
    new = NL.step(state, dt, stefan_vconf, EPAN, eps, MOD)
    assert np.min(new.values) >= 0.0


def test_step_nan_value_is_positivity_loss(stefan_vconf):
    # NaN compares False with everything, so a guard written as
    # "min < floor" would let it through.
    state = NL.initial_state(stefan_vconf, dx=0.1 / 16)
    state.values[state.values.size // 2] = np.nan
    with pytest.raises(PositivityLoss):
        NL.step(state, 5e-4, stefan_vconf, EPAN, 0.1, MOD)


def test_step_does_not_depend_on_grid_extent(stefan_vconf):
    # Positions are indexed by global node, so zeros padded beyond the
    # fronts change nothing, to the last bit.
    eps = 0.05
    dx = eps / 16
    pad = 4096
    tight = NL.initial_state(stefan_vconf, dx=dx)
    wide = NL.EulerianState(
        tight.t, tight.g, tight.h, dx, tight.j_min - pad,
        np.concatenate([np.zeros(pad), tight.values, np.zeros(pad)]),
    )
    for _ in range(40):
        tight = NL.step(tight, 1e-4, stefan_vconf, EPAN, eps, MOD)
        wide = NL.step(wide, 1e-4, stefan_vconf, EPAN, eps, MOD)
    assert tight.g == wide.g and tight.h == wide.h
    lo_t, hi_t = tight.window
    lo_w, hi_w = wide.window
    assert tight.j_min + lo_t == wide.j_min + lo_w
    assert np.array_equal(tight.values[lo_t:hi_t], wide.values[lo_w:hi_w])


FRONTS = [(-1.5, 1.25), (-1.5 + 0.3 / 16, 1.25 - 0.7 / 16)]
FRONT_IDS = ["on_nodes", "between_nodes"]


def fronts_state(g, h, dx, jm=400):
    """A positive, asymmetric profile on (g, h), zero outside."""
    x = np.arange(-jm, jm + 1) * dx
    vals = np.where((x > g) & (x < h), (x - g) * (h - x) * (1.0 + 0.3 * x), 0.0)
    return NL.EulerianState(0.0, g, h, dx, -jm, vals)


@pytest.mark.parametrize("variant", [MOD, NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN))],
                         ids=["modified", "unmodified"])
@pytest.mark.parametrize("fronts", FRONTS, ids=FRONT_IDS)
def test_step_front_speeds_are_boundary_flux_calls(stefan_vconf, monkeypatch, variant, fronts):
    # Each step looks boundary_flux and apply_nonlocal_operator up by name
    # once each, with no argument beyond the public ones (a wrapper that
    # replaces either sees every call), and the fronts move by exactly the
    # speeds of a plain call, byte for byte.
    eps, dx, dt = 0.1, 0.1 / 16, 1e-4
    state = fronts_state(*fronts, dx)
    original = NL.boundary_flux
    original_operator = NL.apply_nonlocal_operator
    calls, operator_calls = [], []

    def counting(state, kernel, eps, mu, variant, *args):
        speeds = original(state, kernel, eps, mu, variant, *args)
        calls.append((state, args, speeds))
        return speeds

    def counting_operator(state, kernel, eps, d, *args):
        operator_calls.append((state, args))
        return original_operator(state, kernel, eps, d, *args)

    monkeypatch.setattr(NL, "boundary_flux", counting)
    monkeypatch.setattr(NL, "apply_nonlocal_operator", counting_operator)
    for _ in range(3):
        calls.clear()
        operator_calls.clear()
        new = NL.step(state, dt, stefan_vconf, EPAN, eps, variant)
        assert operator_calls == [(state, ())]
        assert len(calls) == 1
        seen, args, (g_dot, h_dot) = calls[0]
        assert seen is state and args == ()
        plain = original(state, EPAN, eps, stefan_vconf.mu, variant)
        assert np.array([g_dot, h_dot]).tobytes() == np.array(plain).tobytes()
        assert h_dot > 0.0 > g_dot
        assert new.h == state.h + dt * h_dot
        assert new.g == state.g + dt * g_dot
        state = new


@pytest.mark.parametrize("fronts", FRONTS, ids=FRONT_IDS)
def test_step_values_are_the_euler_update(fronts):
    # The new state is u + dt (L u + f(u)) from the public operator and
    # reaction, byte for byte on the active window, and +0.0 outside it.
    vconf = P.validate(P.fisher_kpp_config(T=0.1))
    eps, dx, dt = 0.1, 0.1 / 16, 1e-4
    state = fronts_state(*fronts, dx)
    lo, hi = state.window
    u = state.values[lo:hi]
    rate = NL.apply_nonlocal_operator(state, EPAN, eps, vconf.d)[lo:hi]
    expected = u + dt * (rate + P.eval_reaction(vconf.reaction, u))
    new = NL.step(state, dt, vconf, EPAN, eps, MOD)
    assert new.j_min == state.j_min and new.values.size == state.values.size
    assert new.values[lo:hi].tobytes() == expected.tobytes()
    outside = np.concatenate([new.values[:lo], new.values[hi:]])
    assert np.all(outside == 0.0) and not np.any(np.signbit(outside))


def test_step_quiescent_boundaries_unchanged(stefan_vconf):
    state = make_state(lambda x: np.maximum(0.0, 0.25 - x * x), eps=0.1)
    new = NL.step(state, 1e-4, stefan_vconf, EPAN, 0.1, MOD)
    assert new.g == state.g and new.h == state.h


# -- solve --------------------------------------------------------------------


def test_solve_monotone_boundaries_and_positive(stefan_vconf):
    sol = NL.solve(stefan_vconf, EPAN, eps=0.1, variant=MOD)
    assert np.all(np.diff(sol.boundary_h) >= 0.0)
    assert np.all(np.diff(sol.boundary_g) <= 0.0)
    assert sol.boundary_h[-1] > 1.0
    assert min(float(np.min(s.values)) for s in sol.snapshots) >= 0.0


@pytest.mark.parametrize("variant", [MOD, NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN))],
                         ids=["modified", "unmodified"])
@pytest.mark.parametrize("config", [P.symmetric_stefan, P.fisher_kpp_config],
                         ids=["stefan", "fisher"])
def test_solve_states_store_exactly_their_window(config, variant):
    # Every snapshot holds the nodes strictly inside (g, h) and no others.
    vconf = P.validate(config(T=0.1))
    sol = NL.solve(vconf, EPAN, eps=0.1, variant=variant)
    assert sol.boundary_h[-1] > sol.boundary_h[0]
    for s in sol.snapshots:
        j_lo, j_hi = NL._window(s.g, s.h, s.dx)
        assert (s.j_min, s.values.size) == (j_lo, j_hi - j_lo + 1)


def test_solve_symmetric_run_exact(stefan_vconf):
    sol = NL.solve(stefan_vconf, EPAN, eps=0.1, variant=MOD)
    assert np.max(np.abs(sol.boundary_g + sol.boundary_h)) == 0.0
    for s in sol.snapshots:
        assert np.array_equal(s.values, s.values[::-1])


def test_solve_comparison_of_ordered_data():
    small = P.validate(P.symmetric_stefan(T=0.1, V=1.0))
    big = P.validate(P.symmetric_stefan(T=0.1, V=1.1))
    a = NL.solve(small, EPAN, eps=0.1, variant=MOD)
    b = NL.solve(big, EPAN, eps=0.1, variant=MOD)
    ts = np.linspace(0.0, 0.1, 11)
    assert np.all(a.g_of(ts) >= b.g_of(ts) - 1e-8)
    assert np.all(a.h_of(ts) <= b.h_of(ts) + 1e-8)
    xs = np.linspace(-2.0, 2.0, 801)
    for t in ts:
        assert np.max(a.sample(t, xs) - b.sample(t, xs)) <= 1e-8


def test_solve_mass_identity_unmodified_shrinks_with_dx(stefan_vconf):
    unmod = NL.NonlocalVariant("unmodified", c1=K.c_star(EPAN))

    def residual(sol):
        ts = sol.snapshot_times
        masses = np.array([np.trapezoid(*reversed(sol.snapshot_nodes(k)))
                           for k in range(len(sol.snapshots))])
        return float(np.max(np.abs(masses - masses[0]
                                   + (sol.h_of(ts) - sol.g_of(ts) - 2.0))))

    coarse = residual(NL.solve(stefan_vconf, EPAN, eps=0.1, variant=unmod, dx=0.1 / 8))
    fine = residual(NL.solve(stefan_vconf, EPAN, eps=0.1, variant=unmod, dx=0.1 / 16))
    assert fine < coarse


def test_solve_requires_room_for_offset():
    vc = P.validate(P.symmetric_stefan(T=0.05))
    with pytest.raises(DomainTooSmall):
        NL.solve(vc, EPAN, eps=0.6, variant=MOD)  # sqrt(0.6)+0.6 > h0


def test_solve_rejects_coarse_grid(stefan_vconf):
    with pytest.raises(ResolutionTooCoarse):
        NL.solve(stefan_vconf, EPAN, eps=0.1, variant=MOD, dx=0.1 / 4)


def test_solve_reproducible_bitwise(stefan_vconf):
    a = NL.solve(stefan_vconf, EPAN, eps=0.2, variant=MOD)
    b = NL.solve(stefan_vconf, EPAN, eps=0.2, variant=MOD)
    assert np.array_equal(a.boundary_h, b.boundary_h)
    assert all(np.array_equal(sa.values, sb.values) for sa, sb in zip(a.snapshots, b.snapshots))


def test_sample_semantics(stefan_vconf):
    sol = NL.solve(stefan_vconf, EPAN, eps=0.1, variant=MOD)
    assert sol.sample(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    t = 0.05
    assert sol.sample(t, float(sol.h_of(t)) + 0.1) == 0.0
    # State arrays are exactly symmetric; reconstruction may differ by ulps.
    xs = np.linspace(-1.5, 1.5, 301)
    assert np.max(np.abs(sol.sample(t, xs) - sol.sample(t, -xs))) <= 1e-13
    with pytest.raises(OutOfHorizon):
        sol.sample(0.2, 0.0)


def test_variant_validation():
    with pytest.raises(ValueError):
        NL.NonlocalVariant("modified", beta=1.5)
    with pytest.raises(ValueError):
        NL.NonlocalVariant("unmodified")
    for c1 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite c1"):
            NL.NonlocalVariant("unmodified", c1=c1)
    with pytest.raises(ValueError):
        NL.NonlocalVariant("other")
