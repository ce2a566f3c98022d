"""Eulerian solver for the scaled nonlocal-dispersal free boundary problem.

The density lives on a fixed uniform grid x_j = j * dx (integer-indexed and
symmetric about 0) while the boundaries g, h move continuously; nodes outside
(g, h) hold exact zeros.  The dispersal operator is

    L[u](x) = (d c_star / eps^2) [ (J_eps * u)(x) - u(x) ],

discretized with a product-integration stencil: hat-function moments of J,
then a two-parameter correction making the discrete mass and second moment
match the kernel's exactly.  The corrected weights stay nonnegative, so the
explicit update is a convex combination under the CFL limit and positivity
is structural.

Boundary motion follows the flux law

    h'(t) = mu * coeff * integral_0^1 W(w) u(h - offset - eps w) dw,

with W the kernel tail mass, offset = eps^beta and coeff = c_zero eps^-beta
for the modified variant, offset = 0 and coeff = c1 / eps for the unmodified
one.  The w-integral uses exact-moment hat weights of W, so a constant
profile reproduces the Fubini identity to rounding.  Between nodes, u is read
through one reconstruction (``interp_pinned``, also behind ``profile_at``):
the linear interpolant through the nodes inside (g, h) and one node on each
side, a side node beyond its front replaced by (front, 0).  It is exact at
the nodes and, with the zeros outside (g, h), zero at and beyond the fronts;
a node exactly on a front keeps its value.

Left-boundary quantities are evaluated by reflecting the state and reusing
the right-boundary code path; with the kernel even this is exact, and it
makes symmetric data evolve symmetrically to the last bit.  The convolution
keeps that property by folding the even stencil, so every node sums the same
pair sums u_{j-m} + u_{j+m} in the same order.

A step touches only the nodes strictly inside (g, h).  The flux weights are
nonnegative, so the fronts never retreat, and f(t, x, 0) = 0, so every node
outside the interval keeps its exact zero.  The grid starts just wide enough
for the initial interval and its flux window, h0 + offset + 2 eps, and
doubles on the side a front is about to overrun.  Every position is indexed
by its global node j = x / dx, never relative to the grid's first node, so
the result does not depend on how far the grid happens to reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels as kmod
from .errors import CflViolation, DomainTooSmall, ResolutionTooCoarse
from .problem import ValidatedConfig, eval_initial, eval_reaction, require_valid
from .trajectory import (
    Trajectory, check_positivity, check_reaction_step, march, plan_steps, reaction_dt_cap,
)

CFL_SIGMA = 0.5  # default dt = CFL_SIGMA * eps^2 / (d c_star)


@dataclass(frozen=True)
class NonlocalVariant:
    """Boundary-flux variant: 'modified' (eps^beta offset) or 'unmodified'."""

    kind: str = "modified"
    beta: float = 0.5
    c1: float | None = None

    def __post_init__(self):
        if self.kind == "modified":
            if not 0.0 < self.beta < 1.0:
                raise ValueError("beta must lie in (0, 1)")
        elif self.kind == "unmodified":
            if self.c1 is None or not 0.0 < self.c1 < math.inf:
                raise ValueError("unmodified variant requires a finite c1 > 0")
        else:
            raise ValueError(f"unknown variant kind: {self.kind!r}")

    def offset(self, eps: float) -> float:
        return eps**self.beta if self.kind == "modified" else 0.0

    def coefficient(self, kernel: kmod.KernelSpec, eps: float) -> float:
        if self.kind == "modified":
            return kmod.c_zero(kernel) * eps**-self.beta
        return self.c1 / eps


@dataclass(frozen=True, eq=False)
class EulerianState:
    """Grid snapshot: values at x_j = j*dx for j = j_min..j_min+len-1."""

    t: float
    g: float
    h: float
    dx: float
    j_min: int
    values: np.ndarray

    @property
    def x_min(self) -> float:
        return self.j_min * self.dx

    @property
    def x_max(self) -> float:
        return (self.j_min + self.values.size - 1) * self.dx

    def grid(self) -> np.ndarray:
        return (self.j_min + np.arange(self.values.size)) * self.dx

    def active_mask(self) -> np.ndarray:
        x = self.grid()
        return (x > self.g) & (x < self.h)


def _reflect(state: EulerianState) -> EulerianState:
    return EulerianState(
        t=state.t,
        g=-state.h,
        h=-state.g,
        dx=state.dx,
        j_min=-(state.j_min + state.values.size - 1),
        values=state.values[::-1],
    )


# -- stencils -----------------------------------------------------------------


def _hat_moments(kernel: kmod.KernelSpec, nodes: np.ndarray, delta: float) -> np.ndarray:
    """integral J(z) hat_i(z) dz for hats of half-width delta at the nodes."""
    out = np.empty(nodes.size)
    for i, zi in enumerate(nodes):
        lo, hi = zi - delta, zi + delta

        def hat(z, zi=zi):
            return np.maximum(0.0, 1.0 - np.abs(z - zi) / delta)

        out[i] = kmod.integrate_against(kernel, lo, hi, hat, breakpoints=(zi,))
    return out


@lru_cache(maxsize=64)
def operator_stencil(kernel: kmod.KernelSpec, n_sub: int) -> np.ndarray:
    """Nonnegative convolution weights on z = m/n_sub, m = -n_sub..n_sub.

    Hat-function moments of J are corrected by a factor 1 + alpha + gamma z^2
    so the stencil's mass is exactly 1 and its second moment exactly matches
    2 * moment(J, 2); the operator is then exact on quadratics while every
    weight remains nonnegative.
    """
    if n_sub < 2:
        raise ValueError("need at least 2 subdivisions of the kernel support")
    delta = 1.0 / n_sub
    z_pos = np.arange(n_sub + 1) * delta
    half = _hat_moments(kernel, z_pos, delta)
    weights = np.concatenate([half[:0:-1], half])  # even extension, exact
    z = np.concatenate([-z_pos[:0:-1], z_pos])
    z2 = z * z
    s0 = float(np.sum(weights))
    s2 = float(np.dot(weights, z2))
    s4 = float(np.dot(weights, z2 * z2))
    target2 = 2.0 * kmod.moment(kernel, 2)
    det = s0 * s4 - s2 * s2
    alpha = ((1.0 - s0) * s4 - (target2 - s2) * s2) / det
    gamma = ((target2 - s2) * s0 - (1.0 - s0) * s2) / det
    corrected = weights * (1.0 + alpha + gamma * z2)
    if np.any(corrected < 0.0):
        raise ValueError("moment correction produced a negative weight")
    return corrected


@lru_cache(maxsize=64)
def flux_weights(kernel: kmod.KernelSpec, n_sub: int) -> np.ndarray:
    """Quadrature weights for integral_0^1 W(w) u(w) dw at w_i = i/n_sub.

    By Fubini, integrating W against a hat equals integrating J against the
    hat's cumulative integral; the weights therefore sum to the exact first
    kernel moment, which is what makes the constant-profile flux identity
    come out to rounding error.
    """
    if n_sub < 2:
        raise ValueError("need at least 2 subdivisions of the flux window")
    delta = 1.0 / n_sub
    out = np.empty(n_sub + 1)
    for i in range(n_sub + 1):
        wi = i * delta
        lo, hi = wi - delta, wi + delta

        def hat_cum(z, wi=wi):
            # integral_0^z of the hat at wi (support clipped to [0, 1])
            lo_i = max(wi - delta, 0.0)
            hi_i = min(wi + delta, 1.0)
            left = np.clip(np.minimum(z, wi) - lo_i, 0.0, None)
            rise = 0.5 * left * left / delta  # ascending flank: integrand (w-lo)/delta
            right = np.clip(np.minimum(z, hi_i) - wi, 0.0, None)
            fall = right - 0.5 * right * right / delta
            return rise + fall

        out[i] = kmod.integrate_against(kernel, 0.0, 1.0, hat_cum, breakpoints=(lo, wi, hi))
    return out


def _active_window(state: EulerianState) -> tuple[int, int]:
    """Index range [lo, hi) of the nodes strictly inside (g, h).

    The floor/ceil guesses are corrected with the comparisons active_mask
    makes, x_j > g and x_j < h, so the window is exactly that mask.
    """
    dx = state.dx
    j_lo = math.floor(state.g / dx)
    while j_lo * dx <= state.g:
        j_lo += 1
    while (j_lo - 1) * dx > state.g:
        j_lo -= 1
    j_hi = math.ceil(state.h / dx)
    while j_hi * dx >= state.h:
        j_hi -= 1
    while (j_hi + 1) * dx < state.h:
        j_hi += 1
    lo = max(j_lo - state.j_min, 0)
    hi = min(j_hi - state.j_min + 1, state.values.size)
    return lo, max(lo, hi)


def _convolve_symmetric(values: np.ndarray, stencil: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Zero-extended convolution with an even stencil at nodes lo..hi-1.

    The stencil is folded: node j gets s_0 u_j + sum_m s_m (u_{j-m} + u_{j+m}),
    summed over m = 1..n in the same order at every node.  Each pair sum is
    commutative, so a mirror-symmetric state has an exactly mirror-symmetric
    image.
    """
    n = stencil.size // 2
    a, b = lo - n, hi + n
    u = values[max(a, 0) : min(b, values.size)]
    if a < 0 or b > values.size:
        u = np.concatenate([np.zeros(max(-a, 0)), u, np.zeros(max(b - values.size, 0))])
    width = hi - lo
    out = stencil[n] * u[n : n + width]
    for m in range(1, n + 1):
        out += stencil[n + m] * (u[n - m : n - m + width] + u[n + m : n + m + width])
    return out


def _require_resolution(dx: float, eps: float, t: float):
    if dx > eps / 8.0 + 1e-12 * eps:
        raise ResolutionTooCoarse(f"dx = {dx:g} exceeds eps/8 = {eps / 8:g}", t)


def _operator_rate(
    state: EulerianState, kernel: kmod.KernelSpec, eps: float, d: float, lo: int, hi: int
) -> np.ndarray:
    """(d c_star / eps^2) (J_eps * u - u) at nodes lo..hi-1 of the grid."""
    stencil = operator_stencil(kernel, int(round(eps / state.dx)))
    conv = _convolve_symmetric(state.values, stencil, lo, hi)
    scale = d * kmod.c_star(kernel) / (eps * eps)
    return scale * (conv - state.values[lo:hi])


def apply_nonlocal_operator(
    state: EulerianState, kernel: kmod.KernelSpec, eps: float, d: float
) -> np.ndarray:
    """(d c_star / eps^2) (J_eps * u - u) on active nodes, zero elsewhere.

    Because u vanishes outside (g, h), the zero-extended discrete convolution
    coincides with the integral over the active interval.
    """
    _require_resolution(state.dx, eps, state.t)
    lo, hi = _active_window(state)
    out = np.zeros_like(state.values)
    out[lo:hi] = _operator_rate(state, kernel, eps, d, lo, hi)
    return out


def interp_pinned(state: EulerianState, ys: np.ndarray) -> np.ndarray:
    """Linear interpolation of u with exact zeros pinned at g and h.

    One ``np.interp`` through the nodes strictly inside (g, h) plus one node
    on each side; a side node beyond its front is replaced by (front, 0), one
    exactly on it keeps its value.  The grid must reach a node past each
    front, as every solver state does.
    """
    lo, hi = _active_window(state)
    x = (state.j_min + np.arange(lo - 1, hi + 1)) * state.dx
    u = state.values[lo - 1 : hi + 1].copy()
    if x[0] < state.g:
        x[0], u[0] = state.g, 0.0
    if x[-1] > state.h:
        x[-1], u[-1] = state.h, 0.0
    return np.interp(ys, x, u)


def _right_flux_magnitude(
    state: EulerianState, kernel: kmod.KernelSpec, eps: float, offset: float
) -> float:
    """integral_0^1 W(w) u(h - offset - eps w) dw by exact-moment weights."""
    n_sub = max(2, int(round(eps / state.dx)))
    omega = flux_weights(kernel, n_sub)
    w_nodes = np.arange(n_sub + 1) / n_sub
    ys = state.h - offset - eps * w_nodes
    return float(np.dot(omega, interp_pinned(state, ys)))


def boundary_flux(
    state: EulerianState,
    kernel: kmod.KernelSpec,
    eps: float,
    mu: float,
    variant: NonlocalVariant,
    side: str,
) -> float:
    """Signed boundary speed from the near-boundary flux window.

    side='right' returns h' >= 0, side='left' returns g' <= 0.  The left side
    reflects the state and reuses the right-side code path (J is even), which
    keeps symmetric runs exactly symmetric.
    """
    _require_resolution(state.dx, eps, state.t)
    offset = variant.offset(eps)
    if state.h - state.g <= 2.0 * (offset + eps):
        raise DomainTooSmall(
            f"active interval {state.h - state.g:g} below flux window 2*(offset+eps)",
            state.t,
        )
    coeff = variant.coefficient(kernel, eps)
    if side == "right":
        return mu * coeff * _right_flux_magnitude(state, kernel, eps, offset)
    if side == "left":
        return -mu * coeff * _right_flux_magnitude(_reflect(state), kernel, eps, offset)
    raise ValueError("side must be 'left' or 'right'")


def _grow_if_needed(state: EulerianState, margin: float) -> EulerianState:
    """Double the grid extent on the side the boundary is about to overrun."""
    values, j_min = state.values, state.j_min
    length = values.size
    grew = False
    if state.g - margin <= (j_min + 1) * state.dx:
        values = np.concatenate([np.zeros(length), values])
        j_min -= length
        grew = True
    j_max = j_min + values.size - 1
    if state.h + margin >= (j_max - 1) * state.dx:
        values = np.concatenate([values, np.zeros(length)])
        grew = True
    if not grew:
        return state
    return EulerianState(state.t, state.g, state.h, state.dx, j_min, values)


def step(
    state: EulerianState,
    dt: float,
    vconf: ValidatedConfig,
    kernel: kmod.KernelSpec,
    eps: float,
    variant: NonlocalVariant,
) -> EulerianState:
    """One explicit Euler step: boundaries first, then densities.

    Under dt * d * c_star / eps^2 <= 1 the value update is a convex
    combination of nonnegative terms plus dt * f, so positivity only depends
    on the reaction respecting its Lipschitz bound.  Only the nodes strictly
    inside (g, h) are updated; the others keep their exact zeros.
    """
    _require_resolution(state.dx, eps, state.t)
    lam = dt * vconf.d * kmod.c_star(kernel) / (eps * eps)
    if lam > 1.0 + 1e-12:
        raise CflViolation(f"dt*d*c_star/eps^2 = {lam:.3f} > 1; reduce dt", state.t)
    check_reaction_step(dt, vconf.L0, state.t)

    h_dot = boundary_flux(state, kernel, eps, vconf.mu, variant, "right")
    g_dot = boundary_flux(state, kernel, eps, vconf.mu, variant, "left")
    g_new = state.g + dt * g_dot
    h_new = state.h + dt * h_dot

    lo, hi = _active_window(state)
    rate = _operator_rate(state, kernel, eps, vconf.d, lo, hi)
    u = state.values[lo:hi]
    x = (state.j_min + np.arange(lo, hi)) * state.dx
    new_values = state.values.copy()
    window = new_values[lo:hi]
    window += dt * (rate + eval_reaction(vconf.reaction, state.t, x, np.maximum(u, 0.0)))
    check_positivity(window, state.t + dt)
    np.maximum(window, 0.0, out=window)
    window[(x <= g_new) | (x >= h_new)] = 0.0

    out = EulerianState(state.t + dt, g_new, h_new, state.dx, state.j_min, new_values)
    return _grow_if_needed(out, variant.offset(eps) + eps + 2.0 * state.dx)


@dataclass(frozen=True, eq=False)
class NonlocalSolution(Trajectory):
    """Trajectory of (u, g, h) on the fixed grid of spacing dx."""

    dx: float
    eps: float
    variant: NonlocalVariant

    def snapshot_nodes(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid nodes of snapshot k in [g - 2 dx, h + 2 dx] and their values."""
        state = self.snapshots[k]
        x = state.grid()
        keep = (x >= state.g - 2.0 * state.dx) & (x <= state.h + 2.0 * state.dx)
        return x[keep], state.values[keep]

    def profile_at(self, k: int, x) -> np.ndarray:
        return interp_pinned(self.snapshots[k], np.atleast_1d(np.asarray(x, dtype=float)))


def initial_state(vconf: ValidatedConfig, dx: float, extent: float) -> EulerianState:
    j_max = int(np.ceil(extent / dx)) + 2
    j = np.arange(-j_max, j_max + 1)
    x = j * dx
    values = np.asarray(eval_initial(vconf.initial, x), dtype=float)
    h0 = vconf.h0
    values[(x <= -h0) | (x >= h0)] = 0.0
    return EulerianState(t=0.0, g=-h0, h=h0, dx=dx, j_min=-j_max, values=values)


def check_setup(vconf: ValidatedConfig, eps: float, variant: NonlocalVariant, dx: float):
    """The checks :func:`solve` makes before its first step, shared so a sweep
    can reject every eps before it runs anything."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")
    _require_resolution(dx, eps, 0.0)
    offset = variant.offset(eps)
    if 2.0 * (offset + eps) >= 2.0 * vconf.h0:
        raise DomainTooSmall(
            f"offset + eps = {offset + eps:g} leaves no room inside h0 = {vconf.h0:g}", 0.0
        )


def solve(
    vconf: ValidatedConfig,
    kernel: kmod.KernelSpec,
    eps: float,
    variant: NonlocalVariant = NonlocalVariant(),
    dx: float | None = None,
    dt: float | None = None,
    snapshot_times=None,
    cfl_sigma: float = CFL_SIGMA,
) -> NonlocalSolution:
    """March the nonlocal problem from t = 0 to the config horizon."""
    require_valid(vconf)
    dx = eps / 16.0 if dx is None else dx
    check_setup(vconf, eps, variant, dx)
    d_cstar = vconf.d * kmod.c_star(kernel)
    if dt is None:
        if not 0.0 < cfl_sigma <= 1.0:
            raise ValueError("cfl_sigma must lie in (0, 1]")
        dt = min(cfl_sigma * eps * eps / d_cstar, reaction_dt_cap(vconf.L0))
    T = vconf.T
    n_steps, dt_eff = plan_steps(T, dt)

    def advance(state):
        return step(state, dt_eff, vconf, kernel, eps, variant)

    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, T, 65)
    state = initial_state(vconf, dx, vconf.h0 + variant.offset(eps) + 2.0 * eps)
    snapshots, (times, gs, hs) = march(state, advance, n_steps, dt_eff, snapshot_times)
    return NonlocalSolution(
        snapshots=snapshots,
        boundary_times=times,
        boundary_g=gs,
        boundary_h=hs,
        dx=dx,
        dt=dt_eff,
        eps=eps,
        variant=variant,
        horizon=T,
    )
