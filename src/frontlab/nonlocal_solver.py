"""Eulerian solver for the scaled nonlocal-dispersal free boundary problem.

The density lives on the uniform grid x_j = j * dx (integer-indexed and
symmetric about 0) while the boundaries g, h move continuously.  A state
stores exactly the nodes strictly inside (g, h); every other node is an exact
zero that is not stored.  The dispersal operator is

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
one.  The w-integral uses exact-moment hat weights omega_i of W at
w_i = i / n_sub, so a constant profile reproduces the Fubini identity to
rounding.  Between nodes, u is read as one reconstruction reads it
(``interp_pinned``, also behind ``profile_at``): the linear interpolant
through the nodes inside (g, h) and one node on each side, a side node beyond
its front replaced by (front, 0).  It is exact at the nodes and, with the
zeros outside (g, h), zero at and beyond the fronts; a node exactly on a
front keeps its value.

The flux samples y0 - i dx, y0 = h - offset, are spaced by the grid's dx,
which is eps / n_sub to within the 1e-9 that ``_n_sub`` allows, so they share
one cell fraction theta of y0 / dx = K + theta.  The weighted sum is then two
dot products with adjacent slices of u,

    (1 - theta) sum_i omega_i u_{K-i} + theta sum_i omega_i u_{K+1-i}.

Under the modified law every node the samples read lies strictly inside
(g, h).  Under the unmodified law (offset 0) sample 0 sits at h; when its
cell's upper node lies beyond h, it reads u_K (h - y0) / (h - x_K), exactly 0
at y0 = h, while a node exactly on h keeps its value.  The sum differs from
the ``interp_pinned`` quadrature at rounding level only.

Left-boundary quantities are evaluated by reading the state mirrored
(values[::-1] with mirrored indices) through the right-boundary code path;
with the kernel even this is exact, and it makes symmetric data evolve
symmetrically to the last bit.  The convolution keeps that property by
folding the even stencil: the data u_j and the pair sums u_{j-m} + u_{j+m}
fill the rows of one array, and one ``np.einsum`` weights and adds the rows
in turn, so every node sums the same terms s_m (u_{j-m} + u_{j+m}) in the
same order, m = 0..n.

A step touches only the nodes strictly inside (g, h).  Each state finds that
window once, when it is built (``EulerianState.window``), and both front
speeds, the rate and the reconstruction read it there; the stencil, its
scale and the flux weights are computed once per solve.  A step calls
``boundary_flux`` (once, for both fronts) and ``apply_nonlocal_operator`` by
name, and the operator's output on the stored nodes becomes the new state.
The flux weights are nonnegative, so the fronts never retreat, and f(0) = 0,
so every node outside the interval keeps its exact zero.  The first state
holds v0 on the nodes inside (-h0, h0), and each new state pads zeros at the
nodes its fronts newly cover.  Every position is indexed by its global node j = x / dx, never
relative to the first stored node, so a hand-built state that also stores
zeros beyond its fronts steps to the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels as kmod
from .errors import CflViolation, DomainTooSmall, ResolutionTooCoarse
from .problem import ValidatedConfig, eval_initial, eval_reaction, require_valid
from .trajectory import (
    MAX_NODES, Trajectory, check_reaction_step, clamp_nonnegative, march, reaction_dt_cap,
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
    """Grid snapshot: values at x_j = j*dx for j = j_min..j_min+len-1.

    A state stores at least the nodes strictly inside (g, h); every other
    node is an exact zero.  Construction finds those nodes once, pads the
    ones not given with zeros (moving ``j_min`` down for the left ones) and
    keeps their index range [lo, hi) as ``window``.  A solver state stores
    exactly its window; a hand-built state may store more.
    """

    t: float
    g: float
    h: float
    dx: float
    j_min: int
    values: np.ndarray
    window: tuple[int, int] = field(init=False)

    def __post_init__(self):
        j_lo, j_hi = _window(self.g, self.h, self.dx)
        left = max(self.j_min - j_lo, 0)
        right = max(j_hi - (self.j_min + self.values.size - 1), 0)
        if j_lo <= j_hi and (left or right):
            padded = np.concatenate([np.zeros(left), self.values, np.zeros(right)])
            object.__setattr__(self, "values", padded)
            object.__setattr__(self, "j_min", self.j_min - left)
        lo = max(j_lo - self.j_min, 0)
        hi = min(j_hi - self.j_min + 1, self.values.size)
        object.__setattr__(self, "window", (lo, max(lo, hi)))

    def grid(self) -> np.ndarray:
        return (self.j_min + np.arange(self.values.size)) * self.dx

    def active_mask(self) -> np.ndarray:
        x = self.grid()
        return (x > self.g) & (x < self.h)


# -- stencils -----------------------------------------------------------------


@lru_cache(maxsize=64)
def operator_stencil(kernel: kmod.KernelSpec, n_sub: int) -> np.ndarray:
    """Nonnegative convolution weights on z = m/n_sub, m = -n_sub..n_sub.

    Hat-function moments of J are corrected by a factor 1 + alpha + gamma z^2
    so the stencil's mass is exactly 1 and its second moment exactly matches
    2 * moment(J, 2); the operator is then exact on quadratics while every
    weight remains nonnegative.  The n_sub + 1 hat moments on z >= 0 are the
    rows of one ``integrate_against`` call over the cell boundaries z_i.
    """
    if n_sub < 2:
        raise ValueError("need at least 2 subdivisions of the kernel support")
    delta = 1.0 / n_sub
    z_pos = np.arange(n_sub + 1) * delta

    def hats(z):
        return np.maximum(0.0, 1.0 - np.abs(z - z_pos[:, None]) / delta)

    half = kmod.integrate_against(kernel, 0.0, 1.0, hats, breakpoints=z_pos)
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
    corrected.flags.writeable = False
    return corrected


@lru_cache(maxsize=64)
def flux_weights(kernel: kmod.KernelSpec, n_sub: int) -> np.ndarray:
    """Quadrature weights for integral_0^1 W(w) u(w) dw at w_i = i/n_sub.

    By Fubini, integrating W against a hat equals integrating J against the
    hat's cumulative integral; the weights therefore sum to the exact first
    kernel moment, which is what makes the constant-profile flux identity
    come out to rounding error.  All n_sub + 1 weights are the rows of one
    ``integrate_against`` call over the cell boundaries w_i.
    """
    if n_sub < 2:
        raise ValueError("need at least 2 subdivisions of the flux window")
    delta = 1.0 / n_sub
    w = np.arange(n_sub + 1) * delta
    lo = np.maximum(w - delta, 0.0)[:, None]  # each hat's support, clipped to [0, 1]
    hi = np.minimum(w + delta, 1.0)[:, None]

    def hat_antiderivatives(z):
        # integral_0^z of each hat: its ascending flank (w - lo)/delta, then its descending one
        left = np.clip(np.minimum(z, w[:, None]) - lo, 0.0, None)
        right = np.clip(np.minimum(z, hi) - w[:, None], 0.0, None)
        return 0.5 * left * left / delta + (right - 0.5 * right * right / delta)

    out = kmod.integrate_against(kernel, 0.0, 1.0, hat_antiderivatives, breakpoints=w)
    out.flags.writeable = False
    return out


def _window(g: float, h: float, dx: float) -> tuple[int, int]:
    """The first and last global node j with g < j dx < h.

    The floor/ceil guesses are corrected with the comparisons active_mask
    makes, x_j > g and x_j < h, so the window is exactly that mask.  Below
    2^52 dx the products j dx rise with j, so the corrections end; a front
    that is not finite or not below that bound raises ValueError.
    """
    bound = 2.0**52 * dx
    if not (abs(g) < bound and abs(h) < bound):
        raise ValueError(f"fronts g = {g}, h = {h} must be finite and within 2^52 dx = {bound:g}")
    j_lo = math.floor(g / dx)
    while j_lo * dx <= g:
        j_lo += 1
    while (j_lo - 1) * dx > g:
        j_lo -= 1
    j_hi = math.ceil(h / dx)
    while j_hi * dx >= h:
        j_hi -= 1
    while (j_hi + 1) * dx < h:
        j_hi += 1
    return j_lo, j_hi


def _convolve_symmetric(values: np.ndarray, stencil: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Zero-extended convolution with an even stencil at nodes lo..hi-1.

    The stencil is folded: node j gets s_0 u_j + sum_m s_m (u_{j-m} + u_{j+m}),
    summed over m = 1..n in the same order at every node.  Each pair sum is
    commutative, so a mirror-symmetric state has an exactly mirror-symmetric
    image.  The window and its n-node reach on each side are copied into one
    zero buffer; the unscaled pairs fill the rows of one (n + 1, width) array,
    the right terms u_{j+m} copied in first and the left ones u_{j-m} added
    in place (one ``np.add`` of both overlapping views, the left read with a
    negative row stride, is slower).  ``np.einsum`` (unoptimized, so never
    BLAS) multiplies each row by its weight and adds it to a running sum, row
    by row, in order; ``s @ pairs`` would sum in blocks and lose the exact
    symmetry.  The running sum starts from +0.0, so a zero sum is +0.0 even
    where every term is -0.0.
    """
    n = stencil.size // 2
    width = hi - lo
    cols = max(width, 2)  # a single column would be summed in blocks, not in order
    a = lo - n
    u = np.zeros(cols + 2 * n)
    src = values[max(a, 0) : a + u.size]
    u[max(-a, 0) : max(-a, 0) + src.size] = src
    # Row r of this view of the private buffer is u[r : r + cols], r = 0..2n.
    shifted = np.ndarray((2 * n + 1, cols), buffer=u, strides=(u.itemsize, u.itemsize))
    pairs = np.empty((n + 1, cols))
    pairs[0] = shifted[n]
    pairs[1:] = shifted[n + 1 :]
    pairs[1:] += shifted[n - 1 :: -1]
    return np.einsum("ij,i->j", pairs, stencil[n:])[:width]


def _n_sub(dx: float, eps: float, t: float) -> int:
    """Grid steps per kernel reach, the integer eps / dx: at least 8, since a
    dx above eps / 8 raises ResolutionTooCoarse at time t.

    The stencil reaches n_sub dx and the flux samples lie dx apart while
    the operator scale and the flux law use eps, so a ratio off an integer by
    more than 1e-9 of itself raises ValueError rather than silently
    rescaling the diffusion.
    """
    if dx > eps / 8.0 + 1e-12 * eps:
        raise ResolutionTooCoarse(f"dx = {dx:g} exceeds eps/8 = {eps / 8:g}", t)
    ratio = eps / dx
    n_sub = round(ratio)
    if abs(ratio - n_sub) > 1e-9 * ratio:
        raise ValueError(f"eps/dx = {ratio:.12g} is not an integer (eps = {eps:g}, dx = {dx:g})")
    return n_sub


@lru_cache(maxsize=64)
def _operator_constants(
    kernel: kmod.KernelSpec, eps: float, d: float, n_sub: int
) -> tuple[np.ndarray, float]:
    """The operator stencil and its scale d c_star / eps^2, once per solve."""
    return operator_stencil(kernel, n_sub), d * kmod.c_star(kernel) / (eps * eps)


@lru_cache(maxsize=64)
def _flux_constants(
    kernel: kmod.KernelSpec, eps: float, variant: NonlocalVariant, n_sub: int
) -> tuple[float, float, np.ndarray]:
    """offset, coeff and the flux weights in reverse order, omega_n..omega_0."""
    reversed_weights = flux_weights(kernel, n_sub)[::-1].copy()
    reversed_weights.flags.writeable = False
    return variant.offset(eps), variant.coefficient(kernel, eps), reversed_weights


def apply_nonlocal_operator(
    state: EulerianState,
    kernel: kmod.KernelSpec,
    eps: float,
    d: float,
) -> np.ndarray:
    """(d c_star / eps^2) (J_eps * u - u) on active nodes, zero elsewhere.

    Because u vanishes outside (g, h), the zero-extended discrete convolution
    coincides with the integral over the active interval.  The rate is
    computed in the convolution's own array, which is the result when the
    state stores exactly its window, as a solver state does.
    """
    n_sub = _n_sub(state.dx, eps, state.t)
    lo, hi = state.window
    stencil, scale = _operator_constants(kernel, eps, d, n_sub)
    rate = _convolve_symmetric(state.values, stencil, lo, hi)
    rate -= state.values[lo:hi]
    rate *= scale
    if rate.size == state.values.size:
        return rate
    out = np.zeros_like(state.values)
    out[lo:hi] = rate
    return out


def interp_pinned(state: EulerianState, ys: np.ndarray) -> np.ndarray:
    """Linear interpolation of u with exact zeros pinned at g and h.

    One ``np.interp`` through the nodes strictly inside (g, h) plus one node
    on each side; a side node beyond its front is replaced by (front, 0), one
    exactly on it keeps its value, and one the state does not store reads
    as zero.
    """
    lo, hi = state.window
    values, dx = state.values, state.dx
    x = np.arange(state.j_min + lo - 1, state.j_min + hi + 1, dtype=float) * dx
    a, b = max(lo - 1, 0), min(hi + 1, values.size)
    u = np.zeros(x.size)
    u[a - lo + 1 : b - lo + 1] = values[a:b]
    if x[0] < state.g:
        x[0], u[0] = state.g, 0.0
    if x[-1] > state.h:
        x[-1], u[-1] = state.h, 0.0
    return np.interp(ys, x, u)


def _flux_sum(values: np.ndarray, j_min: int, dx: float, h: float, top: int, y0: float,
              reversed_weights: np.ndarray) -> float:
    """sum_i omega_i u(y0 - i dx), i = 0..n: the two-slice sum, with the
    pinned partial cell, of the module docstring.

    ``values`` holds node j_min + k at index k, ``top`` is the last node
    strictly below h, y0 <= h, and the weights come reversed,
    omega_n..omega_0, so each slice meets them in storage order.
    """
    n = reversed_weights.size - 1
    q = y0 / dx
    # y0 / dx can round past a front lying on node top + 1; K stays below
    # it and theta at most 1, so both slice weights stay nonnegative.
    k = min(math.floor(q), top)
    theta = min(q - k, 1.0)
    s = k - n - j_min  # index of node K - n
    if k == top and (k + 1) * dx > h:
        # Sample 0 lies in the partial cell [x_K, h], pinned to (h, 0).
        inner = reversed_weights[:-1]
        pinned = float(reversed_weights[-1] * values[s + n]) * (h - y0) / (h - k * dx)
        return ((1.0 - theta) * float(np.dot(inner, values[s : s + n]))
                + theta * float(np.dot(inner, values[s + 1 : s + n + 1]))
                + pinned)
    nodes = values[s : s + n + 2]
    if nodes.size < n + 2:  # node K + 1 lies on h and is not stored
        nodes = np.append(nodes, 0.0)
    return ((1.0 - theta) * float(np.dot(reversed_weights, nodes[:-1]))
            + theta * float(np.dot(reversed_weights, nodes[1:])))


def boundary_flux(
    state: EulerianState,
    kernel: kmod.KernelSpec,
    eps: float,
    mu: float,
    variant: NonlocalVariant,
) -> tuple[float, float]:
    """Signed boundary speeds (g', h'), g' <= 0 <= h', from the near-boundary
    flux windows.

    Each sum over the samples is the two-slice sum of :func:`_flux_sum`, with
    the partial cell below the front pinned to (front, 0) as
    :func:`interp_pinned` pins it.  The left sum reads the reflected state,
    values[::-1] with mirrored indices, through the same code (J is even), so
    g' is exactly minus h' of the mirrored state, and symmetric runs stay
    exactly symmetric.  The samples are spaced by dx, which equals
    eps / n_sub to within ``_n_sub``'s 1e-9 tolerance; both fronts share one
    n_sub, one lookup of the flux constants and one window check.
    """
    n_sub = _n_sub(state.dx, eps, state.t)
    offset, coeff, reversed_weights = _flux_constants(kernel, eps, variant, n_sub)
    if state.h - state.g <= 2.0 * (offset + eps):
        raise DomainTooSmall(
            f"active interval {state.h - state.g:g} below flux window 2*(offset+eps)",
            state.t,
        )
    lo, hi = state.window
    values, dx, j_min = state.values, state.dx, state.j_min
    right = _flux_sum(values, j_min, dx, state.h, j_min + hi - 1, state.h - offset,
                      reversed_weights)
    left = _flux_sum(values[::-1], -(j_min + values.size - 1), dx, -state.g, -(j_min + lo),
                     -state.g - offset, reversed_weights)
    return -mu * coeff * left, mu * coeff * right


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
    inside (g, h) are updated; the others keep the operator's exact +0.0,
    and the new state pads +0.0 at the nodes the new fronts cover.  Both
    front speeds and the operator read the state's window.  A front may move
    at most dx per step; a longer move, or a speed that is not a number,
    raises CflViolation at state.t.
    """
    lam = dt * vconf.d * kmod.c_star(kernel) / (eps * eps)
    if lam > 1.0 + 1e-12:
        raise CflViolation(f"dt*d*c_star/eps^2 = {lam:.3f} > 1; reduce dt", state.t)
    check_reaction_step(dt, vconf.L0, state.t)

    g_dot, h_dot = boundary_flux(state, kernel, eps, vconf.mu, variant)
    if not (dt * h_dot <= state.dx and -dt * g_dot <= state.dx):
        raise CflViolation(
            f"front move h' dt = {dt * h_dot:.3g}, -g' dt = {-dt * g_dot:.3g} in one step "
            f"exceeds dx = {state.dx:g}; reduce dt",
            state.t,
        )
    g_new = state.g + dt * g_dot
    h_new = state.h + dt * h_dot

    new_values = apply_nonlocal_operator(state, kernel, eps, vconf.d)
    lo, hi = state.window
    u = state.values[lo:hi]
    window_values = new_values[lo:hi]  # L u here, u + dt (L u + f(u)) below
    window_values += eval_reaction(vconf.reaction, u)
    window_values *= dt
    window_values += u
    clamp_nonnegative(window_values, state.t + dt)
    return EulerianState(state.t + dt, g_new, h_new, state.dx, state.j_min, new_values)


@dataclass(frozen=True, eq=False)
class NonlocalSolution(Trajectory):
    """Trajectory of (u, g, h) on the fixed grid of spacing dx."""

    dx: float
    eps: float
    variant: NonlocalVariant

    def snapshot_nodes(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid nodes of snapshot k in [g - 2 dx, h + 2 dx] and their values."""
        state = self.snapshots[k]
        values = np.concatenate([np.zeros(3), state.values, np.zeros(3)])
        x = (state.j_min - 3 + np.arange(values.size)) * state.dx
        keep = (x >= state.g - 2.0 * state.dx) & (x <= state.h + 2.0 * state.dx)
        return x[keep], values[keep]

    def profile_at(self, k: int, x) -> np.ndarray:
        return interp_pinned(self.snapshots[k], np.atleast_1d(np.asarray(x, dtype=float)))


def initial_state(vconf: ValidatedConfig, dx: float) -> EulerianState:
    """v0 on the nodes strictly inside (-h0, h0)."""
    h0 = vconf.h0
    j_lo, j_hi = _window(-h0, h0, dx)
    values = eval_initial(vconf.initial, h0, np.arange(j_lo, j_hi + 1) * dx)
    return EulerianState(t=0.0, g=-h0, h=h0, dx=dx, j_min=j_lo, values=values)


def check_setup(vconf: ValidatedConfig, eps: float, variant: NonlocalVariant, dx: float):
    """The checks :func:`solve` makes before its first step, shared so a sweep
    can reject every eps before it runs anything."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")
    # 2 h0 / dx bounds the first state's node count; a dx so small that the
    # ratio overflows gives inf, rejected here before any integer is taken.
    nodes = 2.0 * vconf.h0 / dx
    if nodes > MAX_NODES:
        raise ValueError(f"dx = {dx:g} asks for {nodes:.3g} grid nodes, more than {MAX_NODES}")
    _n_sub(dx, eps, 0.0)
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
) -> NonlocalSolution:
    """March the nonlocal problem from t = 0 to the config horizon."""
    require_valid(vconf)
    dx = eps / 16.0 if dx is None else dx
    check_setup(vconf, eps, variant, dx)
    if dt is None:
        dt = min(CFL_SIGMA * eps * eps / (vconf.d * kmod.c_star(kernel)), reaction_dt_cap(vconf.L0))

    def advance(state, dt):
        return step(state, dt, vconf, kernel, eps, variant)

    return march(NonlocalSolution, initial_state(vconf, dx), advance, vconf.T, dt,
                 dx=dx, eps=eps, variant=variant)
