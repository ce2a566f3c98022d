"""Front-fixed solver for the Stefan-type free boundary problem.

The moving interval (g(t), h(t)) is mapped affinely onto the reference
interval [0, 1] via x = (1 - xi) g + xi h.  In the fixed frame the density w
obeys

    w_t = d / (h-g)^2 w_xixi + chi(xi) w_xi + f(w) + A eps^gamma1,
    chi = [(1 - xi) g' + xi h'] / (h - g),

with Dirichlet zeros at xi in {0, 1}, coupled to the boundary motion

    g' = -mu v_x(t, g) - B eps^gamma1,    h' = -mu v_x(t, h) + B eps^gamma1.

Time stepping: boundaries by explicit Euler with metrics frozen at t_n,
interior by Crank-Nicolson on diffusion with explicit advection/reaction.
Every floating-point expression that couples mirrored nodes is written so a
symmetric state maps to an exactly symmetric successor.  Each tridiagonal
solve splits its data into mirror-symmetric and antisymmetric halves, two
decoupled blocks of 2 (I - r D2) split at the centre, so the solve is
exactly reflection-equivariant without a second right-hand side.  LAPACK
``pttrf`` factors a block once per r and ``pttrs`` applies the factor; a
step's corrector matrix is the next step's predictor matrix, so a solve of
N steps factors the symmetric block N + 1 times.  The antisymmetric block
is factored and solved only when its data are not all zero, which a
mirror-symmetric run never meets.  Each solve owns its grids and buffers
(a ``_Workspace``), so solves in several threads share no mutable state.  Both
routines are called through ctypes from the OpenBLAS that numpy's wheel
bundles and has loaded already (see ``_lapack_function``), so no process,
local solves included, loads SciPy.  A numpy built against another LAPACK
lacks those symbols, and the first local solve then raises ``ImportError``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CflViolation, DegenerateDomain
from .problem import ValidatedConfig, eval_initial, eval_reaction, require_valid
from .trajectory import (
    MAX_NODES, Trajectory, check_reaction_step, clamp_nonnegative, march, reaction_dt_cap,
)

MIN_GAP = 1e-6


@dataclass(frozen=True)
class PerturbationKnobs:
    """Size-eps^gamma1 perturbation of the reaction and boundary velocities.

    eps = 0 renders the knobs inert (the perturbed terms vanish exactly).
    """

    A: float = 0.0
    B: float = 0.0
    gamma1: float = 0.4
    eps: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.A < math.inf:
            raise ValueError("A must be nonnegative and finite")
        if not math.isfinite(self.B):
            raise ValueError("B must be finite")
        if not 0.0 < self.gamma1 < 0.5:
            raise ValueError("gamma1 must lie in (0, 1/2)")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError("eps must be nonnegative and finite")

    @property
    def source_shift(self) -> float:
        return self.A * self.eps**self.gamma1

    @property
    def boundary_shift(self) -> float:
        return self.B * self.eps**self.gamma1


INERT_KNOBS = PerturbationKnobs()

PRESETS = {"i1": (1.0, 1.0), "i2": (0.0, -2.0), "none": (0.0, 0.0)}


def preset_knobs(name: str, eps: float, gamma1: float = 0.4) -> PerturbationKnobs:
    """The two canonical perturbations: i1 pushes out, i2 pulls in."""
    try:
        A, B = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return PerturbationKnobs(A=A, B=B, gamma1=gamma1, eps=eps)


@dataclass(frozen=True, eq=False)
class FixedDomainState:
    """Front-fixed snapshot: boundary positions plus nodal values on [0, 1]."""

    t: float
    g: float
    h: float
    values: np.ndarray  # v at xi_j = j/N, j = 0..N; endpoints pinned to 0

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def width(self) -> float:
        return self.h - self.g


@dataclass(frozen=True, eq=False)
class LocalSolution(Trajectory):
    """Trajectory of (v, g, h) on the front-fixed grid of n_cells cells."""

    n_cells: int

    def snapshot_nodes(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Physical node positions and values of snapshot k."""
        state = self.snapshots[k]
        xi = np.arange(state.values.size) / state.n_cells
        x = xi[::-1] * state.g + xi * state.h
        return x, state.values.copy()

    def profile_at(self, k: int, x) -> np.ndarray:
        """Snapshot k evaluated at physical positions x, zero outside (g, h)."""
        state = self.snapshots[k]
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = (x - state.g) / state.width
        grid = np.arange(state.values.size) / state.n_cells
        vals = np.interp(xi, grid, state.values)
        vals[(xi <= 0.0) | (xi >= 1.0)] = 0.0
        return vals


def boundary_velocities(
    state: FixedDomainState, knobs: PerturbationKnobs, mu: float
) -> tuple[float, float]:
    """Boundary speeds from one-sided second-order flux stencils.

    The stencils at g and h are exact floating-point mirrors, so a symmetric
    state yields g_dot == -h_dot exactly.
    """
    w = state.values
    n = state.n_cells
    if n < 4:
        raise ValueError("need at least 4 cells for the boundary stencils")
    gap = state.width
    if gap < MIN_GAP:
        raise DegenerateDomain(f"domain collapsed: h - g = {gap:.3e}", state.t)
    scale = 2.0 * (1.0 / n) * gap
    w0, w1, w2 = w[:3].tolist()  # Python floats: the same IEEE operations, less overhead
    wn2, wn1, wn = w[n - 2:].tolist()
    slope_g = (-3.0 * w0 + 4.0 * w1 - w2) / scale
    slope_h = (3.0 * wn - 4.0 * wn1 + wn2) / scale
    shift = knobs.boundary_shift
    g_dot = -mu * slope_g - shift
    h_dot = -mu * slope_h + shift
    return g_dot, h_dot


def _lapack_function(name: str):
    """The LAPACK routine ``name`` (such as ``"dpttrf"``) of the OpenBLAS that
    numpy's wheel bundles, as a ctypes function returning nothing.

    ``numpy.linalg._umath_linalg`` links that library, which exports the
    routines as ``scipy_<name>_64_``, so ``dlsym`` on the extension finds
    them.  They take the Fortran ILP64 ABI: every argument by reference,
    integers as 64-bit.  A numpy linked to another LAPACK lacks the symbol,
    and then this raises ``ImportError``.
    """
    path = np.linalg._umath_linalg.__file__
    symbol = f"scipy_{name}_64_"
    try:
        function = ctypes.CDLL(path)[symbol]
    except AttributeError:
        raise ImportError(f"no LAPACK symbol {symbol} in {path}", name=symbol, path=path) from None
    # No argtypes: each call passes ctypes objects of the right types (byref
    # int64s and double arrays this module allocates), and argtypes would
    # convert every argument on every call, about 1.3 us per pttrs call.
    function.restype = None
    return function


@lru_cache(maxsize=1)
def _lapack_pt():
    """LAPACK ``dpttrf`` and ``dpttrs``, looked up once, on the first local solve."""
    return _lapack_function("dpttrf"), _lapack_function("dpttrs")


_NRHS = ctypes.byref(ctypes.c_int64(1))  # pttrs reads nrhs and never writes it


class _Workspace:
    """The grids and buffers of one local solve on m interior nodes.

    ``diag`` and ``off`` view the ctypes buffers that hold the LDL^T factor
    of the split matrix for ``r`` (see ``_solve_tridiagonal_symmetric``):
    the symmetric block on rows [0, m - k) and the antisymmetric block on
    rows [m - k, m), k = m // 2, each factored in place once ``factored``
    says so.  ``split`` views the buffer of the split data, which ``pttrs``
    overwrites with the solution.  ``blocks`` holds each block's first row,
    its row count and its (n, d, e, b) arguments, pointers into the three
    buffers made once.  ``xi`` and ``one_minus`` are the interior grids
    xi_j = j/n and 1 - xi_j, j = 1..m, n = m + 1; the latter is xi reversed,
    (n - j)/n, so mirrored nodes match for every n.  ``chi``, ``terms``,
    ``base`` and ``rhs`` are the stage buffers of ``step``.
    """

    def __init__(self, m: int):
        k = m // 2
        self.r = math.nan  # compares unequal to every r, so the first solve factors
        self.factored = [False, False]
        # e has m entries: entry m - k - 1 would couple the blocks and is never read.
        buffers = [(ctypes.c_double * m)() for _ in range(3)]
        self.diag, self.off, self.split = map(np.frombuffer, buffers)
        self.blocks = tuple(
            (first, rows, ctypes.byref(ctypes.c_int64(rows)),
             *(ctypes.byref(buf, first * ctypes.sizeof(ctypes.c_double)) for buf in buffers))
            for first, rows in ((0, m - k), (m - k, k))
        )
        self.info = ctypes.c_int64()
        self.info_ref = ctypes.byref(self.info)
        self.pttrf, self.pttrs = _lapack_pt()
        self.xi = np.arange(1, m + 1) / (m + 1)
        self.one_minus = self.xi[::-1].copy()
        self.chi, self.terms, self.base, self.rhs = (np.empty(m) for _ in range(4))


def _solve_block(work: _Workspace, block: int) -> None:
    """Solve block 0 (symmetric) or 1 (antisymmetric) of ``work.split`` in
    place, factoring that block of ``work``'s matrix first if not yet done."""
    first, rows, n, d, e, b = work.blocks[block]
    if not work.factored[block]:
        work.pttrf(n, d, e, work.info_ref)
        if work.info.value != 0:
            work.r = math.nan  # the factor buffers are spoilt; refill on the next solve
            raise np.linalg.LinAlgError(
                f"tridiagonal factorization failed: pttrf info = {first + work.info.value}"
            )
        work.factored[block] = True
    if rows == 1:  # pttrs scales one row by 1 / d; longer systems divide by d, as here
        work.split[first] /= work.diag[first]
        return
    work.pttrs(n, _NRHS, d, e, b, n, work.info_ref)
    if work.info.value != 0:
        raise np.linalg.LinAlgError(f"tridiagonal solve failed: pttrs info = {work.info.value}")


def _fold(src: np.ndarray, dst: np.ndarray) -> None:
    """dst_j = src_j + src_{m-1-j} and dst_{m-1-j} = src_j - src_{m-1-j} for
    j < k = m // 2, and the centre copied for odd m.  It splits data into
    the two blocks of ``_solve_tridiagonal_symmetric`` and recombines their
    solutions.  The differences are written through the contiguous view of
    dst, which is faster than through a reversed one."""
    m = src.size
    k = m // 2
    np.add(src[:k], src[:m - k - 1:-1], out=dst[:k])
    np.subtract(src[k - 1::-1], src[m - k:], out=dst[m - k:])
    if m - 2 * k:
        dst[k] = src[k]


def _solve_tridiagonal_symmetric(
    r: float, rhs: np.ndarray, out: np.ndarray, work: _Workspace
) -> np.ndarray:
    """Solve (I - r*D2) w = rhs with Dirichlet zeros, reflection-equivariantly.

    The matrix commutes with index reversal, so it maps the mirror-symmetric
    part s_j = (b_j + b_{m-1-j}) / 2 and the antisymmetric part
    a_j = (b_j - b_{m-1-j}) / 2 of the data to the parts of the solution.
    Each part is fixed by its values on the half grid up to the centre, and
    is solved against twice the matrix, 2 (I - r D2), with the unhalved sum
    2 s_j or difference 2 a_j as data (scaling by 2 is exact):

    * s reflects at the centre: for odd m the centre row, halved to
      -2r x_{c-1} + (1 + 2r) x_c = b_c, keeps the block symmetric; for
      even m the last diagonal entry is 2 + 2r.
    * a vanishes at the centre: a Dirichlet row for odd m, and a last
      diagonal entry 2 + 6r for even m.

    The s block sits on rows [0, m - k) of one buffer and the a block, in
    reverse order so a_j sits at row m-1-j, on rows [m - k, m), k = m // 2.
    Each is symmetric positive definite and strictly diagonally dominant, so
    LAPACK ``pttrf`` factors it without pivoting and ``pttrs`` applies the
    factor: the two calls ``ptsv`` makes.  ``work`` keeps the factor for the
    last r; the s block is factored when r changes, the a block the first
    time its data are not all zero for that r.  All-zero a data are not
    solved at all: ``pttrs`` would return zeros, and the buffer holds them
    already.  For finite data this gives the bytes of one ``pttrs`` on both
    blocks stacked, whose zero coupling entry adds only signed zeros.
    Reversing b leaves s unchanged and negates a, and an LDL^T solve of a
    negated right-hand side is the negated solution, so the result is
    exactly reflection-equivariant; adding +0.0 at the end maps -0.0 to
    +0.0, the only way the two could differ.  Needs m >= 2; ``work`` is a
    workspace for m nodes.  The solution is written into and returned as
    ``out``.
    """
    m = rhs.size
    k = m // 2
    odd = m - 2 * k
    x = work.split  # the split data, then pttrs's solution in place
    _fold(rhs, x)
    if r != work.r:
        diag = work.diag
        diag.fill(2.0 + 4.0 * r)
        work.off.fill(-2.0 * r)
        if odd:
            diag[k] = 1.0 + 2.0 * r
        else:
            diag[k - 1] = 2.0 + 2.0 * r
            diag[k] = 2.0 + 6.0 * r
        work.r = r
        work.factored[:] = (False, False)
    _solve_block(work, 0)
    if np.count_nonzero(x[m - k:]):  # a zero of either sign counts as zero
        _solve_block(work, 1)
    _fold(x, out)
    out += 0.0
    return out


def _explicit_terms(w, t, g, h, vel, dt, vconf, shift, t_fail, out, work) -> np.ndarray:
    """Advection, reaction and shift at the interior nodes of w, written into
    and returned as ``out``; the grids and the ``chi`` scratch are ``work``'s.

    The advection term is chi w_xi with chi = [(1 - xi) g' + xi h'] / (h - g)
    and (g', h') = vel, taken as [(1 - xi) (g' c) + xi (h' c)] times the
    central difference, c = 1 / (2 (h - g) dxi), so mirrored nodes see
    mirrored expressions.  chi is affine in xi, so its CFL ratio is taken at
    the endpoints, where |chi| is |g'| / (h - g) and |h'| / (h - g); that
    ratio and dt * L0 are checked first, and a violation is reported at
    t_fail.  The reaction f(w) depends on the density alone, so the
    physical nodes are never built and t, the stage time, is read by no term
    here; it stays so that a wrapper of this function (the tests' forcing)
    can evaluate a forcing at the stage time.
    """
    n = w.size - 1
    dxi = 1.0 / n
    cfl = dt * max(abs(vel[0]), abs(vel[1])) / ((h - g) * dxi)
    if cfl > 1.0 + 1e-12:
        raise CflViolation(f"advection CFL {cfl:.3f} > 1; reduce dt", t_fail)
    check_reaction_step(dt, vconf.L0, t_fail)
    c = 1.0 / (2.0 * (h - g) * dxi)
    chi = work.chi
    np.multiply(work.one_minus, vel[0] * c, out=chi)
    np.multiply(work.xi, vel[1] * c, out=out)
    chi += out
    np.subtract(w[2:], w[:-2], out=out)
    out *= chi
    reaction = eval_reaction(vconf.reaction, w[1:-1])
    if isinstance(reaction, float):
        out += reaction + shift
    else:
        out += reaction
        out += shift
    return out


def _crank_nicolson(r: float, rhs: np.ndarray, t: float, work: _Workspace) -> np.ndarray:
    """Nodal values of the solve (I - r D2) w = rhs with zero endpoints,
    checked against the positivity floor at t and clamped at 0."""
    out = np.empty(rhs.size + 2)
    out[0] = out[-1] = 0.0
    _solve_tridiagonal_symmetric(r, rhs, out[1:-1], work)
    clamp_nonnegative(out, t)
    return out


def step(
    state: FixedDomainState,
    dt: float,
    vconf: ValidatedConfig,
    knobs: PerturbationKnobs,
    work: _Workspace,
) -> FixedDomainState:
    """Advance one step of size dt by a predictor-corrector sweep.

    The predictor is a plain Euler/Crank-Nicolson step with coefficients
    frozen at t_n; the corrector re-advances with trapezoidal averages of the
    boundary velocities and explicit terms, which keeps the discrete mass
    ledger second-order accurate in dt.  The front speeds come from
    ``boundary_velocities`` and the explicit terms from ``_explicit_terms``,
    both called by module name, so a test can pin the fronts or add a
    forcing by replacing them.  The stages are built in the buffers of
    ``work``, the solve's workspace for n_cells - 1 nodes; the corrector's r
    is the next predictor's, bit for bit, so the factor the workspace holds
    is reused.  Each new state gets a fresh values array.
    """
    w = state.values
    dxi = 1.0 / state.n_cells
    gap = state.width
    vel0 = boundary_velocities(state, knobs, vconf.mu)  # raises on a collapsed domain

    t0, t1 = state.t, state.t + dt
    inner = w[1:-1]
    r0 = vconf.d * dt / (2.0 * gap * gap * dxi * dxi)
    shift = knobs.source_shift
    explicit = _explicit_terms(w, t0, state.g, state.h, vel0, dt, vconf, shift, t0,
                               work.terms, work)
    # base = w + r0 ((w_{j-1} + w_{j+1}) - 2 w_j); rhs holds 2 w_j until the
    # predictor's right-hand side w + r0 D2 w + dt E0 is built in it.
    base = np.add(w[:-2], w[2:], out=work.base)
    rhs = np.multiply(inner, 2.0, out=work.rhs)
    base -= rhs
    base *= r0
    base += inner
    np.multiply(explicit, dt, out=rhs)
    rhs += base
    predictor = _crank_nicolson(r0, rhs, t1, work)
    pred_state = FixedDomainState(
        t=t1, g=state.g + dt * vel0[0], h=state.h + dt * vel0[1], values=predictor
    )
    if pred_state.width < MIN_GAP:
        raise DegenerateDomain("domain collapsed within a step", state.t)

    vel1 = boundary_velocities(pred_state, knobs, vconf.mu)
    g1 = state.g + dt * (0.5 * (vel0[0] + vel1[0]))
    h1 = state.h + dt * (0.5 * (vel0[1] + vel1[1]))
    gap1 = h1 - g1
    if gap1 < MIN_GAP:
        raise DegenerateDomain("domain collapsed within a step", state.t)

    # The corrector's right-hand side base + (dt / 2) (E0 + E1), in place;
    # E1 goes to the rhs buffer, which the predictor's solve has read.
    explicit += _explicit_terms(predictor, t1, g1, h1, vel1, dt, vconf, shift, t0,
                                work.rhs, work)
    explicit *= 0.5 * dt
    explicit += base
    r1 = vconf.d * dt / (2.0 * gap1 * gap1 * dxi * dxi)
    return FixedDomainState(t=t1, g=g1, h=h1, values=_crank_nicolson(r1, explicit, t1, work))


def initial_state(vconf: ValidatedConfig, n_cells: int) -> FixedDomainState:
    xi = np.arange(n_cells + 1) / n_cells
    h0 = vconf.h0
    x = xi[::-1] * (-h0) + xi * h0
    values = eval_initial(vconf.initial, h0, x)
    values[0] = 0.0
    values[-1] = 0.0
    return FixedDomainState(t=0.0, g=-h0, h=h0, values=values)


def solve(
    vconf: ValidatedConfig,
    knobs: PerturbationKnobs = INERT_KNOBS,
    n_cells: int = 512,
    dt: float | None = None,
) -> LocalSolution:
    """March the front-fixed problem from t = 0 to the config horizon."""
    require_valid(vconf)
    if n_cells < 32:
        raise ValueError("need at least 32 cells")
    if n_cells > MAX_NODES:
        raise ValueError(f"n_cells = {n_cells} is more than MAX_NODES = {MAX_NODES}")
    T = vconf.T
    state0 = initial_state(vconf, n_cells)
    if dt is None:
        g0, h0_dot = boundary_velocities(state0, knobs, vconf.mu)
        speed = max(abs(g0), abs(h0_dot), 1e-12)
        dt = min(0.25 * (2.0 * vconf.h0 / n_cells) / speed, T / 64.0, reaction_dt_cap(vconf.L0))

    work = _Workspace(n_cells - 1)

    def advance(state, dt):
        return step(state, dt, vconf, knobs, work)

    return march(LocalSolution, state0, advance, T, dt, n_cells=n_cells)
