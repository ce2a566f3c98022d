"""Compactly supported dispersal kernels and their scaling constants.

A kernel J is even, nonnegative, supported in [-1, 1], has unit mass and
J(0) > 0.  Only z >= 0 is ever stored or evaluated, so evenness holds by
construction rather than by numerical accident.  Two derived constants drive
the scaled solvers:

    c_star = 1 / integral_0^1 J(z) z^2 dz   (normalizes the dispersal operator)
    c_zero = 1 / integral_0^1 J(z) z  dz    (normalizes the boundary flux)

Every integral of J is one ``integrate_against`` quadrature: a custom
table's mass, the half-moments (cached in :func:`moment`; c_star and c_zero
are arithmetic on them), and the solver's stencil hat moments and flux
weights, one call each over the cell boundaries (``nonlocal_solver``).  The
flux weights integrate J against hat antiderivatives instead of evaluating
the tail mass W(w) = integral_w^1 J(z) dz, whose integral is 1 / c_zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateKernel

BUILTIN_FAMILIES = ("epanechnikov", "triangle", "quartic")

# The 8-point Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(8); literals, so that no process loads
# numpy.polynomial for them.
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False
QUADRATURE_PANELS = 256  # Gauss-Legendre panels per integral in integrate_against


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A dispersal kernel, stored on z >= 0 with even extension implied.

    Custom tabulated kernels are linearly interpolated and renormalized to
    unit mass at construction; the factor applied is kept in
    ``renormalization`` so silent rescaling is visible to the caller.  The
    mass is ``integrate_against`` of the raw table, whose panels split at the
    table's abscissae, so Gauss-Legendre integrates each linear piece exactly
    up to rounding.
    """

    family: str
    table: np.ndarray | None = None
    renormalization: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.family in BUILTIN_FAMILIES:
            if self.table is not None:
                raise ValueError("table only allowed for family='custom'")
        elif self.family == "custom":
            if self.table is None:
                raise ValueError("custom kernel requires a table")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
                raise ValueError("table must have shape (n, 2) with n >= 2")
            if not np.all(np.isfinite(tab)):
                raise ValueError("table entries must be finite")
            z = tab[:, 0]
            if z[0] < 0.0 or z[-1] > 1.0 or np.any(np.diff(z) <= 0.0):
                raise ValueError("table abscissae must ascend within [0, 1]")
            if np.any(tab[:, 1] < 0.0):
                raise ValueError("kernel values must be nonnegative")
            object.__setattr__(self, "table", tab)
            mass = 2.0 * integrate_against(self, 0.0, 1.0)
            if mass <= 0.0:
                raise ValueError("custom kernel has zero mass")
            object.__setattr__(self, "table", np.column_stack([z, tab[:, 1] / mass]))
            object.__setattr__(self, "renormalization", 1.0 / mass)
        else:
            raise ValueError(f"unknown kernel family: {self.family!r}")
        if evaluate(self, 0.0) <= 0.0:
            raise ValueError("kernel must be positive at z = 0")

    def breakpoints(self) -> np.ndarray:
        """Abscissae in [0, 1] where J may lose smoothness."""
        if self.family == "custom":
            pts = np.concatenate([[0.0], self.table[:, 0], [1.0]])
            return _sorted_distinct(pts)
        return np.array([0.0, 1.0])


def from_file(path) -> KernelSpec:
    """Load a custom kernel from a two-column text file (z, J(z))."""
    try:
        tab = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read kernel file {path}: {exc}") from exc
    return KernelSpec(family="custom", table=tab)


def _profile(kernel: KernelSpec, z: np.ndarray) -> np.ndarray:
    """J on z >= 0 ignoring the support cutoff (z is assumed in [0, 1])."""
    if kernel.family == "epanechnikov":
        return 0.75 * (1.0 - z * z)
    if kernel.family == "triangle":
        return 1.0 - z
    if kernel.family == "quartic":
        s = 1.0 - z * z
        return (15.0 / 16.0) * s * s
    return np.interp(z, kernel.table[:, 0], kernel.table[:, 1])


def evaluate(kernel: KernelSpec, z) -> np.ndarray | float:
    """J(|z|); zero outside the support [-1, 1]."""
    za = np.abs(np.asarray(z, dtype=float))
    inside = za < 1.0
    out = np.zeros_like(za)
    if np.any(inside):
        out[inside] = _profile(kernel, za[inside])
    if np.ndim(z) == 0:
        return float(out)
    return out


def _sorted_distinct(values) -> np.ndarray:
    """The sorted distinct values of a finite array: what ``np.unique``
    returns, bit for bit (of equal values, +-0.0, it keeps the first in sorted
    order), without the ``numpy.ma`` import ``np.unique`` makes."""
    s = np.sort(values, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def integrate_against(
    kernel: KernelSpec, a: float, b: float, phi=None, breakpoints=()
) -> float | np.ndarray:
    """integral_a^b J(z) phi(z) dz on [0, 1] by panelled Gauss-Legendre.

    ``phi`` maps the 1-D array of quadrature points z to its values there
    (a float is returned) or to one row of values per function, shape
    (rows, z.size), and then the result is the array of the rows' integrals.
    Panels are split at the kernel's breakpoints (and any extra ones supplied
    for kinks of phi) so piecewise-polynomial kernels integrate to machine
    accuracy against piecewise-polynomial phi.  An empty [a, b] gives 0.0.
    """
    a = max(a, 0.0)
    b = min(b, 1.0)
    if b <= a:
        return 0.0
    cuts = np.concatenate([kernel.breakpoints(), np.asarray(breakpoints, dtype=float)])
    edges = _sorted_distinct(np.clip(np.concatenate([cuts, [a, b]]), a, b))
    total = 0.0
    n_panels = max(QUADRATURE_PANELS, len(edges) - 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        m = max(1, int(round(n_panels * (hi - lo) / (b - a))))
        bounds = np.linspace(lo, hi, m + 1)
        mid = 0.5 * (bounds[:-1] + bounds[1:])
        half = 0.5 * (bounds[1:] - bounds[:-1])
        z = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        f = _profile(kernel, z)
        if phi is not None:
            f = f * phi(z)
        total = total + np.dot(f, w)
    return float(total) if np.ndim(total) == 0 else total


@lru_cache(maxsize=64)
def moment(kernel: KernelSpec, k: int) -> float:
    """Half-line moment integral_0^1 J(z) z^k dz, for k <= 4, cached per kernel."""
    if k < 0 or k > 4:
        raise ValueError("moment order must be in 0..4")
    return integrate_against(kernel, 0.0, 1.0, lambda z: z**k)


def c_star(kernel: KernelSpec) -> float:
    """Inverse second half-moment; scales the dispersal operator.

    Arithmetic on the cached :func:`moment`, so no call repeats a quadrature;
    a DegenerateKernel is raised again on every call.
    """
    m2 = moment(kernel, 2)
    if m2 <= 1e-12:
        raise DegenerateKernel("second moment vanishes; kernel concentrated at 0")
    return 1.0 / m2


def c_zero(kernel: KernelSpec) -> float:
    """Inverse first half-moment; scales the boundary flux. Always < c_star.

    Arithmetic on the cached :func:`moment`, like :func:`c_star`.
    """
    m1 = moment(kernel, 1)
    if m1 <= 1e-12:
        raise DegenerateKernel("first moment vanishes; kernel concentrated at 0")
    value = 1.0 / m1
    if not value < c_star(kernel):
        raise DegenerateKernel("flux constant not below operator constant")
    return value

