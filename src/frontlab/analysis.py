"""Agreement metrics between solutions: sup errors, rates, mass ledgers.

All comparisons treat solutions through the zero-extension convention, so a
point outside the active interval contributes the true value 0.  Sup norms
are evaluated on one fixed space-time lattice, TIME_SAMPLES equally spaced
times on [0, T] by SPACE_SAMPLES equally spaced points; at that density the
lattice under-reads the true sup by less than the interpolation error the
reconstructions already carry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, HorizonMismatch
from .problem import ValidatedConfig, eval_reaction

TIME_SAMPLES = 64
SPACE_SAMPLES = 1024


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Sup-norm deviations between two solutions on a sampling lattice."""

    times: np.ndarray
    per_time_sup: np.ndarray
    overall_sup: float
    boundary_sup: tuple[float, float]
    meta: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "times": [float(t) for t in self.times],
                "per_time_sup": [float(v) for v in self.per_time_sup],
                "overall_sup": self.overall_sup,
                "boundary_sup_g": self.boundary_sup[0],
                "boundary_sup_h": self.boundary_sup[1],
                "meta": self.meta,
            },
            sort_keys=True,
            allow_nan=False,
        )


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(eps)."""

    eps: tuple[float, ...]
    errors: tuple[float, ...]
    gamma_hat: float
    r_squared: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "eps": list(self.eps),
                "errors": list(self.errors),
                "gamma_hat": self.gamma_hat,
                "r_squared": self.r_squared,
            },
            sort_keys=True,
            allow_nan=False,
        )


def _lattice(solutions):
    """TIME_SAMPLES times on [0, T] and SPACE_SAMPLES points spanning every
    solution's fronts, padded by 2% of that span on each side."""
    T = solutions[0].horizon
    for sol in solutions[1:]:
        if abs(sol.horizon - T) > 1e-12 * max(1.0, T):
            raise HorizonMismatch(f"horizons differ: {sol.horizon} vs {T}")
    ts = np.linspace(0.0, T, TIME_SAMPLES)
    lo = min(float(np.min(sol.boundary_g)) for sol in solutions)
    hi = max(float(np.max(sol.boundary_h)) for sol in solutions)
    pad = 0.02 * (hi - lo)
    xs = np.linspace(lo - pad, hi + pad, SPACE_SAMPLES)
    return ts, xs


def _eps_or_none(sol) -> float | None:
    """The solution's eps, or None (JSON null) for a local solution."""
    eps = getattr(sol, "eps", None)
    return None if eps is None else float(eps)


def sup_error(a, b) -> ErrorReport:
    """Sup-norm solution and boundary deviations over the shared lattice of
    ``_lattice``."""
    ts, xs = _lattice((a, b))
    per_time = np.array(
        [float(np.max(np.abs(a.sample(t, xs) - b.sample(t, xs)))) for t in ts]
    )
    g_sup = float(np.max(np.abs(a.g_of(ts) - b.g_of(ts))))
    h_sup = float(np.max(np.abs(a.h_of(ts) - b.h_of(ts))))
    meta = {
        "horizon": float(a.horizon),
        "time_samples": TIME_SAMPLES,
        "space_samples": SPACE_SAMPLES,
        "eps_a": _eps_or_none(a),
        "eps_b": _eps_or_none(b),
        "dt_a": float(a.dt),
        "dt_b": float(b.dt),
    }
    return ErrorReport(
        times=ts,
        per_time_sup=per_time,
        overall_sup=float(np.max(per_time)),
        boundary_sup=(g_sup, h_sup),
        meta=meta,
    )


def fit_rate(pairs) -> RateFit:
    """Fit error ~ C * eps^gamma by least squares on logs."""
    eps = np.array([p[0] for p in pairs], dtype=float)
    err = np.array([p[1] for p in pairs], dtype=float)
    if eps.size < 3:
        raise DegenerateFit("need at least 3 (eps, error) pairs")
    if not np.all((eps > 0.0) & (eps < np.inf)):
        raise DegenerateFit("eps values must be positive and finite")
    ordered = np.sort(eps)
    if np.any(ordered[1:] == ordered[:-1]):
        raise DegenerateFit("eps values must be distinct")
    if not np.all((err > 0.0) & (err < np.inf)):
        raise DegenerateFit("errors must be positive and finite")
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        eps=tuple(float(e) for e in eps),
        errors=tuple(float(e) for e in err),
        gamma_hat=float(slope),
        r_squared=float(r2),
    )


def mass_residual(sol, vconf: ValidatedConfig, coefficient: float) -> np.ndarray:
    """Rows (t, residual) of the integrated balance

        residual(t) = int u(t) - int u(0) + coefficient*[h - g - 2 h0]
                      - int_0^t int f dx ds,

    with spatial integrals by trapezoid at the solution's native resolution
    and the reaction integral by trapezoid over the snapshot times.
    """
    n = len(sol.snapshots)
    ts = sol.snapshot_times
    masses = np.empty(n)
    f_integrals = np.empty(n)
    for k in range(n):
        x, u = sol.snapshot_nodes(k)
        masses[k] = np.trapezoid(u, x)
        f = eval_reaction(vconf.reaction, u)
        f_integrals[k] = np.trapezoid(np.broadcast_to(f, u.shape), x)
    cum_f = np.concatenate(
        [[0.0], np.cumsum(0.5 * (f_integrals[1:] + f_integrals[:-1]) * np.diff(ts))]
    )
    width = np.array([s.h - s.g for s in sol.snapshots])
    residual = masses - masses[0] + coefficient * (width - 2.0 * vconf.h0) - cum_f
    return np.column_stack([ts, residual])


@dataclass(frozen=True)
class SandwichReport:
    ok: bool
    max_violation: float
    where: tuple[str, float, float]


def sandwich_check(lower, mid, upper, tol: float) -> SandwichReport:
    """Verify domain inclusions and pointwise ordering lower <= mid <= upper
    on the shared lattice of ``_lattice``.

    Violations are returned as data, not raised; ``ok`` means every lattice
    violation is within the caller-supplied slack.
    """
    ts, xs = _lattice((lower, mid, upper))
    worst = 0.0
    where = ("none", 0.0, 0.0)

    def track(value, kind, t, x=0.0):
        nonlocal worst, where
        if value > worst:
            worst = float(value)
            where = (kind, float(t), float(x))

    g_low, h_low = lower.g_of(ts), lower.h_of(ts)
    g_mid, h_mid = mid.g_of(ts), mid.h_of(ts)
    g_up, h_up = upper.g_of(ts), upper.h_of(ts)
    for name, viol in (
        ("domain: g_mid > g_lower", g_mid - g_low),
        ("domain: h_lower > h_mid", h_low - h_mid),
        ("domain: g_upper > g_mid", g_up - g_mid),
        ("domain: h_mid > h_upper", h_mid - h_up),
    ):
        k = int(np.argmax(viol))
        track(float(viol[k]), name, ts[k])

    for t in ts:
        low_v = lower.sample(t, xs)
        mid_v = mid.sample(t, xs)
        up_v = upper.sample(t, xs)
        k = int(np.argmax(low_v - mid_v))
        track(float((low_v - mid_v)[k]), "value: lower > mid", t, xs[k])
        k = int(np.argmax(mid_v - up_v))
        track(float((mid_v - up_v)[k]), "value: mid > upper", t, xs[k])

    return SandwichReport(ok=worst <= tol, max_violation=worst, where=where)


def symmetry_defect(sol) -> float:
    """Max lattice asymmetry |u(t,x) - u(t,-x)| plus sup |g + h|, over
    TIME_SAMPLES times on [0, T] and SPACE_SAMPLES points on [0, 1.02 r],
    r the largest front distance from 0."""
    ts = np.linspace(0.0, sol.horizon, TIME_SAMPLES)
    hi = max(float(np.max(sol.boundary_h)), -float(np.min(sol.boundary_g)))
    xs = np.linspace(0.0, 1.02 * hi, SPACE_SAMPLES)
    worst = 0.0
    for t in ts:
        worst = max(worst, float(np.max(np.abs(sol.sample(t, xs) - sol.sample(t, -xs)))))
    return worst + float(np.max(np.abs(sol.boundary_g + sol.boundary_h)))
