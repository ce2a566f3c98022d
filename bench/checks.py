"""Correctness checks the benchmark applies to every round's outputs.

Each check tests a property of the method, or a quantity the benchmark
computes itself from the program's outputs; none compares against a stored
copy of an earlier run.  Every function returns a plain bool so a failed check
is counted, not raised.
"""

from __future__ import annotations

import numpy as np


def strictly_decreasing(values) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(values.size >= 2 and np.all(np.diff(values) < 0.0))


def loglog_fit(eps, errors) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(error) against log(eps)."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    resid = y - (ym + slope * (x - xm))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return slope, r2


def positive_rate(eps, errors, min_rate: float = 0.25, min_r2: float = 0.9) -> bool:
    """The error is a positive power of eps: fitted rate and fit quality."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 3 or np.any(~np.isfinite(errors)) or np.any(errors <= 0.0):
        return False
    rate, r2 = loglog_fit(eps, errors)
    return rate >= min_rate and r2 >= min_r2


def symmetric_fronts(g, h) -> bool:
    """Symmetric data must give g + h == 0 to the last bit."""
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    return bool(g.size > 0 and np.all(g + h == 0.0))


def fronts_never_retreat(g, h) -> bool:
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    return bool(np.all(np.diff(h) >= 0.0) and np.all(np.diff(g) <= 0.0))


def within(values, lo: float, hi: float) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(np.all(values >= lo) and np.all(values <= hi))


def ordered(lower, mid, upper) -> bool:
    """lower <= mid <= upper elementwise (arrays of equal length)."""
    lower, mid, upper = (np.asarray(a, dtype=float) for a in (lower, mid, upper))
    if not lower.shape == mid.shape == upper.shape:
        return False
    return bool(np.all(lower <= mid) and np.all(mid <= upper))


def trapezoid(x, v) -> float:
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(x)))


def stefan_mass_defect(x, v, g, h, d, mu, h0, mass0) -> float:
    """|int v(T) + (d/mu)(h - g - 2 h0) - int v0| for f = 0 (Stefan ledger)."""
    return abs(trapezoid(x, v) + (d / mu) * (h - g - 2.0 * h0) - mass0)

