"""What the local and nonlocal solvers share: the solve driver (``march``:
step planning, the march loop and the solution it builds), the step guards,
the positivity clamp, and the trajectory type both solutions are read through.

A trajectory is a dense boundary track (g, h at every step) plus timed
snapshots of the state.  Subclasses say how a snapshot is evaluated at
physical positions (``profile_at``); sampling in between snapshots is linear
in t and identical for both solvers, which is what lets ``analysis`` compare
a local and a nonlocal run on one lattice.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, OutOfHorizon, PositivityLoss

POSITIVITY_FLOOR = -1e-10
MAX_STEPS = 10**7  # far above the 512 000 steps of an eps = 0.00625 nonlocal solve to T = 1
MAX_NODES = 10**6  # far above the 20 479 nodes of an eps = 0.003125, dx = eps/32 first state


def clamp_nonnegative(values: np.ndarray, t: float) -> None:
    """Clamp values at 0 in place; raise PositivityLoss at t instead if one is
    below the floor or not a number."""
    low = float(values.min(initial=0.0))
    if not low >= POSITIVITY_FLOOR:
        raise PositivityLoss(f"value {low:.3e} below positivity floor", t)
    np.maximum(values, 0.0, out=values)


def check_reaction_step(dt: float, L0: float, t: float) -> None:
    """Raise CflViolation unless dt * L0 <= 1/2: with |f'| <= L0 on the
    densities a run reaches, the explicit u + dt f(u) then rises with u."""
    if dt * L0 > 0.5 + 1e-12:
        raise CflViolation(f"dt * L0 = {dt * L0:.3f} > 1/2; reduce dt", t)


def reaction_dt_cap(L0: float) -> float:
    """The default step's cap 0.4 / L0 (none for L0 = 0), inside that bound."""
    return 0.4 / L0 if L0 > 0.0 else math.inf


def plan_steps(T: float, dt: float) -> tuple[int, float]:
    """Step count and the step size that lands exactly on T, at most dt
    unless dt already divides T to within 1e-9; dt must be positive and
    finite, and the count at most MAX_STEPS."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not T / dt <= MAX_STEPS:
        raise ValueError(
            f"T = {T:g} at dt = {dt:g} takes {T / dt:.3g} steps, more than {MAX_STEPS}"
        )
    n_steps = max(1, int(round(T / dt)))
    if abs(n_steps * dt - T) > 1e-9 * T:
        n_steps = int(np.ceil(T / dt))
    return n_steps, T / n_steps


def march(cls, state, step, T: float, dt: float, **fields):
    """The solve driver: march step(state, dt_eff) from state to T in the
    steps plan_steps(T, dt) gives and return the trajectory
    cls(..., dt=dt_eff, horizon=T, **fields).

    Its snapshots are copies of the states at the steps nearest 65 evenly
    spaced times in [0, T], one per step however many times round to it, and
    its boundary track holds (t, g, h) at all n_steps + 1 states.
    """
    n_steps, dt = plan_steps(T, dt)
    want_set = set(np.rint(np.linspace(0.0, T, 65) / dt).astype(int).tolist())
    times = np.empty(n_steps + 1)
    gs = np.empty(n_steps + 1)
    hs = np.empty(n_steps + 1)
    snapshots = []
    for k in range(n_steps + 1):
        times[k] = state.t
        gs[k] = state.g
        hs[k] = state.h
        if k in want_set:
            snapshots.append(dataclasses.replace(state, values=state.values.copy()))
        if k == n_steps:
            break
        state = step(state, dt)
    return cls(
        snapshots=tuple(snapshots), boundary_times=times, boundary_g=gs, boundary_h=hs,
        dt=dt, horizon=T, **fields,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Trajectory of (u, g, h): dense boundary track plus timed snapshots."""

    snapshots: tuple
    boundary_times: np.ndarray
    boundary_g: np.ndarray
    boundary_h: np.ndarray
    dt: float
    horizon: float

    @property
    def snapshot_times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def g_of(self, t):
        return np.interp(t, self.boundary_times, self.boundary_g)

    def h_of(self, t):
        return np.interp(t, self.boundary_times, self.boundary_h)

    def profile_at(self, k: int, x: np.ndarray) -> np.ndarray:
        """Snapshot k at physical positions x, zero outside (g, h)."""
        raise NotImplementedError

    def sample(self, t: float, x) -> np.ndarray | float:
        """Linear interpolation in t between snapshots, profile_at within them."""
        if t > self.horizon * (1.0 + 1e-12) + 1e-15:
            raise OutOfHorizon(f"t = {t} beyond horizon {self.horizon}")
        if not t >= 0.0:  # a NaN fails this test too
            raise OutOfHorizon("t must be nonnegative")
        times = self.snapshot_times
        k = int(np.searchsorted(times, t, side="right") - 1)
        k = max(0, min(k, len(times) - 1))
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if k == len(times) - 1 or times[k] >= t:
            vals = self.profile_at(k, x_arr)
        else:
            t0, t1 = times[k], times[k + 1]
            lam = (t - t0) / (t1 - t0)
            vals = (1.0 - lam) * self.profile_at(k, x_arr) + lam * self.profile_at(k + 1, x_arr)
        outside = (x_arr <= self.g_of(t)) | (x_arr >= self.h_of(t))
        vals[outside] = 0.0
        if np.ndim(x) == 0:
            return float(vals[0])
        return vals
