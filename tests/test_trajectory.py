from dataclasses import dataclass

import numpy as np
import pytest

from frontlab import kernels as K
from frontlab import local_solver as LS
from frontlab import nonlocal_solver as NL
from frontlab import problem as P
from frontlab import trajectory as TR
from frontlab.errors import OutOfHorizon, PositivityLoss


@dataclass(frozen=True, eq=False)
class Toy:
    t: float
    g: float
    h: float
    values: np.ndarray


def toy_step(state, dt):
    return Toy(state.t + dt, state.g - dt, state.h + 2 * dt, state.values + 1.0)


@dataclass(frozen=True, eq=False)
class ToyTrajectory(TR.Trajectory):
    label: str


@pytest.mark.parametrize(
    "T, dt, n",
    [(1.0, 0.1, 10), (1.0, 0.3, 4), (0.25, 1e-4, 2500), (0.1, 2e-4, 500), (1.0, 5.0, 1),
     (1.0, 1.01e-7, 9900991)],
)
def test_plan_steps_lands_on_horizon(T, dt, n):
    n_steps, dt_eff = TR.plan_steps(T, dt)
    assert n_steps == n
    assert dt_eff == T / n_steps
    assert n_steps * dt_eff == pytest.approx(T, rel=1e-15)
    assert dt_eff <= dt * (1 + 1e-9)


@pytest.mark.parametrize(
    "T, dt, message",
    [
        *[pytest.param(1.0, dt, "dt must be positive and finite", id=str(dt))
          for dt in (0.0, -1e-3, np.nan, np.inf)],
        # Positive but so small that the boundary track alone would not fit.
        pytest.param(0.05, 1e-12, r"T = 0.05 at dt = 1e-12 takes 5e\+10 steps, more than 10000000",
                     id="too_many_steps"),
        pytest.param(1.0, 1e-300, r"T = 1 at dt = 1e-300 takes 1e\+300 steps", id="1e-300"),
        pytest.param(0.05, 5e-324, "takes inf steps", id="subnormal"),
        pytest.param(1.0, 0.99e-7, "more than 10000000", id="just_over_max_steps"),
    ],
)
def test_plan_steps_rejects_bad_dt(T, dt, message):
    with pytest.raises(ValueError, match=message):
        TR.plan_steps(T, dt)


def test_march_records_track_and_requested_snapshots():
    start = Toy(0.0, -1.0, 1.0, np.zeros(3))
    sol = TR.march(ToyTrajectory, start, toy_step, 1.0, 0.3, label="toy")
    n_steps, dt = TR.plan_steps(1.0, 0.3)
    assert isinstance(sol, ToyTrajectory)
    assert sol.dt == dt and sol.horizon == 1.0 and sol.label == "toy"
    t, g, h, snaps = sol.boundary_times, sol.boundary_g, sol.boundary_h, sol.snapshots
    assert t.size == g.size == h.size == n_steps + 1
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert np.allclose(g, -1.0 - t) and np.allclose(h, 1.0 + 2 * t)
    # Four steps for 65 even times: each time lies within dt/2 of a snapshot,
    # and the times that round to one step share one snapshot.
    assert n_steps == 4
    assert [int(s.values[0]) for s in snaps] == list(range(n_steps + 1))
    assert [s.t for s in snaps] == list(t)
    snap_t = np.array([s.t for s in snaps])
    want = np.linspace(0.0, 1.0, 65)
    assert np.all(np.min(np.abs(want[:, None] - snap_t), axis=1) <= dt / 2 * (1 + 1e-12))


def test_march_defaults_to_65_even_snapshots():
    sol = TR.march(ToyTrajectory, Toy(0.0, -1.0, 1.0, np.zeros(1)), toy_step, 1.0, 1 / 128,
                   label="toy")
    assert np.array_equal(sol.snapshot_times, sol.boundary_times[::2])
    assert sol.snapshot_times.size == 65


def test_march_snapshots_are_copies():
    start = Toy(0.0, -1.0, 1.0, np.zeros(3))
    sol = TR.march(ToyTrajectory, start, lambda s, dt: s, 1.0, 0.5, label="toy")
    assert len(sol.snapshots) == 3  # one state object at every step
    sol.snapshots[0].values[0] = 7.0
    assert start.values[0] == 0.0 and sol.snapshots[1].values[0] == 0.0


@pytest.mark.parametrize("bad", [-1e-9, np.nan, -np.inf])
def test_clamp_nonnegative_rejects_low_and_nan(bad):
    values = np.array([0.0, 0.5, bad, 0.25])
    with pytest.raises(PositivityLoss) as info:
        TR.clamp_nonnegative(values, 0.125)
    assert info.value.time_of_failure == 0.125


def test_clamp_nonnegative_clamps_values_above_floor_in_place():
    values = np.array([0.0, -0.5e-10, 1.0, -1e-300])
    TR.clamp_nonnegative(values, 0.0)
    assert values.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert not np.signbit(values).any()
    TR.clamp_nonnegative(np.array([]), 0.0)


@pytest.mark.parametrize(
    "module, args",
    [(LS, {"n_cells": 64, "dt": 5e-3}), (NL, {"kernel": K.KernelSpec("epanechnikov"), "eps": 0.2})],
    ids=["local", "nonlocal"],
)
def test_solve_looks_step_up_at_call_time(monkeypatch, module, args):
    # A wrapper that replaces the module's step by name sees every step of a
    # solve and changes no byte of its result.
    vconf = P.validate(P.symmetric_stefan(T=0.05))
    plain = module.solve(vconf, **args)
    original, calls = module.step, []

    def counting(*a, **kw):
        calls.append(a[0].t)
        return original(*a, **kw)

    monkeypatch.setattr(module, "step", counting)
    sol = module.solve(vconf, **args)
    assert len(calls) == len(sol.boundary_times) - 1 > 1
    for name in ("boundary_times", "boundary_g", "boundary_h"):
        assert getattr(sol, name).tobytes() == getattr(plain, name).tobytes()
    assert len(sol.snapshots) == len(plain.snapshots)
    for a, b in zip(sol.snapshots, plain.snapshots):
        assert a.t == b.t and a.values.tobytes() == b.values.tobytes()
    assert sol.dt == plain.dt


@pytest.mark.parametrize(
    "module, args",
    [(LS, {"n_cells": 64, "dt": 5e-3}), (NL, {"kernel": K.KernelSpec("epanechnikov"), "eps": 0.2})],
    ids=["local", "nonlocal"],
)
def test_sample_rejects_t_outside_horizon_and_nan(module, args):
    sol = module.solve(P.validate(P.symmetric_stefan(T=0.05)), **args)
    with pytest.raises(OutOfHorizon, match="beyond horizon"):
        sol.sample(0.06, 0.0)
    for t in (-1e-3, np.nan):
        with pytest.raises(OutOfHorizon, match="t must be nonnegative"):
            sol.sample(t, 0.0)
    assert sol.sample(0.05, 0.0) > 0.0
