from dataclasses import dataclass

import numpy as np
import pytest

from frontlab import trajectory as TR
from frontlab.errors import PositivityLoss


@dataclass(frozen=True, eq=False)
class Toy:
    t: float
    g: float
    h: float
    values: np.ndarray


def toy_step(dt):
    def advance(state):
        return Toy(state.t + dt, state.g - dt, state.h + 2 * dt, state.values + 1.0)

    return advance


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
    n_steps, dt = TR.plan_steps(1.0, 0.1)
    start = Toy(0.0, -1.0, 1.0, np.zeros(3))
    snaps, (t, g, h) = TR.march(start, toy_step(dt), n_steps, dt, [0.0, 0.31, 0.3, 2.0])
    assert t.size == g.size == h.size == n_steps + 1
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert np.allclose(g, -1.0 - t) and np.allclose(h, 1.0 + 2 * t)
    # Nearest steps, duplicates merged, times beyond T clipped to the last step.
    assert [int(s.values[0]) for s in snaps] == [0, 3, 10]
    assert [s.t for s in snaps] == [t[0], t[3], t[10]]


def test_march_snapshots_are_copies():
    start = Toy(0.0, -1.0, 1.0, np.zeros(3))
    snaps, _ = TR.march(start, lambda s: s, 2, 0.5, [0.0, 1.0])
    snaps[0].values[0] = 7.0
    assert start.values[0] == 0.0 and snaps[1].values[0] == 0.0


@pytest.mark.parametrize("bad", [-1e-9, np.nan, -np.inf])
def test_check_positivity_rejects_low_and_nan(bad):
    values = np.array([0.0, 0.5, bad, 0.25])
    with pytest.raises(PositivityLoss) as info:
        TR.check_positivity(values, 0.125)
    assert info.value.time_of_failure == 0.125


def test_check_positivity_accepts_values_above_floor():
    TR.check_positivity(np.array([0.0, -0.5e-10, 1.0]), 0.0)
    TR.check_positivity(np.array([]), 0.0)
