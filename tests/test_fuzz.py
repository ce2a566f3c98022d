"""Fuzz both solvers over admissible polynomial reactions and parameters.

The nonlocal runs also draw the kernel family and the flux law: the modified
law with beta in (0.2, 0.8), or the unmodified law with c1 in (0.5, 2) c_star.
Every admissible input must either give a run that keeps the invariants
(finite, nonnegative values; fronts that never retreat; g < h) or fail with a
typed FrontlabError.  Resolutions are tiny so a few hundred runs stay cheap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import kernels as K
from frontlab import local_solver as L
from frontlab import nonlocal_solver as NL
from frontlab import problem as P
from frontlab.errors import FrontlabError

EPS = 0.2

# Degree 1-3, c0 = 0, coefficients in [-3, 3] and a negative leading one.  Its
# magnitude is kept at 0.25 or more: K grows like 1 / |lead|, L0 like a power
# of K, and the default dt like 1 / L0, so a tiny lead only makes runs long.
reactions = st.integers(0, 2).flatmap(
    lambda n: st.tuples(st.just(0.0), *[st.floats(-3.0, 3.0)] * n, st.floats(-3.0, -0.25))
)


def _configs():
    return st.builds(
        lambda coeffs, d, mu: P.validate(
            P.ProblemConfig(
                d=d, mu=mu, T=0.05,
                reaction=P.ReactionSpec(family="custom_polynomial", coefficients=coeffs),
            )
        ),
        reactions,
        st.floats(0.3, 2.0),
        st.floats(0.3, 2.0),
    )


def _unmodified(kernel: K.KernelSpec):
    return st.floats(0.5, 2.0).map(
        lambda ratio: NL.NonlocalVariant("unmodified", c1=ratio * K.c_star(kernel))
    )


def _nonlocal_setups():
    """(kernel, flux law) pairs over every built-in kernel family."""
    modified = st.floats(0.2, 0.8).map(lambda beta: NL.NonlocalVariant("modified", beta=beta))
    return st.sampled_from(K.BUILTIN_FAMILIES).map(K.KernelSpec).flatmap(
        lambda kernel: st.tuples(st.just(kernel), st.one_of(modified, _unmodified(kernel)))
    )


def _assert_invariants(sol):
    for state in sol.snapshots:
        assert np.all(np.isfinite(state.values))
        assert np.all(state.values >= 0.0)
    g, h = sol.boundary_g, sol.boundary_h
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))
    assert np.all(np.diff(h) >= 0.0) and np.all(np.diff(g) <= 0.0)
    assert np.all(g < h)


@pytest.mark.parametrize("solver", ["local", "nonlocal"])
@settings(max_examples=100, deadline=None)
@given(vconf=_configs(), nonlocal_setup=_nonlocal_setups())
def test_admissible_run_keeps_invariants_or_fails_typed(solver, vconf, nonlocal_setup):
    assert vconf.ok
    try:
        if solver == "local":
            sol = L.solve(vconf, n_cells=32)
        else:
            kernel, variant = nonlocal_setup
            sol = NL.solve(vconf, kernel, eps=EPS, variant=variant, dx=EPS / 8.0)
    except FrontlabError:
        return
    _assert_invariants(sol)
