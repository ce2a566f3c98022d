"""Fuzz both solvers over admissible polynomial reactions and parameters,
and the command line over inadmissible option values.

The nonlocal runs also draw the kernel family and the flux law: the modified
law with beta in (0.2, 0.8), or the unmodified law with c1 in (0.5, 2) c_star.
Every admissible input must either give a run that keeps the invariants
(finite, nonnegative values; fronts that never retreat; g < h) or fail with a
typed FrontlabError.  Every command line must exit 0, 2 or 3 and write
error.json on failure.  Resolutions are tiny so a few hundred runs stay cheap.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontlab import cli
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


# Each numeric option is drawn from these classes.  "ordinary" is a value the
# command accepts, listed per option; it is drawn about half the time so that
# runs that succeed are drawn too.
SPECIAL = {"zero": "0", "negative": "-1", "nan": "nan", "inf": "inf", "tiny": "1e-300"}
ORDINARY = {"--dt": "1e-3", "--dx": "0.025", "--eps": "0.2", "--c1": "10", "--beta": "0.5",
            "--gamma1": "0.4", "--dx-ratio": "8"}
# Positive, but far too small: as --dt it asks for 5e10 steps (MAX_STEPS
# bounds them), as --dx for a grid of 2e12 nodes (MAX_NODES bounds it).
SMALL = "1e-12"
SOLVE_OPTIONS = ("--dt", "--dx", "--eps", "--c1", "--beta", "--gamma1")
CONVERGE_OPTIONS = ("--dt", "--eps", "--c1", "--beta", "--dx-ratio")
value_class = st.sampled_from([*SPECIAL, "ordinary"]) | st.just("ordinary")
option_classes = st.fixed_dictionaries(
    {opt: value_class for opt in ORDINARY}
    | {opt: value_class | st.just("small") for opt in ("--dt", "--dx")}
)
ALL_ORDINARY = dict.fromkeys(ORDINARY, "ordinary")


def _argv(command, classes, variant, preset, config, out):
    def value(opt):
        if classes[opt] == "small":
            return SMALL
        return ORDINARY[opt] if classes[opt] == "ordinary" else SPECIAL[classes[opt]]

    argv = ["--config", str(config), "--out", str(out), "--variant", variant]
    if command == "converge":
        # The drawn eps joins two fixed ones: a rate fit needs three.
        argv = ["converge", *argv, "--nx", "32", "--eps", "0.1", "--eps", "0.05"]
        return argv + [f"{opt}={value(opt)}" for opt in CONVERGE_OPTIONS]
    argv = ["solve", *argv, "--solver", command, "--nx", "32", "--preset", preset]
    return argv + [f"{opt}={value(opt)}" for opt in SOLVE_OPTIONS]


@pytest.mark.parametrize("command", ["local", "nonlocal", "converge"])
@settings(max_examples=60, deadline=None)
@given(classes=option_classes, variant=st.sampled_from(["modified", "unmodified"]),
       preset=st.sampled_from(["none", "i1", "i2"]))
@example(classes=ALL_ORDINARY, variant="modified", preset="none")
@example(classes={**ALL_ORDINARY, "--dt": "negative"}, variant="modified", preset="none")
@example(classes={**ALL_ORDINARY, "--dt": "zero"}, variant="modified", preset="none")
@example(classes={**ALL_ORDINARY, "--c1": "inf"}, variant="unmodified", preset="none")
@example(classes={**ALL_ORDINARY, "--eps": "inf"}, variant="modified", preset="i1")
@example(classes={**ALL_ORDINARY, "--eps": "nan"}, variant="modified", preset="none")
@example(classes={**ALL_ORDINARY, "--dt": "small"}, variant="modified", preset="none")
@example(classes={**ALL_ORDINARY, "--dx": "small"}, variant="modified", preset="none")
def test_cli_exits_0_2_or_3_with_error_json(command, classes, variant, preset):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "stefan.cfg", Path(tmp) / "out"
        P.save_config(P.symmetric_stefan(T=0.05), config)
        code = cli.main(_argv(command, classes, variant, preset, config, out))
        assert code in (0, 2, 3)
        if code != 0:
            assert set(json.loads((out / "error.json").read_text())) == {
                "code", "message", "time_of_failure"}
            return
        tracks = sorted(out.rglob("boundary.csv"))
        assert tracks
        for track in tracks:
            assert len(track.read_text().splitlines()) > 1  # a header and data rows
