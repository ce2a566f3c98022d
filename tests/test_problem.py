import pickle
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontlab import kernels as K
from frontlab import local_solver as L
from frontlab import nonlocal_solver as NL
from frontlab import problem as P
from frontlab.errors import NegativeDensity


def test_validate_fisher_quadratic_ok():
    cfg = P.ProblemConfig(
        reaction=P.ReactionSpec(family="fisher_kpp", a=1.0, b=1.0),
        initial=P.InitialDataSpec(family="quadratic_bump", V=1.0),
    )
    vc = P.validate(cfg)
    assert vc.ok
    assert vc.K == pytest.approx(1.0)
    assert vc.sup_v0 == pytest.approx(1.0, abs=1e-4)
    assert vc.L0 >= 1.0  # |f'(u)| reaches a at u = 0


def test_validate_flat_bump_rejected():
    cfg = P.ProblemConfig(initial=P.InitialDataSpec(family="quadratic_bump", V=0.0))
    vc = P.validate(cfg)
    assert not vc.ok
    assert any(v.startswith("(1.2a)") and "positive" in v for v in vc.violations)
    with pytest.raises(ValueError):
        P.require_valid(vc)


def test_validate_nan_height_rejected():
    # Every comparison with NaN is False, so tests written as "v0 <= 0" or
    # "slope <= 0" would let V = nan through with sup_v0 = nan.
    vc = P.validate(P.ProblemConfig(initial=P.InitialDataSpec(family="quadratic_bump", V=np.nan)))
    assert not vc.ok
    assert "(1.2a): v0 not positive on (-h0, h0)" in vc.violations
    assert "(1.2a): v0 has vanishing one-sided slope at +-h0" in vc.violations


@pytest.mark.parametrize("height", [np.inf, 1e308])
def test_validate_infinite_front_speed_is_one_profile_violation(height):
    # The front speed mu |v0'(+-h0)| = 2 V overflows.  Only the profile is at
    # fault: the zero reaction's K and L0 are not computed from sup v0 = inf.
    vc = P.validate(P.ProblemConfig(initial=P.InitialDataSpec(family="quadratic_bump",
                                                              V=height)))
    assert vc.violations == ("(1.2a): v0 or its front speed mu |v0'(+-h0)| is not finite",)


def test_validate_nonzero_constant_term_rejected():
    cfg = P.ProblemConfig(
        reaction=P.ReactionSpec(family="custom_polynomial", coefficients=(1e-3, 1.0, -1.0))
    )
    vc = P.validate(cfg)
    assert any(v == "(f1): f(0) != 0" for v in vc.violations)


def test_validate_unbounded_polynomial_rejected():
    cfg = P.ProblemConfig(
        reaction=P.ReactionSpec(family="custom_polynomial", coefficients=(0.0, 1.0, 1.0))
    )
    vc = P.validate(cfg)
    assert any(v.startswith("(f2)") for v in vc.violations)


def test_validate_negative_parameter_rejected():
    cfg = P.ProblemConfig(d=-1.0)
    vc = P.validate(cfg)
    assert any("d must be positive" in v for v in vc.violations)


@pytest.mark.parametrize("name", ["d", "mu", "T"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_validate_non_finite_parameter_rejected(name, value):
    vc = P.validate(P.ProblemConfig(**{name: value}))
    assert not vc.ok
    assert any(f"{name} must be positive and finite" in v for v in vc.violations)


@pytest.mark.parametrize("family, v0", [
    ("quadratic_bump", lambda x: 1.0 - (x / 2.0) ** 2),
    ("cosine_bump", lambda x: np.cos(0.25 * np.pi * x)),
])
def test_problem_h0_is_the_support_of_v0(family, v0):
    # One h0 sets the initial domain and v0's support: a bump on (-2, 2).
    vconf = P.validate(P.ProblemConfig(h0=2.0, initial=P.InitialDataSpec(family=family)))
    assert vconf.violations == ()
    local = L.initial_state(vconf, 64)
    x = np.linspace(-2.0, 2.0, 65)
    assert (local.g, local.h) == (-2.0, 2.0)
    assert local.values[0] == local.values[-1] == 0.0
    assert np.all(local.values[1:-1] > 0.0)
    np.testing.assert_allclose(local.values, v0(x), rtol=1e-14, atol=1e-15)
    nonlocal_ = NL.initial_state(vconf, 0.125)
    x = nonlocal_.grid()
    assert (nonlocal_.g, nonlocal_.h) == (-2.0, 2.0)
    assert (x[0], x[-1]) == (-1.875, 1.875)
    assert np.all(nonlocal_.values > 0.0)
    np.testing.assert_allclose(nonlocal_.values, v0(x), rtol=1e-14, atol=1e-15)


def test_eval_reaction_values():
    fk = P.ReactionSpec(family="fisher_kpp", a=1.0, b=1.0)
    assert P.eval_reaction(fk, 0.5) == pytest.approx(0.25)
    assert P.eval_reaction(fk, 2.0) == pytest.approx(-2.0)
    assert P.eval_reaction(P.ReactionSpec(family="zero"), 7.0) == 0.0


def test_eval_reaction_polynomial_matches_horner_oracle():
    spec = P.ReactionSpec(family="custom_polynomial", coefficients=(0.0, 2.0, -3.0, 0.5))
    u = 1.7
    expected = 2.0 * u - 3.0 * u**2 + 0.5 * u**3
    assert P.eval_reaction(spec, u) == pytest.approx(expected, rel=1e-15)


def test_eval_reaction_negative_density():
    with pytest.raises(NegativeDensity):
        P.eval_reaction(P.ReactionSpec(family="zero"), -1e-3)
    fisher = P.ReactionSpec(family="fisher_kpp")
    with pytest.raises(NegativeDensity):
        P.eval_reaction(fisher, np.array([0.5, 0.2, -1e-300, 0.0, 1.0]))
    # Not negative: -0.0, NaN (reported by the solvers' positivity guard) and
    # empty input.
    assert P.eval_reaction(fisher, -0.0) == 0.0
    assert np.isnan(P.eval_reaction(fisher, np.nan))
    assert P.eval_reaction(fisher, np.zeros(0)).size == 0


def test_zero_reaction_is_the_scalar_zero_after_the_guard():
    # Callers add it in place, which gives the bytes an array of zeros gives.
    zero = P.ReactionSpec(family="zero")
    u = np.array([0.0, -0.0, 5e-324, 0.5, 3.0])
    f = P.eval_reaction(zero, u)
    assert type(f) is float and f == 0.0 and np.copysign(1.0, f) == 1.0
    for base in (u, -u):
        added, reference = base.copy(), base.copy()
        added += f
        reference += np.zeros_like(base)
        assert added.tobytes() == reference.tobytes()
    with pytest.raises(NegativeDensity):
        P.eval_reaction(zero, np.array([0.5, -5e-324]))


def test_initial_dip_below_zero_is_negative_density():
    # A hand-built state holds one node at -0.5; the solvers pass their
    # states to the reaction unclamped, so its guard reports the node in the
    # step instead of evaluating f at 0.
    vconf = P.validate(P.ProblemConfig(T=0.01))
    local = L.initial_state(vconf, 48).values
    local[13] = -0.5
    with pytest.raises(NegativeDensity):
        L.step(L.FixedDomainState(t=0.0, g=-1.0, h=1.0, values=local), 1e-3, vconf,
               L.INERT_KNOBS, L._Workspace(local.size - 2))
    nonlocal_ = NL.initial_state(vconf, 0.0125)
    values = nonlocal_.values.copy()
    values[37] = -0.5
    state = NL.EulerianState(0.0, -1.0, 1.0, 0.0125, nonlocal_.j_min, values)
    assert state.window[0] <= 37 < state.window[1]
    with pytest.raises(NegativeDensity):
        NL.step(state, 1e-3, vconf, K.KernelSpec("epanechnikov"), 0.2, NL.NonlocalVariant())


def test_validated_config_fields_read_the_config():
    vconf = P.validate(P.fisher_kpp_config(T=0.5, a=2.0, b=3.0))
    for name in ("d", "mu", "h0", "T", "reaction", "initial"):
        assert getattr(vconf, name) is getattr(vconf.config, name)
        with pytest.raises(AttributeError):
            setattr(vconf, name, None)
    with pytest.raises(AttributeError):  # no other name is forwarded to the config
        getattr(vconf, "a")
    copy = pickle.loads(pickle.dumps(vconf))  # a caller may hand it to another process
    assert (copy.T, copy.reaction, copy.L0) == (0.5, vconf.reaction, vconf.L0)


def test_eval_reaction_zero_at_zero_exactly():
    for spec in (
        P.ReactionSpec(family="zero"),
        P.ReactionSpec(family="fisher_kpp", a=2.0, b=3.0),
        P.ReactionSpec(family="custom_polynomial", coefficients=(0.0, 1.0, -2.0)),
    ):
        assert P.eval_reaction(spec, 0.0) == 0.0


@settings(max_examples=30, deadline=None)
@given(u=st.floats(1.0 + 1e-6, 50.0))
def test_fisher_nonpositive_above_K(u):
    fk = P.ReactionSpec(family="fisher_kpp", a=1.0, b=1.0)
    assert P.eval_reaction(fk, u) <= 0.0


def _custom(*coefficients):
    return P.ReactionSpec(family="custom_polynomial", coefficients=tuple(coefficients))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(1e-3, 10.0), b=st.floats(1e-3, 10.0), u=st.floats(0.0, 20.0))
def test_fisher_equals_its_custom_polynomial(a, b, u):
    fisher = P.ReactionSpec(family="fisher_kpp", a=a, b=b)
    custom = _custom(0.0, a, -b)
    vf = P.validate(P.ProblemConfig(reaction=fisher))
    vc = P.validate(P.ProblemConfig(reaction=custom))
    assert vf.ok and vc.ok
    assert (vf.K, vf.L0) == (vc.K, vc.L0)
    assert vf.K == pytest.approx(a / b, rel=4 * np.finfo(float).eps)
    us = np.array([0.0, u, a / b, 2.0 * u])
    f = P.eval_reaction(fisher, us)
    assert np.array_equal(f, P.eval_reaction(custom, us))
    assert np.array_equal(f, us * (a - b * us))


admissible_polynomials = st.integers(0, 3).flatmap(
    lambda n: st.tuples(
        st.just(0.0),
        *[st.floats(-3.0, 3.0)] * n,
        st.floats(-3.0, 0.0, exclude_max=True),
    )
)

OVERFLOW = "(f2): computing K and L0 overflows the float range"


@settings(max_examples=200, deadline=None)
@given(coeffs=admissible_polynomials)
@example(coeffs=(0.0, 1.0, -3.0, 3.0, -1.0))  # -u (u - 1)^3: a triple root at K = 1
@example(coeffs=(0.0, 1.0, -1.5, -6.103515625e-05))  # K = 0.67 beside a root at -24576
def test_exact_K_and_L0_bound_the_polynomial(coeffs):
    vconf = P.validate(P.ProblemConfig(reaction=_custom(*coeffs)))
    if not vconf.ok:  # f near K = O(1 / |lead|) overflows only for a tiny lead
        assert vconf.violations == (OVERFLOW,) and abs(coeffs[-1]) < 1e-100
        return
    above = vconf.K * (1.0 + 1e-12) + np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 400)])
    # f <= 0 up to the rounding of Horner's rule, 2n sum (eps |c_k| + eta) u^k
    # with eta the smallest subnormal: at a root of multiplicity m the computed
    # root is off by about eps^(1/m), and f there is below that rounding.
    fin = np.finfo(float)
    with np.errstate(over="ignore"):  # f heads to -inf far above a huge K
        rounding = 2 * len(coeffs) * np.polynomial.polynomial.polyval(
            above, fin.eps * np.abs(coeffs) + fin.smallest_subnormal
        )
        assert np.all(P.eval_reaction(vconf.reaction, above) <= rounding)
    u_cap = 1.1 * max(vconf.K, vconf.sup_v0) + 1.0
    u = np.linspace(0.0, u_cap, 4001)
    df = np.polynomial.polynomial.polyder(coeffs)
    assert np.all(np.abs(np.polynomial.polynomial.polyval(u, df)) <= vconf.L0 * (1.0 + 1e-12))


coefficient_arrays = st.lists(
    st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0])), min_size=1, max_size=6
).flatmap(lambda c: st.lists(st.sampled_from([0.0, -0.0]), max_size=3).map(lambda z: c + z))
points = st.one_of(st.floats(-5.0, 5.0), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(c=coefficient_arrays, x=points)
@example(c=[0.0, 0.0], x=-0.0)
@example(c=[-0.0], x=[0.0, -0.0])
@example(c=[2.0, -0.0, 0.0], x=1.5)
def test_polynomial_helpers_equal_numpy_polynomial_bitwise(c, x):
    # Trailing exact zeros, signed zeros, a constant, and a scalar or list x.
    npp = np.polynomial.polynomial
    trimmed = P._polytrim(c)
    assert trimmed.tobytes() == npp.polytrim(c).tobytes()
    c = np.array(c)
    assert P._polyder(c).tobytes() == npp.polyder(c).tobytes()
    got, want = P._polyval(x, c), npp.polyval(x, c)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_polynomial_helpers_raise_on_overflow_like_numpy():
    # validate turns an overflow in these helpers into its (f2) violation.
    c = np.array([0.0, 1e300, -1e300])
    for helper in (lambda: P._polyval(1e10, c), lambda: P._polyder(c * 1e8)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            helper()


@settings(max_examples=100, deadline=None)
@given(coeffs=admissible_polynomials)
@example(coeffs=(0.0, 1.0, -3.0, 3.0, -1.0))
@example(coeffs=(0.0, 1.0, -1.5, -6.103515625e-05))
@example(coeffs=(0.0, 2.0, 0.0, -0.0))
def test_validate_K_and_L0_match_numpy_polynomial_bitwise(coeffs):
    config = P.ProblemConfig(reaction=_custom(*coeffs))
    npp = np.polynomial.polynomial
    with mock.patch.multiple(P, _polyder=npp.polyder, _polyval=npp.polyval,
                             _polytrim=npp.polytrim):
        want = P.validate(config)
    got = P.validate(config)
    assert (got.K, got.L0, got.violations) == (want.K, want.L0, want.violations)
    assert np.array([got.K, got.L0]).tobytes() == np.array([want.K, want.L0]).tobytes()


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, -1.0), (0.0, 1.0, 0.0, -1.0)])
def test_K_is_the_largest_root(coeffs):
    assert P.validate(P.ProblemConfig(reaction=_custom(*coeffs))).K == pytest.approx(1.0, abs=1e-12)


def test_fisher_without_quadratic_term():
    decay = P.validate(P.ProblemConfig(reaction=P.ReactionSpec("fisher_kpp", a=-2.0, b=0.0)))
    assert decay.ok and (decay.K, decay.L0) == (0.0, 2.0)
    growth = P.validate(P.ProblemConfig(reaction=P.ReactionSpec("fisher_kpp", a=2.0, b=0.0)))
    assert growth.violations == ("(f2): no K found with f <= 0 for u > K",)


def test_validate_overflowing_bounds_rejected():
    # K = 3e308 is a root of 3u - 1e-308 u^2 but no float; K = 1.6e164 is one,
    # but u^2 overflows on the way to it.
    vc = P.validate(P.ProblemConfig(reaction=_custom(0.0, 3.0, -1e-308)))
    assert vc.violations == (OVERFLOW,)
    vc = P.validate(P.ProblemConfig(reaction=_custom(0.0, 0.0, 1.0, -6.1e-165)))
    assert vc.violations == (OVERFLOW,)
    vc = P.validate(P.ProblemConfig(reaction=_custom(0.0, 1.0, -1e-308)))
    assert vc.K == pytest.approx(1e308)


def test_validate_non_finite_coefficient_rejected():
    vc = P.validate(P.ProblemConfig(reaction=_custom(0.0, float("nan"), -1.0)))
    assert vc.violations == ("(config): reaction coefficients must be finite",)


def test_eval_initial_values():
    spec = P.InitialDataSpec(family="quadratic_bump", V=1.0)
    assert P.eval_initial(spec, 1.0, 0.0) == pytest.approx(1.0)
    assert P.eval_initial(spec, 1.0, 1.0) == 0.0
    assert P.eval_initial(spec, 1.0, -1.0) == 0.0
    assert P.eval_initial(spec, 1.0, 2.0) == 0.0


def test_eval_initial_even():
    for fam in ("quadratic_bump", "cosine_bump"):
        spec = P.InitialDataSpec(family=fam, V=2.0)
        x = np.linspace(0.0, 2.0, 257)
        assert np.array_equal(P.eval_initial(spec, 1.5, x), P.eval_initial(spec, 1.5, -x))


def test_initial_slopes_nonzero():
    spec = P.InitialDataSpec(family="quadratic_bump", V=1.0)
    sl, sr = P._initial_slopes(spec, 2.0)
    assert sl == pytest.approx(2.0 * 1.0 / 2.0)
    assert sr == pytest.approx(1.0)


def test_config_round_trip(tmp_path):
    cfg = P.ProblemConfig(
        d=0.7,
        mu=1.3,
        h0=2.0,
        T=0.5,
        reaction=P.ReactionSpec(family="fisher_kpp", a=1.5, b=0.5),
        initial=P.InitialDataSpec(family="cosine_bump", V=0.8),
    )
    path = tmp_path / "cfg.txt"
    P.save_config(cfg, path)
    loaded = P.load_config(path)
    assert loaded.d == cfg.d and loaded.mu == cfg.mu
    assert loaded.h0 == cfg.h0 and loaded.T == cfg.T
    assert loaded.reaction == cfg.reaction
    assert loaded.initial.family == "cosine_bump"
    assert loaded.initial.V == cfg.initial.V
    P.save_config(loaded, tmp_path / "cfg2.txt")
    assert (tmp_path / "cfg.txt").read_bytes() == (tmp_path / "cfg2.txt").read_bytes()


@pytest.mark.parametrize("family", P.INITIAL_FAMILIES)
def test_every_initial_family_round_trips(tmp_path, family):
    cfg = P.ProblemConfig(h0=1.5, initial=P.InitialDataSpec(family=family, V=0.7))
    path = tmp_path / "cfg.txt"
    P.save_config(cfg, path)
    loaded = P.load_config(path)
    assert loaded.initial == cfg.initial
    before, after = P.validate(cfg), P.validate(loaded)
    assert after.ok
    assert ((after.K, after.L0, after.sup_v0, after.violations)
            == (before.K, before.L0, before.sup_v0, before.violations))


NOT_POSITIVE = "(1.2a): v0 not positive on (-h0, h0)"
FLAT = "(1.2a): v0 has vanishing one-sided slope at +-h0"
NOT_FINITE = "(1.2a): v0 or its front speed mu |v0'(+-h0)| is not finite"


@pytest.mark.parametrize("family", P.INITIAL_FAMILIES)
@pytest.mark.parametrize("height, violations", [
    (1.0, ()),
    (0.0, (NOT_POSITIVE, FLAT)),
    (-1.0, (NOT_POSITIVE,)),
    (np.nan, (NOT_POSITIVE, FLAT)),
    (np.inf, (NOT_FINITE,)),
    (-np.inf, (NOT_POSITIVE, NOT_FINITE)),
    # the quadratic's slope 2 V overflows, the cosine's pi V / 2 does not
    (1e308, {"quadratic_bump": (NOT_FINITE,), "cosine_bump": ()}),
], ids=["one", "zero", "negative", "nan", "inf", "-inf", "1e308"])
def test_initial_height_violations(family, height, violations):
    # v0 is V times a profile positive inside with peak 1 at x = 0, so the
    # verdict follows from V, h0 and mu alone; sup v0 is V itself.
    if isinstance(violations, dict):
        violations = violations[family]
    vc = P.validate(P.ProblemConfig(initial=P.InitialDataSpec(family=family, V=height)))
    assert vc.violations == violations
    assert vc.sup_v0 == height or np.isnan(vc.sup_v0) and np.isnan(height)


@pytest.mark.parametrize("config", [
    P.ProblemConfig(h0=2.5e6),  # slope 2 V / h0 = 8e-7
    P.ProblemConfig(initial=P.InitialDataSpec(V=4e-7)),  # slope 8e-7
], ids=["wide", "low"])
def test_small_nonzero_slope_is_admissible(config):
    # (1.2a) asks for a nonzero slope at +-h0, whatever the scale of v0.
    assert P.validate(config).violations == ()


def test_slope_that_underflows_to_zero_is_flat():
    # 2 V / h0 = 2 * 5e-324 / 10 rounds to 0.0, though V > 0.
    config = P.ProblemConfig(h0=10.0, initial=P.InitialDataSpec(V=5e-324))
    assert P._initial_slopes(config.initial, config.h0) == (0.0, 0.0)
    assert P.validate(config).violations == (FLAT,)


def test_save_config_refuses_a_custom_polynomial_without_coefficients(tmp_path):
    # load_config would reject the file: the family needs reaction.coefficients.
    cfg = P.ProblemConfig(reaction=P.ReactionSpec(family="custom_polynomial"))
    path = tmp_path / "cfg.txt"
    with pytest.raises(ValueError, match="at least one coefficient"):
        P.save_config(cfg, path)
    assert not path.exists()


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("d = 1\nmu = 1\nh0 = 1\nT = 1\nbogus = 2\n")
    with pytest.raises(ValueError):
        P.load_config(path)


def test_load_config_rejects_repeated_keys(tmp_path):
    # A later value must not silently replace an earlier one.
    path = tmp_path / "twice.txt"
    path.write_text("d = 1\nmu = 1\nh0 = 1\nT = 1\nd = 2\n")
    with pytest.raises(ValueError, match="repeated config key 'd'"):
        P.load_config(path)


@pytest.mark.parametrize("name, built_in", [
    ("stefan.cfg", P.symmetric_stefan()),
    ("fisher.cfg", P.fisher_kpp_config()),
])
def test_shipped_config_loads_to_the_built_in_one(name, built_in):
    # The benchmark and the command-line recipes read configs/, the gate and
    # the scripts build the configs in problem; both must name one problem.
    # ProblemConfig has eq=False, so the fields are compared one by one.
    path = Path(__file__).resolve().parent.parent / "configs" / name
    assert asdict(P.load_config(path)) == asdict(built_in)
