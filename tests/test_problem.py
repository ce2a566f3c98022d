import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import problem as P
from frontlab.errors import NegativeDensity


def test_validate_fisher_quadratic_ok():
    cfg = P.ProblemConfig(
        reaction=P.ReactionSpec(family="fisher_kpp", a=1.0, b=1.0),
        initial=P.InitialDataSpec(family="quadratic_bump", V=1.0, h0=1.0),
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


def test_validate_nonzero_constant_term_rejected():
    cfg = P.ProblemConfig(
        reaction=P.ReactionSpec(family="custom_polynomial", coefficients=(1e-3, 1.0, -1.0))
    )
    vc = P.validate(cfg)
    assert any(v == "(f1): f(t,x,0) != 0" for v in vc.violations)


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


def test_validate_mismatched_h0_rejected():
    cfg = P.ProblemConfig(h0=2.0, initial=P.InitialDataSpec(h0=1.0))
    vc = P.validate(cfg)
    assert any("initial.h0" in v for v in vc.violations)


def test_eval_reaction_values():
    fk = P.ReactionSpec(family="fisher_kpp", a=1.0, b=1.0)
    assert P.eval_reaction(fk, 0.0, 0.0, 0.5) == pytest.approx(0.25)
    assert P.eval_reaction(fk, 0.0, 0.0, 2.0) == pytest.approx(-2.0)
    assert P.eval_reaction(P.ReactionSpec(family="zero"), 0.0, 0.0, 7.0) == 0.0


def test_eval_reaction_polynomial_matches_horner_oracle():
    spec = P.ReactionSpec(family="custom_polynomial", coefficients=(0.0, 2.0, -3.0, 0.5))
    u = 1.7
    expected = 2.0 * u - 3.0 * u**2 + 0.5 * u**3
    assert P.eval_reaction(spec, 0.0, 0.0, u) == pytest.approx(expected, rel=1e-15)


def test_eval_reaction_negative_density():
    with pytest.raises(NegativeDensity):
        P.eval_reaction(P.ReactionSpec(family="zero"), 0.0, 0.0, -1e-3)


def test_eval_reaction_zero_at_zero_exactly():
    for spec in (
        P.ReactionSpec(family="zero"),
        P.ReactionSpec(family="fisher_kpp", a=2.0, b=3.0),
        P.ReactionSpec(family="custom_polynomial", coefficients=(0.0, 1.0, -2.0)),
    ):
        assert P.eval_reaction(spec, 0.0, 0.0, 0.0) == 0.0


@settings(max_examples=30, deadline=None)
@given(u=st.floats(1.0 + 1e-6, 50.0))
def test_fisher_nonpositive_above_K(u):
    fk = P.ReactionSpec(family="fisher_kpp", a=1.0, b=1.0)
    assert P.eval_reaction(fk, 0.0, 0.0, u) <= 0.0


def test_eval_initial_values():
    spec = P.InitialDataSpec(family="quadratic_bump", V=1.0, h0=1.0)
    assert P.eval_initial(spec, 0.0) == pytest.approx(1.0)
    assert P.eval_initial(spec, 1.0) == 0.0
    assert P.eval_initial(spec, -1.0) == 0.0
    assert P.eval_initial(spec, 2.0) == 0.0


def test_eval_initial_even():
    for fam in ("quadratic_bump", "cosine_bump"):
        spec = P.InitialDataSpec(family=fam, V=2.0, h0=1.5)
        x = np.linspace(0.0, 2.0, 257)
        assert np.array_equal(P.eval_initial(spec, x), P.eval_initial(spec, -x))


def test_initial_slopes_nonzero():
    spec = P.InitialDataSpec(family="quadratic_bump", V=1.0, h0=2.0)
    sl, sr = P._initial_slopes(spec)
    assert sl == pytest.approx(2.0 * 1.0 / 2.0)
    assert sr == pytest.approx(1.0)


def test_custom_table_initial():
    x = np.linspace(-1.0, 1.0, 41)
    spec = P.InitialDataSpec(family="custom_table", h0=1.0, table=np.column_stack([x, 1 - x**2]))
    cfg = P.ProblemConfig(initial=spec)
    assert P.validate(cfg).ok
    assert P.eval_initial(spec, 0.5) == pytest.approx(0.75, abs=1e-3)


def test_config_round_trip(tmp_path):
    cfg = P.ProblemConfig(
        d=0.7,
        mu=1.3,
        h0=2.0,
        T=0.5,
        reaction=P.ReactionSpec(family="fisher_kpp", a=1.5, b=0.5),
        initial=P.InitialDataSpec(family="cosine_bump", V=0.8, h0=2.0),
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


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("d = 1\nmu = 1\nh0 = 1\nT = 1\nbogus = 2\n")
    with pytest.raises(ValueError):
        P.load_config(path)
