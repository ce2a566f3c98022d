"""Kernel constants checked against exact rational integration oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frontlab import kernels as K
from frontlab.errors import DegenerateKernel

# Polynomial coefficients (ascending powers) of the built-in profiles on [0, 1].
POLY = {
    "epanechnikov": [Fraction(3, 4), 0, Fraction(-3, 4)],
    "triangle": [1, -1],
    "quartic": [Fraction(15, 16), 0, Fraction(-15, 8), 0, Fraction(15, 16)],
}


def poly_moment(coeffs, k, lo=Fraction(0), hi=Fraction(1)):
    """Exact integral of sum(c_i z^i) * z^k over [lo, hi]."""
    total = Fraction(0)
    for i, c in enumerate(coeffs):
        n = i + k + 1
        total += Fraction(c) * (Fraction(hi) ** n - Fraction(lo) ** n) / n
    return total


@pytest.fixture(params=list(POLY))
def builtin(request):
    return K.KernelSpec(request.param)


def test_eval_closed_forms():
    epan = K.KernelSpec("epanechnikov")
    tri = K.KernelSpec("triangle")
    assert K.evaluate(epan, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert K.evaluate(epan, 1.5) == 0.0
    assert K.evaluate(tri, -0.5) == pytest.approx(0.5, abs=1e-15)


def test_eval_is_even(builtin):
    z = np.linspace(-2.0, 2.0, 801)
    assert np.array_equal(K.evaluate(builtin, z), K.evaluate(builtin, -z))


def test_moments_match_exact_oracle(builtin):
    coeffs = POLY[builtin.family]
    for k in range(5):
        exact = float(poly_moment(coeffs, k))
        assert K.moment(builtin, k) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("family", [*POLY, "custom"])
def test_row_valued_phi_gives_the_per_row_integrals(family):
    table = np.array([[0.0, 1.0], [0.3, 0.8], [0.55, 0.9], [0.8, 0.2], [1.0, 0.0]])
    kernel = K.KernelSpec(family, table=table if family == "custom" else None)
    nodes = np.arange(13) / 12.0
    funcs = [lambda z, c=c: np.maximum(0.0, 1.0 - 12.0 * np.abs(z - c)) for c in nodes]
    funcs += [lambda z, k=k: z**k for k in range(5)]
    for a, b in [(0.0, 1.0), (0.1, 0.7)]:
        rows = K.integrate_against(kernel, a, b, lambda z: np.vstack([f(z) for f in funcs]),
                                   breakpoints=nodes)
        assert rows.shape == (len(funcs),)
        per_row = [K.integrate_against(kernel, a, b, f, breakpoints=nodes) for f in funcs]
        assert rows == pytest.approx(per_row, rel=1e-15, abs=0)


def test_moment_zero_is_half(builtin):
    assert K.moment(builtin, 0) == pytest.approx(0.5, abs=1e-10)


def test_c_star_values():
    assert K.c_star(K.KernelSpec("epanechnikov")) == pytest.approx(10.0, abs=1e-10)
    assert K.c_star(K.KernelSpec("triangle")) == pytest.approx(12.0, abs=1e-10)
    # Exact oracle: integral_0^1 (15/16)(1-z^2)^2 z^2 dz = 1/14.
    assert poly_moment(POLY["quartic"], 2) == Fraction(1, 14)
    assert K.c_star(K.KernelSpec("quartic")) == pytest.approx(14.0, abs=1e-10)


def test_c_zero_values():
    assert K.c_zero(K.KernelSpec("epanechnikov")) == pytest.approx(16.0 / 3.0, abs=1e-10)
    assert K.c_zero(K.KernelSpec("triangle")) == pytest.approx(6.0, abs=1e-10)


def test_c_zero_below_c_star(builtin):
    assert K.c_zero(builtin) < K.c_star(builtin)


def test_degenerate_kernel_rejected():
    # Nearly all mass at z = 0: second moment below the degeneracy cutoff.
    tab = np.array([[0.0, 1.0], [1e-8, 0.0], [1.0, 0.0]])
    spike = K.KernelSpec("custom", table=tab)
    for _ in range(2):  # the constants are cached; a failure must not be
        with pytest.raises(DegenerateKernel):
            K.c_star(spike)
        with pytest.raises(DegenerateKernel):
            K.c_zero(spike)


# The boundary flux weighs the tail mass W(w) = integral_w^1 J(z) dz, which
# is integrate_against(kernel, w, 1.0).
def test_boundary_weight_endpoints(builtin):
    assert K.integrate_against(builtin, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert K.integrate_against(builtin, 1.0, 1.0) == 0.0


def test_boundary_weight_epanechnikov_midpoint():
    # Exact: integral_{1/2}^{1} (3/4)(1 - z^2) dz = 5/32.
    exact = poly_moment(POLY["epanechnikov"], 0, Fraction(1, 2), 1)
    assert exact == Fraction(5, 32)
    epan = K.KernelSpec("epanechnikov")
    assert K.integrate_against(epan, 0.5, 1.0) == pytest.approx(0.15625, abs=1e-12)


def test_boundary_weight_monotone(builtin):
    w = np.linspace(0.0, 1.0, 1000)
    vals = np.array([K.integrate_against(builtin, wi, 1.0) for wi in w])
    assert np.all(np.diff(vals) <= 1e-14)


def test_fubini_identity(builtin):
    # integral_0^1 W(w) dw * c_zero = 1; integrate W by fine Gauss-Legendre.
    nodes, wts = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for lo in np.linspace(0.0, 1.0, 65)[:-1]:
        hi = lo + 1.0 / 64.0
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for zi, wi in zip(mid + half * nodes, half * wts):
            total += wi * K.integrate_against(builtin, zi, 1.0)
    assert total * K.c_zero(builtin) == pytest.approx(1.0, abs=1e-8)


def test_custom_table_renormalized():
    tab = np.column_stack([np.linspace(0.0, 1.0, 11), np.full(11, 2.0)])
    uni = K.KernelSpec("custom", table=tab)
    assert uni.renormalization == pytest.approx(0.25, abs=1e-12)
    assert K.moment(uni, 0) == pytest.approx(0.5, abs=1e-10)
    assert K.c_star(uni) == pytest.approx(6.0, abs=1e-8)  # 1/(1/6) for flat J


def test_custom_table_from_file(tmp_path):
    z = np.linspace(0.0, 1.0, 21)
    path = tmp_path / "kern.txt"
    np.savetxt(path, np.column_stack([z, 1.0 - z]))
    loaded = K.from_file(path)
    direct = K.KernelSpec("custom", table=np.column_stack([z, 1.0 - z]))
    assert K.c_star(loaded) == pytest.approx(K.c_star(direct), abs=1e-14)
    # A piecewise-linear match of the triangle kernel is already normalized.
    assert loaded.renormalization == pytest.approx(1.0, abs=1e-12)


def exact_table_mass(tab):
    """Exact mass 2 integral_0^1 J of the piecewise-linear table, constant
    beyond its first and last abscissae."""
    z = [Fraction(float(v)) for v in tab[:, 0]]
    y = [Fraction(float(v)) for v in tab[:, 1]]
    total = z[0] * y[0] + (1 - z[-1]) * y[-1]
    for i in range(len(z) - 1):
        total += (z[i + 1] - z[i]) * (y[i] + y[i + 1]) / 2
    return 2 * total


def random_tables(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 40))
        z = np.sort(rng.uniform(0.0, 1.0, n))
        z[0] = 0.0 if rng.random() < 0.3 else z[0]
        z[-1] = 1.0 if rng.random() < 0.3 else z[-1]
        if np.all(np.diff(z) > 0.0):
            y = rng.uniform(0.0, 5.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            y[0] += 0.1
            yield np.column_stack([z, y])


def test_custom_renormalization_is_the_exact_piecewise_linear_mass():
    # The mass is Gauss-Legendre on panels split at the abscissae, exact on
    # each linear piece up to rounding.
    z = np.linspace(0.0, 1.0, 9)
    tables = [np.column_stack([z, np.cos(np.pi * z / 2) ** 2 + 0.05]),
              np.column_stack([np.linspace(0.0, 1.0, 11), np.full(11, 2.0)]),
              np.array([[0.25, 3.0], [0.5, 1.0], [0.75, 0.5]]),
              *random_tables(200, 29)]
    for tab in tables:
        kern = K.KernelSpec("custom", table=tab)
        want = 1 / exact_table_mass(tab)
        assert abs(Fraction(kern.renormalization) - want) <= Fraction(1, 10**15) * want


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        K.KernelSpec("custom", table=np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        K.KernelSpec("custom", table=np.array([[0.5, 1.0], [0.25, 1.0]]))
    with pytest.raises(ValueError):
        K.KernelSpec("custom")
    with pytest.raises(ValueError):
        K.KernelSpec("gaussian")
    # J(0) = 0 violates kernel admissibility.
    with pytest.raises(ValueError):
        K.KernelSpec("custom", table=np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cell", [(1, 0), (1, 1)])
def test_non_finite_tables_rejected(bad, cell):
    # Every comparison with NaN is False, so only an explicit finiteness
    # check stops such a table before it reaches the quadratures.
    tab = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    tab[cell] = bad
    with pytest.raises(ValueError, match="finite"):
        K.KernelSpec("custom", table=tab)


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.floats(0.1, 5.0), min_size=3, max_size=12),
)
def test_custom_tables_have_unit_mass_and_ordered_constants(vals):
    z = np.linspace(0.0, 1.0, len(vals))
    kern = K.KernelSpec("custom", table=np.column_stack([z, vals]))
    assert 2.0 * K.moment(kern, 0) == pytest.approx(1.0, abs=1e-10)
    assert K.c_zero(kern) < K.c_star(kern)


@settings(max_examples=20, deadline=None)
@given(w=st.floats(0.0, 1.0))
def test_boundary_weight_matches_exact_tail(w):
    epan = K.KernelSpec("epanechnikov")
    exact = float(poly_moment(POLY["epanechnikov"], 0, Fraction(w).limit_denominator(10**12), 1))
    assert K.integrate_against(epan, w, 1.0) == pytest.approx(exact, abs=1e-9)


def test_gauss_legendre_literals_equal_leggauss_bitwise():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert K._GL_NODES.tobytes() == nodes.tobytes()
    assert K._GL_WEIGHTS.tobytes() == weights.tobytes()


@settings(max_examples=300, deadline=None)
@given(values=hnp.arrays(float, st.integers(0, 40),
                         elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                                            st.floats(-2.0, 2.0))))
@example(values=np.array([0.0, -0.0, 1.0]))
@example(values=np.array([-0.0, 0.0, -0.0, 0.0]))
def test_sorted_distinct_equals_np_unique_bitwise(values):
    # Equal values, +-0.0 among them, keep the one np.unique keeps.
    assert K._sorted_distinct(values).tobytes() == np.unique(values).tobytes()
