"""Series eigenfunctions off (and on) the polynomial spectrum."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littlejacobi.eigensolver import (
    build_solution,
    dunkl_apply_residual,
    elementary_case,
    elementary_g_case,
    g_from_f,
    ode_residual,
    parity_residuals,
    polynomial_spectrum_detect,
    sample_rows,
    second_branch_value,
    solve_general,
)
from littlejacobi.family import ParamPair, explicit_poly
from littlejacobi.polys import horner

FLAT = ParamPair(Fraction(0), Fraction(0))
GENERIC = ParamPair(Fraction(1, 2), Fraction(3, 2))

XS = (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)


def test_polynomial_eigenvalue_reproduces_quadratic():
    # lambda = -4 at (0,0): F = 1 + 2x - 4x^2
    for x in XS:
        value, f, g = solve_general(FLAT, -4.0, x)
        assert abs(value - (1.0 + 2.0 * x - 4.0 * x * x)) < 1e-14
        assert abs(f - (1.0 - 4.0 * x * x)) < 1e-14
        assert abs(g - 2.0 * x) < 1e-14


def test_lambda_zero_is_constant():
    value, f, g = solve_general(FLAT, 0.0, 0.7)
    assert value == 1.0
    assert f == 1.0
    assert g == 0.0


def test_domain_check():
    with pytest.raises(ValueError, match="series domain"):
        solve_general(FLAT, 1.3, 1.0)


def test_elementary_case_value():
    # beta = 1, x = 0.6: (1 - 0.36)^-1 = 1.5625
    params = ParamPair(Fraction(0), Fraction(1))
    assert abs(elementary_case(params, 0.6) - 1.5625) < 1e-15


def test_elementary_ode_residual_closed_form():
    params = ParamPair(Fraction(0), Fraction(1))
    lam = 2.0 * (float(params.beta) + 1.0)
    for x in XS:
        assert ode_residual(params, lam, x) < 1e-12


def test_elementary_g_matches_series():
    # lambda = 2(beta-1) collapses the odd series to a closed form
    params = ParamPair(Fraction(1, 2), Fraction(5, 2))
    lam = 2.0 * (float(params.beta) - 1.0)
    sol = build_solution(params, lam)
    for x in XS:
        assert abs(elementary_g_case(params, x) - sol.g(x)) < 1e-12


def test_g_recovered_from_f():
    for params in (FLAT, GENERIC):
        sol = build_solution(params, 1.3)
        for x in XS:
            recovered = g_from_f(params, 1.3, sol.f(x), sol.f_prime(x), x)
            assert abs(recovered - sol.g(x)) < 1e-12


def test_g_from_f_rejects_elementary_eigenvalue():
    with pytest.raises(ValueError, match="elementary"):
        g_from_f(ParamPair(Fraction(0), Fraction(1)), 4.0, 1.0, 0.0, 0.5)


@pytest.mark.parametrize("lam", [1.3, -4.0, 7.1])
@pytest.mark.parametrize("params", [FLAT, GENERIC], ids=str)
def test_parity_system_residuals(params, lam):
    for x in XS:
        r_even, r_odd = parity_residuals(params, lam, x)
        assert r_even < 1e-9
        assert r_odd < 1e-9


@pytest.mark.parametrize("lam", [1.3, -4.0, 7.1])
@pytest.mark.parametrize("params", [FLAT, GENERIC], ids=str)
def test_operator_application_residual(params, lam):
    for x in XS:
        assert dunkl_apply_residual(params, lam, x) < 1e-9


@pytest.mark.parametrize("params", [FLAT, GENERIC], ids=str)
def test_ode_residuals_generic_and_polynomial(params):
    lams = [1.3, -4.0, 2.0 * (float(params.beta) + 1.0)]
    for lam in lams:
        for x in XS:
            assert ode_residual(params, lam, x) < 1e-10


def test_residual_domain_bound():
    with pytest.raises(ValueError, match="0.95"):
        ode_residual(FLAT, 1.3, 0.96)


def test_g_is_odd_in_floating_point():
    sol = build_solution(GENERIC, 1.3)
    for x in XS:
        assert abs(sol.g(x) + sol.g(-x)) < 1e-12
    assert sol.g(0.0) == 0.0
    assert math.isfinite(sol.g_over_x(0.0))


def test_second_branch_is_complex_for_negative_argument():
    value = second_branch_value(GENERIC, 1.3, -0.5)
    assert abs(value.imag) > 1e-3
    positive = second_branch_value(GENERIC, 1.3, 0.5)
    assert abs(positive.imag) < 1e-15
    with pytest.raises(ValueError):
        second_branch_value(GENERIC, 1.3, 0.0)


def test_spectrum_classification_even():
    for n in range(5):
        cls = polynomial_spectrum_detect(GENERIC, Fraction(-4 * n))
        assert cls.kind == "even"
        assert cls.degree == 2 * n


def test_spectrum_classification_odd():
    alpha, beta = GENERIC.alpha, GENERIC.beta
    for n in range(5):
        lam = 2 * (alpha + beta + 2 + 2 * n)
        cls = polynomial_spectrum_detect(GENERIC, lam)
        assert cls.kind == "odd"
        assert cls.degree == 2 * n + 1


def test_spectrum_classification_off_lattice():
    cls = polynomial_spectrum_detect(GENERIC, Fraction(13, 10))
    assert cls.kind == "nonpolynomial"
    assert cls.degree is None


def test_polynomial_series_proportional_to_family_member():
    # the internal proportionality assertion doubles as a cross-check
    # against the explicit construction; exercise it at a spot value too
    lam = Fraction(-8)
    cls = polynomial_spectrum_detect(GENERIC, lam)
    sol = build_solution(GENERIC, float(lam))
    member = explicit_poly(GENERIC, cls.degree)
    x = 0.37
    ratio = sol.F(x) / float(member(x))
    top = sol.f_series_coeffs[-1]
    assert abs(ratio - top) < 1e-10


def test_series_terminates_on_polynomial_spectrum():
    sol = build_solution(FLAT, -8.0)
    assert len(sol.f_series_coeffs) == 3
    assert len(sol.g_series_coeffs) == 2


def test_sample_rows_shape():
    rows = sample_rows(GENERIC, 1.3, 21)
    assert len(rows) == 21
    assert rows[0]["x"] == -0.9
    assert rows[-1]["x"] == 0.9
    assert all(row["residual"] < 1e-10 for row in rows)
    with pytest.raises(ValueError):
        sample_rows(GENERIC, 1.3, 21, x_max=0.99)


# -- the fused pass against separate passes, bit for bit ----------------------


def _bits(values):
    # repr tells -0.0 from 0.0, which == does not
    return [repr(v) for v in values]


def _separate_d(coeffs, z):
    # sum k c_k z**(k-1), walking the series on its own
    out = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        out = out * z + k * coeffs[k]
    return out


def _separate_dd(coeffs, z):
    out = 0.0
    for k in range(len(coeffs) - 1, 1, -1):
        out = out * z + k * (k - 1) * coeffs[k]
    return out


def _separate_rows(params, lam, points, x_max=0.9):
    """sample_rows as separate per-point passes: f, f' (once for f' and
    again inside f''), f'' and g each walk their series."""
    sol = build_solution(params, lam)
    rows = []
    for i in range(points):
        x = -x_max + 2.0 * x_max * i / (points - 1)
        alpha = float(params.alpha)
        beta = float(params.beta)
        z = x * x
        if lam == 2.0 * (beta + 1.0):
            p = (beta + 1.0) / 2.0
            u = 1.0 - x * x
            f = u**-p
            fp = 2.0 * p * x * u ** (-p - 1.0)
            fpp = 2.0 * p * u ** (-p - 2.0) * (1.0 + (2.0 * p + 1.0) * x * x)
        else:
            f = horner(sol.f_series_coeffs, z)
            fp = 2.0 * x * _separate_d(sol.f_series_coeffs, z)
            fpp = 2.0 * _separate_d(sol.f_series_coeffs, z) + 4.0 * z * _separate_dd(
                sol.f_series_coeffs, z
            )
        g = x * horner(sol.g_series_coeffs, z)
        residual = abs(
            4.0 * x * (x * x - 1.0) * fpp
            + 4.0 * ((alpha + beta + 3.0) * x * x - alpha) * fp
            + lam * x * (2.0 * (alpha + beta) + 4.0 - lam) * f
        )
        rows.append({"x": x, "F": f + g, "f": f, "g": g, "residual": residual})
    return rows


admissible = st.fractions(min_value=Fraction(-9, 10), max_value=3, max_denominator=10)


@st.composite
def eigen_cases(draw):
    params = ParamPair(draw(admissible), draw(admissible))
    kind = draw(st.sampled_from(["generic", "polynomial", "elementary"]))
    if kind == "generic":
        lam = draw(st.fractions(min_value=-30, max_value=30, max_denominator=10))
    elif kind == "polynomial":
        lam = Fraction(-4 * draw(st.integers(min_value=0, max_value=7)))
    else:
        lam = 2 * (params.beta + 1)
    return params, float(lam)


@given(eigen_cases(), st.integers(min_value=2, max_value=41))
@settings(max_examples=60, deadline=None)
def test_sample_rows_equal_separate_passes(case, points):
    params, lam = case
    fused = sample_rows(params, lam, points)
    separate = _separate_rows(params, lam, points)
    for got, want in zip(fused, separate, strict=True):
        assert _bits(got.values()) == _bits(want.values())


@given(eigen_cases(), st.floats(min_value=-0.94, max_value=0.94))
@settings(max_examples=60, deadline=None)
def test_derivatives_equal_separate_passes(case, x):
    params, lam = case
    sol = build_solution(params, lam)
    z = x * x
    f, g = sol.f_series_coeffs, sol.g_series_coeffs
    assert _bits([sol.f_prime(x), sol.f_second(x), sol.g_prime(x)]) == _bits(
        [
            2.0 * x * _separate_d(f, z),
            2.0 * _separate_d(f, z) + 4.0 * z * _separate_dd(f, z),
            horner(g, z) + 2.0 * z * _separate_d(g, z),
        ]
    )
