"""Series eigenfunctions off (and on) the polynomial spectrum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littlejacobi.eigensolver import build_solution, sample_rows
from littlejacobi.family import ParamPair, explicit_poly
from littlejacobi.polys import horner

FLAT = ParamPair(Fraction(0), Fraction(0))
GENERIC = ParamPair(Fraction(1, 2), Fraction(3, 2))

XS = (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)


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


def _parts(sol, x):
    """(f, f', g, g', g/x) at x from the solution's series coefficients:
    f = F(z) and g = x G(z) in z = x**2, so f' = 2x F'(z),
    g' = G(z) + 2z G'(z) and g/x = G(z), which has no singularity at 0."""
    z = x * x
    f_coeffs, g_coeffs = sol.f_series_coeffs, sol.g_series_coeffs
    g_over_x = horner(g_coeffs, z)
    return (
        horner(f_coeffs, z),
        2.0 * x * _separate_d(f_coeffs, z),
        x * g_over_x,
        g_over_x + 2.0 * z * _separate_d(g_coeffs, z),
        g_over_x,
    )


def _assert_member_multiple(params, lam, degree):
    """The series pair at lambda, laid out as one coefficient list in x (f
    at even powers, g at odd ones), is a multiple of the monic family
    member of that degree, 1e-12 relative, with nothing above it."""
    sol = build_solution(params, float(lam))
    width = max(degree + 1, 2 * len(sol.f_series_coeffs) - 1, 2 * len(sol.g_series_coeffs))
    dense = [0.0] * width
    for k, c in enumerate(sol.f_series_coeffs):
        dense[2 * k] = c
    for k, c in enumerate(sol.g_series_coeffs):
        dense[2 * k + 1] = c
    target = [float(c) for c in explicit_poly(params, degree).coeffs]
    factor = dense[degree]
    assert factor != 0.0
    scale = max(1.0, max(abs(factor * t) for t in target))
    for k, value in enumerate(dense):
        expected = factor * target[k] if k < len(target) else 0.0
        assert abs(value - expected) <= 1e-12 * scale, (lam, degree, k)


def test_polynomial_eigenvalue_reproduces_quadratic():
    # lambda = -4 at (0,0): F = 1 + 2x - 4x^2
    sol = build_solution(FLAT, -4.0)
    for x in XS:
        f, g = sol._f_jet(x)[0], sol.g(x)
        assert abs(f + g - (1.0 + 2.0 * x - 4.0 * x * x)) < 1e-14
        assert abs(f - (1.0 - 4.0 * x * x)) < 1e-14
        assert abs(g - 2.0 * x) < 1e-14


def test_lambda_zero_is_constant():
    sol = build_solution(FLAT, 0.0)
    f, g = sol._f_jet(0.7)[0], sol.g(0.7)
    assert f + g == 1.0
    assert f == 1.0
    assert g == 0.0


def test_elementary_case_value():
    # lambda = 2(beta+1): f = (1-x^2)^(-(beta+1)/2), which the grid takes
    # in closed form; beta = 1, x = +-0.9: (1 - 0.81)^-1 = 1/0.19
    params = ParamPair(Fraction(0), Fraction(1))
    rows = sample_rows(params, 4.0, 2)
    assert [row["x"] for row in rows] == [-0.9, 0.9]
    for row in rows:
        assert abs(row["f"] - 1 / 0.19) < 1e-14
    # the even series there is 2F1(a, b; b; x^2) = (1-x^2)^(-a), the same function
    assert abs(build_solution(params, 4.0)._f_jet(0.9)[0] - 1 / 0.19) < 1e-13


def test_elementary_ode_residual_closed_form():
    params = ParamPair(Fraction(0), Fraction(1))
    lam = 2.0 * (float(params.beta) + 1.0)
    assert max(row["residual"] for row in sample_rows(params, lam, 201)) < 1e-12


def test_elementary_g_matches_series():
    # lambda = 2(beta-1) collapses the odd series to the closed form
    # g = -(beta-1)/(alpha+1) x (1-x^2)^(-(beta+1)/2)
    params = ParamPair(Fraction(1, 2), Fraction(5, 2))
    alpha, beta = float(params.alpha), float(params.beta)
    lam = 2.0 * (beta - 1.0)
    sol = build_solution(params, lam)
    for x in XS:
        closed = -(beta - 1.0) / (alpha + 1.0) * x * (1.0 - x * x) ** (-(beta + 1.0) / 2.0)
        assert abs(closed - sol.g(x)) < 1e-12


def test_g_recovered_from_f():
    # off lambda = 2(beta+1), g = (2(x^2-1) f' + lambda x f) / (2(beta+1) - lambda)
    for params in (FLAT, GENERIC):
        sol = build_solution(params, 1.3)
        den = 2.0 * (float(params.beta) + 1.0) - 1.3
        for x in XS:
            f, fp, _ = sol._f_jet(x)
            recovered = (2.0 * (x * x - 1.0) * fp + 1.3 * x * f) / den
            assert abs(recovered - sol.g(x)) < 1e-12


@pytest.mark.parametrize("lam", [1.3, -4.0, 7.1])
@pytest.mark.parametrize("params", [FLAT, GENERIC], ids=str)
def test_parity_system_residuals(params, lam):
    # f' + x g' + (1+alpha+beta) g - lambda g/2 = 0 and
    # x f' + g' + alpha (g/x) + lambda f/2 = 0
    alpha, beta = float(params.alpha), float(params.beta)
    sol = build_solution(params, lam)
    for x in XS:
        f, fp, g, gp, gox = _parts(sol, x)
        assert abs(fp + x * gp + (1.0 + alpha + beta) * g - lam * g / 2.0) < 1e-9
        assert abs(x * fp + gp + alpha * gox + lam * f / 2.0) < 1e-9


@pytest.mark.parametrize("lam", [1.3, -4.0, 7.1])
@pytest.mark.parametrize("params", [FLAT, GENERIC], ids=str)
def test_operator_application_residual(params, lam):
    # L F = 2(1-x)(f' - g') + 2(alpha+beta+1) g - 2 alpha (g/x) = lambda F
    alpha, beta = float(params.alpha), float(params.beta)
    sol = build_solution(params, lam)
    for x in XS:
        f, fp, g, gp, gox = _parts(sol, x)
        applied = 2.0 * (1.0 - x) * (fp - gp) + 2.0 * (alpha + beta + 1.0) * g - 2.0 * alpha * gox
        assert abs(applied - lam * (f + g)) < 1e-9


@pytest.mark.parametrize("params", [FLAT, GENERIC], ids=str)
def test_ode_residuals_generic_and_polynomial(params):
    # 19 points step by 0.1 from -0.9, through XS
    lams = [1.3, -4.0, 2.0 * (float(params.beta) + 1.0)]
    for lam in lams:
        rows = sample_rows(params, lam, 19)
        assert {round(row["x"], 12) for row in rows} >= set(XS)
        assert max(row["residual"] for row in rows) < 1e-10


def test_g_is_odd_in_floating_point():
    sol = build_solution(GENERIC, 1.3)
    for x in XS:
        assert abs(sol.g(x) + sol.g(-x)) < 1e-12
    assert sol.g(0.0) == 0.0


def test_spectrum_classification_even():
    # lambda = -4n: the series pair is the even-degree member P_2n
    for n in range(5):
        _assert_member_multiple(GENERIC, Fraction(-4 * n), 2 * n)


def test_spectrum_classification_odd():
    # lambda = 2(alpha+beta+2+2n): the series pair is the odd-degree member P_2n+1
    alpha, beta = GENERIC.alpha, GENERIC.beta
    for n in range(5):
        _assert_member_multiple(GENERIC, 2 * (alpha + beta + 2 + 2 * n), 2 * n + 1)


def test_polynomial_series_proportional_to_family_member():
    # the lattice check against the explicit construction, and the same
    # at a spot value
    lam = Fraction(-8)
    _assert_member_multiple(GENERIC, lam, 4)
    sol = build_solution(GENERIC, float(lam))
    member = explicit_poly(GENERIC, 4)
    x = 0.37
    ratio = (sol._f_jet(x)[0] + sol.g(x)) / float(member(x))
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


# -- the fused pass against separate passes, bit for bit ----------------------


def _bits(values):
    # repr tells -0.0 from 0.0, which == does not
    return [repr(v) for v in values]


def _separate_rows(params, lam, points):
    """sample_rows as separate per-point passes: f, f' (once for f' and
    again inside f''), f'' and g each walk their series."""
    sol = build_solution(params, lam)
    rows = []
    for i in range(points):
        x = -0.9 + 2.0 * 0.9 * i / (points - 1)
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
    kind = draw(st.sampled_from(["generic", "polynomial", "first odd", "elementary"]))
    if kind == "generic":
        lam = draw(st.fractions(min_value=-30, max_value=30, max_denominator=10))
    elif kind == "polynomial":
        lam = Fraction(-4 * draw(st.integers(min_value=0, max_value=7)))
    elif kind == "first odd":  # lambda_1, where f = 1 and the terms are noise
        lam = 2 * (params.alpha + params.beta + 2)
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
    f = sol.f_series_coeffs
    assert _bits(sol._f_jet(x)) == _bits(
        [
            horner(f, z),
            2.0 * x * _separate_d(f, z),
            2.0 * _separate_d(f, z) + 4.0 * z * _separate_dd(f, z),
        ]
    )
