"""Dense rational polynomial substrate."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from littlejacobi.polys import (
    NEG_INFINITY,
    Poly,
    as_fraction,
    monomial,
    parity_split,
    pochhammer,
    reflect,
    terminating_2f1,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
polys = st.lists(rationals, max_size=8).map(Poly)


def test_zero_polynomial_degree():
    assert Poly([]).degree == NEG_INFINITY
    assert Poly([0, 0]).degree == NEG_INFINITY
    assert Poly([0, 0]).is_zero()


def test_trailing_zeros_are_stripped():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([1, 2, 0, 0]).degree == 1


def test_leading_coefficient_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.ZERO.leading_coefficient


def test_divmod_exact():
    # (x^2 - 1) = (x + 1)(x - 1) + 0
    quot, rem = divmod(Poly([-1, 0, 1]), Poly([1, 1]))
    assert quot == Poly([-1, 1])
    assert rem.is_zero()


def test_divmod_with_remainder():
    quot, rem = divmod(Poly([1, 0, 1]), Poly([1, 1]))
    assert quot * Poly([1, 1]) + rem == Poly([1, 0, 1])
    assert rem == Poly([2])


def test_compose():
    p = Poly([0, 0, 1])  # x^2
    inner = Poly([1, 1])  # x + 1
    assert p.compose(inner) == Poly([1, 2, 1])


def _ring_horner(p, q):
    # p(q(x)) by Horner in the polynomial ring: the reference for compose
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * q + Poly([c])
    return out


@given(polys, st.lists(rationals, max_size=4).map(Poly), rationals)
def test_compose_matches_ring_horner(p, q, x):
    composed = p.compose(q)
    assert composed == _ring_horner(p, q)
    assert composed(x) == p(q(x))


def test_compose_with_zero_polynomials():
    p = Poly([Fraction(2, 3), -1, 5])
    assert Poly.ZERO.compose(Poly([1, 1])) == Poly.ZERO
    assert Poly.ZERO.compose(Poly.ZERO) == Poly.ZERO
    # a zero inner polynomial leaves the constant term
    assert p.compose(Poly.ZERO) == Poly([Fraction(2, 3)])


def test_compose_with_constant_inner():
    p = Poly([Fraction(2, 3), -1, 5])
    assert p.compose(Poly([Fraction(-1, 2)])) == Poly([p(Fraction(-1, 2))])


@pytest.mark.parametrize(
    "inner",
    [Poly([Fraction(1, 2), Fraction(-1, 2)]), Poly([0, 0, 1])],
    ids=["(1-x)/2", "x^2"],
)
def test_compose_package_inner_polynomials_at_degree_40(inner):
    p = Poly([Fraction((-1) ** k * (k + 1), 3 * k + 7) for k in range(41)])
    composed = p.compose(inner)
    assert composed.degree == 40 * inner.degree
    assert composed == _ring_horner(p, inner)


def test_derivative():
    assert Poly([5, 3, 0, 2]).derivative() == Poly([3, 0, 6])
    assert Poly.ONE.derivative().is_zero()


def test_call_is_exact_on_fractions():
    p = Poly([Fraction(1, 3), 0, 1])
    assert p(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 4)


def test_monomial():
    assert monomial(3) == Poly([0, 0, 0, 1])
    assert monomial(0, Fraction(2, 5)) == Poly([Fraction(2, 5)])


def test_as_fraction_accepts_common_forms():
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(Fraction(9, 4)) == Fraction(9, 4)


@given(polys)
def test_serialization_round_trip(p):
    assert Poly.from_strings(p.to_strings()) == p


@given(polys)
def test_reflect_is_an_involution(p):
    assert reflect(reflect(p)) == p


@given(polys, polys)
def test_reflect_is_multiplicative(p, q):
    assert reflect(p * q) == reflect(p) * reflect(q)


@given(polys)
def test_parity_split_reconstructs(p):
    pair = parity_split(p)
    assert pair.even + pair.odd == p
    assert reflect(pair.even) == pair.even
    assert reflect(pair.odd) == -1 * pair.odd


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(Fraction(2), 3) == 24


@given(st.integers(min_value=0, max_value=7))
def test_terminating_2f1_degree_and_top_coefficient(n):
    # 2F1(-n, b; c; x) has degree n with top coefficient
    # (-n)_n (b)_n / ((c)_n n!)
    b = Fraction(5, 2)
    c = Fraction(3, 4)
    p = terminating_2f1(-n, b, c)
    assert p.degree == n
    expected = (
        pochhammer(Fraction(-n), n)
        * pochhammer(b, n)
        / (pochhammer(c, n) * pochhammer(Fraction(1), n))
    )
    assert p.leading_coefficient == expected


# c never a nonpositive integer, so every (c)_k is nonzero
bottom_parameters = rationals.filter(lambda c: c > 0 or c.denominator != 1)


@given(
    st.integers(min_value=0, max_value=12),
    rationals,
    bottom_parameters,
    st.sampled_from([1, 2]),
)
def test_terminating_2f1_coefficients(n, b, c, arg_power):
    p = terminating_2f1(-n, b, c, arg_power=arg_power)
    expected = [Fraction(0)] * (n * arg_power + 1)
    for k in range(n + 1):
        expected[k * arg_power] = (
            pochhammer(-n, k) * pochhammer(b, k) / (pochhammer(c, k) * pochhammer(1, k))
        )
    assert p == Poly(expected)


def test_terminating_2f1_needs_nonpositive_integer():
    with pytest.raises(ValueError):
        terminating_2f1(Fraction(1, 2), 1, 1)


def test_terminating_2f1_denominator_pole():
    # c = -1 hits (c)_k = 0 at k = 2, before the series terminates
    with pytest.raises(ValueError, match="denominator .* at k=2$"):
        terminating_2f1(-3, Fraction(1), Fraction(-1))


def test_terminating_2f1_squared_argument():
    # arg_power=2 turns the k-th term into x^(2k)
    p = terminating_2f1(-2, Fraction(1, 2), Fraction(1, 2), arg_power=2)
    assert p.degree == 4
    assert p.coefficient(1) == 0
    assert p.coefficient(3) == 0
