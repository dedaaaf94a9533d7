"""Dense rational polynomial substrate."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littlejacobi.polys import (
    NEG_INFINITY,
    Poly,
    as_fraction,
    horner,
    horner3,
    horner_rows,
    monomial,
    over_common_denominator,
    pochhammer,
    recurrence_step,
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


@given(st.lists(rationals, max_size=8))
def test_over_common_denominator_is_exact_and_least(values):
    den, ints = over_common_denominator(values)
    assert [Fraction(c, den) for c in ints] == values
    assert all(den % v.denominator == 0 for v in values)
    assert math.gcd(den, *ints) == 1


def test_leading_coefficient_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.ZERO.leading_coefficient


@settings(max_examples=100, deadline=None)
@given(polys, polys, rationals, rationals)
def test_recurrence_step_matches_ring_operations(p, q, b, u):
    # the integer step against (x - b) p - u q in the Poly ring
    assert recurrence_step(p, q, b, u) == Poly([-b, 1]) * p - u * q


def test_divmod_exact():
    # (x^2 - 1) = (x + 1)(x - 1) + 0
    quot, rem = divmod(Poly([-1, 0, 1]), Poly([1, 1]))
    assert quot == Poly([-1, 1])
    assert rem.is_zero()


def test_divmod_with_remainder():
    quot, rem = divmod(Poly([1, 0, 1]), Poly([1, 1]))
    assert quot * Poly([1, 1]) + rem == Poly([1, 0, 1])
    assert rem == Poly([2])


@given(polys, polys.filter(lambda d: not d.is_zero()))
def test_divmod_satisfies_the_division_identity(p, d):
    # quotient and remainder are unique, so these two facts pin them
    quot, rem = divmod(p, d)
    assert quot * d + rem == p
    assert rem.degree < d.degree


def test_compose():
    p = Poly([0, 0, 1])  # x^2
    inner = Poly([1, 1])  # x + 1
    assert p.compose(inner) == Poly([1, 2, 1])


@given(polys, st.lists(rationals, max_size=4).map(Poly), rationals)
def test_compose_matches_ring_horner(p, q, x):
    composed = p.compose(q)
    # _ref_compose: Horner in the ring of Fraction tuples, independent of Poly
    assert composed.coeffs == _ref_compose(p.coeffs, q.coeffs)
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
    assert composed.coeffs == _ref_compose(p.coeffs, inner.coeffs)


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
    # `to_strings` is the JSON form of the coefficients; it parses back exactly
    assert Poly(p.to_strings()) == p


@given(polys)
def test_reflect_is_an_involution(p):
    assert reflect(reflect(p)) == p


@given(polys, polys)
def test_reflect_is_multiplicative(p, q):
    assert reflect(p * q) == reflect(p) * reflect(q)


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


# -- integer storage against a Fraction-tuple reference ---------------------
#
# The reference keeps a polynomial as the tuple of its Fraction coefficients
# with trailing zeros stripped, which is how Poly stored it before it moved
# to integer numerators over one denominator.

coeff_lists = st.lists(st.one_of(rationals, st.just(Fraction(0))), max_size=8)
scalars = st.one_of(rationals, st.integers(min_value=-9, max_value=9))


def _ref(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_compose(a, b):
    out = ()
    for c in reversed(a):
        out = _ref_add(_ref_mul(out, b), (c,))
    return out


def _assert_canonical(p):
    assert isinstance(p.nums, tuple) and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den > 0
    assert not p.nums or p.nums[-1] != 0
    assert p.den == math.lcm(*(c.denominator for c in p.coeffs))
    assert math.gcd(p.den, *p.nums) == 1
    if not p.nums:
        assert p.den == 1


@settings(deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_operations_match_fraction_reference(a, b, s):
    p, q, s = Poly(a), Poly(b), Fraction(s)
    ra, rb = _ref(a), _ref(b)
    assert p.coeffs == ra
    assert (p + q).coeffs == _ref_add(ra, rb)
    assert (p - q).coeffs == _ref_add(ra, tuple(-c for c in rb))
    assert (-p).coeffs == tuple(-c for c in ra)
    assert (p * q).coeffs == _ref_mul(ra, rb)
    assert (p * s).coeffs == (s * p).coeffs == _ref([s * c for c in ra])
    if s:
        assert (p / s).coeffs == _ref([c / s for c in ra])
    assert p.compose(Poly(b[:3])).coeffs == _ref_compose(ra, _ref(b[:3]))
    assert p.derivative().coeffs == _ref([k * c for k, c in enumerate(ra)][1:])
    assert reflect(p).coeffs == tuple(-c if k % 2 else c for k, c in enumerate(ra))
    for k in range(-1, len(a) + 2):
        assert p.coefficient(k) == (ra[k] if 0 <= k < len(ra) else 0)
    if ra:
        assert p.leading_coefficient == ra[-1]
    assert p.to_strings() == [str(c) for c in ra]
    for r in (p, p + q, p - q, -p, p * q, p * s, p.compose(q), p.derivative(), reflect(p)):
        _assert_canonical(r)


@given(coeff_lists, st.integers(min_value=-30, max_value=30).filter(bool), coeff_lists)
def test_equal_polynomials_hash_alike(a, k, b):
    # one polynomial, built five ways
    p, q = Poly(a), Poly(b)
    ways = [
        Poly([*a, 0, 0]),
        Poly.from_ints([k * c for c in p.nums] + [0], k * p.den),
        (p + q) - q,
        p * Poly.ONE,
        (p * k) / k,
    ]
    for other in ways:
        assert other == p
        assert hash(other) == hash(p)
        _assert_canonical(other)


@pytest.mark.parametrize(
    "p",
    [
        Poly(),
        Poly([0, 0, 0]),
        Poly([Fraction(-3, 4)]),
        Poly([7]),
        Poly([0, Fraction(2, 6), 0, Fraction(-4, 9), 0]),
        Poly.from_ints([6, 0, -4], -10),
        Poly.from_ints([0, 0], 5),
        Poly([1, 2]) * Fraction(-2, 3),
        Poly([1, 2]) * 0,
        Poly([1, 2]) / -4,
    ],
    ids=["zero", "zeros", "constant", "int", "gaps", "negative_den", "zero_ints",
         "negative_scalar", "zero_scalar", "negative_divisor"],
)
def test_canonical_form_edge_cases(p):
    _assert_canonical(p)
    assert p == Poly(p.coeffs)


def test_from_ints_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Poly.from_ints([1, 2], 0)


@given(coeff_lists, st.floats(min_value=-2, max_value=2))
def test_float_evaluation_matches_fraction_horner(a, x):
    # each coefficient is rounded once, by float(Fraction), so p(x) is
    # bit-identical to Horner over the Fraction coefficients
    p = Poly(a)
    assert p(x).hex() == float(horner(_ref(a), x)).hex()


# nonzero floats: no Poly or series coefficient is -0.0
float_coeffs = st.lists(
    st.floats(min_value=-1e3, max_value=1e3).filter(bool), min_size=1, max_size=12
)


@given(float_coeffs, float_coeffs, float_coeffs, st.floats(min_value=-2, max_value=2))
def test_horner3_equals_three_horner_passes(p, q, r, x):
    # hex() tells -0.0 from 0.0; padding the shorter tuples is exact
    fused = horner3(horner_rows(p, q, r), x)
    assert [v.hex() for v in fused] == [horner(c, x).hex() for c in (p, q, r)]


def test_horner3_reads_an_empty_tuple_as_positive_zero():
    rows = horner_rows((1.0, 2.0), (3.0,), ())
    assert [v.hex() for v in horner3(rows, -0.5)] == ["0x0.0p+0", "0x1.8000000000000p+1", "0x0.0p+0"]
    assert horner((), -0.5).hex() == "-0x0.0p+0"
    assert [v.hex() for v in horner3(horner_rows((), (), ()), -0.5)] == ["-0x0.0p+0"] * 3
