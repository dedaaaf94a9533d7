"""Jacobi building blocks, kernel/two-term constructions, and the
structure checks tying the family to them."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littlejacobi.family import ParamPair, generate_monic, recurrence_coeffs
from littlejacobi.polys import Poly, reflect, terminating_2f1
from littlejacobi.transforms import (
    JacobiParams,
    christoffel_transform,
    dunkl_classical_check,
    extract_recurrence,
    gegenbauer_lowering_sides,
    gegenbauer_sequence,
    geronimus_coefficient,
    holds,
    identify_little,
    intertwiner_check,
    jacobi_sequence,
    raising_check,
    symmetric_gegenbauer,
)
from littlejacobi.verify import _sweep

PAIRS = [
    ParamPair(Fraction(1, 2), Fraction(3, 2)),
    ParamPair(Fraction(0), Fraction(2)),
    ParamPair(Fraction(1), Fraction(1)),
]


def test_jacobi_params_validation():
    with pytest.raises(ValueError, match="xi must be > -1"):
        JacobiParams(Fraction(-5, 4), Fraction(0))
    with pytest.raises(ValueError, match="eta must be > -1"):
        JacobiParams(Fraction(0), Fraction(-1))


def monic_jacobi_01(jp, n):
    """Reference: the monic Jacobi polynomial on [0,1] with weight
    x^xi (1-x)^eta, from its terminating 2F1(-n, n+xi+eta+1; xi+1; x)."""
    p = terminating_2f1(-n, n + jp.xi + jp.eta + 1, jp.xi + 1)
    return p / p.leading_coefficient


def monic_jacobi_sym(jp, n):
    """Reference: the monic standard Jacobi polynomial on [-1,1] with weight
    (1-x)^xi (1+x)^eta, from its terminating 2F1(-n, n+xi+eta+1; xi+1;
    (1-x)/2)."""
    p = terminating_2f1(-n, n + jp.xi + jp.eta + 1, jp.xi + 1)
    p = p.compose(Poly([Fraction(1, 2), Fraction(-1, 2)]))
    return p / p.leading_coefficient


def gegenbauer_2f1(jp, n):
    """Reference: the monic generalized Gegenbauer polynomial, weight
    |x|^(2 xi + 1) (1-x^2)^eta.  Even degrees are the [0,1] Jacobi
    polynomial in x^2; odd degrees are x times the same at xi + 1."""
    square = Poly([0, 0, 1])
    if n % 2 == 0:
        return monic_jacobi_01(jp, n // 2).compose(square)
    return Poly.X * monic_jacobi_01(JacobiParams(jp.xi + 1, jp.eta), n // 2).compose(square)


def test_monic_jacobi_01_known_linear_member():
    jp = JacobiParams(Fraction(1, 2), Fraction(3, 2))
    p = monic_jacobi_01(jp, 1)
    assert p == Poly([-(jp.xi + 1) / (jp.xi + jp.eta + 2), 1])


def test_monic_jacobi_01_against_scipy():
    scipy_jacobi = pytest.importorskip("scipy.special").jacobi
    # weight x^xi (1-x)^eta on [0,1] maps to the classical pair at 1-2x
    jp = JacobiParams(Fraction(1, 2), Fraction(3, 2))
    for n in range(1, 7):
        mine = monic_jacobi_01(jp, n)
        classical = scipy_jacobi(n, float(jp.xi), float(jp.eta))
        for x in (0.1, 0.37, 0.62, 0.85):
            reference = classical(1.0 - 2.0 * x) / classical.coeffs[0] / (-2.0) ** n
            assert abs(mine(x) - reference) < 1e-10


def test_monic_jacobi_sym_against_scipy():
    scipy_jacobi = pytest.importorskip("scipy.special").jacobi
    jp = JacobiParams(Fraction(1, 2), Fraction(3, 2))
    for n in range(1, 7):
        mine = monic_jacobi_sym(jp, n)
        classical = scipy_jacobi(n, float(jp.xi), float(jp.eta))
        for x in (-0.8, -0.25, 0.4, 0.9):
            reference = classical(x) / classical.coeffs[0]
            assert abs(mine(x) - reference) < 1e-10


def test_monic_jacobi_sym_parity_when_balanced():
    jp = JacobiParams(Fraction(1, 2), Fraction(1, 2))
    for n in range(8):
        p = monic_jacobi_sym(jp, n)
        assert reflect(p) == (-1) ** n * p


def test_symmetric_gegenbauer_structure():
    jp = JacobiParams(Fraction(0), Fraction(1))
    for n in range(9):
        s = symmetric_gegenbauer(jp, n)
        assert s.degree == n
        assert s.leading_coefficient == 1
        assert reflect(s) == (-1) ** n * s
        # even members are the [0,1] Jacobi polynomial in x^2; odd ones
        # carry one factor of x and a shifted first parameter
        assert s == gegenbauer_2f1(jp, n)


# xi, eta in (-1, 3] with denominators up to 10
admissible = st.fractions(min_value=-1, max_value=3, max_denominator=10).filter(
    lambda v: v > -1
)


# the examples sit on xi + eta = -1, where the first recurrence
# coefficient of both sequences is a removable 0/0
@settings(max_examples=20, deadline=None)
@given(admissible, admissible, st.integers(min_value=0, max_value=60))
@example(Fraction(-1, 2), Fraction(-1, 2), 12)
@example(Fraction(-3, 4), Fraction(-1, 4), 60)
@example(Fraction(-1, 10), Fraction(-9, 10), 7)
def test_jacobi_sequence_equals_the_closed_form(xi, eta, n):
    jp = JacobiParams(xi, eta)
    seq = jacobi_sequence(jp, n)
    assert len(seq) == n + 1
    assert all(seq[k] == monic_jacobi_sym(jp, k) for k in range(n + 1))


@settings(max_examples=20, deadline=None)
@given(admissible, admissible, st.integers(min_value=0, max_value=60))
@example(Fraction(-1, 2), Fraction(-1, 2), 12)
@example(Fraction(-3, 4), Fraction(-1, 4), 60)
@example(Fraction(-1, 10), Fraction(-9, 10), 7)
def test_gegenbauer_sequence_equals_the_closed_form(xi, eta, n):
    jp = JacobiParams(xi, eta)
    seq = gegenbauer_sequence(jp, n)
    assert len(seq) == n + 1
    assert all(seq[k] == gegenbauer_2f1(jp, k) for k in range(n + 1))


def test_sequences_reject_a_negative_degree():
    jp = JacobiParams(Fraction(1, 2), Fraction(3, 2))
    for build in (jacobi_sequence, gegenbauer_sequence):
        with pytest.raises(ValueError, match="nonnegative"):
            build(jp, -1)


def test_christoffel_transform_is_monic_of_right_degree():
    jp = JacobiParams(Fraction(0), Fraction(0))
    for n in range(8):
        p = christoffel_transform(jp, n)
        assert p.degree == n
        assert p.leading_coefficient == 1


def test_geronimus_coefficient_values():
    params = ParamPair(Fraction(1), Fraction(1))
    # even n: B_n = n/(alpha+beta+2n); odd n picks up the alpha term
    assert geronimus_coefficient(params, 2) == Fraction(1, 3)
    assert geronimus_coefficient(params, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        geronimus_coefficient(params, 0)


def test_identification_all_routes_agree():
    for params in PAIRS:
        jp = JacobiParams((params.alpha - 1) / 2, (params.beta - 1) / 2)
        for n in range(13):
            assert identify_little(params, n)
            # the Christoffel route on the sequence's Gegenbauer members
            assert christoffel_transform(jp, n) == generate_monic(params, n)


def test_first_failure_compares_every_side():
    # the identification has three routes: a mismatch in the last one fails
    sides = lambda n: (Poly.ONE, Poly.ONE, Poly.X if n == 2 else Poly.ONE)  # noqa: E731

    def scan(ns):
        return _sweep("transforms", "scan", ns, lambda n: not holds(sides(n)), "exact")

    assert scan(range(5)).detail == "mismatch at n=2"
    assert scan(range(2)).passed
    assert scan(()).skipped


def test_unshifted_combination_differs():
    # the two-term combination built on the unshifted symmetric family
    # does NOT reproduce the recurrence member; the eta+1 shift is load-bearing
    params = ParamPair(Fraction(1), Fraction(1))
    jp = JacobiParams(Fraction(0), Fraction(0))
    n = 2
    b_n = geronimus_coefficient(params, n)
    combo = symmetric_gegenbauer(jp, n) - b_n * symmetric_gegenbauer(jp, n - 1)
    assert combo != generate_monic(params, n)
    shifted = JacobiParams(jp.xi, jp.eta + 1)
    combo = symmetric_gegenbauer(shifted, n) - b_n * symmetric_gegenbauer(shifted, n - 1)
    assert combo == generate_monic(params, n)


def test_dunkl_classical_lowering():
    for params in PAIRS:
        for n in range(1, 13):
            assert dunkl_classical_check(params, n)


def test_raising_property():
    params = ParamPair(Fraction(1, 2), Fraction(5, 2))
    for n in range(11):
        assert raising_check(params, n)


def test_raising_needs_beta_above_one():
    with pytest.raises(ValueError, match="beta must exceed 1"):
        raising_check(ParamPair(Fraction(1), Fraction(1)), 2)


def test_intertwiner_route():
    for params in (ParamPair(Fraction(1), Fraction(1)), ParamPair(Fraction(1, 2), Fraction(3, 2))):
        for n in range(11):
            assert intertwiner_check(params, n)


def test_gegenbauer_dunkl_lowering():
    # T_{xi+1/2} S_n^(xi,eta) = [n] S_{n-1}^(xi,eta+1), n = 1..10, on the
    # sequence members, which equal the closed-form ones
    jp = JacobiParams(Fraction(-1, 4), Fraction(1, 4))
    shifted = JacobiParams(jp.xi, jp.eta + 1)
    sides = gegenbauer_lowering_sides(jp, 10)
    assert all(holds(sides(n)) for n in range(1, 11))
    assert gegenbauer_sequence(jp, 10) == [gegenbauer_2f1(jp, k) for k in range(11)]
    assert gegenbauer_sequence(shifted, 9) == [gegenbauer_2f1(shifted, k) for k in range(10)]


def test_extract_recurrence_round_trip():
    params = ParamPair(Fraction(1, 2), Fraction(3, 2))
    seq = [generate_monic(params, k) for k in range(8)]
    for n in range(1, 7):
        u, b = extract_recurrence(seq, n)
        expected_u, expected_b = recurrence_coeffs(params, n)
        assert u == expected_u
        assert b == expected_b


def test_extract_recurrence_rejects_non_orthogonal():
    seq = [Poly.ONE, Poly.X, Poly([0, 0, 1]), Poly([1, 0, 0, 1])]
    with pytest.raises(RuntimeError, match="three-term recurrence"):
        extract_recurrence(seq, 2)
