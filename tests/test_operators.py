"""Banded operator tables on the monomial basis."""

from fractions import Fraction

import pytest

from littlejacobi.operators import (
    BandedOp,
    TruncationError,
    anticommutator,
    commutator,
    derivative,
    dunkl_derivative,
    dunkl_intertwiner,
    identity,
    identity_scalar,
    intertwiner_sigma,
    jacobi_sturm_liouville,
    little_jacobi_operator,
    mult_x,
    op_equal,
    raising_operator,
    reflection,
)
from littlejacobi.polys import Poly, monomial, pochhammer, reflect


def test_reflection_is_an_involution():
    r = reflection(12)
    assert op_equal(r @ r, identity(11)).holds


def test_derivative_of_x_commutator_is_identity():
    # [d/dx, x] = I on the range where the composition is trusted
    c = commutator(derivative(10), mult_x(10))
    assert identity_scalar(c) == 1
    assert c.trunc_degree == 9


def test_apply_matches_table():
    d = derivative(6)
    assert d.apply(Poly([0, 0, 0, 1])) == Poly([0, 0, 3])
    assert d.apply(Poly.ONE).is_zero()


def test_apply_beyond_truncation_raises():
    with pytest.raises(TruncationError):
        derivative(3).apply(monomial(4))


def test_composition_safe_degree_shrinks_with_raising():
    x = mult_x(10)
    # outer table stops at 10, and the inner factor raises degree by one,
    # so the composition is only trusted through degree 9
    assert (x @ x).trunc_degree == 9
    assert (x @ x).apply(monomial(9)) == monomial(11)


def test_composition_with_no_safe_range_raises():
    with pytest.raises(TruncationError):
        mult_x(0) @ mult_x(0)


def test_action_validation():
    with pytest.raises(ValueError):
        BandedOp([{-1: Fraction(1)}])


def test_identity_scalar_rejects_offdiagonal():
    assert identity_scalar(mult_x(4)) is None
    assert identity_scalar(Fraction(-3, 2) * identity(4)) == Fraction(-3, 2)


def test_op_equal_reports_first_mismatch():
    report = op_equal(derivative(5), reflection(5))
    assert not report.holds
    assert report.first_mismatch == 0
    assert report.safe_degree == 5


def test_dunkl_parameter_domain():
    with pytest.raises(ValueError):
        dunkl_derivative(Fraction(-1, 2), 4)


def test_dunkl_action_on_monomials():
    t = dunkl_derivative(Fraction(3, 2), 6)
    # even power: plain derivative; odd power: n + 2 mu
    assert t.apply(monomial(4)) == 4 * monomial(3)
    assert t.apply(monomial(5)) == 8 * monomial(4)
    assert t.apply(Poly.ONE).is_zero()


@pytest.mark.parametrize(
    "mu, n",
    [
        (Fraction(1, 2), 30),
        (Fraction(1), 30),
        (Fraction(5, 2), 30),
        (Fraction(-9, 20), 30),
        (Fraction(0), 30),
        (Fraction(7, 20), 300),
    ],
    ids=[f"mu{i}" for i in range(6)],
)
def test_intertwiner_conjugates_derivative_to_dunkl(mu, n):
    lhs = dunkl_derivative(mu, n) @ dunkl_intertwiner(mu, n)
    rhs = dunkl_intertwiner(mu, n) @ derivative(n)
    report = op_equal(lhs, rhs)
    assert report.holds
    assert report.safe_degree == n


@pytest.mark.parametrize(
    "mu", [Fraction(7, 20), Fraction(-9, 20), Fraction(0), Fraction(3, 2)]
)
def test_intertwiner_table_matches_closed_form(mu):
    # sigma_n = (1/2)_m / (mu + 1/2)_m with m = ceil(n/2)
    n_max = 300
    table = dunkl_intertwiner(mu, n_max)
    for n in range(n_max + 1):
        m = (n + 1) // 2
        sigma = pochhammer(Fraction(1, 2), m) / pochhammer(mu + Fraction(1, 2), m)
        assert table.action(n) == {n: sigma}
    assert intertwiner_sigma(mu, n_max) == sigma


def test_intertwiner_domain():
    with pytest.raises(ValueError):
        intertwiner_sigma(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        intertwiner_sigma(Fraction(1), -1)
    with pytest.raises(ValueError):
        dunkl_intertwiner(Fraction(-1, 2), 4)


def test_intertwiner_sigma_pairing():
    mu = Fraction(1, 2)
    for m in range(1, 6):
        assert intertwiner_sigma(mu, 2 * m - 1) == intertwiner_sigma(mu, 2 * m)
    assert intertwiner_sigma(mu, 0) == 1


def test_eigen_operator_slow_path():
    # x L f = 2x(1-x) (Rf)' + ((alpha+beta+1)x - alpha)(f - Rf), checked
    # as an exact polynomial identity on every basis monomial
    alpha, beta = Fraction(1, 2), Fraction(3, 2)
    op = little_jacobi_operator(alpha, beta, 12)
    shift = Poly([0, alpha + beta + 1]) - Poly([alpha])
    for n in range(13):
        f = monomial(n)
        fast = Poly.X * op.apply(f)
        slow = Poly([0, 2, -2]) * reflect(f).derivative() + shift * (f - reflect(f))
        assert fast == slow


def test_raising_operator_slow_path():
    # 2x Theta f = 2x(x^2-1) f' + alpha (x-1)^2 Rf + (2(beta+alpha/2)x^2 - 2x - alpha) f
    alpha, beta = Fraction(1, 2), Fraction(5, 2)
    op = raising_operator(alpha, beta, 10)
    quad = Poly([-alpha, -2, 2 * (beta + alpha / 2)])
    square = Poly([1, -2, 1])
    for n in range(11):
        f = monomial(n)
        fast = 2 * Poly.X * op.apply(f)
        slow = (
            Poly([0, -2, 0, 2]) * f.derivative()
            + alpha * square * reflect(f)
            + quad * f
        )
        assert fast == slow


def test_raising_operator_raises_degree_by_one():
    op = raising_operator(Fraction(1, 2), Fraction(5, 2), 8)
    assert op.max_raise == 1
    assert op.apply(monomial(3)).degree == 4


def test_sturm_liouville_table():
    # (1 - x^2) p'' + (1 - (2a+3)x) p' on a few monomials, a = 3/2
    a = Fraction(3, 2)
    op = jacobi_sturm_liouville(a, 6)
    assert op.apply(Poly.ONE).is_zero()
    assert op.apply(Poly.X) == Poly([1, -(2 * a + 3)])
    assert op.apply(monomial(2)) == Poly([2, 2, -2 * (2 * a + 4)])


def test_scalar_and_sum_arithmetic():
    d = derivative(8)
    doubled = Fraction(2) * d
    assert doubled.apply(monomial(3)) == 6 * monomial(2)
    assert op_equal(d + d, doubled).holds
    assert op_equal(d - d, Fraction(0) * identity(8)).holds
