"""Banded operators on the monomial basis: bands at every degree, and
their truncated tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littlejacobi.operators import (
    DERIVATIVE_BAND,
    IDENTITY_BAND,
    MULT_X_BAND,
    Band,
    BandedOp,
    TruncationError,
    anticommutator,
    derivative,
    dunkl_band,
    dunkl_derivative,
    dunkl_intertwiner,
    identity_scalar,
    little_jacobi_band,
    op_equal,
    raising_band,
    sturm_liouville_band,
)
from littlejacobi.polys import Poly, monomial, pochhammer, reflect


def test_reflection_is_an_involution():
    # the reflection f(x) -> f(-x) as a table: it squares to the identity,
    # applies as `reflect`, and the Dunkl derivative is odd under it
    def reflection(n):
        return BandedOp.from_monomial(n, lambda k: {k: (-1) ** k})

    r = reflection(12)
    assert op_equal(r @ r, IDENTITY_BAND.table(11)).holds
    p = Poly([Fraction(1, 3), -2, 0, Fraction(5, 7), 1])
    assert r.apply(p) == reflect(p)
    t = dunkl_derivative(Fraction(3, 2), 12)
    assert anticommutator(r, t).scalar() == 0


def test_derivative_of_x_commutator_is_identity():
    # [d/dx, x] = I on the range where the composition is trusted
    d, x = derivative(10), MULT_X_BAND.table(10)
    c = d @ x - x @ d
    assert c.scalar() == 1
    assert c.trunc_degree == 9


def test_apply_matches_table():
    d = derivative(6)
    assert d.apply(Poly([0, 0, 0, 1])) == Poly([0, 0, 3])
    assert d.apply(Poly.ONE).is_zero()


def test_apply_beyond_truncation_raises():
    with pytest.raises(TruncationError):
        derivative(3).apply(monomial(4))


def _apply_reference(op, p):
    # the Fraction dict accumulation, row by row
    out = {}
    for n, c in enumerate(p.coeffs):
        for k, a in op.actions[n].items():
            out[k] = out.get(k, Fraction(0)) + c * a
    return Poly([out.get(k, 0) for k in range(max(out, default=-1) + 1)])


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# rows of band half-width <= 2 with zero entries (dropped by the table)
# and empty rows
rows = st.integers(min_value=0, max_value=10).flatmap(
    lambda size: st.tuples(
        *[
            st.dictionaries(st.integers(max(n - 2, 0), n + 2), rationals, max_size=3)
            for n in range(size + 1)
        ]
    )
)


def test_apply_edge_cases():
    op = BandedOp([{}, {0: 0}, {3: Fraction(2, 3), 1: Fraction(-1, 5)}, {}])
    assert op.apply(Poly()).is_zero()
    assert op.apply(Poly([7, 5])).is_zero()  # empty rows only
    assert op.apply(Poly([0, 0, 3])) == Poly([0, Fraction(-3, 5), 0, 2])
    assert op.apply(Poly([1, 0, Fraction(3, 2), 4])) == Poly([0, Fraction(-3, 10), 0, 1])
    with pytest.raises(TruncationError, match="^polynomial degree 4 exceeds operator truncation degree 3$"):
        op.apply(monomial(4))


def test_composition_safe_degree_shrinks_with_raising():
    x = MULT_X_BAND.table(10)
    # outer table stops at 10, and the inner factor raises degree by one,
    # so the composition is only trusted through degree 9
    assert (x @ x).trunc_degree == 9
    assert (x @ x).apply(monomial(9)) == monomial(11)


def test_composition_with_no_safe_range_raises():
    with pytest.raises(TruncationError):
        MULT_X_BAND.table(0) @ MULT_X_BAND.table(0)


def test_action_validation():
    with pytest.raises(ValueError):
        BandedOp([{-1: Fraction(1)}])


def test_identity_scalar_rejects_offdiagonal():
    assert MULT_X_BAND.table(4).scalar() is None
    assert (Fraction(-3, 2) * IDENTITY_BAND.table(4)).scalar() == Fraction(-3, 2)
    # diagonal but not constant over the rows
    assert BandedOp([{0: 1}, {1: 2}]).scalar() is None
    # identity_scalar is the method under the name the benchmark traces
    assert identity_scalar(MULT_X_BAND.table(4)) is None
    assert identity_scalar(Fraction(-3, 2) * IDENTITY_BAND.table(4)) == Fraction(-3, 2)


def test_scalar_reads_a_missing_diagonal_as_a_fraction_zero():
    for table in (derivative(4) - derivative(4), BandedOp([{}, {}]), BandedOp([])):
        zero = table.scalar()
        assert zero == 0 and type(zero) is Fraction
    assert BandedOp([{}, {1: 2}]).scalar() is None


def test_op_equal_reports_first_mismatch():
    report = op_equal(derivative(5), IDENTITY_BAND.table(5))
    assert not report.holds
    assert report.first_mismatch == 0
    assert report.safe_degree == 5


# rows over few powers and coefficients, so that equal rows are common;
# zeros (which the table drops) and ints next to Fractions among them
op_rows = st.lists(
    st.dictionaries(
        st.integers(0, 2), st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(2, 4)]), max_size=2
    ),
    min_size=1,
    max_size=5,
)


@given(op_rows, op_rows)
@settings(max_examples=200, deadline=None)
def test_op_equal_matches_the_row_differences(lhs_rows, rhs_rows):
    # the first mismatch is the first row whose coefficientwise difference
    # has a nonzero entry
    safe = min(len(lhs_rows), len(rhs_rows)) - 1
    first = next(
        (
            n
            for n in range(safe + 1)
            if any(
                Fraction(lhs_rows[n].get(k, 0)) != Fraction(rhs_rows[n].get(k, 0))
                for k in lhs_rows[n].keys() | rhs_rows[n].keys()
            )
        ),
        None,
    )
    report = op_equal(BandedOp(lhs_rows), BandedOp(rhs_rows))
    assert (report.holds, report.safe_degree, report.first_mismatch) == (first is None, safe, first)


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
        assert table.actions[n] == {n: sigma}


def test_intertwiner_domain():
    with pytest.raises(ValueError):
        dunkl_intertwiner(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        dunkl_intertwiner(Fraction(1), -1)


def test_intertwiner_sigma_pairing():
    mu = Fraction(1, 2)

    def sigma(n):
        return dunkl_intertwiner(mu, n).actions[n][n]

    for m in range(1, 6):
        assert sigma(2 * m - 1) == sigma(2 * m)
    assert sigma(0) == 1


def test_eigen_operator_slow_path():
    # x L f = 2x(1-x) (Rf)' + ((alpha+beta+1)x - alpha)(f - Rf), checked
    # as an exact polynomial identity on every basis monomial
    alpha, beta = Fraction(1, 2), Fraction(3, 2)
    op = little_jacobi_band(alpha, beta).table(12)
    shift = Poly([0, alpha + beta + 1]) - Poly([alpha])
    for n in range(13):
        f = monomial(n)
        fast = Poly.X * op.apply(f)
        slow = Poly([0, 2, -2]) * reflect(f).derivative() + shift * (f - reflect(f))
        assert fast == slow


def test_raising_operator_slow_path():
    # 2x Theta f = 2x(x^2-1) f' + alpha (x-1)^2 Rf + (2(beta+alpha/2)x^2 - 2x - alpha) f
    alpha, beta = Fraction(1, 2), Fraction(5, 2)
    op = raising_band(alpha, beta).table(10)
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
    op = raising_band(Fraction(1, 2), Fraction(5, 2)).table(8)
    assert op.max_raise == 1
    assert op.apply(monomial(3)).degree == 4


def test_sturm_liouville_table():
    # (1 - x^2) p'' + (1 - (2a+3)x) p' on a few monomials, a = 3/2
    a = Fraction(3, 2)
    op = sturm_liouville_band(a).table(6)
    assert op.apply(Poly.ONE).is_zero()
    assert op.apply(Poly.X) == Poly([1, -(2 * a + 3)])
    assert op.apply(monomial(2)) == Poly([2, 2, -2 * (2 * a + 4)])


def test_scalar_and_sum_arithmetic():
    d = derivative(8)
    doubled = Fraction(2) * d
    assert doubled.apply(monomial(3)) == 6 * monomial(2)
    assert op_equal(d + d, doubled).holds
    assert op_equal(d - d, Fraction(0) * IDENTITY_BAND.table(8)).holds


def _assert_clean(table):
    # the table algebra builds its rows without `_clean`: they must be what
    # the constructor would make of them, nonzero Fractions at their powers
    # with the same max_raise
    rebuilt = BandedOp(list(table.actions))
    assert table.actions == rebuilt.actions
    assert table.max_raise == rebuilt.max_raise
    assert all(isinstance(c, Fraction) and c for row in table.actions for c in row.values())


def test_table_algebra_cancels_to_empty_rows():
    d = derivative(8)
    for table in (d - d, 0 * d, Fraction(0) * d, d + (-1) * d):
        _assert_clean(table)
        assert table.actions == ({},) * 9
        assert table.max_raise == 0
    x = MULT_X_BAND.table(8)
    for table in (x - x, 0 * x):
        _assert_clean(table)
        assert table.max_raise == 0
    _assert_clean(d @ x - x @ d)
    # Z = (x-1)R squares to x**n -> x**n - x**(n+2): the x**(n+1) terms cancel
    z = Band({1: [1], 0: [-1]}, {1: [-1], 0: [1]}).table(8)
    _assert_clean(z @ z)
    assert (z @ z).actions == tuple({n: 1, n + 2: -1} for n in range(8))


# -- bands --------------------------------------------------------------------

# The monomial actions the stock tables were built from before they were
# bands, kept here as independent references for the band tables.


def _ref_identity(n):
    return {n: 1}


def _ref_derivative(n):
    return {n - 1: n} if n else {}


def _ref_mult_x(n):
    return {n + 1: 1}


def _ref_dunkl(mu):
    def action(n):
        if n == 0:
            return {}
        return {n - 1: n + mu * (1 - (-1) ** n)}

    return action


def _ref_little_jacobi(alpha, beta):
    def action(n):
        sign = (-1) ** n
        xi = -2 * sign * n + (1 - sign) * (alpha + beta + 1)
        eta = 2 * sign * n - (1 - sign) * alpha
        out = {n: xi}
        if n >= 1:
            out[n - 1] = eta
        return out

    return action


def _ref_raising(alpha, beta):
    def action(n):
        sign = (-1) ** n
        up = n + beta + alpha * (1 + sign) / 2
        mid = -1 - sign * alpha
        down = -n - alpha * (1 - sign) / 2
        out = {n + 1: up, n: mid}
        if n >= 1:
            out[n - 1] = down
        return out

    return action


def _ref_sturm_liouville(a):
    def action(n):
        out = {n: -n * (n + 2 * a + 2)}
        if n >= 1:
            out[n - 1] = Fraction(n)
        if n >= 2:
            out[n - 2] = Fraction(n * (n - 1))
        return out

    return action


BAND_PAIRS = [
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(7, 10), Fraction(5, 3)),
    (Fraction(-9, 10), Fraction(-9, 10)),
    (Fraction(0), Fraction(0)),
]


@pytest.mark.parametrize("n", [0, 1, 24, 257])
@pytest.mark.parametrize("alpha, beta", BAND_PAIRS, ids=str)
def test_stock_tables_match_the_monomial_references(alpha, beta, n):
    cases = [
        (IDENTITY_BAND.table(n), _ref_identity),
        (derivative(n), _ref_derivative),
        (MULT_X_BAND.table(n), _ref_mult_x),
        (little_jacobi_band(alpha, beta).table(n), _ref_little_jacobi(alpha, beta)),
        (raising_band(alpha, beta).table(n), _ref_raising(alpha, beta)),
    ]
    for value in (alpha, beta):
        cases += [
            (dunkl_derivative(value / 2, n), _ref_dunkl(value / 2)),
            (sturm_liouville_band(value).table(n), _ref_sturm_liouville(value)),
        ]
    for table, action in cases:
        reference = BandedOp.from_monomial(n, action)
        assert table.actions == reference.actions
        assert table.max_raise == reference.max_raise


def test_band_table_domain():
    with pytest.raises(ValueError, match="nonnegative"):
        IDENTITY_BAND.table(-1)
    assert MULT_X_BAND.table(0).actions == ({1: 1},)


def test_band_rejects_a_row_below_x0():
    # x**n -> c x**(n+d) with n + d < 0 names no monomial, so the entry
    # must vanish there
    with pytest.raises(ValueError, match="offset -1 is 1 at n=0"):
        Band({-1: [1]}, {})
    with pytest.raises(ValueError, match="offset -2 is 1 at n=1"):
        Band({}, {-2: [0, 1]})
    with pytest.raises(ValueError, match="offset -2 is 2 at n=0"):
        Band({-2: [2, 1]}, {})
    # the odd rows never reach x**(-1); zero entries are dropped
    band = Band({-1: [0, 1], 1: []}, {-1: [5]})
    assert band.rows == ({-1: Poly.X}, {-1: Poly([5])})


def test_band_equality_and_scalar():
    assert dunkl_band(0) == DERIVATIVE_BAND
    assert dunkl_band(Fraction(1, 1000)) != DERIVATIVE_BAND
    assert (Fraction(-3, 2) * IDENTITY_BAND).scalar() == Fraction(-3, 2)
    assert (DERIVATIVE_BAND - DERIVATIVE_BAND).scalar() == 0
    # [d/dx, x] = I at every degree
    assert (DERIVATIVE_BAND @ MULT_X_BAND - MULT_X_BAND @ DERIVATIVE_BAND).scalar() == 1
    assert MULT_X_BAND.scalar() is None
    # diagonal but not constant in n, or not the same on both parities
    assert Band({0: [0, 1]}, {0: [0, 1]}).scalar() is None
    assert Band({0: [1]}, {0: [2]}).scalar() is None


def test_band_identities_of_the_stock_operators():
    # the reflection anticommutes with T_mu, and T_mu V = V d/dx on the
    # tables, where V (a product in n) has no band
    reflection = Band({0: [1]}, {0: [-1]})
    mu = Fraction(3, 2)
    assert anticommutator(reflection, dunkl_band(mu)).scalar() == 0
    assert (reflection @ reflection) == IDENTITY_BAND
    # the raising operator raises by one, and L is degree-preserving
    assert max(raising_band(Fraction(1, 2), Fraction(5, 2)).rows[0]) == 1
    assert max(max(row) for row in little_jacobi_band(Fraction(1, 2), Fraction(3, 2)).rows) == 0
    # x d/dx has the eigenvalue n on x**n
    euler = MULT_X_BAND @ DERIVATIVE_BAND
    assert euler == Band({0: [0, 1]}, {0: [0, 1]})


def _bottom(parity, d):
    """The Poly in n that vanishes at each n of the parity with n + d < 0."""
    out = Poly.ONE
    for n in range(parity, -d, 2):
        out = out * Poly([-n, 1])
    return out


polys_in_n = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=3).map(Poly)
# bands of half-width <= 2, each row with offset d < 0 made to vanish
# below x**0
bands = st.tuples(
    *[st.dictionaries(st.integers(-2, 2), polys_in_n, max_size=5) for _ in (0, 1)]
).map(
    lambda rows: Band(
        *({d: p * _bottom(parity, d) for d, p in row.items()} for parity, row in enumerate(rows))
    )
)


# tables from dicts, from Band.table and from @ of two band tables
tables = st.one_of(
    rows.map(BandedOp),
    st.builds(lambda band, n: band.table(n), bands, st.integers(0, 10)),
    st.builds(lambda a, b, n: a.table(n) @ b.table(n), bands, bands, st.integers(2, 12)),
)


@given(tables, st.lists(rationals, max_size=11))
@settings(max_examples=90, deadline=None)
def test_apply_matches_fraction_reference(op, coeffs):
    p = Poly(coeffs[: op.trunc_degree + 1])  # zero coefficients and Poly() included
    out = op.apply(p)
    assert out == _apply_reference(op, p)
    assert all(isinstance(c, Fraction) for c in out.coeffs)
    # the second apply reads the integer rows that the first one built
    assert op.apply(p) == out
    q = Poly(coeffs[::-1][: op.trunc_degree + 1])
    assert op.apply(q) == _apply_reference(op, q)


@given(bands, bands, rationals, st.integers(min_value=2, max_value=12))
@settings(max_examples=80, deadline=None)
def test_band_algebra_matches_the_truncated_tables(a, b, scalar, n):
    # on the range where the truncated composition is trusted, the band's
    # table is the composition of the tables; sums and multiples agree on
    # every row
    product = a @ b
    report = op_equal(product.table(n), a.table(n) @ b.table(n))
    assert report.holds
    assert report.safe_degree == n - b.table(n).max_raise
    assert (a + b).table(n).actions == (a.table(n) + b.table(n)).actions
    assert (a - b).table(n).actions == (a.table(n) - b.table(n)).actions
    assert (scalar * a).table(n).actions == (scalar * a.table(n)).actions
    # a band that is c times the identity has tables that are c times it
    for band in (a, product, a - a, scalar * IDENTITY_BAND):
        if band.scalar() is not None:
            assert band.table(n).scalar() == band.scalar()


@given(tables, tables, rationals)
@settings(max_examples=40, deadline=None)
def test_table_algebra_builds_clean_tables(a, b, scalar):
    # sums, differences, multiples (by 0 too) and compositions of random
    # tables, with cancellations among them
    results = [a + b, a - b, b - a, a - a, scalar * a, 0 * a]
    if min(b.trunc_degree, a.trunc_degree - b.max_raise) >= 0:
        results.append(a @ b)
    if min(a.trunc_degree, a.trunc_degree - a.max_raise) >= 0:
        results.append(a @ a)
    for table in results:
        _assert_clean(table)
