"""Recurrence, moments, explicit forms, weight, and the deformation limit."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littlejacobi import verify
from littlejacobi.family import (
    MomentFunctional,
    ParamPair,
    eigenvalue,
    explicit_poly,
    generate_monic,
    moments,
    norm_square,
    qjacobi_recurrence,
    qlimit_error,
    recurrence_coeffs,
    weight_eval,
    weight_moment,
    weight_moments,
)
from littlejacobi.polys import Poly, monomial, pochhammer, terminating_2f1

PAIRS = [
    ParamPair(Fraction(1, 2), Fraction(3, 2)),
    ParamPair(Fraction(0), Fraction(2)),
    ParamPair(Fraction(1), Fraction(1)),
]

admissible = st.fractions(
    min_value=Fraction(-3, 4), max_value=Fraction(4), max_denominator=8
)
# the whole admissible square; examples add alpha + beta = 0 and a corner near -1
square = st.fractions(min_value=-1, max_value=3, max_denominator=10).filter(lambda v: v > -1)


def test_param_validation():
    with pytest.raises(ValueError, match="alpha must be > -1"):
        ParamPair(Fraction(-2), Fraction(0))
    with pytest.raises(ValueError, match="beta must be > -1"):
        ParamPair(Fraction(0), Fraction(-1))


def test_equal_pairs_hash_alike_and_share_one_cache_entry():
    pairs = [ParamPair("1/2", "3/2"), ParamPair(Fraction(1, 2), Fraction(3, 2)), ParamPair(0.5, 1.5)]
    assert len(set(pairs)) == 1
    assert {hash(p) for p in pairs} == {hash((Fraction(1, 2), Fraction(3, 2)))}
    assert repr(pairs[2]) == "ParamPair(alpha=Fraction(1, 2), beta=Fraction(3, 2))"
    assert {p.ints for p in pairs} == {(2, 1, 3)}
    generate_monic.cache_clear()
    first = generate_monic(pairs[0], 3)
    before = generate_monic.cache_info()
    assert all(generate_monic(p, 3) is first for p in pairs[1:])
    after = generate_monic.cache_info()
    assert (after.misses, after.hits, after.currsize) == (before.misses, before.hits + 2, before.currsize)


@given(square, square)
def test_pair_integers_are_least(alpha, beta):
    # alpha = A/D and beta = B/D over the least common denominator D
    d, a, b = ParamPair(alpha, beta).ints
    assert (Fraction(a, d), Fraction(b, d)) == (alpha, beta)
    assert d > 0 and math.gcd(d, a, b) == 1


def test_b0_equals_first_moment():
    # b_0 = (alpha+1)/(alpha+beta+2) is also the first moment
    for params in PAIRS:
        _, b0 = recurrence_coeffs(params, 0)
        assert b0 == moments(params, 2).c(1)
        assert b0 == (params.alpha + 1) / (params.alpha + params.beta + 2)


def test_b0_covers_the_removable_case():
    # alpha + beta = 0 makes the generic b_n expression 0/0 at n = 0;
    # the closed form stays finite
    params = ParamPair(Fraction(1, 2), Fraction(-1, 2))
    _, b0 = recurrence_coeffs(params, 0)
    assert b0 == Fraction(3, 4)


def test_u0_is_none():
    u, _ = recurrence_coeffs(PAIRS[0], 0)
    assert u is None


def _docstring_recurrence(alpha, beta, n):
    # the formulas of recurrence_coeffs' docstring, in Fraction arithmetic
    if n == 0:
        return None, (alpha + 1) / (alpha + beta + 2)
    sign = (-1) ** n
    theta = Fraction(1 + sign, 2)
    u = (n + (1 - theta) * alpha) * (n + beta + theta * alpha) / (2 * n + alpha + beta) ** 2
    b = (
        sign
        * ((2 * n + 1) * alpha + alpha * beta + alpha**2 + sign * beta)
        / ((2 * n + alpha + beta) * (2 * n + 2 + alpha + beta))
    )
    return u, b


@given(square, square, st.integers(min_value=0, max_value=60))
@example(Fraction(1, 2), Fraction(-1, 2), 0)
@example(Fraction(1, 2), Fraction(-1, 2), 1)
@example(Fraction(-2, 3), Fraction(2, 3), 2)
@example(Fraction(0), Fraction(0), 0)
@settings(max_examples=200, deadline=None)
def test_recurrence_coeffs_match_the_fraction_formulas(alpha, beta, n):
    # the integer kernel returns the same reduced Fractions, alpha + beta = 0
    # and n = 0 included
    got = recurrence_coeffs(ParamPair(alpha, beta), n)
    want = _docstring_recurrence(alpha, beta, n)
    assert repr(got) == repr(want)


@given(admissible, admissible)
@settings(max_examples=40, deadline=None)
def test_u_positive_across_parameters(alpha, beta):
    params = ParamPair(alpha, beta)
    for n in range(1, 21):
        u, _ = recurrence_coeffs(params, n)
        assert u > 0


def test_u_positive_deep():
    for params in PAIRS:
        for n in range(1, 51):
            u, _ = recurrence_coeffs(params, n)
            assert u > 0


def test_eigenvalues_even_odd_forms():
    params = ParamPair(Fraction(1, 2), Fraction(3, 2))
    assert eigenvalue(params, 0) == 0
    assert eigenvalue(params, 4) == -8
    assert eigenvalue(params, 3) == 2 * (params.alpha + params.beta + 4)


def test_eigenvalues_simple():
    for params in PAIRS:
        values = [eigenvalue(params, n) for n in range(51)]
        assert len(set(values)) == len(values)


@given(st.integers(min_value=0, max_value=15))
def test_generate_monic_is_monic(n):
    p = generate_monic(PAIRS[0], n)
    assert p.degree == n
    assert p.leading_coefficient == 1


def test_generate_monic_cold_deep_call():
    # the recursion depth is bounded, whatever the degree of a cold call
    generate_monic.cache_clear()
    p = generate_monic(ParamPair(Fraction(1, 2), Fraction(3, 2)), 600)
    assert p.degree == 600
    assert p.leading_coefficient == 1


def _ring_recurrence(params, n_max):
    # the three-term recurrence in the Fraction polynomial ring
    members = [Poly.ONE]
    for n in range(1, n_max + 1):
        u, b = recurrence_coeffs(params, n - 1)
        member = Poly([-b, 1]) * members[-1]
        if n >= 2:
            member = member - u * members[-2]
        members.append(member)
    return members


@given(square, square, st.integers(min_value=0, max_value=70))
@example(Fraction(1, 2), Fraction(-1, 2), 70)
@example(Fraction(-9, 10), Fraction(-9, 10), 70)
@settings(max_examples=20, deadline=None)
def test_generate_monic_matches_ring_recurrence(alpha, beta, n_max):
    # cold members up to n_max, past the _STRIDE anchor at 64
    params = ParamPair(alpha, beta)
    generate_monic.cache_clear()
    members = [generate_monic(params, n) for n in range(n_max, -1, -1)][::-1]
    assert members == _ring_recurrence(params, n_max)
    assert all(isinstance(c, Fraction) for p in members for c in p.coeffs)


def test_known_member():
    assert generate_monic(ParamPair(Fraction(0), Fraction(0)), 2).to_strings() == [
        "-1/4",
        "-1/2",
        "1",
    ]


def test_explicit_matches_recurrence():
    for params in PAIRS:
        for n in range(13):
            assert explicit_poly(params, n) == generate_monic(params, n)


def _explicit_bracket_reference(params, n):
    # the bracket as Poly operations, each normalised on its own
    alpha, beta = params.alpha, params.beta
    if n % 2 == 0:
        m = n // 2
        bracket = terminating_2f1(-m, (n + alpha + beta + 2) / 2, (alpha + 1) / 2, arg_power=2)
        if m >= 1:
            second = terminating_2f1(
                -(m - 1), (n + alpha + beta + 2) / 2, (alpha + 3) / 2, arg_power=2
            )
            bracket = bracket + (Fraction(n) / (alpha + 1)) * Poly.X * second
    else:
        m = (n - 1) // 2
        first = terminating_2f1(-m, (n + alpha + beta + 1) / 2, (alpha + 1) / 2, arg_power=2)
        second = terminating_2f1(-m, (n + alpha + beta + 3) / 2, (alpha + 3) / 2, arg_power=2)
        bracket = first - ((alpha + beta + n + 1) / (alpha + 1)) * Poly.X * second
    assert bracket.degree == n
    return bracket / bracket.leading_coefficient


@pytest.mark.parametrize("pair", ["1/2 3/2", "7/10 5/3", "-9/10 -9/10", "0 0", "3 -1/2"])
def test_explicit_matches_the_poly_bracket(pair):
    params = ParamPair(*pair.split())
    for n in range(61):
        assert explicit_poly(params, n) == _explicit_bracket_reference(params, n)


@given(admissible, admissible)
@settings(max_examples=25, deadline=None)
def test_explicit_matches_recurrence_across_parameters(alpha, beta):
    params = ParamPair(alpha, beta)
    for n in range(7):
        assert explicit_poly(params, n) == generate_monic(params, n)


def test_moments_structure():
    params = ParamPair(Fraction(1, 2), Fraction(3, 2))
    mf = moments(params, 12)
    assert mf.c(0) == 1
    for m in range(1, 6):
        assert mf.c(2 * m) == mf.c(2 * m - 1)
    with pytest.raises(ValueError, match="moment index"):
        mf.c(13)


@pytest.mark.parametrize(
    "alpha, beta",
    [(Fraction(1, 2), Fraction(3, 2)), (0, 0), (Fraction(-9, 10), Fraction(-9, 10))],
    ids=["1/2,3/2", "0,0", "-9/10,-9/10"],
)
def test_moments_match_pochhammer_closed_form(alpha, beta):
    # the running product must equal each ratio of rising factorials
    params = ParamPair(alpha, beta)
    top, bottom = (params.alpha + 1) / 2, (params.alpha + params.beta + 2) / 2
    mf = moments(params, 120)
    assert len(mf.moments) == 121
    for k in range(121):
        m = (k + 1) // 2
        assert mf.c(k) == pochhammer(top, m) / pochhammer(bottom, m)


def test_inner_product_needs_enough_moments():
    mf = moments(PAIRS[0], 4)
    p = generate_monic(PAIRS[0], 3)
    with pytest.raises(ValueError, match="inner product needs moment"):
        mf.inner_product(p, p)


def test_orthogonality_and_norms():
    for params in PAIRS:
        mf = moments(params, 24)
        members = [generate_monic(params, n) for n in range(13)]
        for n in range(13):
            for m in range(n):
                assert mf.inner_product(members[n], members[m]) == 0
            assert mf.inner_product(members[n], members[n]) == norm_square(params, n)
    assert norm_square(PAIRS[0], 0) == 1


def test_mixed_moments_of_monomials_are_hankel_rows():
    # L[x^j x^n] = c_{n+j}
    for params in PAIRS:
        mf = moments(params, 16)
        rows = mf.mixed_moments([monomial(k) for k in range(9)])
        assert [row.coeffs for row in rows] == [
            tuple(mf.c(n + j) for j in range(n + 1)) for n in range(9)
        ]


# monic polynomials of degrees 0..k, one per degree, in order
monic_ladders = st.integers(min_value=0, max_value=5).flatmap(
    lambda k: st.tuples(
        *(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=12),
                min_size=n,
                max_size=n,
            ).map(lambda low: Poly([*low, 1]))
            for n in range(k + 1)
        )
    )
)


@given(admissible, admissible, monic_ladders)
@settings(max_examples=60, deadline=None)
def test_mixed_moments_match_inner_product(alpha, beta, polys):
    mf = moments(ParamPair(alpha, beta), 10)
    rows = mf.mixed_moments(polys)
    assert len(rows) == len(polys)
    for n, (p, row) in enumerate(zip(polys, rows)):
        assert len(row.nums) <= n + 1
        for j in range(n + 1):
            assert row.coefficient(j) == mf.inner_product(p, monomial(j))
        for m in range(n + 1):
            pairing = sum(c * row.coefficient(i) for i, c in enumerate(polys[m].coeffs))
            assert pairing == mf.inner_product(polys[m], p)


def test_mixed_moments_need_enough_moments():
    mf = moments(PAIRS[0], 4)
    with pytest.raises(ValueError, match="inner product needs moment 6"):
        mf.mixed_moments([generate_monic(PAIRS[0], k) for k in range(4)])


def test_mixed_moments_need_paired_moments():
    # the rows fold c_{2m-1} = c_{2m}; a slice without that pairing is refused
    paired = moments(PAIRS[0], 8).moments
    members = [generate_monic(PAIRS[0], k) for k in range(5)]
    for k in range(1, 9):
        values = list(paired)
        values[k] += 1
        with pytest.raises(ValueError, match="paired moments"):
            MomentFunctional(PAIRS[0], tuple(values)).mixed_moments(members)
    # moments past the top index the rows read are not checked
    extended = MomentFunctional(PAIRS[0], (*paired, Fraction(7)))
    assert extended.mixed_moments(members) == moments(PAIRS[0], 8).mixed_moments(members)


@pytest.mark.parametrize(
    "degrees",
    [(), (1, 3), (0, 2), (1, 0), (0, 1, 1), (None,)],
    ids=["empty", "gaps", "skips_1", "out_of_order", "repeated", "zero_polynomial"],
)
def test_mixed_moments_need_one_member_per_degree(degrees):
    # rows 0..n-1 must span degree < n for a vanishing row to mean orthogonality
    polys = [Poly.ZERO if d is None else generate_monic(PAIRS[0], d) for d in degrees]
    with pytest.raises(ValueError, match="one polynomial of each degree 0..N"):
        moments(PAIRS[0], 16).mixed_moments(polys)


def _bump(k):
    """Add 1/7 to the coefficient of x^k."""
    return lambda p: p + Poly([0] * k + [Fraction(1, 7)])


@pytest.mark.parametrize(
    "n, broken, witness_m",
    [
        (5, _bump(2), 0),
        # orthogonal to P_0, so the scan must not stop at m = 0
        (5, lambda p: p + Fraction(1, 7) * generate_monic(PAIRS[0], 1), 1),
        # the top row of the table
        (12, _bump(3), 0),
    ],
    ids=["coefficient", "plus_P1", "top_member"],
)
def test_orthogonality_witness_matches_pairwise_scan(monkeypatch, n, broken, witness_m):
    params, n_max = PAIRS[0], 12
    members = [generate_monic(params, k) for k in range(n_max + 1)]
    members[n] = broken(members[n])
    monkeypatch.setattr(verify, "generate_monic", lambda _, k: members[k])

    mf = moments(params, 2 * n_max)
    expected, scanned = next(
        (f"<P_{k}, P_{m}> = {value}", (k, m))
        for k in range(1, n_max + 1)
        for m in range(k)
        if (value := mf.inner_product(members[k], members[m])) != 0
    )
    assert scanned == (n, witness_m)
    options = verify.SuiteOptions(pairs=(params,), max_degree=n_max)
    results = {r.name.split(" n<=")[0]: r for r in verify.run_suites(["orthogonality"], options)}
    vanishing, norms = results["pair vanishing"], results["norm product rule"]
    assert not vanishing.passed
    assert vanishing.detail == expected
    assert not norms.passed
    assert norms.detail == f"mismatch at n={n}"


def test_orthogonality_suite_at_degree_80():
    options = verify.SuiteOptions(pairs=(PAIRS[0],), max_degree=80)
    results = verify.run_suites(["orthogonality"], options)
    assert len(results) == 5
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


def test_hankel_determinants_positive():
    for params in PAIRS:
        mf = moments(params, 22)
        for n in range(11):
            assert mf.hankel_determinant(n) > 0


def _hankel_reference(moments_, n):
    # det (c_{i+j}) by Gaussian elimination in Fractions, swapping in the
    # first lower row with a nonzero entry when a pivot is zero
    size = n + 1
    m = [[Fraction(moments_[i + j]) for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


@settings(max_examples=25, deadline=None)
@given(square, square)
@example(Fraction(1, 2), Fraction(-1, 2))
@example(Fraction(-9, 10), Fraction(-9, 10))
def test_hankel_determinant_matches_fraction_elimination(alpha, beta):
    mf = moments(ParamPair(alpha, beta), 24)
    for n in range(13):
        assert mf.hankel_determinant(n) == _hankel_reference(mf.moments, n)


@pytest.mark.parametrize(
    "values, expected",
    [
        # order 2: after the first step the second pivot is 0 and the third
        # row is swapped in; order 1 is singular
        ((1, 1, 1, 2, 3), [1, 0, -1]),
        # c_0 = 0: the first pivot needs a swap
        ((0, 1, 1, 1, 2), [0, -1, -1]),
        # rank one: every order above 0 is singular
        ((1, 1, 1, 1, 1, 1, 1), [1, 0, 0, 0]),
        ((Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2), 0, Fraction(5, 9)), None),
    ],
    ids=["swap", "swap_first", "singular", "rational"],
)
def test_hankel_determinant_swaps_and_singular_functionals(values, expected):
    mf = MomentFunctional(PAIRS[0], tuple(Fraction(v) for v in values))
    dets = [mf.hankel_determinant(n) for n in range((len(values) + 1) // 2)]
    assert dets == [_hankel_reference(mf.moments, n) for n in range(len(dets))]
    if expected is not None:
        assert dets == expected


def test_hankel_range_check():
    mf = moments(PAIRS[0], 4)
    with pytest.raises(ValueError, match="Hankel"):
        mf.hankel_determinant(3)


def test_weight_domain():
    params = ParamPair(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError, match="weight argument"):
        weight_eval(params, 1.0)
    with pytest.raises(ValueError, match="weight argument"):
        weight_eval(params, -1.2)


def test_weight_singular_at_origin_for_negative_alpha():
    params = ParamPair(Fraction(-1, 2), Fraction(3, 2))
    assert weight_eval(params, 0.0) == math.inf
    assert math.isfinite(weight_eval(params, 0.3))


@pytest.mark.parametrize(
    "alpha, beta",
    [
        ("1/2", "3/2"), ("-2/3", "-1/4"),
        # near the corner (-1,-1), and large beta, where the mass sits near an end
        ("-9/10", "-9/10"), ("-99/100", "-99/100"), ("-999/1000", "-999/1000"),
        ("0", "200"), ("-1/2", "30"), ("0", "2100"),
        # kappa's lgamma arguments are rounded once, from the exact (beta+1)/2
        ("1/2", "-999999999/1000000000"),
    ],
)
def test_weight_moments_match_exact(alpha, beta):
    # far inside the orthogonality suite's 1e-8 gate
    params = ParamPair(Fraction(alpha), Fraction(beta))
    mf = moments(params, 8)
    quad = weight_moments(params, 8)
    assert len(quad.values) == 9
    for k, value in enumerate(quad.values):
        assert abs(value - float(mf.c(k))) < 1e-12
    assert 0.0 <= quad.level_difference <= 1e-12


def test_weight_normalizes_to_one():
    for params in PAIRS[:2]:
        assert abs(weight_moment(params, 0) - 1.0) < 1e-10


def test_qdeformation_validation():
    with pytest.raises(ValueError, match="epsilon"):
        qjacobi_recurrence(0.0, 0.5, 1.5, 1)


def test_qjacobi_u0_is_none():
    u, b = qjacobi_recurrence(1e-3, 0.5, 1.5, 0)
    assert u is None
    assert math.isfinite(b)


def test_qjacobi_balanced_pair():
    # alpha + beta = 0 zeroes the denominator of C_0, whose numerator
    # carries 1 - q^0: C_0 = 0 and b_0 stays near (alpha+1)/(alpha+beta+2)
    u, b = qjacobi_recurrence(1e-4, 0.5, -0.5, 0)
    assert u is None
    assert b == pytest.approx(0.75, abs=1e-3)


def test_qlimit_linear_convergence():
    params = ParamPair(Fraction(1, 2), Fraction(3, 2))
    for n in range(6):
        du3, db3 = qlimit_error(params, n, 1e-3)
        du4, db4 = qlimit_error(params, n, 1e-4)
        assert 8.0 <= db3 / db4 <= 12.0
        if n > 0:
            assert 8.0 <= du3 / du4 <= 12.0
