"""Trigonometric well: states, square-root operator, factorization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littlejacobi import susyqm
from littlejacobi.family import ParamPair, generate_monic
from littlejacobi.operators import (
    DERIVATIVE_BAND,
    IDENTITY_BAND,
    MULT_X_BAND,
    Band,
    sturm_liouville_band,
)
from littlejacobi.polys import Poly, horner, reflect, terminating_2f1
from littlejacobi.susyqm import (
    PARITY_BAND,
    PhiPoly,
    SchrodingerParams,
    WellGrid,
    apply_H1,
    apply_L1,
    default_grid,
    eigenstate,
    h1_band,
    l1_band,
    node_count,
    potential,
    sign_changes,
)
from littlejacobi.susyqm import _pieces  # the jets take a point's pieces
from littlejacobi.verify import SuiteOptions, run_suites

A = Fraction(3, 2)
GRID = default_grid(200)


def _h1_images(well, f):
    # (H1 f)(y) = -f''(y) + U(y) f(y) from the grid's jets
    return [-f2 + u * f0 for u, (f0, _, f2) in zip(well.potential, well.jets(f))]


def test_potential_values():
    assert abs(potential(A, math.pi / 6) - 4.0) < 1e-12
    assert abs(potential(A, 0.0) - (float(A) + 0.5) ** 2) < 1e-15
    # the walls are infinitely high
    assert potential(A, math.pi / 2 - 1e-6) > 1e10


def test_domain_validation():
    with pytest.raises(ValueError, match="inside"):
        potential(A, math.pi / 2)
    with pytest.raises(ValueError, match="exceed 1/2"):
        potential(Fraction(1, 2), 0.0)
    with pytest.raises(ValueError, match="exceed 1/2"):
        eigenstate(Fraction(1, 4), 0)


def test_schrodinger_params():
    sp = SchrodingerParams(Fraction(3, 2))
    assert sp.family == ParamPair(0, 4)
    with pytest.raises(ValueError):
        SchrodingerParams(Fraction(1, 2))


def test_ground_state_values():
    # psi_0 is Phi(y) = sqrt(1 + sin y) cos^(a+1/2) y itself
    ground = eigenstate(A, 0)
    assert ground.poly == Poly.ONE
    edge = math.pi / 2 - 1e-3
    at_origin, at_left, at_right = WellGrid(A, (0.0, -edge, edge)).values(ground)
    assert at_origin == ground.value(0.0) == 1.0
    # vanishes toward both walls
    assert abs(at_left) < 1e-4
    assert abs(at_right) < 1e-4


def test_first_excited_value_at_origin():
    assert abs(eigenstate(A, 1).value(0.0) + 0.2) < 1e-15


def test_state_polynomial_is_family_member():
    # the polynomial factor in sin y, made monic, is the alpha = 0,
    # beta = 2a+1 family member -- exactly, coefficient by coefficient --
    # and it equals 1 at sin y = 1: it is 2F1(-n, n+2a+2; a+1; (1-s)/2),
    # the standard Jacobi polynomial at (a, a+1)
    half_one_minus_s = Poly([Fraction(1, 2), Fraction(-1, 2)])
    for a in (Fraction(7, 10), Fraction(51, 100), A, Fraction(1000)):
        family = ParamPair(Fraction(0), 2 * a + 1)
        for n in range(7):
            poly = eigenstate(a, n).poly
            assert poly.degree == n
            assert poly(Fraction(1)) == 1
            assert poly / poly.leading_coefficient == generate_monic(family, n)
            assert poly == terminating_2f1(-n, n + 2 * a + 2, a + 1).compose(half_one_minus_s)


def test_derivatives_against_finite_differences():
    state = eigenstate(A, 3)
    h = 1e-3
    for y in (-1.2, -0.5, 0.0, 0.4, 1.1):
        num_d1 = (state.value(y + h) - state.value(y - h)) / (2 * h)
        num_d2 = (state.value(y + h) - 2 * state.value(y) + state.value(y - h)) / (h * h)
        assert abs(state.d1(y) - num_d1) < 1e-4
        assert abs(state.d2(y) - num_d2) < 1e-3


def test_L1_eigen_relation():
    for n in range(6):
        state = eigenstate(A, n)
        values = [state.value(y) for y in GRID]
        peak = max(abs(v) for v in values)
        target = (-1.0) ** (n + 1) * (float(A) + n + 1.0)
        worst = max(
            abs(apply_L1(A, state, y) - target * v) / peak
            for y, v in zip(GRID, values)
        )
        assert worst < 1e-8


def test_H1_eigen_relation():
    for n in range(6):
        state = eigenstate(A, n)
        values = [state.value(y) for y in GRID]
        peak = max(abs(v) for v in values)
        e_n = (float(A) + n + 1.0) ** 2
        worst = max(
            abs(apply_H1(A, state, y) - e_n * v) / peak
            for y, v in zip(GRID, values)
        )
        assert worst < 1e-8


@pytest.mark.parametrize("a", [A, Fraction(5, 7), Fraction(100)], ids=str)
def test_grid_images_equal_phi_times_band_images(a):
    # verify proves L1 and H1 on bands; this ties the float evaluators to
    # them: Phi times the band image of p is apply_L1's and the grid's H1 image
    rng = random.Random(6)
    well = WellGrid(a, (-1.2, -0.5, 0.0, 0.4, 1.1))
    for _ in range(20):
        p = Poly([Fraction(rng.randint(-30, 30), rng.randint(1, 10)) for _ in range(7)])
        f = PhiPoly(a, p)
        l1_images = [apply_L1(a, f, y) for y in well.ys]
        for band, images in ((l1_band(a), l1_images), (h1_band(a), _h1_images(well, f))):
            expected = well.values(PhiPoly(a, band.table(p.degree).apply(p)))
            for image, value in zip(images, expected):
                assert abs(image - value) <= 1e-12 * max(1.0, abs(image))


def test_factorization_conditions_hold():
    # chi^2 + chi' = U(y) and chi^2 - chi' = U(-y); their sum and
    # difference are the even and odd parts of U
    for y in GRID:
        chi, chi_prime = _chi_ref(A, y)
        u_plus, u_minus = potential(A, y), potential(A, -y)
        scale = max(1.0, u_plus, u_minus, chi * chi)
        assert abs(chi * chi + chi_prime - u_plus) / scale <= 1e-10
        assert abs(chi * chi - chi_prime - u_minus) / scale <= 1e-10


def _susy_rows():
    return {r.name.split(" a=")[0]: r for r in run_suites(["susy"], SuiteOptions())}


def test_bands_are_the_conjugated_operators():
    # (L1 Phi p)/Phi = -(a+1) p(-s) - (1-s) p'(-s) and
    # (H1 Phi p)/Phi = (a+1)^2 p - (1 - (2a+3)s) p' - (1-s^2) p'', exactly
    rng = random.Random(7)
    for a in (Fraction(51, 100), A, Fraction(100000)):
        for _ in range(10):
            p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)])
            dp = p.derivative()
            l1 = -(a + 1) * reflect(p) - Poly([1, -1]) * reflect(dp)
            h1 = (a + 1) ** 2 * p - Poly([1, -(2 * a + 3)]) * dp - Poly([1, 0, -1]) * dp.derivative()
            assert l1_band(a).table(p.degree).apply(p) == l1
            assert h1_band(a).table(p.degree).apply(p) == h1
            assert PARITY_BAND.table(p.degree).apply(p) == reflect(p)
        assert l1_band(a) @ l1_band(a) == h1_band(a)


def test_factorization_row_detects_parity_violation(monkeypatch):
    # an odd term in U's numerator breaks both refactorizations: U(y)
    # gains it and U(-y) loses it
    exact = susyqm.potential_numerator
    monkeypatch.setattr(
        susyqm, "potential_numerator", lambda a: exact(a) + Poly([0, Fraction(1, 1000)])
    )
    row = _susy_rows()["superpotential factorization"]
    assert not row.passed
    assert row.detail == "chi^2 + chi' != U(y); chi^2 - chi' != U(-y)"


def test_darboux_row_detects_a_sign_error(monkeypatch):
    # B with the sign of its derivative term flipped
    monkeypatch.setattr(
        susyqm,
        "darboux_band",
        lambda a: MULT_X_BAND @ DERIVATIVE_BAND - DERIVATIVE_BAND - (a + 1) * IDENTITY_BAND,
    )
    row = _susy_rows()["Darboux flip"]
    assert not row.passed
    assert row.detail == "L1 differs from ((1-s) d/ds - (a+1)) after the parity flip"


def test_perturbed_l1_band_fails_its_rows(monkeypatch):
    # one more n^2/1000 on the diagonal at even n: zero at n = 0, so the
    # eigen-relation first breaks at n = 2
    exact = susyqm.l1_band
    monkeypatch.setattr(
        susyqm, "l1_band", lambda a: exact(a) + Band({0: [0, 0, Fraction(1, 1000)]}, {})
    )
    rows = _susy_rows()
    for name in ("L1 eigen-relation n<=5", "square root L1^2 = H1", "Darboux flip"):
        assert not rows[name].passed, name
    assert rows["L1 eigen-relation n<=5"].detail == "mismatch at n=2"
    assert rows["H1 eigen-relation n<=5"].passed


@pytest.mark.parametrize(
    "options",
    [SuiteOptions(), SuiteOptions(a=Fraction(100), points=2)],
    ids=["defaults", "a100_points2"],
)
def test_boundary_row_detects_a_sign_error_in_the_h1_image(options, monkeypatch):
    # F'' with its sign flipped: the miss is 2|F''|, as large as the terms
    # themselves, even where Phi < 1 at every point and the miss is tiny
    exact = WellGrid.jets

    def flipped(self, f):
        return [(f0, f1, -f2) for f0, f1, f2 in exact(self, f)]

    monkeypatch.setattr(WellGrid, "jets", flipped)
    [row] = [r for r in run_suites(["susy"], options) if r.name.startswith("Sturm-Liouville")]
    assert not row.passed and not row.skipped
    assert row.detail.startswith("worst residual over its terms 1.000e+00, 0 of ")


def test_susy_suite_takes_no_point_derivative(monkeypatch):
    # the boundary row reads F'' from the grid's jets, whose pieces the
    # grid took once, not from PhiPoly.d2, which retakes them at y
    def refuse(self, y):
        raise AssertionError("PhiPoly.d2 called")

    monkeypatch.setattr(PhiPoly, "d2", refuse)
    rows = run_suites(["susy"], SuiteOptions())
    assert all(r.passed and not r.skipped for r in rows)


def test_darboux_flip_at_origin():
    # level 0 at the symmetric point: the flip returns -(a+1)
    assert abs(apply_L1(A, eigenstate(A, 0), -0.0) + (float(A) + 1.0)) < 1e-10


def test_darboux_flip_magnitude():
    # L1 psi_n = +-(a+n+1) psi_n, read from psi_n at -y: (a+n+1) |psi_n(y)| in size
    for n in range(4):
        state = eigenstate(A, n)
        for y in (-0.4, 0.7, -1.1):
            size = (float(A) + n + 1.0) * abs(state.value(y))
            assert abs(abs(apply_L1(A, state, y)) - size) < 1e-8


def test_conjugation_holds_on_the_grid():
    # H1 (Phi p) = Phi q with q = (a+1)^2 p - S p, exact in Fraction
    well = WellGrid(A, GRID[::10])
    for p in (Poly.ONE, Poly.X, Poly([Fraction(-1, 2), 0, 1])):
        q = (A + 1) ** 2 * p - sturm_liouville_band(A).table(p.degree).apply(p)
        images = _h1_images(well, PhiPoly(A, p))
        for lhs, rhs in zip(images, well.values(PhiPoly(A, q))):
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-8


def _node_count_ref(a, n):
    # the Sturm chain by the recurrence itself, in Fraction at +-1
    family = SchrodingerParams(a).family
    coeffs = [susyqm.recurrence_coeffs(family, k) for k in range(n)]
    changes = []
    for x in (-1, 1):
        chain = [Fraction(0), Fraction(1)]  # P_{-1}, P_0
        for u, b in coeffs:
            chain.append((x - b) * chain[-1] - (u or 0) * chain[-2])
        changes.append(sign_changes(chain[1:]))
    return changes[0] - changes[1]


@pytest.mark.parametrize(
    "a", [Fraction(51, 100), A, Fraction(10**5), Fraction(10**20)], ids=str
)
def test_node_count_equals_the_recurrence_chain(a):
    # the cached members read at +-1 give the chain the recurrence gives
    assert [node_count(a, n) for n in range(61)] == [_node_count_ref(a, n) for n in range(61)]


def test_node_counts():
    for n in range(6):
        assert node_count(A, n) == n
    # exact at any depth: a 400-point grid missed a node at a = 100000
    for a in (Fraction(51, 100), Fraction(100000), Fraction(10**20)):
        assert [node_count(a, n) for n in range(41)] == list(range(41))
    with pytest.raises(ValueError, match="nonnegative"):
        node_count(A, -1)
    with pytest.raises(ValueError, match="exceed 1/2"):
        node_count(Fraction(1, 2), 1)


def test_node_count_refuses_a_chain_that_is_not_sturm(monkeypatch):
    exact = susyqm.recurrence_coeffs

    def negated_u(params, k):
        u, b = exact(params, k)
        return (-u if k else u), b

    monkeypatch.setattr(susyqm, "recurrence_coeffs", negated_u)
    with pytest.raises(ValueError, match="u_k > 0"):
        node_count(A, 3)
    # below n = 2 no u_k enters the chain
    assert node_count(A, 1) == 1


def test_node_count_refuses_a_member_that_vanishes_at_an_end(monkeypatch):
    exact = susyqm.generate_monic
    monkeypatch.setattr(
        susyqm, "generate_monic", lambda params, k: exact(params, k) * Poly([-1, 1])
    )
    with pytest.raises(ValueError, match="P_2 vanishes at 1"):
        node_count(A, 2)


def test_default_grid_properties():
    grid = default_grid(101)
    assert len(grid) == 101
    assert grid[0] == -math.pi / 2 + 1e-3
    assert grid[-1] == pytest.approx(math.pi / 2 - 1e-3)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        default_grid(1)


# -- the grid against closed-form references, point by point -----------------
#
# Each reference applies the closed form to PhiPoly's per-point jets in the
# same order of operations as susyqm, so the grid must equal it bit for bit.


def _u_ref(a, y):
    # U(y) = (a+1/2)(a+1/2 - sin y)/cos^2 y
    a, c = float(a), math.cos(y)
    return (a + 0.5) * (a + 0.5 - math.sin(y)) / (c * c)


def _l1_ref(a, f, y):
    # (L1 f)(y) = -f'(-y) - k f(-y)/cos y, k = a + 1/2
    return -f.d1(-y) - (float(a) + 0.5) * f.value(-y) / math.cos(y)


def _h1_ref(a, f, y):
    # (H1 f)(y) = -f''(y) + U(y) f(y)
    return -f.d2(y) + _u_ref(a, y) * f.value(y)


def _chi_ref(a, y):
    # chi(y) = -(a+1/2)/cos y and chi'(y) = -(a+1/2) sin y/cos^2 y
    k, c = float(a) + 0.5, math.cos(y)
    return -k / c, -k * math.sin(y) / (c * c)


wells = st.fractions(min_value=Fraction(1, 2), max_value=5, max_denominator=11).filter(
    lambda a: a > Fraction(1, 2)
)


@given(wells, st.integers(min_value=0, max_value=9), st.integers(min_value=2, max_value=60))
@settings(max_examples=40, deadline=None)
def test_grid_equals_per_point_evaluation(a, n, points):
    # one set of pieces per point, shared by every state and derivative,
    # must give exactly what the closed forms give point by point
    ys = default_grid(points)
    well = WellGrid(a, ys)
    state = eigenstate(a, n)
    assert well.ys == ys
    assert well.values(state) == [state.value(y) for y in ys]
    for y, here in zip(ys, well._here):
        assert state._jet(here) == (state.value(y), state.d1(y), state.d2(y))
    assert _h1_images(well, state) == [_h1_ref(a, state, y) for y in ys]
    # apply_L1 reads the pieces at -y itself
    assert [apply_L1(a, state, y) for y in ys] == [_l1_ref(a, state, y) for y in ys]
    # the per-point potential and H1 are views of a one-point grid
    y = ys[len(ys) // 2]
    assert potential(a, y) == _u_ref(a, y)
    assert apply_H1(a, state, y) == _h1_ref(a, state, y)


def _separate_jet(state, pieces):
    """The jet of PhiPoly with one plain Horner pass per derivative order."""
    s, c, phi, ell = pieces
    p0 = horner(state._p, s)
    p1 = horner(state._dp, s)
    p2 = horner(state._ddp, s)
    ell_prime = (s - 2.0 * (state.a + 1.0)) / (2.0 * c * c)
    return (
        phi * p0,
        phi * (ell * p0 + c * p1),
        phi * ((ell * ell + ell_prime) * p0 + (2.0 * ell * c - s) * p1 + c * c * p2),
    )


def _signed(values):
    # copysign keeps the sign of a zero, which == ignores
    return [(v, math.copysign(1.0, v)) for v in values]


# degree 0 to 6, the zero polynomial, constants and linear p among them
phi_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=7), max_size=7
).map(Poly)


def _reads(state, order):
    # value takes one pass over p; d1 and d2 read the fused jet
    return (state.value, state.d1, state.d2)[order]


@given(wells, phi_polys, st.integers(min_value=2, max_value=40))
@settings(max_examples=60, deadline=None)
def test_grid_jets_equal_the_point_jets(a, p, points):
    # the grid's jets are PhiPoly's jets at the grid's pieces, and their
    # F column is the grid's values, sign of zero included
    well = WellGrid(a, default_grid(points))
    state = PhiPoly(a, p)
    jets = well.jets(state)
    assert [_signed(jet) for jet in jets] == [_signed(state._jet(here)) for here in well._here]
    assert _signed([jet[0] for jet in jets]) == _signed(well.values(state))


@given(wells, phi_polys, st.floats(min_value=-1.57, max_value=1.57), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_jets_equal_separate_passes(a, p, y, order):
    state = PhiPoly(a, p)
    for point in (y, -y):
        pieces = _pieces(state.a, point)
        separate = _separate_jet(state, pieces)
        assert _signed(state._jet(pieces)) == _signed(separate)
        assert _signed([_reads(state, order)(point)]) == _signed([separate[order]])


@pytest.mark.parametrize("p", [Poly(), Poly.ONE, Poly([2, -3])], ids=["zero", "constant", "linear"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_short_jets_equal_separate_passes(p, order):
    # below degree 2 a derivative of p is empty, and horner(()) at s < 0 is -0.0
    state = PhiPoly(A, p)
    for y in (-1.2, -0.3, 0.4):
        separate = _separate_jet(state, _pieces(state.a, y))
        assert _signed([_reads(state, order)(y)]) == _signed([separate[order]])


@pytest.mark.parametrize(
    "p, pieces, k",
    [(Poly([-1]), (-0.5, 0.5, 1.0, 0.0), 1), (Poly([-1, -2]), (-0.5, 0.5, 1.0, -0.5), 2)],
    ids=["constant", "linear"],
)
def test_empty_derivative_reads_negative_zero(p, pieces, k):
    # (s, c, Phi, ell) chosen so that every other term of F' (constant p)
    # or of F'' (p = -1 - 2s is +0.0 at s = -1/2) is a zero: the jet entry
    # is -0.0 only if the empty p' or p'' reads -0.0, as horner does
    state = PhiPoly(A, p)
    jet = state._jet(pieces)
    assert _signed(jet) == _signed(_separate_jet(state, pieces))
    assert math.copysign(1.0, jet[k]) == -1.0


def test_potential_values_equal_per_point_potential():
    ys = default_grid(41)
    assert list(WellGrid(A, ys).potential) == [_u_ref(A, y) for y in ys]
    assert [potential(A, y) for y in ys] == [_u_ref(A, y) for y in ys]


@given(wells, st.integers(min_value=0, max_value=9))
@settings(max_examples=15, deadline=None)
def test_grid_node_counts_equal_node_count(a, n):
    # a shallow well's nodes are wide enough for a 400-point grid to see
    well = WellGrid(a, default_grid(400))
    assert sign_changes(well.values(eigenstate(a, n))) == node_count(a, n)


def test_grid_refuses_a_state_of_another_well():
    well = WellGrid(A, GRID)
    other = eigenstate(Fraction(5, 2), 1)
    with pytest.raises(ValueError, match="share the well parameter"):
        well.values(other)
    # the per-point operators are grid views, so they refuse it too
    for apply in (apply_L1, apply_H1):
        with pytest.raises(ValueError, match="share the well parameter"):
            apply(A, other, 0.3)
    with pytest.raises(ValueError, match="exceed 1/2"):
        WellGrid(Fraction(1, 2), GRID)
    with pytest.raises(ValueError, match="inside"):
        WellGrid(A, (0.0, math.pi / 2))
