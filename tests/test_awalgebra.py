"""Anticommutator closure of the (X, Y, Z) operator triple."""

from fractions import Fraction

import pytest

from littlejacobi import verify
from littlejacobi.awalgebra import (
    AWStructure,
    band_relations,
    generator_bands,
    generators,
    verify_casimir,
    verify_relations,
    x_eigenvalue,
)
from littlejacobi.family import ParamPair, generate_monic
from littlejacobi.operators import (
    IDENTITY_BAND,
    Band,
    BandedOp,
    TruncationError,
    anticommutator,
    little_jacobi_band,
)
from littlejacobi.polys import Poly

PAIRS = [
    ParamPair(Fraction(1, 2), Fraction(3, 2)),
    ParamPair(Fraction(0), Fraction(2)),
    ParamPair(Fraction(1), Fraction(1)),
]


def test_generator_actions_on_low_monomials():
    params = ParamPair(Fraction(1), Fraction(2))
    x_op, y_op, z_op = generators(params, 6)
    assert y_op.apply(Poly.X) == Poly([0, 0, 1])
    # Z = (x-1)R: constants go to x-1, x goes to x-x^2
    assert z_op.apply(Poly.ONE) == Poly([-1, 1])
    assert z_op.apply(Poly.X) == Poly([0, 1, -1])
    # X annihilates the family's constant up to its diagonal shift
    assert x_op.apply(Poly.ONE) == Poly([-(1 + params.alpha + params.beta) / 2])


@pytest.mark.parametrize("params", PAIRS, ids=str)
def test_structure_constants(params):
    structure = verify_relations(params, 24)
    assert structure.omega1 == 0
    assert structure.omega2 == params.beta
    assert abs(structure.omega3) == params.alpha
    # observed sign: the scalar is -alpha in this realization
    assert structure.omega3 == -params.alpha
    assert structure.casimir_is_identity


def test_yz_anticommutator_vanishes_directly():
    _, y_op, z_op = generators(PAIRS[0], 16)
    assert anticommutator(y_op, z_op).scalar() == 0


def test_casimir_is_identity():
    for params in PAIRS:
        assert verify_casimir(params, 20)
        _, y_op, z_op = generators(params, 20)
        casimir = y_op @ y_op + z_op @ z_op
        assert casimir.actions == IDENTITY_BAND.table(casimir.trunc_degree).actions


def test_x_diagonal_on_family():
    for params in PAIRS:
        x_op = generators(params, 24)[0]
        for n in range(13):
            member = generate_monic(params, n)
            assert x_op.apply(member) == x_eigenvalue(params, n) * member


def test_x_eigenvalue_values():
    params = ParamPair(Fraction(0), Fraction(0))
    assert x_eigenvalue(params, 0) == Fraction(-1, 2)
    # odd n: (2(alpha+beta+n+1) - (1+alpha+beta))/2
    assert x_eigenvalue(params, 1) == Fraction(3, 2)


# -- the relations on bands, at every degree ---------------------------------

BAND_PAIRS = [
    ParamPair(Fraction(1, 2), Fraction(3, 2)),
    ParamPair(Fraction(7, 10), Fraction(5, 3)),
    ParamPair(Fraction(-9, 10), Fraction(-9, 10)),
    ParamPair(Fraction(0), Fraction(0)),
]


@pytest.mark.parametrize("params", BAND_PAIRS, ids=str)
def test_band_relations_hold_at_every_degree(params):
    structure = band_relations(*generator_bands(params))
    assert structure == AWStructure(0, params.beta, -params.alpha, True)


@pytest.mark.parametrize("n", [2, 12, 24])
@pytest.mark.parametrize("params", BAND_PAIRS, ids=str)
def test_bands_and_tables_give_the_same_structure(params, n):
    # one function reads both forms; the tables' degrees give the same
    # constants and Casimir status as every degree
    assert band_relations(*generators(params, n)) == band_relations(*generator_bands(params))


@pytest.mark.parametrize("n", [0, 1])
def test_relations_need_tables_of_degree_two(n):
    # Y @ Z on tables of degree 0 or 1 keeps no trusted degree
    with pytest.raises(TruncationError):
        verify_relations(BAND_PAIRS[0], n)


@pytest.mark.parametrize("n", [0, 1, 24, 257])
@pytest.mark.parametrize("params", BAND_PAIRS, ids=str)
def test_generator_tables_match_the_monomial_references(params, n):
    # X = L/2 - (1+alpha+beta)/2 I through the table algebra, Y = x, and
    # Z = (x-1)R from its monomial action
    alpha, beta = params.alpha, params.beta
    x_ref = Fraction(1, 2) * little_jacobi_band(alpha, beta).table(n) + Fraction(
        -(1 + alpha + beta), 2
    ) * IDENTITY_BAND.table(n)
    y_ref = BandedOp.from_monomial(n, lambda k: {k + 1: 1})
    z_ref = BandedOp.from_monomial(n, lambda k: {k + 1: (-1) ** k, k: -((-1) ** k)})
    for table, reference in zip(generators(params, n), (x_ref, y_ref, z_ref)):
        assert table.actions == reference.actions
        assert table.max_raise == reference.max_raise


#: the two forms of an operator: its band, and its table at degree 24
FORMS = [
    pytest.param(lambda band: band, id="band"),
    pytest.param(lambda band: band.table(24), id="table"),
]


@pytest.mark.parametrize("form", FORMS)
def test_perturbed_z_breaks_every_closure(form):
    # adding n/1000 to Z's odd-degree diagonal leaves no residual scalar
    params = BAND_PAIRS[1]
    x_band, y_band, z_band = generator_bands(params)
    x_op, y_op = form(x_band), form(y_band)
    z_bad = form(z_band + Band({}, {0: [0, Fraction(1, 1000)]}))
    residuals = [
        anticommutator(y_op, z_bad),
        anticommutator(z_bad, x_op) - y_op,
        anticommutator(x_op, y_op) - z_bad,
    ]
    assert [r.scalar() for r in residuals] == [None, None, None]
    with pytest.raises(RuntimeError, match="not a scalar multiple"):
        band_relations(x_op, y_op, z_bad)


def test_wrong_omega2_is_detected(monkeypatch):
    params = BAND_PAIRS[1]
    x_band, y_band, z_band = generator_bands(params)
    residual = anticommutator(z_band, x_band) - y_band
    assert residual - params.beta * IDENTITY_BAND == Band({}, {})
    assert residual - (params.beta + Fraction(1, 1000)) * IDENTITY_BAND != Band({}, {})
    # the suite's closure row compares the constants with (0, beta, -alpha)
    right = band_relations(x_band, y_band, z_band)
    wrong = AWStructure(right.omega1, right.omega2 + Fraction(1, 1000), right.omega3, True)
    monkeypatch.setattr(verify, "band_relations", lambda *bands: wrong)
    [closure] = [
        r
        for r in verify.run_suites(["aw"], verify.SuiteOptions(pairs=(params,)))
        if r.name.startswith("anticommutator closure")
    ]
    assert not closure.passed


@pytest.mark.parametrize("form", FORMS)
def test_casimir_band_is_an_exact_equality(form):
    # Y^2 + Z^2 is the identity; a Y off by I/2 moves it off
    params = BAND_PAIRS[0]
    x_band, y_band, z_band = generator_bands(params)
    x_op, y_op, z_op = form(x_band), form(y_band), form(z_band)
    assert (y_op @ y_op + z_op @ z_op).scalar() == 1
    y_shifted = form(y_band + Fraction(1, 2) * IDENTITY_BAND)
    assert (y_shifted @ y_shifted + z_op @ z_op).scalar() != 1
    # 2Y and 2Z still close, with omega_2 and omega_3 doubled, but their
    # Casimir is 4 I
    doubled = band_relations(x_op, 2 * y_op, 2 * z_op)
    assert doubled == AWStructure(0, 2 * params.beta, -2 * params.alpha, False)


def _casimir_rule_with_commutators(x_op, y_op, z_op):
    # the rule before centrality was read off Y^2 + Z^2 = I: the Casimir is
    # the identity and its commutators with X, Y and Z are zero
    casimir = y_op @ y_op + z_op @ z_op
    return casimir.scalar() == 1 and all(
        (casimir @ gen - gen @ casimir).scalar() == 0 for gen in (x_op, y_op, z_op)
    )


@pytest.mark.parametrize(
    "form",
    FORMS
    + [
        pytest.param(lambda band: band.table(2), id="table2"),
        pytest.param(lambda band: band.table(12), id="table12"),
    ],
)
@pytest.mark.parametrize("params", BAND_PAIRS, ids=str)
def test_casimir_status_needs_no_commutators(params, form):
    # Y^2 + Z^2 = I commutes with everything, so dropping the commutators
    # changes no Casimir status, on bands and on tables
    x_band, y_band, z_band = generator_bands(params)
    x_op, y_op, z_op = form(x_band), form(y_band), form(z_band)
    assert band_relations(x_op, y_op, z_op).casimir_is_identity
    assert _casimir_rule_with_commutators(x_op, y_op, z_op)
    # 2Y and 2Z close with a Casimir of 4 I: both rules say no
    doubled = band_relations(x_op, 2 * y_op, 2 * z_op)
    assert not doubled.casimir_is_identity
    assert not _casimir_rule_with_commutators(x_op, 2 * y_op, 2 * z_op)
    # Y + I/2 leaves YZ+ZY non-scalar, so the triple does not close; its
    # Casimir (Y + I/2)^2 + Z^2 is not the identity by either rule
    y_shifted = form(y_band + Fraction(1, 2) * IDENTITY_BAND)
    with pytest.raises(RuntimeError, match="not a scalar multiple"):
        band_relations(x_op, y_shifted, z_op)
    assert (y_shifted @ y_shifted + z_op @ z_op).scalar() != 1
    assert not _casimir_rule_with_commutators(x_op, y_shifted, z_op)
