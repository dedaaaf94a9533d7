"""Every verify suite over the admissible parameter square, the sweeps
against the per-n checks, and golden records of the exact suites and
the susy suite."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littlejacobi import cli, family, transforms, verify
from littlejacobi.family import ParamPair, eigenvalue
from littlejacobi.operators import little_jacobi_band
from littlejacobi.polys import Poly
from littlejacobi.verify import SuiteOptions, run_suites

# alpha, beta in (-1, 3] with denominators up to 10
admissible = st.fractions(min_value=-1, max_value=3, max_denominator=10).filter(
    lambda v: v > -1
)


def _known_defect(result):
    # qlimit's two-point error ratio leaves [8, 12] near the boundary and
    # at some interior pairs, a defect of that check, not of the family
    return result.suite == "qlimit" and result.name.startswith("linear convergence")


@settings(max_examples=25, deadline=None)
@given(admissible, admissible, st.integers(min_value=0, max_value=4))
def test_every_suite_passes_or_skips(alpha, beta, n):
    # nothing may raise; every result passes or is skipped (skips keep
    # passed=True), apart from the one known defect
    options = SuiteOptions(pairs=(ParamPair(alpha, beta),), max_degree=n)
    results = run_suites(["all"], options)
    assert [r for r in results if not r.passed and not _known_defect(r)] == []


#: Large alpha, and alpha with beta near -1, where the weight's mass sits
#: within about 1/alpha of x = 1 or 1 - x^2 = 0: quad missed it and the
#: quadrature row read |quad - exact| up to 1.0.  The value is the reason
#: the row skips with, or None where it must pass.
LARGE_ALPHA = {
    ("1000000", "0"): None,
    ("1000000000", "0"): "the weight's normalization loses digits to cancellation",
    ("1000000000000", "0"): "the weight's normalization loses digits to cancellation",
    ("1000000", "50"): None,
    ("50", "1000"): None,
    ("1000", "1000"): None,
    ("50", "-999999/1000000"): None,
    ("1000", "-999999/1000000"): None,
    ("1000000", "-999999/1000000"): "the weight quadrature did not converge",
}


@pytest.mark.parametrize("pair", list(LARGE_ALPHA), ids=lambda p: f"{p[0]},{p[1]}")
def test_every_suite_passes_or_skips_at_large_alpha(pair):
    options = SuiteOptions(pairs=(ParamPair(*map(Fraction, pair)),), max_degree=4)
    results = run_suites(["all"], options)
    assert [r for r in results if not r.passed and not _known_defect(r)] == []
    for r in results:
        if r.skipped:
            assert r.detail.startswith("not applicable: ") and "\n" not in r.detail
    [quad] = [r for r in results if r.name.startswith("weight quadrature")]
    reason = LARGE_ALPHA[pair]
    assert quad.passed
    assert quad.skipped == (reason is not None)
    if reason is not None:
        assert quad.detail == f"not applicable: {reason}"


def test_suite_order_does_not_change_the_results():
    # the suites share the generate_monic and moments caches: from cold
    # caches, running them in another order must give the same records
    options = SuiteOptions(pairs=(ParamPair(Fraction(7, 10), Fraction(5, 3)),))
    runs = []
    for order in (list(verify.SUITES), list(reversed(verify.SUITES))):
        family.generate_monic.cache_clear()
        family.moments.cache_clear()
        runs.append(run_suites(order, options))
    assert runs[0] == runs[1]


# -- sweeps keep the per-n scan's first failure -------------------------------

PAIR = ParamPair(Fraction(1, 2), Fraction(3, 2))
K, N_MAX = 15, 20  # K above the members 0..11 that recurrence extraction reads


def _perturbed(real):
    # P_K of PAIR with its x^(K-1) coefficient off by 1/7; every other
    # member, and every other pair, as the recurrence builds it
    def member(params, n):
        p = real(params, n)
        if params == PAIR and n == K:
            coeffs = list(p.coeffs)
            coeffs[K - 1] += Fraction(1, 7)
            p = Poly(coeffs)
        return p

    return member


def _first_failing(ns, fails):
    return next(n for n in ns if fails(n))


def test_sweeps_report_the_first_failure_of_the_per_n_scan(monkeypatch):
    member = _perturbed(family.generate_monic)
    monkeypatch.setattr(verify, "generate_monic", member)
    monkeypatch.setattr(transforms, "generate_monic", member)

    op_of = lambda n: little_jacobi_band(PAIR.alpha, PAIR.beta).table(n)  # noqa: E731
    per_n = {
        "lowering": _first_failing(
            range(1, N_MAX + 1), lambda n: not transforms.dunkl_classical_check(PAIR, n)
        ),
        "degree raising": _first_failing(
            range(N_MAX + 1), lambda n: not transforms.raising_check(PAIR, n)
        ),
        "Christoffel/Geronimus identification": _first_failing(
            range(N_MAX + 1), lambda n: not transforms.identify_little(PAIR, n)
        ),
        "intertwiner route": _first_failing(
            range(N_MAX + 1), lambda n: not transforms.intertwiner_check(PAIR, n)
        ),
        "L P_n = lambda_n P_n": _first_failing(
            range(N_MAX + 1),
            lambda n: op_of(n).apply(member(PAIR, n)) != eigenvalue(PAIR, n) * member(PAIR, n),
        ),
    }
    assert set(per_n.values()) == {K}

    options = SuiteOptions(pairs=(PAIR,), max_degree=N_MAX)
    results = run_suites(["dunkl", "raising", "transforms", "prop2", "eigen"], options)
    for prefix, n in per_n.items():
        [result] = [r for r in results if r.name.startswith(f"{prefix} n<={N_MAX} (1/2,3/2)")]
        assert not result.passed
        assert result.detail == f"mismatch at n={n}"
    failed = {r.name.split(" n<=")[0] for r in results if not r.passed}
    assert failed == set(per_n)


def _scan(sides, ns):
    # verify's scan of a transforms identity over the degrees ns
    return verify._sweep("scan", "scan", ns, lambda n: not transforms.holds(sides(n)), "exact")


def test_sweep_reports_equal_the_per_n_reports(monkeypatch):
    member = _perturbed(family.generate_monic)
    monkeypatch.setattr(transforms, "generate_monic", member)
    scans = [  # (sides factory, per-n check, first degree)
        (transforms.lowering_sides, transforms.dunkl_classical_check, 1),
        (transforms.raising_sides, transforms.raising_check, 0),
        (transforms.intertwiner_sides, transforms.intertwiner_check, 0),
        (transforms.identification_sides, transforms.identify_little, 0),
    ]
    for sides, check, start in scans:
        assert _scan(sides(PAIR, N_MAX), range(start, N_MAX + 1)).detail == f"mismatch at n={K}"
        assert not check(PAIR, K)
        assert all(check(PAIR, n) for n in range(start, K))
        assert _scan(sides(PAIR, K - 1), range(start, K)).passed
    # the Gegenbauer family never uses the members
    jp = transforms.JacobiParams((PAIR.alpha - 1) / 2, (PAIR.beta - 1) / 2)
    assert _scan(transforms.gegenbauer_lowering_sides(jp, N_MAX), range(1, N_MAX + 1)).passed


# -- golden record of the exact suites ----------------------------------------

# (suite, name, passed, detail) of `verify --n 40 --format json` for the
# suites below, as the Fraction-ring kernels computed them; of the
# orthogonality suite only the exact checks, not the weight quadrature
EXACT_SUITES = ("orthogonality", "eigen", "explicit", "dunkl", "raising", "transforms", "aw", "prop2")
FLOAT_CHECKS = ("weight quadrature",)
GOLDEN_N40 = {
    ("1/2", "3/2"): [
        ("aw", "Casimir Y^2+Z^2 = I (1/2,3/2)", True, "central and equal to identity at every degree"),
        ("aw", "X diagonal on the family n<=12 (1/2,3/2)", True, "eigen-relation exact"),
        ("aw", "anticommutator closure (1/2,3/2)", True, "omega = (0, beta, -1/2); omega3 sign -"),
        ("dunkl", "alpha=0 degeneration T_0 = d/dx", True, "bands agree at every degree"),
        ("dunkl", "lowering n<=40 (1/2,3/2)", True, "exact"),
        ("eigen", "L P_n = lambda_n P_n n<=40 (1/2,3/2)", True, "coefficient-exact"),
        ("eigen", "eigenvalue simplicity n<=50 (1/2,3/2)", True, "pairwise distinct"),
        ("explicit", "hypergeometric = recurrence n<=40 (1/2,3/2)", True, "exact"),
        ("orthogonality", "Hankel positivity n<=8 (1/2,3/2)", True, "moment matrix positive definite"),
        ("orthogonality", "norm product rule n<=40 (1/2,3/2)", True, "norms match u_1..u_n products"),
        ("orthogonality", "pair vanishing n<=40 (1/2,3/2)", True,
         "all cross inner products zero exactly"),
        ("orthogonality", "u_n positivity n<=40 (1/2,3/2)", True, "all u_n > 0"),
        ("prop2", "intertwiner route n<=40 (1/2,3/2)", True, "exact"),
        ("raising", "degree raising n<=40 (1/2,3/2)", True, "exact"),
        ("raising", "degree raising n<=40 (1/2,5/2)", True, "exact"),
        ("transforms", "Christoffel/Geronimus identification n<=40 (1/2,3/2)", True,
         "all three constructions agree"),
        ("transforms", "Gegenbauer Dunkl lowering n<=10 (1/2,3/2)", True, "exact"),
        ("transforms", "Gegenbauer parity n<=20 (1/2,3/2)", True, "S_n(-x) = (-1)^n S_n(x)"),
        ("transforms", "recurrence extraction n<=10 (1/2,3/2)", True, "recovered coefficients match"),
    ],
    ("7/10", "5/3"): [
        ("aw", "Casimir Y^2+Z^2 = I (7/10,5/3)", True, "central and equal to identity at every degree"),
        ("aw", "X diagonal on the family n<=12 (7/10,5/3)", True, "eigen-relation exact"),
        ("aw", "anticommutator closure (7/10,5/3)", True, "omega = (0, beta, -7/10); omega3 sign -"),
        ("dunkl", "alpha=0 degeneration T_0 = d/dx", True, "bands agree at every degree"),
        ("dunkl", "lowering n<=40 (7/10,5/3)", True, "exact"),
        ("eigen", "L P_n = lambda_n P_n n<=40 (7/10,5/3)", True, "coefficient-exact"),
        ("eigen", "eigenvalue simplicity n<=50 (7/10,5/3)", True, "pairwise distinct"),
        ("explicit", "hypergeometric = recurrence n<=40 (7/10,5/3)", True, "exact"),
        ("orthogonality", "Hankel positivity n<=8 (7/10,5/3)", True, "moment matrix positive definite"),
        ("orthogonality", "norm product rule n<=40 (7/10,5/3)", True, "norms match u_1..u_n products"),
        ("orthogonality", "pair vanishing n<=40 (7/10,5/3)", True,
         "all cross inner products zero exactly"),
        ("orthogonality", "u_n positivity n<=40 (7/10,5/3)", True, "all u_n > 0"),
        ("prop2", "intertwiner route n<=40 (7/10,5/3)", True, "exact"),
        ("raising", "degree raising n<=40 (1/2,5/2)", True, "exact"),
        ("raising", "degree raising n<=40 (7/10,5/3)", True, "exact"),
        ("transforms", "Christoffel/Geronimus identification n<=40 (7/10,5/3)", True,
         "all three constructions agree"),
        ("transforms", "Gegenbauer Dunkl lowering n<=10 (7/10,5/3)", True, "exact"),
        ("transforms", "Gegenbauer parity n<=20 (7/10,5/3)", True, "S_n(-x) = (-1)^n S_n(x)"),
        ("transforms", "recurrence extraction n<=10 (7/10,5/3)", True, "recovered coefficients match"),
    ],
}


@pytest.mark.parametrize("pair", list(GOLDEN_N40), ids=lambda p: f"{p[0]},{p[1]}")
def test_exact_suites_golden_record(pair, capsys):
    args = ["verify", "--alpha", pair[0], "--beta", pair[1], "--n", "40", "--format", "json"]
    records = []
    for suite in EXACT_SUITES:
        assert cli.main([*args, "--suite", suite]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        records += [
            (r["suite"], r["name"], r["passed"], r["detail"])
            for r in results
            if not r["name"].startswith(FLOAT_CHECKS)
        ]
    assert sorted(records) == GOLDEN_N40[pair]


# -- golden record of the susy suite ------------------------------------------

# (name, passed, detail) of `verify --suite susy --format json`.  Six rows
# are exact identities; the Sturm-Liouville row is the float boundary, and
# its residual is the worst miss of the grid's H1 images, each over the
# size of its terms
FLIP = "L1 = ((1-s) d/ds - (a+1)) after the parity flip, at every degree"
FACTORED = "chi^2 +- chi' = U(+-y) exactly, over cos^2 y"
GOLDEN_SUSY = {
    (): [
        ("Darboux flip a=3/2", True, FLIP),
        ("H1 eigen-relation n<=5 a=3/2", True, "coefficient-exact"),
        ("L1 eigen-relation n<=5 a=3/2", True, "coefficient-exact"),
        ("Sturm-Liouville conjugation a=3/2", True, "worst residual over its terms 4.466e-16, 0 of 60 points skipped"),
        ("node counts n<=5 a=3/2", True, "psi_n crosses zero exactly n times"),
        ("square root L1^2 = H1 a=3/2", True, "bands agree at every degree"),
        ("superpotential factorization a=3/2", True, FACTORED),
    ],
    ("--a", "7/10", "--points", "333", "--levels", "8"): [
        ("Darboux flip a=7/10", True, FLIP),
        ("H1 eigen-relation n<=8 a=7/10", True, "coefficient-exact"),
        ("L1 eigen-relation n<=8 a=7/10", True, "coefficient-exact"),
        ("Sturm-Liouville conjugation a=7/10", True, "worst residual over its terms 5.299e-16, 0 of 63 points skipped"),
        ("node counts n<=8 a=7/10", True, "psi_n crosses zero exactly n times"),
        ("square root L1^2 = H1 a=7/10", True, "bands agree at every degree"),
        ("superpotential factorization a=7/10", True, FACTORED),
    ],
    ("--a", "3", "--levels", "9"): [
        ("Darboux flip a=3", True, FLIP),
        ("H1 eigen-relation n<=9 a=3", True, "coefficient-exact"),
        ("L1 eigen-relation n<=9 a=3", True, "coefficient-exact"),
        ("Sturm-Liouville conjugation a=3", True, "worst residual over its terms 2.261e-16, 0 of 60 points skipped"),
        ("node counts n<=9 a=3", True, "psi_n crosses zero exactly n times"),
        ("square root L1^2 = H1 a=3", True, "bands agree at every degree"),
        ("superpotential factorization a=3", True, FACTORED),
    ],
}


@pytest.mark.parametrize("options", list(GOLDEN_SUSY), ids=lambda o: " ".join(o) or "defaults")
def test_susy_suite_golden_record(options, capsys):
    assert cli.main(["verify", "--suite", "susy", "--format", "json", *options]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert all(r["suite"] == "susy" for r in results)
    assert [(r["name"], r["passed"], r["detail"]) for r in results] == GOLDEN_SUSY[options]
