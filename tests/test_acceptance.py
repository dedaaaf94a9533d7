"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
criterion that has a ``verify`` suite is judged by that suite at its
pinned defaults (the three default parameter pairs), so the CLI and this
gate run one implementation of each check.  Each suite runs once per
test run; its wall time is held to the criterion's timing gate.
"""

import time
from fractions import Fraction
from functools import cache

import pytest

from littlejacobi.eigensolver import build_solution, sample_rows
from littlejacobi.family import ParamPair, eigenvalue
from littlejacobi.verify import DEFAULT_PAIRS, SuiteOptions, run_suites


def _closed_form_eigenvalues():
    """lambda_n = -2n for even n and 2(alpha+beta+n+1) for odd n, n <= 20."""
    return all(
        eigenvalue(params, n) == (2 * (params.alpha + params.beta + n + 1) if n % 2 else -2 * n)
        for params in DEFAULT_PAIRS
        for n in range(21)
    )


# criterion, suite, prefixes of the check names it requires, timing gate in
# seconds (None: untimed), what the PASS line states, and an extra check of
# the criterion that no suite makes (None: none)
CRITERIA = [
    (1, "orthogonality", ("pair vanishing n<=20", "norm product rule n<=20"), 5.0,
     "pairwise orthogonality and norm products exact, n <= 20, 3 parameter pairs", None),
    (2, "eigen", ("L P_n = lambda_n P_n n<=20",), 2.0,
     "operator eigen-identity coefficient-exact with even/odd eigenvalues, n <= 20",
     _closed_form_eigenvalues),
    (3, "explicit", ("hypergeometric = recurrence n<=12",), None,
     "hypergeometric construction equals recurrence exactly, n <= 12", None),
    (4, "dunkl", ("lowering n<=12", "alpha=0 degeneration T_0 = d/dx"), None,
     "generalized derivative lowers exactly to the beta+2 family, n <= 12; "
     "alpha = 0 collapses to d/dx at every degree", None),
    (5, "raising", ("degree raising n<=10 (1/2,5/2)",), None,
     "raising operator lands on the beta-2 family exactly, n <= 10", None),
    (6, "transforms", ("Christoffel/Geronimus identification n<=12",), None,
     "Christoffel quotient and two-term Geronimus combination (second parameter "
     "shifted by one) both reproduce the family exactly, n <= 12", None),
    (7, "prop2", ("intertwiner route n<=10 (1,1)", "intertwiner route n<=10 (1/2,3/2)"), None,
     "scaled intertwiner image of standard Jacobi matches, n <= 10", None),
    (8, "aw", ("anticommutator closure", "Casimir Y^2+Z^2 = I"), None,
     "anticommutator relations exact at every degree: scalars 0, beta and "
     "-alpha; squares sum to the identity", None),
    (10, "qlimit", ("linear convergence n<=10 (1/2,3/2)",), None,
     "deformed recurrence errors scale linearly: coarse/fine ratio in [8, 12] for n <= 10", None),
    (11, "orthogonality", ("weight quadrature k<=8 (1/2,3/2)",), 5.0,
     "quadrature of the weight reproduces exact moments, k <= 8", None),
    (13, "susy", ("L1 eigen-relation", "H1 eigen-relation", "square root L1^2 = H1",
                  "superpotential factorization"), 3.0,
     "square-root operator and Hamiltonian eigen-relations, operator square, "
     "and superpotential factorization all hold exactly", None),
]


@cache
def _suite(name):
    start = time.perf_counter()
    results = run_suites([name], SuiteOptions())
    return results, time.perf_counter() - start


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.mark.parametrize(
    "number, suite, prefixes, seconds, claim, extra",
    CRITERIA,
    ids=[f"criterion_{c[0]:02d}" for c in CRITERIA],
)
def test_suite_criterion(number, suite, prefixes, seconds, claim, extra):
    results, elapsed = _suite(suite)
    checks = [r for r in results if r.name.startswith(prefixes)]
    ok = all(any(r.name.startswith(p) for r in checks) for p in prefixes)
    ok = ok and all(r.passed for r in checks)
    ok = ok and (extra is None or extra())
    timing = ""
    if seconds is not None:
        ok = ok and elapsed < seconds
        timing = f", {suite} suite {elapsed:.2f}s < {seconds:g}s"
    details = "; ".join(dict.fromkeys(r.detail for r in checks))
    _report(number, ok, f"{claim}{timing} [{len(checks)} checks: {details}]")


def test_criterion_09_sturm_liouville_identities():
    # with L = little_jacobi_band(0, 2a+1) and S = sturm_liouville_band(a),
    # the susy suite's l1 = L/2 - (a+1) and h1 = (a+1)^2 - S, so its band
    # identity L1^2 = H1 is L^2 - 4(a+1) L + 4 S = 0 at every degree
    rows = [
        r
        for a in (Fraction(3, 2), Fraction(5, 2))
        for r in run_suites(["susy"], SuiteOptions(a=a))
        if r.name.startswith("square root L1^2 = H1")
    ]
    ok = len(rows) == 2 and all(r.passed for r in rows)
    _report(
        9,
        ok,
        "alpha = 0 operator L and Sturm-Liouville operator S satisfy the exact "
        "quadratic relation L^2 - 4(a+1)L + 4S = 0 (the susy rows L1^2 = H1) at "
        "every degree, a = 3/2 and 5/2; so S is a polynomial in L and commutes "
        f"with it [{'; '.join(f'{r.name}: {r.detail}' for r in rows)}]",
    )


def test_criterion_12_general_solution_residuals():
    xs = (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)
    ok = True
    worst = 0.0
    for pair in ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))):
        params = ParamPair(*pair)
        lams = (1.3, -4.0, 2.0 * (float(params.beta) + 1.0))
        for lam in lams:
            # 19 points step by 0.1 from -0.9, through xs
            rows = sample_rows(params, lam, 19)
            ok = ok and {round(row["x"], 12) for row in rows} >= set(xs)
            worst = max(worst, *(row["residual"] for row in rows))
        solution = build_solution(params, 1.3)
        for x in xs:
            ok = ok and abs(solution.g(x) + solution.g(-x)) < 1e-12
    ok = ok and worst < 1e-10
    _report(
        12,
        ok,
        f"second-order residuals on 19-point grids over [-0.9, 0.9] below 1e-10 "
        f"(worst {worst:.2e}) including the elementary eigenvalue; odd component "
        "exactly parity-odd",
    )
