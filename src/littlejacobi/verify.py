"""Named verification suites: the one implementation of every check.

Each suite runs a batch of exact or residual checks and returns plain
CheckResult records; the CLI decides formatting and exit codes, and the
acceptance tests judge their criteria by these same suites at the
default SuiteOptions.  Suites accept a SuiteOptions bundle so callers
can widen or narrow the sweep.  A check name is stable: callers select
and classify checks by it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional, Sequence

from . import susyqm
from .awalgebra import generators as aw_generators
from .awalgebra import verify_relations, x_eigenvalue
from .family import (
    ParamPair,
    eigenvalue,
    explicit_poly,
    generate_monic,
    moments,
    qlimit_error,
    recurrence_coeffs,
    weight_moment,
)
from .operators import (
    derivative,
    dunkl_derivative,
    little_jacobi_operator,
    op_equal,
)
from .polys import Poly, reflect
from .transforms import (
    JacobiParams,
    dunkl_classical_check,
    extract_recurrence,
    gegenbauer_dunkl_check,
    identify_little,
    intertwiner_check,
    raising_check,
    symmetric_gegenbauer,
)

__all__ = [
    "CheckResult",
    "DEFAULT_PAIRS",
    "SUITE_NAMES",
    "SuiteOptions",
    "run_suites",
]

DEFAULT_PAIRS = (
    ParamPair(Fraction(1, 2), Fraction(3, 2)),
    ParamPair(Fraction(0), Fraction(2)),
    ParamPair(Fraction(1), Fraction(1)),
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    #: A check that does not apply to its inputs; it keeps passed=True so
    #: that no consumer counts it as a failure.
    skipped: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteOptions:
    pairs: tuple[ParamPair, ...] = DEFAULT_PAIRS
    max_degree: Optional[int] = None
    a: Fraction = Fraction(3, 2)
    levels: int = 5
    points: int = 200
    epsilons: tuple[float, ...] = (1e-3, 1e-4)

    def __post_init__(self):
        # an empty sweep would pass every check vacuously
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if self.levels < 0:
            raise ValueError("levels must be nonnegative")

    def degree(self, default: int) -> int:
        return self.max_degree if self.max_degree is not None else default


def _tag(params: ParamPair) -> str:
    return f"({params.alpha},{params.beta})"


def _sweep(suite, name, ns, fails, ok, bad="mismatch at n={}") -> CheckResult:
    """Pass when ``fails(n)`` is false for every n in ns; otherwise report
    the first failing n through the ``bad`` template."""
    first = next((n for n in ns if fails(n)), None)
    return CheckResult(suite, name, first is None, ok if first is None else bad.format(first))


def _suite_orthogonality(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(20)
    for params in opts.pairs:
        # the Hankel check reads moments up to 16 and the quadrature up to 8
        mf = moments(params, max(2 * n_max, 16))
        gram = mf.gram([generate_monic(params, k) for k in range(n_max + 1)])

        witness = next(
            (
                f"<P_{n}, P_{m}> = {gram[n][m]}"
                for n in range(1, n_max + 1)
                for m in range(n)
                if gram[n][m] != 0
            ),
            "",
        )
        results.append(
            CheckResult(
                "orthogonality",
                f"pair vanishing n<={n_max} {_tag(params)}",
                not witness,
                witness or "all cross inner products zero exactly",
            )
        )
        # u[n] for n >= 1; norms[n] = u_1 ... u_n as one running product
        u = [None] + [recurrence_coeffs(params, n)[0] for n in range(1, n_max + 1)]
        norms = list(accumulate(u[1:], operator.mul, initial=Fraction(1)))
        results.append(
            _sweep(
                "orthogonality",
                f"norm product rule n<={n_max} {_tag(params)}",
                range(n_max + 1),
                lambda n: gram[n][n] != norms[n],
                "norms match u_1..u_n products",
            )
        )
        results.append(
            _sweep(
                "orthogonality",
                f"u_n positivity n<={n_max} {_tag(params)}",
                range(1, n_max + 1),
                lambda n: u[n] <= 0,
                "all u_n > 0",
                "u_{} not positive",
            )
        )
        results.append(
            _sweep(
                "orthogonality",
                f"Hankel positivity n<=8 {_tag(params)}",
                range(9),
                lambda n: mf.hankel_determinant(n) <= 0,
                "moment matrix positive definite",
                "Delta_{} <= 0",
            )
        )

        worst = max(
            abs(weight_moment(params, k) - float(mf.c(k))) for k in range(9)
        )
        results.append(
            CheckResult(
                "orthogonality",
                f"weight quadrature k<=8 {_tag(params)}",
                worst < 1e-8,
                f"worst |quad - exact| = {worst:.3e}",
            )
        )
    return results


def _suite_eigen(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(20)
    for params in opts.pairs:
        op = little_jacobi_operator(params.alpha, params.beta, n_max)
        results.append(
            _sweep(
                "eigen",
                f"L P_n = lambda_n P_n n<={n_max} {_tag(params)}",
                range(n_max + 1),
                lambda n: op.apply(generate_monic(params, n))
                != eigenvalue(params, n) * generate_monic(params, n),
                "coefficient-exact",
            )
        )

        values = [eigenvalue(params, n) for n in range(51)]
        simple = len(set(values)) == len(values)
        results.append(
            CheckResult(
                "eigen",
                f"eigenvalue simplicity n<=50 {_tag(params)}",
                simple,
                "pairwise distinct" if simple else "repeated eigenvalue",
            )
        )
    return results


def _suite_explicit(opts: SuiteOptions) -> list[CheckResult]:
    n_max = opts.degree(12)
    return [
        _sweep(
            "explicit",
            f"hypergeometric = recurrence n<={n_max} {_tag(params)}",
            range(n_max + 1),
            lambda n: explicit_poly(params, n) != generate_monic(params, n),
            "exact",
        )
        for params in opts.pairs
    ]


def _suite_dunkl(opts: SuiteOptions) -> list[CheckResult]:
    n_max = opts.degree(12)
    results = [
        _sweep(
            "dunkl",
            f"lowering n<={n_max} {_tag(params)}",
            range(1, n_max + 1),
            lambda n: not dunkl_classical_check(params, n).holds,
            "exact",
        )
        for params in opts.pairs
    ]
    # mu = alpha/2 = 0 degenerates the reflection term: plain derivative,
    # on the whole truncation window
    report = op_equal(dunkl_derivative(0, 30), derivative(30))
    results.append(
        CheckResult(
            "dunkl",
            "alpha=0 degeneration T_0 = d/dx",
            report.holds and report.safe_degree == 30,
            f"tables agree through degree {report.safe_degree}",
        )
    )
    return results


def _suite_raising(opts: SuiteOptions) -> list[CheckResult]:
    n_max = opts.degree(10)
    pairs = [p for p in opts.pairs if p.beta > 1]
    anchor = ParamPair(Fraction(1, 2), Fraction(5, 2))
    if anchor not in pairs:
        pairs.append(anchor)
    return [
        _sweep(
            "raising",
            f"degree raising n<={n_max} {_tag(params)}",
            range(n_max + 1),
            lambda n: not raising_check(params, n).holds,
            "exact",
        )
        for params in pairs
    ]


def _suite_transforms(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(12)
    for params in opts.pairs:
        jp = JacobiParams((params.alpha - 1) / 2, (params.beta - 1) / 2)
        seq = [generate_monic(params, k) for k in range(12)]
        results += [
            _sweep(
                "transforms",
                f"Christoffel/Geronimus identification n<={n_max} {_tag(params)}",
                range(n_max + 1),
                lambda n: not identify_little(params, n).holds,
                "all three constructions agree",
            ),
            _sweep(
                "transforms",
                f"Gegenbauer parity n<=20 {_tag(params)}",
                range(21),
                lambda n: reflect(symmetric_gegenbauer(jp, n))
                != (-1) ** n * symmetric_gegenbauer(jp, n),
                "S_n(-x) = (-1)^n S_n(x)",
                "parity broken at n={}",
            ),
            _sweep(
                "transforms",
                f"Gegenbauer Dunkl lowering n<=10 {_tag(params)}",
                range(1, 11),
                lambda n: not gegenbauer_dunkl_check(jp, n).holds,
                "exact",
            ),
            _sweep(
                "transforms",
                f"recurrence extraction n<=10 {_tag(params)}",
                range(1, 11),
                lambda n: extract_recurrence(seq, n) != recurrence_coeffs(params, n),
                "recovered coefficients match",
            ),
        ]
    return results


def _suite_aw(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    for params in opts.pairs:
        structure = verify_relations(params, 24)
        ok = (
            structure.omega1 == 0
            and structure.omega2 == params.beta
            and structure.omega3 == -params.alpha
        )
        sign = {1: "+", -1: "-", 0: "0"}[structure.omega3_sign]
        x_op = aw_generators(params, 24)[0]
        results += [
            CheckResult(
                "aw",
                f"anticommutator closure {_tag(params)}",
                ok,
                f"omega = (0, beta, {structure.omega3}); omega3 sign {sign}",
            ),
            CheckResult(
                "aw",
                f"Casimir Y^2+Z^2 = I {_tag(params)}",
                structure.casimir_is_identity,
                "central and equal to identity at N=24",
            ),
            _sweep(
                "aw",
                f"X diagonal on the family n<=12 {_tag(params)}",
                range(13),
                lambda n: x_op.apply(generate_monic(params, n))
                != x_eigenvalue(params, n) * generate_monic(params, n),
                "eigen-relation exact",
            ),
        ]
    return results


def _suite_prop2(opts: SuiteOptions) -> list[CheckResult]:
    n_max = opts.degree(10)
    pairs = opts.pairs if opts.pairs != DEFAULT_PAIRS else (
        ParamPair(Fraction(1), Fraction(1)),
        ParamPair(Fraction(1, 2), Fraction(3, 2)),
    )
    results = []
    for params in pairs:
        name = f"intertwiner route n<={n_max} {_tag(params)}"
        if params.alpha + params.beta <= -1:
            # the Jacobi pair (xi, xi+1) leaves the admissible range
            results.append(
                CheckResult(
                    "prop2",
                    name,
                    True,
                    "not applicable: the intertwiner route needs alpha + beta > -1",
                    skipped=True,
                )
            )
            continue
        results.append(
            _sweep(
                "prop2",
                name,
                range(n_max + 1),
                lambda n: not intertwiner_check(params, n).holds,
                "exact",
            )
        )
    return results


def _suite_qlimit(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(10)
    eps_hi, eps_lo = opts.epsilons[0], opts.epsilons[-1]
    if eps_hi <= eps_lo:
        raise ValueError("epsilon list must go from coarse to fine")
    for params in opts.pairs:
        ratios, bad = [], ""
        for n in range(n_max + 1):
            du_hi, db_hi = qlimit_error(params, n, eps_hi)
            du_lo, db_lo = qlimit_error(params, n, eps_lo)
            errors = [(db_hi, db_lo)] if n == 0 else [(du_hi, du_lo), (db_hi, db_lo)]
            for coarse, fine in errors:
                ratios.append(coarse / fine if fine > 0.0 else math.inf)
                if not 8.0 <= ratios[-1] <= 12.0:
                    bad = f"ratio {ratios[-1]:.2f} at n={n} outside [8,12]"
            if bad:
                break
        results.append(
            CheckResult(
                "qlimit",
                f"linear convergence n<={n_max} {_tag(params)}",
                not bad,
                bad or f"error ratios in [{min(ratios):.2f}, {max(ratios):.2f}]",
            )
        )
    return results


def _suite_susy(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    a = opts.a
    af = float(a)
    grid = susyqm.default_grid(opts.points)

    worst_l1 = 0.0
    worst_h1 = 0.0
    for n in range(opts.levels + 1):
        state = susyqm.eigenstate(a, n)
        values = [state.value(y) for y in grid]
        peak = max(abs(v) for v in values)
        root = (-1.0) ** (n + 1) * (af + n + 1.0)
        e_n = susyqm.energy(a, n)
        for y, value in zip(grid, values):
            worst_l1 = max(
                worst_l1, abs(susyqm.apply_L1(a, state, y) - root * value) / peak
            )
            worst_h1 = max(
                worst_h1, abs(susyqm.apply_H1(a, state, y) - e_n * value) / peak
            )
    results.append(
        CheckResult(
            "susy",
            f"L1 eigen-relation n<={opts.levels} a={a}",
            worst_l1 < 1e-8,
            f"worst scaled residual {worst_l1:.3e}",
        )
    )
    results.append(
        CheckResult(
            "susy",
            f"H1 eigen-relation n<={opts.levels} a={a}",
            worst_h1 < 1e-8,
            f"worst scaled residual {worst_h1:.3e}",
        )
    )

    test_polys = [
        Poly.ONE,
        Poly.X,
        Poly([Fraction(-1, 2), 0, 1]),
        Poly([0, Fraction(1, 3), 0, 0, 0, 0, 1]),
        Poly([0, 1, 0, 2]),
    ]
    worst = 0.0
    for p in test_polys:
        f = susyqm.PhiPoly(a, p)
        image = susyqm.L1Image(a, f)
        for y in grid:
            lhs = susyqm.apply_L1(a, image, y)
            rhs = susyqm.apply_H1(a, f, y)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    results.append(
        CheckResult(
            "susy",
            f"square root L1^2 = H1 a={a}",
            worst < 1e-8,
            f"worst scaled residual {worst:.3e} on degree<=6 tests",
        )
    )

    report = susyqm.factorization_check(
        lambda y: susyqm.superpotential(a, y),
        lambda y: susyqm.superpotential_prime(a, y),
        lambda y: susyqm.potential(a, y),
        0.0,
        grid,
    )
    results.append(
        CheckResult(
            "susy",
            f"superpotential factorization a={a}",
            report.holds,
            "worst residuals "
            + ", ".join(f"{k}={v:.2e}" for k, v in sorted(report.worst.items())),
        )
    )

    flip_ok = True
    flip_detail = "parity flip matches the eigen-relation"
    try:
        for n in range(min(opts.levels, 3) + 1):
            for y in (0.0, 0.4, -0.7, 1.1):
                susyqm.darboux_flip(a, n, y)
    except ArithmeticError as exc:
        flip_ok = False
        flip_detail = str(exc)
    results.append(CheckResult("susy", f"Darboux flip a={a}", flip_ok, flip_detail))

    worst = 0.0
    conj_ok = True
    for p in test_polys[:3]:
        report = susyqm.conjugation_check(a, p, grid[:: max(1, len(grid) // 20)])
        worst = max(worst, report.worst)
        conj_ok = conj_ok and report.holds
    results.append(
        CheckResult(
            "susy",
            f"Sturm-Liouville conjugation a={a}",
            conj_ok,
            f"worst scaled residual {worst:.3e}",
        )
    )

    results.append(
        _sweep(
            "susy",
            f"node counts n<={opts.levels} a={a}",
            range(opts.levels + 1),
            lambda n: susyqm.node_count(a, n) != n,
            "psi_n crosses zero exactly n times",
            "wrong count at n={}",
        )
    )
    return results


SUITES: dict[str, Callable[[SuiteOptions], list[CheckResult]]] = {
    "orthogonality": _suite_orthogonality,
    "eigen": _suite_eigen,
    "explicit": _suite_explicit,
    "dunkl": _suite_dunkl,
    "raising": _suite_raising,
    "transforms": _suite_transforms,
    "aw": _suite_aw,
    "prop2": _suite_prop2,
    "qlimit": _suite_qlimit,
    "susy": _suite_susy,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suites(
    names: Sequence[str],
    options: SuiteOptions,
    seed: Optional[int] = None,
) -> list[CheckResult]:
    """Run the named suites; "all" expands to every registered suite.

    Execution order is shuffled when a seed is given (ordering must never
    matter); the returned list is always sorted for stable output.
    """
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    order = list(dict.fromkeys(expanded))
    if seed is not None:
        random.Random(seed).shuffle(order)
    results: list[CheckResult] = []
    for name in order:
        results.extend(SUITES[name](options))
    results.sort(key=lambda r: (r.suite, r.name))
    return results
