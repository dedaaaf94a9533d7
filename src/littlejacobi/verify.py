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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional, Sequence

from . import susyqm
from .awalgebra import band_relations, generator_bands, x_eigenvalue
from .family import (
    WEIGHT_TOLERANCE,
    FloatRangeError,
    ParamPair,
    eigenvalue,
    explicit_poly,
    generate_monic,
    moments,
    qlimit_error,
    recurrence_coeffs,
    weight_moments,
)
from .operators import DERIVATIVE_BAND, dunkl_band, little_jacobi_band
from .polys import Poly, reflect
from .transforms import (
    JacobiParams,
    extract_recurrence,
    gegenbauer_lowering_sides,
    gegenbauer_sequence,
    holds,
    identification_sides,
    intertwiner_sides,
    lowering_sides,
    raising_sides,
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
    """One check's outcome.  `verify --format json` writes every field, in
    this order, as one record (`dataclasses.asdict`)."""

    suite: str
    name: str
    passed: bool
    detail: str = ""
    #: A check that does not apply to its inputs; it keeps passed=True so
    #: that no consumer counts it as a failure.
    skipped: bool = False


@dataclass(frozen=True)
class SuiteOptions:
    pairs: tuple[ParamPair, ...] = DEFAULT_PAIRS
    max_degree: Optional[int] = None
    a: Fraction = Fraction(3, 2)
    levels: int = 5
    points: int = 200
    epsilon: float = 1e-3

    def __post_init__(self):
        # a negative bound would leave an empty sweep
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if self.levels < 0:
            raise ValueError("levels must be nonnegative")
        # the susy suite's well and grid, checked here so that a bad value
        # fails before any suite has run
        susyqm.SchrodingerParams(self.a)
        if self.points < 2:
            raise ValueError("need at least two grid points")
        # qlimit compares the error at epsilon with the error at epsilon/10
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")

    def degree(self, default: int) -> int:
        return self.max_degree if self.max_degree is not None else default


def _tag(params: ParamPair) -> str:
    return f"({params.alpha},{params.beta})"


def _skip(suite, name, reason) -> CheckResult:
    """A check that does not apply to its inputs, with the reason."""
    return CheckResult(suite, name, True, f"not applicable: {reason}", skipped=True)


def _skip_empty(suite, name, what="degree") -> CheckResult:
    """An empty sweep checks nothing, so it reports a skip, not a pass."""
    return _skip(suite, name, f"no {what} in the sweep")


def _sweep(suite, name, ns, fails, ok, bad="mismatch at n={}") -> CheckResult:
    """Pass when ``fails(n)`` is false for every n in ns; otherwise report
    the first failing n through the ``bad`` template.  Skip when ns is
    empty."""
    if not ns:
        return _skip_empty(suite, name)
    first = next((n for n in ns if fails(n)), None)
    return CheckResult(suite, name, first is None, ok if first is None else bad.format(first))


def _suite_orthogonality(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(20)
    for params in opts.pairs:
        # the Hankel check reads moments up to 16 and the quadrature up to 8
        mf = moments(params, max(2 * n_max, 16))
        members = [generate_monic(params, k) for k in range(n_max + 1)]
        rows = mf.mixed_moments(members)

        def pairing(m, n):  # <P_m, P_n> = sum_i p_m[i] sigma_n(i), for m <= n
            p, row = members[m], rows[n]
            return Fraction(sum(map(operator.mul, p.nums, row.nums)), p.den * row.den)

        name = f"pair vanishing n<={n_max} {_tag(params)}"
        # P_0..P_{n-1} span degree < n, so the first row with a nonzero
        # sigma_n(j), j < n, holds the scan's first nonzero <P_n, P_m>
        bad = next((n for n in range(1, n_max + 1) if any(rows[n].nums[:n])), None)
        witness = "" if bad is None else next(
            f"<P_{bad}, P_{m}> = {value}" for m in range(bad) if (value := pairing(m, bad))
        )
        results.append(
            CheckResult(
                "orthogonality",
                name,
                not witness,
                witness or "all cross inner products zero exactly",
            )
            if n_max
            else _skip_empty("orthogonality", name, "pair m < n")
        )
        # u[n] for n >= 1; norms[n] = u_1 ... u_n as one running product
        u = [None] + [recurrence_coeffs(params, n)[0] for n in range(1, n_max + 1)]
        norms = list(accumulate(u[1:], operator.mul, initial=Fraction(1)))
        results.append(
            _sweep(
                "orthogonality",
                f"norm product rule n<={n_max} {_tag(params)}",
                range(n_max + 1),
                lambda n: pairing(n, n) != norms[n],
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

        name = f"weight quadrature k<=8 {_tag(params)}"
        try:
            quad = weight_moments(params, 8)
        except FloatRangeError as exc:
            results.append(_skip("orthogonality", name, exc))
            continue
        worst = max(abs(value - float(mf.c(k))) for k, value in enumerate(quad.values))
        results.append(
            CheckResult(
                "orthogonality",
                name,
                worst < WEIGHT_TOLERANCE,
                f"worst |quad - exact| = {worst:.3e}, {quad.nodes} nodes, "
                f"level difference {quad.level_difference:.1e} (estimate)",
            )
        )
    return results


def _suite_eigen(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(20)
    for params in opts.pairs:
        op = little_jacobi_band(params.alpha, params.beta).table(n_max)
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
    results = []
    for params in opts.pairs:
        sides = lowering_sides(params, n_max)
        results.append(
            _sweep(
                "dunkl",
                f"lowering n<={n_max} {_tag(params)}",
                range(1, n_max + 1),
                lambda n: not holds(sides(n)),
                "exact",
            )
        )
    # mu = alpha/2 = 0 degenerates the reflection term: plain derivative
    same = dunkl_band(0) == DERIVATIVE_BAND
    results.append(
        CheckResult(
            "dunkl",
            "alpha=0 degeneration T_0 = d/dx",
            same,
            "bands agree at every degree" if same else "bands differ",
        )
    )
    return results


def _suite_raising(opts: SuiteOptions) -> list[CheckResult]:
    n_max = opts.degree(10)
    pairs = list(opts.pairs)
    anchor = ParamPair(Fraction(1, 2), Fraction(5, 2))
    if anchor not in pairs:
        pairs.append(anchor)
    results = []
    for params in pairs:
        name = f"degree raising n<={n_max} {_tag(params)}"
        if params.beta <= 1:
            # the target pair (alpha, beta-2) leaves the admissible range
            results.append(_skip("raising", name, "raising lands at beta-2, so beta must exceed 1"))
            continue
        sides = raising_sides(params, n_max)
        results.append(
            _sweep("raising", name, range(n_max + 1), lambda n: not holds(sides(n)), "exact")
        )
    return results


def _suite_transforms(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(12)
    for params in opts.pairs:
        jp = JacobiParams((params.alpha - 1) / 2, (params.beta - 1) / 2)
        base = gegenbauer_sequence(jp, 20)
        seq = [generate_monic(params, k) for k in range(12)]
        routes = identification_sides(params, n_max)
        lowering = gegenbauer_lowering_sides(jp, 10)
        results += [
            _sweep(
                "transforms",
                f"Christoffel/Geronimus identification n<={n_max} {_tag(params)}",
                range(n_max + 1),
                lambda n: not holds(routes(n)),
                "all three constructions agree",
            ),
            _sweep(
                "transforms",
                f"Gegenbauer parity n<=20 {_tag(params)}",
                range(21),
                lambda n: reflect(base[n]) != (-1) ** n * base[n],
                "S_n(-x) = (-1)^n S_n(x)",
                "parity broken at n={}",
            ),
            _sweep(
                "transforms",
                f"Gegenbauer Dunkl lowering n<=10 {_tag(params)}",
                range(1, 11),
                lambda n: not holds(lowering(n)),
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
        x_band, y_band, z_band = generator_bands(params)
        structure = band_relations(x_band, y_band, z_band)
        ok = (
            structure.omega1 == 0
            and structure.omega2 == params.beta
            and structure.omega3 == -params.alpha
        )
        sign = "+" if structure.omega3 > 0 else "-" if structure.omega3 < 0 else "0"
        x_op = x_band.table(12)
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
                "central and equal to identity at every degree"
                if structure.casimir_is_identity
                else "not central, or not the identity",
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
            results.append(_skip("prop2", name, "the intertwiner route needs alpha + beta > -1"))
            continue
        sides = intertwiner_sides(params, n_max)
        results.append(
            _sweep("prop2", name, range(n_max + 1), lambda n: not holds(sides(n)), "exact")
        )
    return results


def _qlimit_ratios(params: ParamPair, n_max: int, eps_hi: float, eps_lo: float):
    """(ratios, bad): the coarse-to-fine error ratios of u_n and b_n up to
    the first one outside [8, 12], and its description ("" if none)."""
    ratios = []
    for n in range(n_max + 1):
        du_hi, db_hi = qlimit_error(params, n, eps_hi)
        du_lo, db_lo = qlimit_error(params, n, eps_lo)
        errors = [(db_hi, db_lo)] if n == 0 else [(du_hi, du_lo), (db_hi, db_lo)]
        bad = ""
        for coarse, fine in errors:
            ratios.append(coarse / fine if fine > 0.0 else math.inf)
            if not 8.0 <= ratios[-1] <= 12.0:
                bad = f"ratio {ratios[-1]:.2f} at n={n} outside [8,12]"
        if bad:
            return ratios, bad
    return ratios, ""


def _suite_qlimit(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    n_max = opts.degree(10)
    eps_hi, eps_lo = opts.epsilon, opts.epsilon / 10
    for params in opts.pairs:
        name = f"linear convergence n<={n_max} {_tag(params)}"
        try:
            ratios, bad = _qlimit_ratios(params, n_max, eps_hi, eps_lo)
        except FloatRangeError as exc:
            results.append(_skip("qlimit", name, exc))
            continue
        results.append(
            CheckResult(
                "qlimit",
                name,
                not bad,
                bad or f"error ratios in [{min(ratios):.2f}, {max(ratios):.2f}]",
            )
        )
    return results


def _suite_susy(opts: SuiteOptions) -> list[CheckResult]:
    params = susyqm.SchrodingerParams(opts.a)
    a, family = params.a, params.family
    levels = range(opts.levels + 1)
    l1, h1 = susyqm.l1_band(a), susyqm.h1_band(a)
    l1_op, h1_op = l1.table(opts.levels), h1.table(opts.levels)
    square = l1 @ l1 == h1
    flip = l1 == susyqm.darboux_band(a) @ susyqm.PARITY_BAND

    # chi = -k/cos y, k = a + 1/2: chi^2, chi' and U(+-y) as numerators
    # over cos^2 y = 1 - s^2, in s = sin y
    k = a + Fraction(1, 2)
    chi_squared, chi_prime = Poly([k * k]), Poly([0, -k])
    u = susyqm.potential_numerator(a)
    misses = []
    if chi_squared + chi_prime != u:
        misses.append("chi^2 + chi' != U(y)")
    if chi_squared - chi_prime != reflect(u):
        misses.append("chi^2 - chi' != U(-y)")

    results = [
        _sweep(
            "susy",
            f"L1 eigen-relation n<={opts.levels} a={a}",
            levels,
            lambda n: l1_op.apply(generate_monic(family, n))
            != (-1) ** (n + 1) * (a + n + 1) * generate_monic(family, n),
            "coefficient-exact",
        ),
        _sweep(
            "susy",
            f"H1 eigen-relation n<={opts.levels} a={a}",
            levels,
            lambda n: h1_op.apply(generate_monic(family, n))
            != (a + n + 1) ** 2 * generate_monic(family, n),
            "coefficient-exact",
        ),
        CheckResult(
            "susy",
            f"square root L1^2 = H1 a={a}",
            square,
            "bands agree at every degree" if square else "bands differ",
        ),
        CheckResult(
            "susy",
            f"superpotential factorization a={a}",
            not misses,
            "; ".join(misses) or "chi^2 +- chi' = U(+-y) exactly, over cos^2 y",
        ),
        CheckResult(
            "susy",
            f"Darboux flip a={a}",
            flip,
            "L1 = ((1-s) d/ds - (a+1)) after the parity flip, at every degree"
            if flip
            else "L1 differs from ((1-s) d/ds - (a+1)) after the parity flip",
        ),
        _sweep(
            "susy",
            f"node counts n<={opts.levels} a={a}",
            levels,
            lambda n: susyqm.node_count(a, n) != n,
            "psi_n crosses zero exactly n times",
            "wrong count at n={}",
        ),
    ]

    # the float boundary: H1 F = -F'' + U F from the grid's jets against
    # Phi times h1's exact image, on every (points // 20)-th grid point.
    # Each miss is judged against its terms |F''| + |U F| + |Phi q|; a
    # point where Phi is subnormal has lost its digits, and one whose
    # terms are 0 has none.  From a of about 1.3e154 the image's
    # coefficient (a+1)^2 lies beyond the float range, and the row skips
    grid = susyqm.default_grid(opts.points)
    sub = susyqm.WellGrid(a, grid[:: max(1, len(grid) // 20)])
    normal = [phi >= sys.float_info.min for phi in sub.values(susyqm.PhiPoly(a, Poly.ONE))]
    tests = (Poly.ONE, Poly.X, Poly([Fraction(-1, 2), 0, 1]))
    name = f"Sturm-Liouville conjugation a={a}"
    scaled = []
    try:
        for p in tests:
            rhs = sub.values(susyqm.PhiPoly(a, h1.table(p.degree).apply(p)))
            jets = sub.jets(susyqm.PhiPoly(a, p))
            for u, is_normal, (value, _, second), phi_q in zip(sub.potential, normal, jets, rhs):
                terms = abs(second) + abs(u * value) + abs(phi_q)
                if is_normal and terms:
                    scaled.append(abs(-second + u * value - phi_q) / terms)
    except FloatRangeError as exc:
        return [*results, _skip("susy", name, exc)]
    total = len(tests) * len(sub.ys)
    if not scaled:
        reason = "Phi is subnormal or the terms are 0 at every grid point"
        results.append(_skip("susy", name, reason))
    else:
        worst = max(scaled)
        detail = f"worst residual over its terms {worst:.3e}, "
        detail += f"{total - len(scaled)} of {total} points skipped"
        results.append(CheckResult("susy", name, worst <= 1e-8, detail))
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


def run_suites(names: Sequence[str], options: SuiteOptions) -> list[CheckResult]:
    """Run the named suites in the order given, each once; "all" expands
    to every registered suite.  The returned list is sorted for stable
    output.
    """
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    results: list[CheckResult] = []
    for name in dict.fromkeys(expanded):
        results.extend(SUITES[name](options))
    results.sort(key=lambda r: (r.suite, r.name))
    return results
