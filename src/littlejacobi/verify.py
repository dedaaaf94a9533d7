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
from dataclasses import asdict, dataclass
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
from .operators import (
    DERIVATIVE_BAND,
    dunkl_band,
    little_jacobi_band,
    sturm_liouville_band,
)
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


def _skip_underflow(name, what) -> CheckResult:
    """A well so deep that cos^(a+1/2) y underflows at every point of a
    row's grid leaves the row only zeros to compare, so it reports a skip
    with the reason."""
    return _skip("susy", name, f"{what} underflows to 0.0 at every grid point")


def _scaled_row(name, pairs, passes, note="") -> CheckResult:
    """A susy row judged by ``passes(worst)``, worst the largest
    |lhs - rhs| / max(1, |rhs|) over the (lhs, rhs) pairs; a skip when
    every value is 0.0."""
    if not any(lhs or rhs for lhs, rhs in pairs):
        return _skip_underflow(name, "every test function")
    worst = 0.0
    for lhs, rhs in pairs:
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return CheckResult("susy", name, passes(worst), f"worst scaled residual {worst:.3e}{note}")


def _first_flip_miss(flip, states, af: float) -> Optional[tuple[int, float]]:
    """(n, |miss|) at the first point of the flip grid where psi_n's L1
    image misses (-1)^(n+1) (a+n+1) psi_n by more than
    1e-8 (a+n+1) max(1, |psi_n|); None if every image holds."""
    for n, state in enumerate(states):
        root = af + n + 1.0
        for value, flipped, _ in flip.eigen_images(state):
            miss = abs(flipped - (-1.0) ** (n + 1) * root * value)
            if miss > 1e-8 * (root * max(1.0, abs(value))):
                return n, miss
    return None


def _suite_susy(opts: SuiteOptions) -> list[CheckResult]:
    results = []
    a = opts.a
    af = float(a)
    grid = susyqm.default_grid(opts.points)
    well = susyqm.WellGrid(a, grid)
    states = [susyqm.eigenstate(a, n) for n in range(opts.levels + 1)]

    l1_name = f"L1 eigen-relation n<={opts.levels} a={a}"
    h1_name = f"H1 eigen-relation n<={opts.levels} a={a}"
    worst_l1 = 0.0
    worst_h1 = 0.0
    dead = None
    for n, state in enumerate(states):
        images = well.eigen_images(state)
        peak = max(abs(value) for value, _, _ in images)
        if peak == 0.0:
            dead = n
            break
        root = (-1.0) ** (n + 1) * (af + n + 1.0)
        e_n = susyqm.energy(a, n)
        for value, l1, h1 in images:
            worst_l1 = max(worst_l1, abs(l1 - root * value) / peak)
            worst_h1 = max(worst_h1, abs(h1 - e_n * value) / peak)
    if dead is not None:
        results += [_skip_underflow(name, f"psi_{dead}") for name in (l1_name, h1_name)]
    else:
        results += [
            CheckResult("susy", l1_name, worst_l1 < 1e-8, f"worst scaled residual {worst_l1:.3e}"),
            CheckResult("susy", h1_name, worst_h1 < 1e-8, f"worst scaled residual {worst_h1:.3e}"),
        ]

    test_polys = [
        Poly.ONE,
        Poly.X,
        Poly([Fraction(-1, 2), 0, 1]),
        Poly([0, Fraction(1, 3), 0, 0, 0, 0, 1]),
        Poly([0, 1, 0, 2]),
    ]
    phis = [susyqm.PhiPoly(a, p) for p in test_polys]
    results.append(
        _scaled_row(
            f"square root L1^2 = H1 a={a}",
            [pair for phi in phis for pair in well.square_images(phi)],
            lambda worst: worst < 1e-8,
            " on degree<=6 tests",
        )
    )

    # chi = -(a+1/2)/cos y with no additive constant: the odd and even
    # parts of U, and U(y), U(-y) as chi^2 +- chi', each relative to the
    # local size of the terms, since U grows like 1/cos^2 toward the walls
    worst = dict.fromkeys(("odd_difference", "even_sum", "refactor_plus", "refactor_minus"), 0.0)
    for u_plus, u_minus, x, xp in well.superpotential_terms():
        scale = max(1.0, abs(u_plus), abs(u_minus), x * x)
        for key, residual in (
            ("odd_difference", 2.0 * xp - (u_plus - u_minus)),
            ("even_sum", 2.0 * x * x - (u_plus + u_minus)),
            ("refactor_plus", x * x + xp - u_plus),
            ("refactor_minus", x * x - xp - u_minus),
        ):
            worst[key] = max(worst[key], abs(residual) / scale)
    results.append(
        CheckResult(
            "susy",
            f"superpotential factorization a={a}",
            all(value <= 1e-10 for value in worst.values()),
            "worst residuals " + ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items())),
        )
    )

    # the L1 image at -y is the parity flip after the square root
    flip = susyqm.WellGrid(a, [-y for y in (0.0, 0.4, -0.7, 1.1)])
    miss = _first_flip_miss(flip, states[: min(opts.levels, 3) + 1], af)
    results.append(
        CheckResult(
            "susy",
            f"Darboux flip a={a}",
            miss is None,
            "parity flip matches the eigen-relation"
            if miss is None
            else "parity-flipped image of level {} missed its eigen-relation by {:.3e}".format(*miss),
        )
    )

    # H1 (Phi p) = Phi q with q = (a+1)^2 p - S p exact, S the
    # Sturm-Liouville operator of the alpha = 0 family
    sub = susyqm.WellGrid(a, grid[:: max(1, len(grid) // 20)])
    pairs = []
    sturm_liouville = sturm_liouville_band(a)
    for p, phi in zip(test_polys[:3], phis):
        q = (a + 1) ** 2 * p - sturm_liouville.table(p.degree).apply(p)
        pairs += zip((h1 for _, _, h1 in sub.eigen_images(phi)), sub.values(susyqm.PhiPoly(a, q)))
    results.append(
        _scaled_row(f"Sturm-Liouville conjugation a={a}", pairs, lambda worst: worst <= 1e-8)
    )

    nodes = susyqm.WellGrid(a, susyqm.default_grid(susyqm.NODE_POINTS))
    node_values = [nodes.values(state) for state in states]
    name = f"node counts n<={opts.levels} a={a}"
    dead = next((n for n, values in enumerate(node_values) if not any(values)), None)
    results.append(
        _skip_underflow(name, f"psi_{dead}")
        if dead is not None
        else _sweep(
            "susy",
            name,
            range(opts.levels + 1),
            lambda n: susyqm.sign_changes(node_values[n]) != n,
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
