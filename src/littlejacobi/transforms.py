"""Spectral transforms tying the family to Jacobi-type polynomials.

The little -1 Jacobi polynomials coincide with a Christoffel transform
(weight multiplied by x+1) of the generalized Gegenbauer polynomials,
equivalently a two-term Geronimus combination of the same family at a
shifted second parameter.  This module builds all three routes exactly
and packages coefficient-level comparisons as reports, together with
the Dunkl lowering, raising, and intertwiner properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .family import ParamPair, generate_monic, recurrence_coeffs
from .operators import dunkl_derivative, dunkl_intertwiner, intertwiner_sigma, raising_operator
from .polys import Poly, as_fraction, terminating_2f1

__all__ = [
    "CheckReport",
    "JacobiParams",
    "christoffel_transform",
    "dunkl_classical_check",
    "extract_recurrence",
    "gegenbauer_dunkl_check",
    "geronimus_coefficient",
    "geronimus_combination",
    "identify_little",
    "intertwiner_check",
    "jacobi_series",
    "monic_jacobi_01",
    "monic_jacobi_sym",
    "raising_check",
    "symmetric_gegenbauer",
]


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi weight exponents; integrability needs both > -1."""

    xi: Fraction
    eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "xi", as_fraction(self.xi))
        object.__setattr__(self, "eta", as_fraction(self.eta))
        if self.xi <= -1:
            raise ValueError("xi must be > -1")
        if self.eta <= -1:
            raise ValueError("eta must be > -1")


def _monic(p: Poly, n: int, what: str) -> Poly:
    if p.degree != n:
        raise RuntimeError(f"{what} degenerated: expected degree {n}, got {p.degree}")
    return p / p.leading_coefficient


def _jacobi_2f1(jp: JacobiParams, n: int) -> Poly:
    """The terminating series 2F1(-n, n+xi+eta+1; xi+1; t) as a polynomial in t."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return terminating_2f1(-n, n + jp.xi + jp.eta + 1, jp.xi + 1)


def monic_jacobi_01(jp: JacobiParams, n: int) -> Poly:
    """Monic Jacobi polynomial on [0,1] with weight x^xi (1-x)^eta."""
    return _monic(_jacobi_2f1(jp, n), n, "Jacobi series")


def jacobi_series(jp: JacobiParams, n: int) -> Poly:
    """Standard Jacobi polynomial on [-1,1], weight (1-x)^xi (1+x)^eta, not
    made monic: the series 2F1(-n, n+xi+eta+1; xi+1; (1-x)/2), which equals
    1 at x = 1."""
    return _jacobi_2f1(jp, n).compose(Poly([Fraction(1, 2), Fraction(-1, 2)]))


def monic_jacobi_sym(jp: JacobiParams, n: int) -> Poly:
    """Monic standard Jacobi polynomial on [-1,1], weight (1-x)^xi (1+x)^eta.

    The prefactor 2^n (xi+1)_n / (xi+eta+n+1)_n that makes the classical
    normalization of jacobi_series monic is recovered here by direct
    leading-coefficient rescale.
    """
    return _monic(jacobi_series(jp, n), n, "Jacobi series")


def symmetric_gegenbauer(jp: JacobiParams, n: int) -> Poly:
    """Generalized Gegenbauer polynomial, weight |x|^(2 xi + 1) (1-x^2)^eta.

    Even degrees are Jacobi-on-[0,1] polynomials in x**2; odd degrees are
    x times the same construction with xi raised by one.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    square = Poly([0, 0, 1])
    if n % 2 == 0:
        return monic_jacobi_01(jp, n // 2).compose(square)
    raised = JacobiParams(jp.xi + 1, jp.eta)
    return Poly.X * monic_jacobi_01(raised, (n - 1) // 2).compose(square)


def christoffel_transform(jp: JacobiParams, n: int) -> Poly:
    """Kernel-polynomial quotient (S_{n+1} - A_n S_n)/(x+1), exact.

    A_n = S_{n+1}(-1)/S_n(-1); S_n(-1) never vanishes for admissible
    parameters (all zeros lie inside (-1,1)).  The division must leave a
    zero remainder; a nonzero one signals an internal inconsistency.
    """
    s_n = symmetric_gegenbauer(jp, n)
    s_next = symmetric_gegenbauer(jp, n + 1)
    denom = s_n(Fraction(-1))
    if denom == 0:
        raise ValueError(f"kernel point hit: S_{n}(-1) = 0")
    a_n = s_next(Fraction(-1)) / denom
    quotient, remainder = divmod(s_next - a_n * s_n, Poly([1, 1]))
    if not remainder.is_zero():
        raise RuntimeError("Christoffel numerator not divisible by (x+1)")
    return quotient


def geronimus_coefficient(params: ParamPair, n: int) -> Fraction:
    """B_n = (2n + (1-(-1)^n) alpha) / (2(alpha + beta + 2n)), n >= 1."""
    if n < 1:
        raise ValueError("Geronimus coefficient defined for n >= 1")
    alpha, beta = params.alpha, params.beta
    return (2 * n + (1 - (-1) ** n) * alpha) / (2 * (alpha + beta + 2 * n))


def geronimus_combination(params: ParamPair, n: int) -> Poly:
    """Two-term Geronimus combination reproducing the family member.

    Uses the generalized Gegenbauer family at (xi, eta+1) with
    xi = (alpha-1)/2, eta = (beta-1)/2 -- the Christoffel-shifted second
    parameter.  (The two-term combination at the unshifted (xi, eta)
    does not reproduce the family; the shifted one does, and matches the
    Christoffel route exactly.)
    """
    alpha, beta = params.alpha, params.beta
    shifted = JacobiParams((alpha - 1) / 2, (beta - 1) / 2 + 1)
    out = symmetric_gegenbauer(shifted, n)
    if n >= 1:
        out = out - geronimus_coefficient(params, n) * symmetric_gegenbauer(shifted, n - 1)
    return out


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Coefficient-level comparison of two exact polynomial constructions."""

    check: str
    params: dict
    n: int
    holds: bool
    first_mismatch_degree: Optional[int]
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "n": self.n,
            "holds": self.holds,
            "first_mismatch_degree": self.first_mismatch_degree,
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
        }


def _compare(check: str, params: dict, n: int, lhs: Poly, rhs: Poly) -> CheckReport:
    diff = lhs - rhs
    first = None
    if not diff.is_zero():
        first = next(k for k, c in enumerate(diff.coeffs) if c)
    return CheckReport(
        check=check,
        params=params,
        n=n,
        holds=diff.is_zero(),
        first_mismatch_degree=first,
        lhs=tuple(lhs.to_strings()),
        rhs=tuple(rhs.to_strings()),
    )


def _pdict(params: ParamPair) -> dict:
    return {"alpha": str(params.alpha), "beta": str(params.beta)}


def identify_little(params: ParamPair, n: int) -> CheckReport:
    """Recurrence member == Christoffel transform == Geronimus combination.

    The Christoffel route runs at xi = (alpha-1)/2, eta = (beta-1)/2;
    the Geronimus combination at the eta+1 shift.  All three must agree
    coefficient-exactly.
    """
    recur = generate_monic(params, n)
    base = JacobiParams((params.alpha - 1) / 2, (params.beta - 1) / 2)
    chris = christoffel_transform(base, n)
    gero = geronimus_combination(params, n)
    report = _compare("identify_little", _pdict(params), n, recur, chris)
    if report.holds:
        report = _compare("identify_little", _pdict(params), n, recur, gero)
    return report


def dunkl_classical_check(params: ParamPair, n: int) -> CheckReport:
    """Dunkl lowering: T_{alpha/2} P_n = [n] P_{n-1} at (alpha, beta+2)."""
    if n < 1:
        raise ValueError("lowering check needs n >= 1")
    mu = params.alpha / 2
    lhs = dunkl_derivative(mu, n).apply(generate_monic(params, n))
    bracket = n + mu * (1 - (-1) ** n)
    shifted = ParamPair(params.alpha, params.beta + 2)
    rhs = bracket * generate_monic(shifted, n - 1)
    return _compare("dunkl_classical", _pdict(params), n, lhs, rhs)


def raising_check(params: ParamPair, n: int) -> CheckReport:
    """Raising: Theta P_n^(alpha,beta) = nu_{n+1} P_{n+1}^(alpha,beta-2).

    nu_m = m + beta - 1 + (1-(-1)^m) alpha/2.  Needs beta > 1 so the
    target parameters stay admissible.
    """
    if params.beta <= 1:
        raise ValueError("raising lands at beta-2, so beta must exceed 1")
    lhs = raising_operator(params.alpha, params.beta, n).apply(generate_monic(params, n))
    m = n + 1
    nu = m + params.beta - 1 + Fraction(1 - (-1) ** m, 2) * params.alpha
    lowered = ParamPair(params.alpha, params.beta - 2)
    rhs = nu * generate_monic(lowered, m)
    return _compare("raising", _pdict(params), n, lhs, rhs)


def intertwiner_check(params: ParamPair, n: int) -> CheckReport:
    """Intertwiner route: sigma_n^{-1} V_{alpha/2} applied to the standard
    Jacobi polynomial at (xi, xi+1), xi = (alpha+beta-1)/2, equals P_n."""
    xi = (params.alpha + params.beta - 1) / 2
    if xi <= -1:
        raise ValueError("intertwiner route needs alpha + beta > -1")
    mu = params.alpha / 2
    jac = monic_jacobi_sym(JacobiParams(xi, xi + 1), n)
    image = dunkl_intertwiner(mu, n).apply(jac)
    lhs = image / intertwiner_sigma(mu, n)
    rhs = generate_monic(params, n)
    return _compare("intertwiner", _pdict(params), n, lhs, rhs)


def gegenbauer_dunkl_check(jp: JacobiParams, n: int) -> CheckReport:
    """Generalized Gegenbauer lowering: T_{xi+1/2} S_n^(xi,eta) =
    [n] S_{n-1}^(xi,eta+1)."""
    if n < 1:
        raise ValueError("lowering check needs n >= 1")
    mu = jp.xi + Fraction(1, 2)
    lhs = dunkl_derivative(mu, n).apply(symmetric_gegenbauer(jp, n))
    bracket = n + mu * (1 - (-1) ** n)
    rhs = bracket * symmetric_gegenbauer(JacobiParams(jp.xi, jp.eta + 1), n - 1)
    return _compare(
        "gegenbauer_dunkl", {"xi": str(jp.xi), "eta": str(jp.eta)}, n, lhs, rhs
    )


def extract_recurrence(seq: list[Poly], n: int) -> tuple[Fraction, Fraction]:
    """Recover (u_n, b_n) from a monic orthogonal sequence by matching
    x seq[n] = seq[n+1] + b_n seq[n] + u_n seq[n-1] coefficientwise.

    Raises if the residual after matching is nonzero (the sequence does
    not satisfy a three-term recurrence at this index).
    """
    if n < 1 or n + 1 >= len(seq):
        raise ValueError("need members n-1, n, n+1 in the sequence")
    rest = Poly.X * seq[n] - seq[n + 1]
    b_n = rest.coefficient(n)
    rest = rest - b_n * seq[n]
    u_n = rest.coefficient(n - 1)
    rest = rest - u_n * seq[n - 1]
    if not rest.is_zero():
        raise RuntimeError(f"sequence fails the three-term recurrence at n={n}")
    return u_n, b_n
