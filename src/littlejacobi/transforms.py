"""Spectral transforms tying the family to Jacobi-type polynomials.

The little -1 Jacobi polynomials coincide with a Christoffel transform
(weight multiplied by x+1) of the generalized Gegenbauer polynomials,
equivalently a two-term Geronimus combination of the same family at a
shifted second parameter.  This module builds all three routes exactly
and packages coefficient-level comparisons as reports, together with
the Dunkl lowering, raising, and intertwiner properties.  Each check has
a sweep form (``*_sweep``) that builds its operator and auxiliary
members once and reports the first failing degree; verify calls only
the sweeps.  The identification, the family's Dunkl lowering, the
raising and the intertwiner checks also have a per-n form
(`identify_little`, `dunkl_classical_check`, `raising_check`,
`intertwiner_check`); the generalized Gegenbauer lowering has only its
sweep.

The classical members exist in two forms.  The closed forms
(`jacobi_series`, `monic_jacobi_sym`, `symmetric_gegenbauer`) build one
degree from a terminating 2F1, the standard Jacobi one through a Taylor
shift, O(n^2) per member; the per-n checks and `susyqm` use them.  The
sequences (`jacobi_sequence`, `gegenbauer_sequence`) build every degree
up to N from the three-term recurrence, one integer
`polys.recurrence_step` per degree as in `family.generate_monic`, O(N^2)
in all; the intertwiner sweep and verify's transforms suite use them.
Both forms give equal polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .family import ParamPair, generate_monic
from .operators import (
    BandedOp,
    _intertwiner_sigmas,
    dunkl_derivative,
    dunkl_intertwiner,
    intertwiner_sigma,
    raising_operator,
)
from .polys import Poly, as_fraction, recurrence_step, terminating_2f1

__all__ = [
    "CheckReport",
    "JacobiParams",
    "christoffel_transform",
    "dunkl_classical_check",
    "dunkl_classical_sweep",
    "extract_recurrence",
    "gegenbauer_dunkl_sweep",
    "gegenbauer_sequence",
    "geronimus_coefficient",
    "identify_little",
    "identify_little_sweep",
    "intertwiner_check",
    "intertwiner_sweep",
    "jacobi_sequence",
    "jacobi_series",
    "monic_jacobi_sym",
    "raising_check",
    "raising_sweep",
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


def _jacobi_2f1(jp: JacobiParams, n: int, arg_power: int = 1) -> Poly:
    """The terminating series 2F1(-n, n+xi+eta+1; xi+1; t) as a polynomial
    in t = x**arg_power."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return terminating_2f1(-n, n + jp.xi + jp.eta + 1, jp.xi + 1, arg_power=arg_power)


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
    if n % 2 == 0:
        return _monic(_jacobi_2f1(jp, n // 2, arg_power=2), n, "Gegenbauer series")
    raised = JacobiParams(jp.xi + 1, jp.eta)
    even = _monic(_jacobi_2f1(raised, (n - 1) // 2, arg_power=2), n - 1, "Gegenbauer series")
    return Poly._canonical((0, *even.nums), even.den)  # x times the even part


def _sequence(n_max: int, coeffs: Callable[[int], tuple[Fraction, Fraction]]) -> list[Poly]:
    """P_0..P_{n_max} of the monic recurrence P_{n+1} = (x - b_n) P_n -
    u_n P_{n-1}, coeffs(n) = (b_n, u_n): one integer `recurrence_step` per
    degree, O(n_max^2) int operations in all."""
    if n_max < 0:
        raise ValueError("degree must be nonnegative")
    out, prev = [Poly.ONE], Poly.ZERO
    for n in range(n_max):
        b, u = coeffs(n)
        out.append(recurrence_step(out[-1], prev, b, u))
        prev = out[-2]
    return out


def _over_common_denominator(jp: JacobiParams) -> tuple[int, int, int]:
    """(D, xi D, eta D) for D the lcm of the parameters' denominators."""
    xi, eta = jp.xi, jp.eta
    d = math.lcm(xi.denominator, eta.denominator)
    return d, xi.numerator * (d // xi.denominator), eta.numerator * (d // eta.denominator)


def jacobi_sequence(jp: JacobiParams, n_max: int) -> list[Poly]:
    """``[monic_jacobi_sym(jp, n) for n in range(n_max + 1)]`` from the
    monic Jacobi recurrence (Koekoek, Lesky and Swarttouw, 2010, §9.8),
    with a = xi, b = eta:
      B_0 = (b - a)/(a + b + 2),
      B_n = (b^2 - a^2)/((2n+a+b)(2n+a+b+2)),
      A_n = 4n(n+a)(n+b)(n+a+b)/((2n+a+b)^2 (2n+a+b+1)(2n+a+b-1)),
    and A_1 = 4(1+a)(1+b)/((2+a+b)^2 (3+a+b)) with the factor 1+a+b
    cancelled, which covers the removable 0/0 at a + b = -1.  Each
    coefficient is one Fraction of two integers, scaled by the common
    denominator D of a and b as `family.recurrence_coeffs` does.
    """
    d, a, b = _over_common_denominator(jp)

    def coeffs(n: int) -> tuple[Fraction, Fraction]:
        if n == 0:
            return Fraction(b - a, a + b + 2 * d), Fraction(0)
        s = 2 * n * d + a + b  # D (2n + a + b) > 0 for n >= 1
        shift = Fraction(b * b - a * a, s * (s + 2 * d))
        if n == 1:
            return shift, Fraction(4 * d * (d + a) * (d + b), s * s * (s + d))
        nd = n * d
        u = Fraction(4 * nd * (nd + a) * (nd + b) * (nd + a + b), s * s * (s + d) * (s - d))
        return shift, u

    return _sequence(n_max, coeffs)


def gegenbauer_sequence(jp: JacobiParams, n_max: int) -> list[Poly]:
    """``[symmetric_gegenbauer(jp, n) for n in range(n_max + 1)]`` from the
    monic recurrence S_{n+1} = x S_n - gamma_n S_{n-1} of the weight
    |x|^(2 xi + 1) (1-x^2)^eta (every b_n is 0), with
      gamma_{2m} = m(m+eta)/((2m+xi+eta)(2m+xi+eta+1)),
      gamma_{2m+1} = (m+xi+1)(m+xi+eta+1)/((2m+xi+eta+1)(2m+xi+eta+2)),
    and gamma_1 = (xi+1)/(xi+eta+2) with the factor xi+eta+1 cancelled,
    which covers the removable 0/0 at xi + eta + 1 = 0.  Each coefficient
    is one Fraction of two integers over the common denominator D.
    """
    d, xi, eta = _over_common_denominator(jp)
    zero = Fraction(0)

    def coeffs(n: int) -> tuple[Fraction, Fraction]:
        if n == 0:  # gamma_0 multiplies S_{-1} = 0
            return zero, zero
        md = (n // 2) * d
        low = 2 * md + xi + eta  # D (2m + xi + eta)
        if n % 2 == 0:
            return zero, Fraction(md * (md + eta), low * (low + d))
        if n == 1:
            return zero, Fraction(xi + d, xi + eta + 2 * d)
        return zero, Fraction((md + xi + d) * (md + xi + eta + d), (low + d) * (low + 2 * d))

    return _sequence(n_max, coeffs)


def christoffel_transform(jp: JacobiParams, n: int) -> Poly:
    """Kernel-polynomial quotient (S_{n+1} - A_n S_n)/(x+1), exact.

    A_n = S_{n+1}(-1)/S_n(-1); S_n(-1) never vanishes for admissible
    parameters (all zeros lie inside (-1,1)).  The division must leave a
    zero remainder; a nonzero one signals an internal inconsistency.
    """
    return _christoffel(symmetric_gegenbauer(jp, n), symmetric_gegenbauer(jp, n + 1), n)


def _christoffel(s_n: Poly, s_next: Poly, n: int) -> Poly:
    """christoffel_transform from the members S_n and S_{n+1}, on integers.

    With S_n = A/dA and S_{n+1} = B/dB, the numerator S_{n+1} - A_n S_n is
    (A(-1) B - B(-1) A) / (A(-1) dB), and synthetic division of its
    integer part by x+1 stays in the integers: O(n) int operations and
    one normalisation of the quotient.
    """
    low, high = s_n.nums, s_next.nums
    at_low = sum(low[0::2]) - sum(low[1::2])
    if at_low == 0:
        raise ValueError(f"kernel point hit: S_{n}(-1) = 0")
    at_high = sum(high[0::2]) - sum(high[1::2])
    numerator = [at_low * c for c in high]
    for k, c in enumerate(low):
        numerator[k] -= at_high * c
    # numerator = (x+1) quotient + remainder, from the top coefficient down
    quotient, carry = [0] * (len(numerator) - 1), 0
    for k in range(len(numerator) - 1, 0, -1):
        carry = quotient[k - 1] = numerator[k] - carry
    if numerator[0] != carry:
        raise RuntimeError("Christoffel numerator not divisible by (x+1)")
    return Poly.from_ints(quotient, at_low * s_next.den)


def geronimus_coefficient(params: ParamPair, n: int) -> Fraction:
    """B_n = (2n + (1-(-1)^n) alpha) / (2(alpha + beta + 2n)), n >= 1."""
    if n < 1:
        raise ValueError("Geronimus coefficient defined for n >= 1")
    alpha, beta = params.alpha, params.beta
    return (2 * n + (1 - (-1) ** n) * alpha) / (2 * (alpha + beta + 2 * n))


def _geronimus(params: ParamPair, n: int, s_n: Poly, s_prev: Optional[Poly]) -> Poly:
    """The two-term Geronimus combination S_n - B_n S_{n-1} that reproduces
    the family member P_n, from the generalized Gegenbauer members S_n and
    S_{n-1} at (xi, eta+1), xi = (alpha-1)/2, eta = (beta-1)/2 (s_prev is
    unused at n = 0).

    The second parameter is the Christoffel-shifted one: the same
    combination at the unshifted (xi, eta) does not reproduce the family.
    """
    if n == 0:
        return s_n
    return s_n - geronimus_coefficient(params, n) * s_prev


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
        first = next(k for k, c in enumerate(diff.nums) if c)
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


def _first_mismatch(ns, sides, report) -> Optional[CheckReport]:
    """``report(n, *sides(n))`` at the first n in ns whose sides are not all
    equal, else None.  A degree that passes costs one exact comparison of
    coefficient tuples; no report and no to_strings is built for it."""
    for n in ns:
        polys = sides(n)
        if any(p != polys[0] for p in polys[1:]):
            return report(n, *polys)
    return None


# Each identity below is written once, as a ``_..._sides`` helper that takes
# its operator and auxiliary members ready-made.  The per-n check builds
# them for its one degree; the sweep builds them once, at its top degree,
# and applies them to every member.  An operator table's rows do not
# depend on its truncation, so both give the same polynomials.


def _identification(params: ParamPair, n: int, recur: Poly, chris: Poly, gero: Poly) -> CheckReport:
    report = _compare("identify_little", _pdict(params), n, recur, chris)
    if report.holds:
        report = _compare("identify_little", _pdict(params), n, recur, gero)
    return report


def identify_little(params: ParamPair, n: int) -> CheckReport:
    """Recurrence member == Christoffel transform == Geronimus combination.

    The Christoffel route runs at xi = (alpha-1)/2, eta = (beta-1)/2;
    the Geronimus combination at the eta+1 shift.  All three must agree
    coefficient-exactly.
    """
    recur = generate_monic(params, n)
    base = JacobiParams((params.alpha - 1) / 2, (params.beta - 1) / 2)
    shifted = JacobiParams(base.xi, base.eta + 1)
    chris = christoffel_transform(base, n)
    prev = symmetric_gegenbauer(shifted, n - 1) if n else None
    gero = _geronimus(params, n, symmetric_gegenbauer(shifted, n), prev)
    return _identification(params, n, recur, chris, gero)


def identify_little_sweep(
    params: ParamPair, base: Sequence[Poly], shifted: Sequence[Poly], n_max: int
) -> Optional[CheckReport]:
    """The first failing ``identify_little(params, n)``, n = 0..n_max, or None.

    base[k] = S_k at (xi, eta) for k <= n_max + 1 and shifted[k] = S_k at
    (xi, eta+1) for k <= n_max, each built once by the caller: the
    per-n check builds four Gegenbauer members for every n.
    """

    def sides(n):
        chris = _christoffel(base[n], base[n + 1], n)
        gero = _geronimus(params, n, shifted[n], shifted[n - 1] if n else None)
        return generate_monic(params, n), chris, gero

    return _first_mismatch(
        range(n_max + 1), sides, lambda n, *polys: _identification(params, n, *polys)
    )


def _lowering_sides(params: ParamPair, op: BandedOp, n: int) -> tuple[Poly, Poly]:
    """T_{alpha/2} P_n and [n] P_{n-1} at (alpha, beta+2); op is T_{alpha/2}."""
    mu = params.alpha / 2
    lhs = op.apply(generate_monic(params, n))
    bracket = n + mu * (1 - (-1) ** n)
    shifted = ParamPair(params.alpha, params.beta + 2)
    return lhs, bracket * generate_monic(shifted, n - 1)


def dunkl_classical_check(params: ParamPair, n: int) -> CheckReport:
    """Dunkl lowering: T_{alpha/2} P_n = [n] P_{n-1} at (alpha, beta+2)."""
    if n < 1:
        raise ValueError("lowering check needs n >= 1")
    op = dunkl_derivative(params.alpha / 2, n)
    return _compare("dunkl_classical", _pdict(params), n, *_lowering_sides(params, op, n))


def dunkl_classical_sweep(params: ParamPair, n_max: int) -> Optional[CheckReport]:
    """The first failing ``dunkl_classical_check(params, n)``, n = 1..n_max,
    or None; T_{alpha/2} is built once, at n_max."""
    op = dunkl_derivative(params.alpha / 2, max(n_max, 0))
    return _first_mismatch(
        range(1, n_max + 1),
        lambda n: _lowering_sides(params, op, n),
        lambda n, lhs, rhs: _compare("dunkl_classical", _pdict(params), n, lhs, rhs),
    )


def _check_raising_domain(params: ParamPair) -> None:
    if params.beta <= 1:
        raise ValueError("raising lands at beta-2, so beta must exceed 1")


def _raising_sides(params: ParamPair, op: BandedOp, n: int) -> tuple[Poly, Poly]:
    """Theta P_n and nu_{n+1} P_{n+1} at (alpha, beta-2); op is Theta."""
    lhs = op.apply(generate_monic(params, n))
    m = n + 1
    nu = m + params.beta - 1 + Fraction(1 - (-1) ** m, 2) * params.alpha
    lowered = ParamPair(params.alpha, params.beta - 2)
    return lhs, nu * generate_monic(lowered, m)


def raising_check(params: ParamPair, n: int) -> CheckReport:
    """Raising: Theta P_n^(alpha,beta) = nu_{n+1} P_{n+1}^(alpha,beta-2).

    nu_m = m + beta - 1 + (1-(-1)^m) alpha/2.  Needs beta > 1 so the
    target parameters stay admissible.
    """
    _check_raising_domain(params)
    op = raising_operator(params.alpha, params.beta, n)
    return _compare("raising", _pdict(params), n, *_raising_sides(params, op, n))


def raising_sweep(params: ParamPair, n_max: int) -> Optional[CheckReport]:
    """The first failing ``raising_check(params, n)``, n = 0..n_max, or
    None; Theta is built once, at n_max."""
    _check_raising_domain(params)
    op = raising_operator(params.alpha, params.beta, max(n_max, 0))
    return _first_mismatch(
        range(n_max + 1),
        lambda n: _raising_sides(params, op, n),
        lambda n, lhs, rhs: _compare("raising", _pdict(params), n, lhs, rhs),
    )


def _intertwiner_xi(params: ParamPair) -> Fraction:
    xi = (params.alpha + params.beta - 1) / 2
    if xi <= -1:
        raise ValueError("intertwiner route needs alpha + beta > -1")
    return xi


def _intertwiner_sides(
    params: ParamPair, op: BandedOp, sigma: Fraction, jac: Poly, n: int
) -> tuple[Poly, Poly]:
    """sigma_n^{-1} V_{alpha/2} J_n and P_n; op is V_{alpha/2}, sigma = sigma_n
    and jac = J_n, the monic standard Jacobi polynomial at (xi, xi+1)."""
    return op.apply(jac) / sigma, generate_monic(params, n)


def intertwiner_check(params: ParamPair, n: int) -> CheckReport:
    """Intertwiner route: sigma_n^{-1} V_{alpha/2} applied to the standard
    Jacobi polynomial at (xi, xi+1), xi = (alpha+beta-1)/2, equals P_n."""
    xi = _intertwiner_xi(params)
    mu = params.alpha / 2
    jac = monic_jacobi_sym(JacobiParams(xi, xi + 1), n)
    sides = _intertwiner_sides(params, dunkl_intertwiner(mu, n), intertwiner_sigma(mu, n), jac, n)
    return _compare("intertwiner", _pdict(params), n, *sides)


def intertwiner_sweep(params: ParamPair, n_max: int) -> Optional[CheckReport]:
    """The first failing ``intertwiner_check(params, n)``, n = 0..n_max, or
    None; V_{alpha/2}, its sigma table and the Jacobi sequence J_0..J_n_max
    are built once, at n_max."""
    xi = _intertwiner_xi(params)
    mu = params.alpha / 2
    top = max(n_max, 0)
    op = dunkl_intertwiner(mu, top)
    sigmas = _intertwiner_sigmas(mu, top)
    jacs = jacobi_sequence(JacobiParams(xi, xi + 1), top)
    return _first_mismatch(
        range(n_max + 1),
        lambda n: _intertwiner_sides(params, op, sigmas[n], jacs[n], n),
        lambda n, lhs, rhs: _compare("intertwiner", _pdict(params), n, lhs, rhs),
    )


def _gegenbauer_lowering_sides(
    jp: JacobiParams, op: BandedOp, s_n: Poly, t_prev: Poly, n: int
) -> tuple[Poly, Poly]:
    """T_{xi+1/2} S_n and [n] S_{n-1} at (xi, eta+1); op is T_{xi+1/2},
    s_n = S_n at (xi, eta) and t_prev = S_{n-1} at (xi, eta+1)."""
    mu = jp.xi + Fraction(1, 2)
    bracket = n + mu * (1 - (-1) ** n)
    return op.apply(s_n), bracket * t_prev


def _gegenbauer_report(jp: JacobiParams, n: int, lhs: Poly, rhs: Poly) -> CheckReport:
    return _compare("gegenbauer_dunkl", {"xi": str(jp.xi), "eta": str(jp.eta)}, n, lhs, rhs)


def gegenbauer_dunkl_sweep(
    jp: JacobiParams, base: Sequence[Poly], shifted: Sequence[Poly], n_max: int
) -> Optional[CheckReport]:
    """The first failing generalized Gegenbauer lowering
    T_{xi+1/2} S_n^(xi,eta) = [n] S_{n-1}^(xi,eta+1), n = 1..n_max, or
    None; base[k] = S_k at (xi, eta) for k <= n_max and shifted[k] = S_k
    at (xi, eta+1) for k < n_max, and T_{xi+1/2} is built once, at n_max."""
    op = dunkl_derivative(jp.xi + Fraction(1, 2), max(n_max, 0))
    return _first_mismatch(
        range(1, n_max + 1),
        lambda n: _gegenbauer_lowering_sides(jp, op, base[n], shifted[n - 1], n),
        lambda n, lhs, rhs: _gegenbauer_report(jp, n, lhs, rhs),
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
