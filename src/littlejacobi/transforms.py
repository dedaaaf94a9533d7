"""Spectral transforms tying the family to Jacobi-type polynomials.

The little -1 Jacobi polynomials coincide with a Christoffel transform
(weight multiplied by x+1) of the generalized Gegenbauer polynomials,
equivalently a two-term Geronimus combination of the same family at a
shifted second parameter.  This module builds the classical members and
checks, coefficient-exactly, that all three routes agree, together with
the family's Dunkl lowering, the raising and intertwiner properties, and
the generalized Gegenbauer lowering.

The module holds the identities only; `verify` scans their degrees.
Each identity is written once, as a ``..._sides(params, top)`` factory
that builds its operator and auxiliary members once, at a top degree,
and gives both sides at any degree up to it; an identity `holds` at a
degree when all its sides are equal.  A per-n check (`identify_little`,
`dunkl_classical_check`, `raising_check`, `intertwiner_check`) is the
factory at its one degree and returns whether the identity holds.

The classical members are built one way only: the sequences
(`jacobi_sequence`, `gegenbauer_sequence`) give every degree up to N
from the three-term recurrence, one integer `polys.recurrence_step` per
degree as in `family.generate_monic`, O(N^2) in all.
`symmetric_gegenbauer` and `christoffel_transform` read one or two
members off a sequence.  The terminating-2F1 closed forms of the same
members live in the tests, as references the sequences are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .family import ParamPair, generate_monic
from .operators import dunkl_band, dunkl_intertwiner, raising_band
from .polys import Poly, as_fraction, over_common_denominator, recurrence_step

__all__ = [
    "JacobiParams",
    "christoffel_transform",
    "dunkl_classical_check",
    "extract_recurrence",
    "gegenbauer_lowering_sides",
    "gegenbauer_sequence",
    "geronimus_coefficient",
    "holds",
    "identification_sides",
    "identify_little",
    "intertwiner_check",
    "intertwiner_sides",
    "jacobi_sequence",
    "lowering_sides",
    "raising_check",
    "raising_sides",
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


def jacobi_sequence(jp: JacobiParams, n_max: int) -> list[Poly]:
    """The monic standard Jacobi polynomials J_0..J_n_max on [-1,1], weight
    (1-x)^xi (1+x)^eta, from the monic Jacobi recurrence (Koekoek, Lesky
    and Swarttouw, 2010, §9.8), with a = xi, b = eta:
      B_0 = (b - a)/(a + b + 2),
      B_n = (b^2 - a^2)/((2n+a+b)(2n+a+b+2)),
      A_n = 4n(n+a)(n+b)(n+a+b)/((2n+a+b)^2 (2n+a+b+1)(2n+a+b-1)),
    and A_1 = 4(1+a)(1+b)/((2+a+b)^2 (3+a+b)) with the factor 1+a+b
    cancelled, which covers the removable 0/0 at a + b = -1.  Each
    coefficient is one Fraction of two integers, scaled by the common
    denominator D of a and b as `family.recurrence_coeffs` does.
    """
    d, (a, b) = over_common_denominator((jp.xi, jp.eta))

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
    """The monic generalized Gegenbauer polynomials S_0..S_n_max, from the
    monic recurrence S_{n+1} = x S_n - gamma_n S_{n-1} of the weight
    |x|^(2 xi + 1) (1-x^2)^eta (every b_n is 0), with
      gamma_{2m} = m(m+eta)/((2m+xi+eta)(2m+xi+eta+1)),
      gamma_{2m+1} = (m+xi+1)(m+xi+eta+1)/((2m+xi+eta+1)(2m+xi+eta+2)),
    and gamma_1 = (xi+1)/(xi+eta+2) with the factor xi+eta+1 cancelled,
    which covers the removable 0/0 at xi + eta + 1 = 0.  Each coefficient
    is one Fraction of two integers over the common denominator D.
    """
    d, (xi, eta) = over_common_denominator((jp.xi, jp.eta))
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


def symmetric_gegenbauer(jp: JacobiParams, n: int) -> Poly:
    """The monic generalized Gegenbauer member S_n, weight
    |x|^(2 xi + 1) (1-x^2)^eta: the last entry of `gegenbauer_sequence`."""
    return gegenbauer_sequence(jp, n)[n]


def christoffel_transform(jp: JacobiParams, n: int) -> Poly:
    """Kernel-polynomial quotient (S_{n+1} - A_n S_n)/(x+1), exact.

    A_n = S_{n+1}(-1)/S_n(-1); S_n(-1) never vanishes for admissible
    parameters (all zeros lie inside (-1,1)).  The division must leave a
    zero remainder; a nonzero one signals an internal inconsistency.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    *_, s_n, s_next = gegenbauer_sequence(jp, n + 1)
    return _christoffel(s_n, s_next, n)


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


#: n -> both sides (or all three routes) of one identity at degree n
_Sides = Callable[[int], tuple[Poly, ...]]


def holds(sides: tuple[Poly, ...]) -> bool:
    """Whether all sides of an identity at one degree are equal: one exact
    comparison of coefficient tuples per side."""
    first, *rest = sides
    return all(p == first for p in rest)


# Each identity below is written once, as a ``..._sides(params, top)``
# factory: it builds the operator and the auxiliary members once, at degree
# top, and returns n -> (lhs, rhs[, ...]) for every n <= top.  An operator
# table's rows do not depend on its truncation, and a sequence's members do
# not depend on its length, so every degree sees the same polynomials
# whatever top is.  verify scans 0..top (1..top for the lowerings); a
# per-n check reads its one degree.


def identification_sides(params: ParamPair, top: int) -> _Sides:
    """n -> (P_n, Christoffel transform, Geronimus combination).

    The Christoffel route divides S_{n+1} - A_n S_n by x+1, with S_k the
    generalized Gegenbauer members at xi = (alpha-1)/2, eta = (beta-1)/2.
    The Geronimus combination S_n - B_n S_{n-1} takes its members at
    (xi, eta+1), the Christoffel-shifted parameter: the same combination
    at the unshifted (xi, eta) does not reproduce the family.
    """
    jp = JacobiParams((params.alpha - 1) / 2, (params.beta - 1) / 2)
    base = gegenbauer_sequence(jp, top + 1)
    shifted = gegenbauer_sequence(JacobiParams(jp.xi, jp.eta + 1), top)

    def sides(n: int) -> tuple[Poly, Poly, Poly]:
        gero = shifted[n] - geronimus_coefficient(params, n) * shifted[n - 1] if n else shifted[0]
        return generate_monic(params, n), _christoffel(base[n], base[n + 1], n), gero

    return sides


def identify_little(params: ParamPair, n: int) -> bool:
    """Recurrence member == Christoffel transform == Geronimus combination
    at degree n, coefficient-exactly."""
    return holds(identification_sides(params, n)(n))


def lowering_sides(params: ParamPair, top: int) -> _Sides:
    """n -> (T_{alpha/2} P_n, [n] P_{n-1} at (alpha, beta+2)), n >= 1."""
    mu = params.alpha / 2
    op = dunkl_band(mu).table(top)
    shifted = ParamPair(params.alpha, params.beta + 2)

    def sides(n: int) -> tuple[Poly, Poly]:
        bracket = n + mu * (1 - (-1) ** n)
        return op.apply(generate_monic(params, n)), bracket * generate_monic(shifted, n - 1)

    return sides


def dunkl_classical_check(params: ParamPair, n: int) -> bool:
    """Dunkl lowering: T_{alpha/2} P_n = [n] P_{n-1} at (alpha, beta+2)."""
    if n < 1:
        raise ValueError("lowering check needs n >= 1")
    return holds(lowering_sides(params, n)(n))


def raising_sides(params: ParamPair, top: int) -> _Sides:
    """n -> (Theta P_n, nu_{n+1} P_{n+1} at (alpha, beta-2)),
    nu_m = m + beta - 1 + (1-(-1)^m) alpha/2, one Fraction of the pair's
    integers (`ParamPair.ints`).  Needs beta > 1 so the target
    parameters stay admissible."""
    if params.beta <= 1:
        raise ValueError("raising lands at beta-2, so beta must exceed 1")
    op = raising_band(params.alpha, params.beta).table(top)
    lowered = ParamPair(params.alpha, params.beta - 2)
    d, a, b = params.ints

    def sides(n: int) -> tuple[Poly, Poly]:
        m = n + 1
        nu = Fraction((m - 1) * d + b + (a if m % 2 else 0), d)
        return op.apply(generate_monic(params, n)), nu * generate_monic(lowered, m)

    return sides


def raising_check(params: ParamPair, n: int) -> bool:
    """Raising: Theta P_n^(alpha,beta) = nu_{n+1} P_{n+1}^(alpha,beta-2)."""
    return holds(raising_sides(params, n)(n))


def intertwiner_sides(params: ParamPair, top: int) -> _Sides:
    """n -> (sigma_n^{-1} V_{alpha/2} J_n, P_n), with J_n the monic standard
    Jacobi polynomial at (xi, xi+1), xi = (alpha+beta-1)/2, and sigma_n the
    diagonal of V_{alpha/2}.  Needs alpha + beta > -1 so that (xi, xi+1)
    is admissible."""
    xi = (params.alpha + params.beta - 1) / 2
    if xi <= -1:
        raise ValueError("intertwiner route needs alpha + beta > -1")
    mu = params.alpha / 2
    op = dunkl_intertwiner(mu, top)
    jacs = jacobi_sequence(JacobiParams(xi, xi + 1), top)
    return lambda n: (op.apply(jacs[n]) / op.actions[n][n], generate_monic(params, n))


def intertwiner_check(params: ParamPair, n: int) -> bool:
    """Intertwiner route: sigma_n^{-1} V_{alpha/2} applied to the standard
    Jacobi polynomial at (xi, xi+1), xi = (alpha+beta-1)/2, equals P_n."""
    return holds(intertwiner_sides(params, n)(n))


def gegenbauer_lowering_sides(jp: JacobiParams, top: int) -> _Sides:
    """n -> (T_{xi+1/2} S_n^(xi,eta), [n] S_{n-1}^(xi,eta+1)), n >= 1."""
    mu = jp.xi + Fraction(1, 2)
    op = dunkl_band(mu).table(top)
    base = gegenbauer_sequence(jp, top)
    shifted = gegenbauer_sequence(JacobiParams(jp.xi, jp.eta + 1), top)
    return lambda n: (op.apply(base[n]), (n + mu * (1 - (-1) ** n)) * shifted[n - 1])


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
