"""Spectral transforms tying the family to Jacobi-type polynomials.

The little -1 Jacobi polynomials coincide with a Christoffel transform
(weight multiplied by x+1) of the generalized Gegenbauer polynomials,
equivalently a two-term Geronimus combination of the same family at a
shifted second parameter.  This module builds the classical members and
checks, coefficient-exactly, that all three routes agree, together with
the Dunkl lowering of both families, the raising and intertwiner
properties.

The module holds the identities only; `verify` scans their degrees.
Each identity is written once, as a ``..._sides(params, top)`` factory
that builds its operator and auxiliary members once, at a top degree,
and gives both sides at any degree up to it; an identity `holds` at a
degree when all its sides are equal.  A per-n check (`identify_little`,
`dunkl_classical_check`, `raising_check`, `intertwiner_check`) is the
factory at its one degree and returns whether the identity holds.

Every classical member is indexed by a family pair (alpha, beta) and
built one way only, from a three-term recurrence, one integer
`polys.recurrence_step` per degree, O(N^2) in all.  The Jacobi
polynomials of the weight (1-x)^xi (1+x)^(xi+1) that the intertwiner
maps are the family's members at (0, 2 xi + 1), as that weight is
(1-x^2)^xi (1+x).  The generalized Gegenbauer polynomials
(`gegenbauer_sequence`) of the weight |x|^alpha (1-x^2)^((beta-1)/2)
are indexed by the pair whose family weight is theirs times 1+x; under
T_{alpha/2} they lower to the pair (alpha, beta+2) as the family does.
`symmetric_gegenbauer` and `christoffel_transform` read one or two
members off a sequence.  The terminating-2F1 closed forms of the same
members live in the tests, as references the sequences are checked
against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .family import ParamPair, generate_monic
from .operators import dunkl_band, dunkl_intertwiner, raising_band
from .polys import Poly, recurrence_step

__all__ = [
    "christoffel_transform",
    "dunkl_classical_check",
    "extract_recurrence",
    "gegenbauer_sequence",
    "geronimus_coefficient",
    "holds",
    "identification_sides",
    "identify_little",
    "intertwiner_check",
    "intertwiner_sides",
    "lowering_sides",
    "raising_check",
    "raising_sides",
    "symmetric_gegenbauer",
]


def gegenbauer_sequence(params: ParamPair, n_max: int) -> list[Poly]:
    """The monic generalized Gegenbauer polynomials S_0..S_n_max of the
    symmetric weight |x|^alpha (1-x^2)^((beta-1)/2), the family's weight
    without its factor 1+x.  With xi = (alpha-1)/2 and eta = (beta-1)/2
    they follow the monic recurrence S_{n+1} = x S_n - gamma_n S_{n-1}
    (every b_n is 0), with
      gamma_{2m} = m(m+eta)/((2m+xi+eta)(2m+xi+eta+1)),
      gamma_{2m+1} = (m+xi+1)(m+xi+eta+1)/((2m+xi+eta+1)(2m+xi+eta+2)),
    and gamma_1 = (xi+1)/(xi+eta+2) with the factor xi+eta+1 cancelled,
    which covers the removable 0/0 at xi + eta + 1 = 0.  Each coefficient
    is one Fraction of two integers: xi and eta over the denominator 2D
    of the pair's integers (`ParamPair.ints`).  One integer
    `polys.recurrence_step` per degree, O(n_max^2) int operations in all.
    """
    if n_max < 0:
        raise ValueError("degree must be nonnegative")
    d, a, b = params.ints
    d, xi, eta = 2 * d, a - d, b - d
    zero = Fraction(0)

    def gamma(n: int) -> Fraction:
        if n == 0:  # gamma_0 multiplies S_{-1} = 0
            return zero
        md = (n // 2) * d
        low = 2 * md + xi + eta  # 2D (2m + xi + eta)
        if n % 2 == 0:
            return Fraction(md * (md + eta), low * (low + d))
        if n == 1:
            return Fraction(xi + d, xi + eta + 2 * d)
        return Fraction((md + xi + d) * (md + xi + eta + d), (low + d) * (low + 2 * d))

    out, prev = [Poly.ONE], Poly.ZERO
    for n in range(n_max):
        out.append(recurrence_step(out[-1], prev, zero, gamma(n)))
        prev = out[-2]
    return out


def symmetric_gegenbauer(params: ParamPair, n: int) -> Poly:
    """The monic generalized Gegenbauer member S_n, weight
    |x|^alpha (1-x^2)^((beta-1)/2): the last entry of `gegenbauer_sequence`."""
    return gegenbauer_sequence(params, n)[n]


def christoffel_transform(params: ParamPair, n: int) -> Poly:
    """Kernel-polynomial quotient (S_{n+1} - A_n S_n)/(x+1), exact.

    A_n = S_{n+1}(-1)/S_n(-1); S_n(-1) never vanishes for admissible
    parameters (all zeros lie inside (-1,1)).  The division must leave a
    zero remainder; a nonzero one signals an internal inconsistency.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    *_, s_n, s_next = gegenbauer_sequence(params, n + 1)
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
    generalized Gegenbauer members at the pair.  The Geronimus combination
    S_n - B_n S_{n-1} takes its members at (alpha, beta+2), the
    Christoffel-shifted pair: the same combination at the unshifted pair
    does not reproduce the family.
    """
    base = gegenbauer_sequence(params, top + 1)
    shifted = gegenbauer_sequence(ParamPair(params.alpha, params.beta + 2), top)

    def sides(n: int) -> tuple[Poly, Poly, Poly]:
        gero = shifted[n] - geronimus_coefficient(params, n) * shifted[n - 1] if n else shifted[0]
        return generate_monic(params, n), _christoffel(base[n], base[n + 1], n), gero

    return sides


def identify_little(params: ParamPair, n: int) -> bool:
    """Recurrence member == Christoffel transform == Geronimus combination
    at degree n, coefficient-exactly."""
    return holds(identification_sides(params, n)(n))


def _family_sequence(params: ParamPair, n_max: int) -> list[Poly]:
    """P_0..P_n_max, the family's members (`generate_monic`)."""
    return [generate_monic(params, k) for k in range(n_max + 1)]


def lowering_sides(
    params: ParamPair, top: int, sequence: Callable[[ParamPair, int], list[Poly]] = _family_sequence
) -> _Sides:
    """n -> (T_{alpha/2} M_n, [n]_{alpha/2} M_{n-1} at (alpha, beta+2)),
    n >= 1, with [n]_mu = n + (1-(-1)^n) mu and M the members that
    `sequence` builds: the family's by default, or the generalized
    Gegenbauer ones (`gegenbauer_sequence`), whose lowering
    T_{xi+1/2} S_n^(xi,eta) = [n] S_{n-1}^(xi,eta+1) is this one, as
    xi + 1/2 = alpha/2 and eta + 1 is the shift beta -> beta + 2."""
    mu = params.alpha / 2
    op = dunkl_band(mu).table(top)
    base = sequence(params, top)
    lowered = sequence(ParamPair(params.alpha, params.beta + 2), top)
    return lambda n: (op.apply(base[n]), (n + mu * (1 - (-1) ** n)) * lowered[n - 1])


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
    """n -> (sigma_n^{-1} V_{alpha/2} J_n, P_n), with J_n the monic Jacobi
    polynomial of the weight (1-x)^xi (1+x)^(xi+1), xi = (alpha+beta-1)/2,
    and sigma_n the diagonal of V_{alpha/2}.  That weight is
    (1-x^2)^xi (1+x), the family's at (0, alpha+beta), so J_n is the family
    member there.  Needs alpha + beta > -1 so that pair is admissible."""
    if params.alpha + params.beta <= -1:
        raise ValueError("intertwiner route needs alpha + beta > -1")
    op = dunkl_intertwiner(params.alpha / 2, top)
    jacobi = ParamPair(0, params.alpha + params.beta)

    def sides(n: int) -> tuple[Poly, Poly]:
        return op.apply(generate_monic(jacobi, n)) / op.actions[n][n], generate_monic(params, n)

    return sides


def intertwiner_check(params: ParamPair, n: int) -> bool:
    """Intertwiner route: sigma_n^{-1} V_{alpha/2} applied to the family
    member at (0, alpha+beta) equals P_n."""
    return holds(intertwiner_sides(params, n)(n))


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
