"""Trigonometric well quantum mechanics for the alpha = 0 subfamily.

An infinitely deep well on (-pi/2, pi/2) with potential
U(y) = (a+1/2)(a+1/2 - sin y)/cos^2 y (no additive constant) has
closed-form eigenfunctions psi_n = Phi * (degree-n polynomial in sin y)
and energies (a+n+1)^2.  The polynomial factor is the family member at
alpha = 0, beta = 2a + 1 (`family.generate_monic`, built by the
three-term recurrence), scaled to equal 1 at sin y = 1; it is the
terminating 2F1(-n, n+2a+2; a+1; (1 - sin y)/2).  A first-order
reflection operator L1 squares to the Hamiltonian; composing it with
the parity flip exchanges the well with its mirror image.

The well is that family conjugated by Phi.  With s = sin y, c = cos y,
k = a + 1/2 and Phi = sqrt(1+s) c^(a+1/2), the log-derivative of Phi is
ell = (1 - 2(a+1)s)/(2c), and Phi(-y)/Phi(y) = sqrt(1-s)/sqrt(1+s) =
(1-s)/c is rational.  Dividing the well's operators by Phi(y) leaves
polynomial operators in s (Post, Vinet and Zhedanov, J. Phys. A 44
(2011) 435301):

- L1 f(y) = -f'(-y) - k f(-y)/c.  At -y, ell is (1 + 2(a+1)s)/(2c), so
  ell(-y) + k/c = (a+1)(1+s)/c, and for f = Phi p
      (L1 Phi p)/Phi = -(1-s)/c [(ell(-y) + k/c) p(-s) + c p'(-s)]
                     = -(a+1) p(-s) - (1-s) p'(-s),
  which is B = (1-s) d/ds - (a+1) (`darboux_band`) after the parity
  flip p(s) -> p(-s) (`PARITY_BAND`), and on s**n it is
  1/2 little_jacobi_band(0, 2a+1) - (a+1) (`l1_band`).
- H1 f = -f'' + U f.  F'' is as in PhiPoly, and U - ell^2 - ell' =
  (a+1)^2, so
      (H1 Phi p)/Phi = (a+1)^2 p - (1 - (2a+3)s) p' - (1-s^2) p''
                     = ((a+1)^2 - sturm_liouville_band(a)) p   (`h1_band`).
- The superpotential chi = -k/c has chi^2 = k^2/c^2 and chi' = -k s/c^2,
  so chi^2 +- chi' = k(k -+ s)/c^2 = U(+-y): an identity of numerators
  over c^2 = 1 - s^2 (`potential_numerator`).

So L1^2 = H1 is the family's quadratic relation
L^2 - 4(a+1) L + 4 S = 0 conjugated, the L1 eigen-relation
L1 p_n = (-1)^(n+1) (a+n+1) p_n is the family's eigen-relation, and the
Darboux flip is L1 = B after the flip.  The susy suite of `verify`
proves all of them as exact band and Poly identities.  Phi > 0 inside
the well, so the nodes of psi_n are the zeros of p_n in (-1, 1), which
`node_count` counts exactly.

Floats are left to the evaluation boundary, where a and y become floats
through `family.to_float`: a value beyond the float range raises
FloatRangeError naming it, from every entry that reads a or y, and so
does a PhiPoly whose coefficients lie beyond it.  A WellGrid takes the
per-point pieces sin y, cos y, Phi(y) and the log-derivative of Phi (a
sin, a cos, a sqrt and a pow) at most once per grid point and shares
them across every state it evaluates, so the values and jets
(F, F', F'') of many states on one grid pay for the trigonometry once.
Phi's pieces wait for the first state, so a grid that reads only U
takes sin and cos alone.  A state then costs its Horner passes (one
over p for a value, one fused pass over p, p' and p'' for the jet, see
PhiPoly).  potential and apply_H1 are views of a grid on their one
point, and apply_H1 forms -F'' + U F from the jet, as verify's boundary
row does on its grid; apply_L1 and PhiPoly's value/d1/d2 take a point's
pieces themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .family import ParamPair, generate_monic, recurrence_coeffs, to_float
from .operators import (
    DERIVATIVE_BAND,
    IDENTITY_BAND,
    MULT_X_BAND,
    Band,
    little_jacobi_band,
    sturm_liouville_band,
)
from .polys import Poly, as_fraction, horner, horner3, horner_rows

__all__ = [
    "DEFAULT_MARGIN",
    "PARITY_BAND",
    "PhiPoly",
    "SchrodingerParams",
    "WellGrid",
    "apply_H1",
    "apply_L1",
    "darboux_band",
    "default_grid",
    "eigenstate",
    "h1_band",
    "l1_band",
    "node_count",
    "potential",
    "potential_numerator",
    "sign_changes",
]

HALF_PI = math.pi / 2.0
#: cos^(a+1/2) underflows and 1/cos blows up at the walls; grids stop short.
DEFAULT_MARGIN = 1e-3
#: s**n -> (-1)**n s**n: p(s) -> p(-s), the parity flip y -> -y in s = sin y.
PARITY_BAND = Band({0: [1]}, {0: [-1]})


def _check_a(a) -> float:
    value = to_float(a, "well parameter a")
    if not value > 0.5:
        raise ValueError("well parameter a must exceed 1/2")
    return value


def _check_y(y) -> float:
    value = to_float(y, "y")
    if not -HALF_PI < value < HALF_PI:
        raise ValueError("y must lie strictly inside (-pi/2, pi/2)")
    return value


@dataclass(frozen=True)
class SchrodingerParams:
    """Well parameter a > 1/2 and the recurrence family of its states."""

    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        _check_a(self.a)

    @property
    def family(self) -> ParamPair:
        """alpha = 0, beta = 2a + 1: the pair whose members are the
        states' polynomial factors."""
        return ParamPair(0, 2 * self.a + 1)


def _potential(a: float, s: float, c: float) -> float:
    return (a + 0.5) * (a + 0.5 - s) / (c * c)


def potential_numerator(a) -> Poly:
    """k (k - s), k = a + 1/2: U(y) times cos^2 y as a Poly in s = sin y.
    U(-y)'s numerator is its reflection."""
    k = as_fraction(a) + Fraction(1, 2)
    return Poly([k * k, -k])


def l1_band(a) -> Band:
    """(L1 Phi p)/Phi on p(s): 1/2 little_jacobi_band(0, 2a+1) - (a+1),
    the band of the well's family."""
    well = SchrodingerParams(a)
    pair = well.family
    return Fraction(1, 2) * little_jacobi_band(pair.alpha, pair.beta) - (well.a + 1) * IDENTITY_BAND


def h1_band(a) -> Band:
    """(H1 Phi p)/Phi on p(s): (a+1)^2 - sturm_liouville_band(a)."""
    a = as_fraction(a)
    return (a + 1) ** 2 * IDENTITY_BAND - sturm_liouville_band(a)


def darboux_band(a) -> Band:
    """B = (1-s) d/ds - (a+1); L1 is B after the parity flip."""
    a = as_fraction(a)
    return DERIVATIVE_BAND - MULT_X_BAND @ DERIVATIVE_BAND - (a + 1) * IDENTITY_BAND


def _trig(y: float) -> tuple[float, float]:
    """(sin y, cos y): the only place the well takes sin and cos."""
    return math.sin(y), math.cos(y)


def _state_pieces(a: float, s: float, c: float) -> tuple[float, float, float, float]:
    """(s, c, Phi, ell) at the point with sin s and cos c: the only place
    the states take sqrt and pow."""
    phi = math.sqrt(1.0 + s) * c ** (a + 0.5)
    return s, c, phi, (1.0 - 2.0 * (a + 1.0) * s) / (2.0 * c)


def _pieces(a: float, y: float) -> tuple[float, float, float, float]:
    """(s, c, Phi, ell) at y."""
    return _state_pieces(a, *_trig(y))


class PhiPoly:
    """Phi(y) * p(sin y) with closed-form first and second derivatives.

    With s = sin y, c = cos y and the log-derivative
    ell = Phi'/Phi = (1 - 2(a+1)s)/(2c), whose own derivative is
    ell' = (s - 2(a+1))/(2c^2):

        F'  = Phi * (ell p + c p')
        F'' = Phi * ((ell^2 + ell') p + 2 ell c p' - s p' + c^2 p'')

    value takes one plain Horner pass over p, since a three-way pass
    would slow the values that wavefunction grids read; d1 and d2 read
    the jet (F, F', F''), one fused Horner pass (`horner3`) over p, p'
    and p''.  Both take the pieces (s, c, Phi, ell) of one point, and a
    WellGrid hands the pieces it has already taken, so a grid pays only
    for the Horner passes.
    """

    __slots__ = ("a", "poly", "_p", "_dp", "_ddp", "_rows")

    def __init__(self, a, poly: Poly):
        self.a = _check_a(a)
        self.poly = poly
        dp = poly.derivative()
        what = "a coefficient of the polynomial factor"
        self._p = tuple([to_float(c, what) for c in poly.coeffs])
        self._dp = tuple([to_float(c, what) for c in dp.coeffs])
        self._ddp = tuple([to_float(c, what) for c in dp.derivative().coeffs])
        # below degree 2 p'' is empty, which the fused pass would read as
        # +0.0 where horner gives -0.0 at s < 0: such p keep three passes
        self._rows = horner_rows(self._p, self._dp, self._ddp) if self._ddp else None

    def _value(self, pieces) -> float:
        """F at the point whose pieces are given."""
        return pieces[2] * horner(self._p, pieces[0])

    def _jet(self, pieces) -> tuple[float, float, float]:
        """(F, F', F'') at the point whose pieces are given."""
        s, c, phi, ell = pieces
        if self._rows is not None:
            p0, p1, p2 = horner3(self._rows, s)
        else:
            p0, p1, p2 = horner(self._p, s), horner(self._dp, s), horner(self._ddp, s)
        ell_prime = (s - 2.0 * (self.a + 1.0)) / (2.0 * c * c)
        return (
            phi * p0,
            phi * (ell * p0 + c * p1),
            phi * ((ell * ell + ell_prime) * p0 + (2.0 * ell * c - s) * p1 + c * c * p2),
        )

    def value(self, y) -> float:
        return self._value(_pieces(self.a, _check_y(y)))

    def d1(self, y) -> float:
        return self._jet(_pieces(self.a, _check_y(y)))[1]

    def d2(self, y) -> float:
        return self._jet(_pieces(self.a, _check_y(y)))[2]


def _state_poly(a, n: int) -> Poly:
    # 2F1(-n, n+2a+2; a+1; (1-s)/2) as an exact polynomial in s: the
    # (0, 2a+1) family member, scaled to 1 at s = 1 (no zero lies there)
    p = generate_monic(SchrodingerParams(a).family, n)
    return p * Fraction(p.den, sum(p.nums))


def eigenstate(a, n: int) -> PhiPoly:
    """psi_n as a PhiPoly; the polynomial factor is exact in sin y."""
    _check_a(a)
    if n < 0:
        raise ValueError("level index must be nonnegative")
    return PhiPoly(a, _state_poly(a, n))


def _check_state(a: float, f: PhiPoly) -> None:
    if f.a != a:
        raise ValueError("state and grid must share the well parameter a")


def default_grid(points: int) -> tuple[float, ...]:
    """Uniform grid on [-pi/2 + DEFAULT_MARGIN, pi/2 - DEFAULT_MARGIN]."""
    if points < 2:
        raise ValueError("need at least two grid points")
    lo = -HALF_PI + DEFAULT_MARGIN
    hi = HALF_PI - DEFAULT_MARGIN
    step = (hi - lo) / (points - 1)
    return tuple([lo + i * step for i in range(points)])


def sign_changes(values) -> int:
    """Sign changes along values; zeros are skipped."""
    changes = 0
    previous = 0
    for value in values:
        sign = (value > 0.0) - (value < 0.0)
        if sign == 0:
            continue
        if previous != 0 and sign != previous:
            changes += 1
        previous = sign
    return changes


class WellGrid:
    """The per-point pieces of the well on a fixed grid of y, taken once
    and shared by every state evaluated on it.

    sin y, cos y and U(y) are taken when the grid is made.  Phi and its
    log-derivative at y (a sqrt and a pow) are taken when a state is
    first evaluated, so a grid that only reads U pays for no more.  A
    state's values then cost one Horner pass per point, and its jets
    (f, f', f''), from which a caller forms H1 f = -f'' + U f, one fused
    pass per point, with no sin, cos, sqrt or pow.
    """

    __slots__ = ("a", "ys", "potential", "_sin_cos", "_here")

    def __init__(self, a, ys: Sequence[float]):
        self.a = _check_a(a)
        self.ys = tuple([_check_y(y) for y in ys])
        self._sin_cos = [_trig(y) for y in self.ys]
        self._here = None
        #: U(y) at each grid point
        self.potential = tuple([_potential(self.a, s, c) for s, c in self._sin_cos])

    def _pieces_here(self) -> list:
        if self._here is None:
            self._here = [_state_pieces(self.a, s, c) for s, c in self._sin_cos]
        return self._here

    def values(self, f: PhiPoly) -> list[float]:
        """f(y) at each grid point."""
        _check_state(self.a, f)
        return [f._value(here) for here in self._pieces_here()]

    def jets(self, f: PhiPoly) -> list[tuple[float, float, float]]:
        """(f, f', f'') at each grid point; f equals `values` bit for bit."""
        _check_state(self.a, f)
        return [f._jet(here) for here in self._pieces_here()]


def potential(a, y) -> float:
    """U(y) = (a+1/2)(a+1/2 - sin y)/cos^2 y on |y| < pi/2."""
    return WellGrid(a, (y,)).potential[0]


def apply_L1(a, f: PhiPoly, y) -> float:
    """(d/dy - (a+1/2)/cos y) applied to the parity flip of f:
    -f'(-y) - (a+1/2) f(-y)/cos y, from the pieces at -y.  f is a
    PhiPoly of the same a; one of another well is refused."""
    a = _check_a(a)
    mirror = _pieces(a, -_check_y(y))
    _check_state(a, f)
    g0, g1, _ = f._jet(mirror)
    return -g1 - (a + 0.5) * g0 / mirror[1]


def apply_H1(a, f: PhiPoly, y) -> float:
    """-f''(y) + U(y) f(y), from `WellGrid.jets` on the one point y."""
    grid = WellGrid(a, (y,))
    [(f0, _, f2)] = grid.jets(f)
    return -f2 + grid.potential[0] * f0


def node_count(a, n: int) -> int:
    """The nodes of psi_n inside the well, counted exactly; equals n.

    Phi > 0 inside the well, so they are the zeros of p_n in (-1, 1).
    With u_1..u_{n-1} > 0, the monic members P_n, ..., P_0 form a Sturm
    sequence: P_0 = 1, at a zero of P_k its neighbours
    P_{k+1} = -u_k P_{k-1} have opposite signs, and P_n' P_{n-1} > 0 at
    the zeros of P_n (Christoffel-Darboux).  So when P_n(+-1) != 0, the
    zeros in (-1, 1) number the sign changes of the chain at -1 minus
    those at +1.  The chain is the cached members `generate_monic`
    returns, each read at +-1 as the integer sum of its numerators, with
    signs (-1)^i at -1: its denominator is positive, so the signs are
    exact.
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    family = SchrodingerParams(a).family
    if any(recurrence_coeffs(family, k)[0] <= 0 for k in range(1, n)):
        raise ValueError("a Sturm sequence needs u_k > 0 for 1 <= k < n")
    chain = [generate_monic(family, k).nums for k in range(n + 1)]
    changes = []
    for x in (-1, 1):
        values = [sum(c[::2]) + x * sum(c[1::2]) for c in chain]
        if not values[-1]:
            raise ValueError(f"P_{n} vanishes at {x}, where the count needs a sign")
        changes.append(sign_changes(values))
    return changes[0] - changes[1]
