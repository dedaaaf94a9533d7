"""Trigonometric well quantum mechanics for the alpha = 0 subfamily.

An infinitely deep well on (-pi/2, pi/2) with potential
U(y) = (a+1/2)(a+1/2 - sin y)/cos^2 y (no additive constant) has
closed-form eigenfunctions psi_n = Phi * (degree-n polynomial in sin y)
and energies (a+n+1)^2.  The polynomial factor is the family member at
alpha = 0, beta = 2a + 1 (`family.generate_monic`, built by the
three-term recurrence), scaled to equal 1 at sin y = 1; it is the
terminating 2F1(-n, n+2a+2; a+1; (1 - sin y)/2).  A first-order
reflection operator L1 squares to the Hamiltonian; composing it with
the parity flip exchanges the well with its mirror image.  All
derivatives here are analytic, so the susy suite of `verify`, which
holds every residual check, measures the identities themselves, not a
finite difference scheme.

Every evaluation goes through a WellGrid: it takes the per-point
pieces sin y, cos y, Phi(y) and the log-derivative of Phi (a sin, a cos,
a sqrt and a pow) at most once per grid point, and shares them across
every state, every derivative and both signs of y, so a check over many
states on one grid pays for the trigonometry once.  Phi's pieces wait
for the first state, so a grid that reads only U takes sin and cos
alone.  A state then costs
its Horner passes over p, p' and p'' (one fused pass for the full jet,
see PhiPoly).  The per-point functions (potential, apply_L1, apply_H1,
node_count) are views of a grid on their one point or on the node grid;
only PhiPoly's value/d1/d2 take a point's pieces themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .family import ParamPair, generate_monic
from .polys import Poly, as_fraction, horner, horner3, horner_rows

__all__ = [
    "DEFAULT_MARGIN",
    "NODE_POINTS",
    "PhiPoly",
    "SchrodingerParams",
    "WellGrid",
    "apply_H1",
    "apply_L1",
    "default_grid",
    "eigenstate",
    "energy",
    "node_count",
    "potential",
    "sign_changes",
]

HALF_PI = math.pi / 2.0
#: cos^(a+1/2) underflows and 1/cos blows up at the walls; grids stop short.
DEFAULT_MARGIN = 1e-3
#: Grid size on which node_count looks for sign changes.
NODE_POINTS = 400


def _check_a(a) -> float:
    value = float(a)
    if not value > 0.5:
        raise ValueError("well parameter a must exceed 1/2")
    return value


def _check_y(y) -> float:
    value = float(y)
    if not -HALF_PI < value < HALF_PI:
        raise ValueError("y must lie strictly inside (-pi/2, pi/2)")
    return value


@dataclass(frozen=True)
class SchrodingerParams:
    """Well parameter a > 1/2; the matching recurrence family sits at
    alpha = 0, beta = 2a + 1."""

    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        _check_a(self.a)

    @property
    def beta(self) -> Fraction:
        return 2 * self.a + 1


def _potential(a: float, s: float, c: float) -> float:
    return (a + 0.5) * (a + 0.5 - s) / (c * c)


def energy(a, n: int) -> float:
    """(a + n + 1)^2.  Pure algebra, defined for any a; only the well
    picture itself (potential, states) insists on a > 1/2."""
    if n < 0:
        raise ValueError("level index must be nonnegative")
    return (float(a) + n + 1.0) ** 2


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

    value, d1 and d2 each read one entry of the jet (F, F', F''), which
    takes the pieces (s, c, Phi, ell) of one point.  The full jet makes
    one fused Horner pass (`horner3`) over p, p' and p''; orders 0 and 1
    make one plain pass each over p and p', since a three-way pass would
    slow the values that wavefunction grids read.  A WellGrid hands the
    jet pieces it has already taken, so a grid check pays only for the
    Horner passes.
    """

    __slots__ = ("a", "poly", "_p", "_dp", "_ddp", "_rows")

    def __init__(self, a, poly: Poly):
        self.a = _check_a(a)
        self.poly = poly
        dp = poly.derivative()
        self._p = tuple([float(c) for c in poly.coeffs])
        self._dp = tuple([float(c) for c in dp.coeffs])
        self._ddp = tuple([float(c) for c in dp.derivative().coeffs])
        # below degree 2 p'' is empty, which the fused pass would read as
        # +0.0 where horner gives -0.0 at s < 0: such p keep three passes
        self._rows = horner_rows(self._p, self._dp, self._ddp) if self._ddp else None

    def _jet(self, pieces, order: int = 2) -> tuple[float, ...]:
        """(F, F', F'')[: order + 1] at the point whose pieces are given."""
        s, c, phi, ell = pieces
        if order == 2 and self._rows is not None:
            p0, p1, p2 = horner3(self._rows, s)
        else:
            p0 = horner(self._p, s)
            if order == 0:
                return (phi * p0,)
            p1 = horner(self._dp, s)
            p2 = horner(self._ddp, s) if order == 2 else None
        f0 = phi * p0
        f1 = phi * (ell * p0 + c * p1)
        if order == 1:
            return f0, f1
        ell_prime = (s - 2.0 * (self.a + 1.0)) / (2.0 * c * c)
        return f0, f1, phi * ((ell * ell + ell_prime) * p0 + (2.0 * ell * c - s) * p1 + c * c * p2)

    def value(self, y) -> float:
        return self._jet(_pieces(self.a, _check_y(y)), 0)[0]

    def d1(self, y) -> float:
        return self._jet(_pieces(self.a, _check_y(y)), 1)[1]

    def d2(self, y) -> float:
        return self._jet(_pieces(self.a, _check_y(y)), 2)[2]


def _state_poly(a, n: int) -> Poly:
    # 2F1(-n, n+2a+2; a+1; (1-s)/2) as an exact polynomial in s: the
    # (0, 2a+1) family member, scaled to 1 at s = 1 (no zero lies there)
    p = generate_monic(ParamPair(0, SchrodingerParams(a).beta), n)
    return p * Fraction(p.den, sum(p.nums))


def eigenstate(a, n: int) -> PhiPoly:
    """psi_n as a PhiPoly; the polynomial factor is exact in sin y."""
    _check_a(a)
    if n < 0:
        raise ValueError("level index must be nonnegative")
    return PhiPoly(a, _state_poly(a, n))


def _l1(k: float, d1_mirror: float, value_mirror: float, c: float) -> float:
    """(L1 f)(y) from f'(-y), f(-y) and c = cos y, with k = a + 1/2."""
    return -d1_mirror - k * value_mirror / c


def _h1(d2: float, u: float, value: float) -> float:
    """(H1 f)(y) from f''(y), U(y) and f(y)."""
    return -d2 + u * value


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
    first evaluated, and the pieces at -y when a mirrored image or U(-y)
    is first asked for, so a grid that only reads U pays for no more.
    A state then costs one jet per point (and one more at -y for the L1
    image): Horner passes and a few products, with no sin, cos, sqrt or
    pow.
    """

    __slots__ = ("a", "ys", "potential", "_sin_cos", "_here", "_mirror")

    def __init__(self, a, ys: Sequence[float]):
        self.a = _check_a(a)
        self.ys = tuple([_check_y(y) for y in ys])
        self._sin_cos = [_trig(y) for y in self.ys]
        self._here = None
        self._mirror = None
        #: U(y) at each grid point
        self.potential = tuple([_potential(self.a, s, c) for s, c in self._sin_cos])

    def _pieces_here(self) -> list:
        if self._here is None:
            self._here = [_state_pieces(self.a, s, c) for s, c in self._sin_cos]
        return self._here

    def _mirrored(self) -> list:
        if self._mirror is None:
            self._mirror = [_pieces(self.a, -y) for y in self.ys]
        return self._mirror

    def _check(self, f: PhiPoly) -> None:
        if f.a != self.a:
            raise ValueError("state and grid must share the well parameter a")

    def values(self, f: PhiPoly) -> list[float]:
        """f(y) at each grid point."""
        self._check(f)
        return [f._jet(here, 0)[0] for here in self._pieces_here()]

    def eigen_images(self, f: PhiPoly) -> list[tuple[float, float, float]]:
        """(f(y), (L1 f)(y), (H1 f)(y)) at each grid point."""
        self._check(f)
        k = self.a + 0.5
        out = []
        for here, mirror, u in zip(self._pieces_here(), self._mirrored(), self.potential):
            f0, _, f2 = f._jet(here)
            g0, g1 = f._jet(mirror, 1)
            out.append((f0, _l1(k, g1, g0, here[1]), _h1(f2, u, f0)))
        return out

    def superpotential_terms(self) -> list[tuple[float, float, float, float]]:
        """(U(y), U(-y), chi(y), chi'(y)) at each grid point, with the
        superpotential chi(y) = -(a+1/2)/cos y: even, and
        H1 = (d+chi)(-d+chi) splits off it."""
        a = self.a
        k = a + 0.5
        return [
            (u, _potential(a, s_mirror, c_mirror), -k / c, -k * s / (c * c))
            for (s, c), (s_mirror, c_mirror, _, _), u in zip(
                self._sin_cos, self._mirrored(), self.potential
            )
        ]

    def square_images(self, f: PhiPoly) -> list[tuple[float, float]]:
        """((L1 L1 f)(y), (H1 f)(y)) at each grid point.  L1 L1 f goes
        through the image v = L1 f at -y and its derivative there: with
        k = a + 1/2, v(y) = -f'(-y) - k f(-y)/cos y and

            v'(y) = f''(-y) + k f'(-y)/cos y - k f(-y) sin y / cos^2 y.
        """
        self._check(f)
        k = self.a + 0.5
        out = []
        for here, mirror, u in zip(self._pieces_here(), self._mirrored(), self.potential):
            f0, f1, f2 = f._jet(here)
            s_mirror, c_mirror, _, _ = mirror
            image = _l1(k, f1, f0, c_mirror)
            image_d1 = f2 + k * f1 / c_mirror - k * f0 * s_mirror / (c_mirror * c_mirror)
            out.append((_l1(k, image_d1, image, here[1]), _h1(f2, u, f0)))
        return out


def potential(a, y) -> float:
    """U(y) = (a+1/2)(a+1/2 - sin y)/cos^2 y on |y| < pi/2."""
    return WellGrid(a, (y,)).potential[0]


def apply_L1(a, f: PhiPoly, y) -> float:
    """(d/dy - (a+1/2)/cos y) applied to the parity flip of f:
    -f'(-y) - (a+1/2) f(-y)/cos y, the L1 column of
    `WellGrid.eigen_images` at y.  f is a PhiPoly of the same a; the
    grid refuses one of another well."""
    return WellGrid(a, (y,)).eigen_images(f)[0][1]


def apply_H1(a, f: PhiPoly, y) -> float:
    """-f''(y) + U(y) f(y), the H1 column of `WellGrid.eigen_images` at y."""
    return WellGrid(a, (y,)).eigen_images(f)[0][2]


def node_count(a, n: int, points: int = NODE_POINTS) -> int:
    """Sign changes of psi_n across the default grid; should equal n."""
    state = eigenstate(a, n)
    return sign_changes(WellGrid(a, default_grid(points)).values(state))
