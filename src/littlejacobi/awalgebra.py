"""Anticommutator algebra closed by the family's operator triple.

With X the (shifted, halved) eigenvalue operator, Y multiplication by x,
and Z the twisted reflection (x-1)R, the three anticommutators close
linearly: YZ+ZY = 0, ZX+XZ = Y + beta I, XY+YX = Z + omega3 I with
omega3 = -alpha.  This is the q = -1 degeneration of the three-generator
Askey-Wilson algebra, and Y^2 + Z^2 is its Casimir element, equal to the
identity in this realization.  The identity commutes with every
operator, so the Casimir's centrality follows from Y^2 + Z^2 = I and is
not checked apart.

The structure constants are extracted from exact operators rather than
assumed; callers compare them with (0, beta, -alpha).  One function,
`band_relations`, reads the three closures and the Casimir from either
form of the triple.  On the generators' bands (`operators.Band`) they
are identities of polynomials in n and hold at every degree;
`verify_relations` and `verify_casimir` run it on the truncated tables
of `generators`, on the degrees below their truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import ParamPair, eigenvalue
from .operators import (
    IDENTITY_BAND,
    MULT_X_BAND,
    Band,
    BandedOp,
    TruncationError,
    anticommutator,
    little_jacobi_band,
)

__all__ = [
    "AWStructure",
    "band_relations",
    "generator_bands",
    "generators",
    "verify_casimir",
    "verify_relations",
    "x_eigenvalue",
]

#: Z = (x-1)R: x**n -> (-1)**n (x**(n+1) - x**n)
TWISTED_REFLECTION = Band({1: [1], 0: [-1]}, {1: [-1], 0: [1]})


def generator_bands(params: ParamPair) -> tuple[Band, Band, Band]:
    """The triple (X, Y, Z) as bands, at every degree.

    X = L/2 - (1+alpha+beta)/2 with L the family's eigenvalue operator,
    Y = multiplication by x, Z = (x-1)R.
    """
    alpha, beta = params.alpha, params.beta
    x_band = (
        Fraction(1, 2) * little_jacobi_band(alpha, beta)
        + Fraction(-(1 + alpha + beta), 2) * IDENTITY_BAND
    )
    return x_band, MULT_X_BAND, TWISTED_REFLECTION


def generators(params: ParamPair, trunc_degree: int) -> tuple[BandedOp, BandedOp, BandedOp]:
    """The triple (X, Y, Z) on polynomials up to trunc_degree: the
    tables of `generator_bands`."""
    return tuple([band.table(trunc_degree) for band in generator_bands(params)])


def x_eigenvalue(params: ParamPair, n: int) -> Fraction:
    """Diagonal value of X on the degree-n family member:
    (lambda_n - (1 + alpha + beta)) / 2."""
    return (eigenvalue(params, n) - (1 + params.alpha + params.beta)) / 2


@dataclass(frozen=True)
class AWStructure:
    """Empirically extracted structure constants and Casimir status."""

    omega1: Fraction
    omega2: Fraction
    omega3: Fraction
    casimir_is_identity: bool


def _closure_scalar(name: str, residual: Band | BandedOp) -> Fraction:
    """The residual's scalar; the algebra does not close if there is none."""
    scalar = residual.scalar()
    if scalar is None:
        raise RuntimeError(f"residual of {name} is not a scalar multiple of the identity")
    return scalar


def band_relations(
    x_op: Band | BandedOp, y_op: Band | BandedOp, z_op: Band | BandedOp
) -> AWStructure:
    """omega_1, omega_2, omega_3 and the Casimir status of the triple
    (X, Y, Z), given as three bands or as three tables.

    Each residual (anticommutator minus its linear part) must be a
    scalar multiple of the identity; a non-scalar residual means the
    algebra does not close and raises.  The Casimir Y^2 + Z^2 must be
    the identity; the identity commutes with X, Y and Z, so it is then
    central too.  On bands each holds at every degree, on tables on
    their trusted degrees.
    """
    return AWStructure(
        omega1=_closure_scalar("YZ+ZY", anticommutator(y_op, z_op)),
        omega2=_closure_scalar("ZX+XZ-Y", anticommutator(z_op, x_op) - y_op),
        omega3=_closure_scalar("XY+YX-Z", anticommutator(x_op, y_op) - z_op),
        casimir_is_identity=(y_op @ y_op + z_op @ z_op).scalar() == 1,
    )


def verify_relations(params: ParamPair, trunc_degree: int = 24) -> AWStructure:
    """`band_relations` on the tables of `generators` at trunc_degree.

    Needs trunc_degree >= 2: below it a product of two generators is
    trusted on constants at most (at 0, on no degree), too few degrees
    for the relations to say anything.
    """
    if trunc_degree < 2:
        raise TruncationError(
            f"the relations need generator tables of degree >= 2, got {trunc_degree}"
        )
    return band_relations(*generators(params, trunc_degree))


def verify_casimir(params: ParamPair, trunc_degree: int = 24) -> bool:
    """Y^2 + Z^2 equals the identity, and so commutes with all
    generators, on the tables of `generators` at trunc_degree (>= 2)."""
    return verify_relations(params, trunc_degree).casimir_is_identity
