"""Anticommutator algebra closed by the family's operator triple.

With X the (shifted, halved) eigenvalue operator, Y multiplication by x,
and Z the twisted reflection (x-1)R, the three anticommutators close
linearly: YZ+ZY = 0, ZX+XZ = Y + beta I, XY+YX = Z + omega3 I with
omega3 = -alpha.  This is the q = -1 degeneration of the three-generator
Askey-Wilson algebra, and Y^2 + Z^2 is its Casimir element, equal to the
identity in this realization.

The structure constants are extracted from exact operators rather than
assumed; callers compare them with (0, beta, -alpha).  `band_relations`
works on the generators' bands (`operators.Band`), so the three
closures, the Casimir and its commutators are identities of polynomials
in n and hold at every degree.  `verify_relations` and `verify_casimir`
run the same checks on the truncated tables of `generators`, on the
degrees below their truncation.
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
    anticommutator,
    commutator,
    identity,
    identity_scalar,
    little_jacobi_band,
    op_equal,
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

    @property
    def omega3_sign(self) -> int:
        if self.omega3 > 0:
            return 1
        if self.omega3 < 0:
            return -1
        return 0


def band_relations(x_band: Band, y_band: Band, z_band: Band) -> AWStructure:
    """omega_1, omega_2, omega_3 and the Casimir status of the triple
    (X, Y, Z), read from band algebra, so each holds at every degree.

    Each residual (anticommutator minus its linear part) must be a
    scalar multiple of the identity band; a non-scalar residual means
    the algebra does not close and raises.  The Casimir Y^2 + Z^2 must
    equal the identity band and commute with all three generators.
    """
    residuals = {
        "YZ+ZY": anticommutator(y_band, z_band),
        "ZX+XZ-Y": anticommutator(z_band, x_band) - y_band,
        "XY+YX-Z": anticommutator(x_band, y_band) - z_band,
    }
    scalars = {}
    for name, band in residuals.items():
        scalar = band.scalar()
        if scalar is None:
            raise RuntimeError(
                f"residual of {name} is not a scalar multiple of the identity"
            )
        scalars[name] = scalar
    casimir = y_band @ y_band + z_band @ z_band
    central = all(commutator(casimir, gen).scalar() == 0 for gen in (x_band, y_band, z_band))
    return AWStructure(
        omega1=scalars["YZ+ZY"],
        omega2=scalars["ZX+XZ-Y"],
        omega3=scalars["XY+YX-Z"],
        casimir_is_identity=casimir == IDENTITY_BAND and central,
    )


def verify_relations(params: ParamPair, trunc_degree: int = 24) -> AWStructure:
    """Extract omega_1, omega_2, omega_3 from the three anticommutators.

    Each residual (anticommutator minus its linear part) must be an exact
    scalar multiple of the identity on its table, which `identity_scalar`
    reads row by row; a non-scalar residual means the algebra does not
    close and raises.
    """
    x_op, y_op, z_op = generators(params, trunc_degree)
    residuals = {
        "YZ+ZY": anticommutator(y_op, z_op),
        "ZX+XZ-Y": anticommutator(z_op, x_op) - y_op,
        "XY+YX-Z": anticommutator(x_op, y_op) - z_op,
    }
    scalars = {}
    for name, op in residuals.items():
        scalar = identity_scalar(op)
        if scalar is None:
            raise RuntimeError(
                f"residual of {name} is not a scalar multiple of the identity"
            )
        scalars[name] = scalar
    return AWStructure(
        omega1=scalars["YZ+ZY"],
        omega2=scalars["ZX+XZ-Y"],
        omega3=scalars["XY+YX-Z"],
        casimir_is_identity=_casimir_holds(x_op, y_op, z_op),
    )


def verify_casimir(params: ParamPair, trunc_degree: int = 24) -> bool:
    """Y^2 + Z^2 equals the identity and commutes with all generators."""
    return _casimir_holds(*generators(params, trunc_degree))


def _casimir_holds(x_op: BandedOp, y_op: BandedOp, z_op: BandedOp) -> bool:
    casimir = y_op @ y_op + z_op @ z_op
    if not op_equal(casimir, identity(casimir.trunc_degree)).holds:
        return False
    for gen in (x_op, y_op, z_op):
        residual = commutator(casimir, gen)
        if identity_scalar(residual) != 0:
            return False
    return True
