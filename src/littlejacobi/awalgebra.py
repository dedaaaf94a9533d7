"""Anticommutator algebra closed by the family's operator triple.

With X the (shifted, halved) eigenvalue operator, Y multiplication by x,
and Z the twisted reflection (x-1)R, the three anticommutators close
linearly: YZ+ZY = 0, ZX+XZ = Y + beta I, XY+YX = Z + omega3 I with
omega3 = -alpha.  This is the q = -1 degeneration of the three-generator
Askey-Wilson algebra, and Y^2 + Z^2 is its Casimir element, equal to the
identity in this realization.

The structure constants are extracted from the exact operator tables
rather than assumed; callers compare them with (0, beta, -alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import ParamPair, eigenvalue
from .operators import (
    BandedOp,
    OpIdentityReport,
    anticommutator,
    commutator,
    identity,
    identity_scalar,
    little_jacobi_operator,
    mult_x,
    op_equal,
)

__all__ = ["AWStructure", "generators", "verify_casimir", "verify_relations", "x_eigenvalue"]


def generators(params: ParamPair, trunc_degree: int) -> tuple[BandedOp, BandedOp, BandedOp]:
    """The triple (X, Y, Z) on polynomials up to trunc_degree.

    X = L/2 - (1+alpha+beta)/2 with L the family's eigenvalue operator,
    Y = multiplication by x, Z = (x-1)R.
    """
    alpha, beta = params.alpha, params.beta
    ell = little_jacobi_operator(alpha, beta, trunc_degree)
    x_op = Fraction(1, 2) * ell + Fraction(-(1 + alpha + beta), 2) * identity(trunc_degree)
    y_op = mult_x(trunc_degree)
    z_op = BandedOp.from_monomial(
        trunc_degree, lambda n: {n + 1: (-1) ** n, n: -((-1) ** n)}
    )
    return x_op, y_op, z_op


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
    trunc_degree: int
    reports: dict

    @property
    def omega3_sign(self) -> int:
        if self.omega3 > 0:
            return 1
        if self.omega3 < 0:
            return -1
        return 0


def verify_relations(params: ParamPair, trunc_degree: int = 24) -> AWStructure:
    """Extract omega_1, omega_2, omega_3 from the three anticommutators.

    Each residual (anticommutator minus its linear part) must be an exact
    scalar multiple of the identity on the shared safe degree range; a
    non-scalar residual means the algebra does not close and raises.
    """
    x_op, y_op, z_op = generators(params, trunc_degree)
    residuals = {
        "YZ+ZY": anticommutator(y_op, z_op),
        "ZX+XZ-Y": anticommutator(z_op, x_op) - y_op,
        "XY+YX-Z": anticommutator(x_op, y_op) - z_op,
    }
    scalars = {}
    reports = {}
    for name, op in residuals.items():
        scalar = identity_scalar(op)
        if scalar is None:
            raise RuntimeError(
                f"residual of {name} is not a scalar multiple of the identity"
            )
        scalars[name] = scalar
        reports[name] = op_equal(op, scalar * identity(op.trunc_degree))
    return AWStructure(
        omega1=scalars["YZ+ZY"],
        omega2=scalars["ZX+XZ-Y"],
        omega3=scalars["XY+YX-Z"],
        casimir_is_identity=_casimir_holds(x_op, y_op, z_op),
        trunc_degree=trunc_degree,
        reports=reports,
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
