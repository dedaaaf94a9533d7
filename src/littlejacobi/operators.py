"""Banded linear operators on polynomials, stored by exact monomial action.

An operator is a table: for every n up to a truncation degree it records
op(x**n) as a sparse {output power: coefficient} map with Fraction entries.
All reflection/differential operators used in this package have band
half-width <= 2, so sums, compositions, commutators and identity checks
reduce to exact rational bookkeeping.

Truncation is conservative.  Composing operators shrinks the degree range
on which the product is trusted (an inner operator that raises degree eats
into the outer table), so an identity reported as holding on its safe
range can never be a truncation artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .polys import Poly, as_fraction

__all__ = [
    "BandedOp",
    "OpIdentityReport",
    "TruncationError",
    "anticommutator",
    "commutator",
    "derivative",
    "dunkl_derivative",
    "dunkl_intertwiner",
    "identity",
    "identity_scalar",
    "intertwiner_sigma",
    "jacobi_sturm_liouville",
    "little_jacobi_operator",
    "mult_x",
    "op_equal",
    "raising_operator",
    "reflection",
]


class TruncationError(ValueError):
    """Raised when an operation would leave the trusted degree range."""


def _clean(action) -> dict[int, Fraction]:
    out = {}
    for k, c in action.items():
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"monomial action has invalid output power {k!r}")
        c = as_fraction(c)
        if c:
            out[k] = c
    return out


class BandedOp:
    """Linear operator known by its action on x**n for n = 0..trunc_degree."""

    __slots__ = ("actions", "max_raise")

    def __init__(self, actions: Sequence[dict]):
        self.actions: tuple[dict[int, Fraction], ...] = tuple(
            _clean(a) for a in actions
        )
        raise_by = 0
        for n, action in enumerate(self.actions):
            for k in action:
                raise_by = max(raise_by, k - n)
        #: Largest degree increase over the table; >= 0 so composition
        #: bounds stay conservative even for pure lowering operators.
        self.max_raise = raise_by

    @classmethod
    def from_monomial(cls, trunc_degree: int, action: Callable[[int], dict]) -> "BandedOp":
        """Build the table by evaluating ``action(n)`` for n = 0..trunc_degree."""
        if trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        return cls([action(n) for n in range(trunc_degree + 1)])

    @property
    def trunc_degree(self) -> int:
        return len(self.actions) - 1

    def action(self, n: int) -> dict[int, Fraction]:
        return dict(self.actions[n])

    def apply(self, p: Poly) -> Poly:
        if p.degree > self.trunc_degree:
            raise TruncationError(
                f"polynomial degree {p.degree} exceeds operator truncation "
                f"degree {self.trunc_degree}"
            )
        out: dict[int, Fraction] = {}
        for n, c in enumerate(p.coeffs):
            if not c:
                continue
            for k, a in self.actions[n].items():
                out[k] = out.get(k, Fraction(0)) + c * a
        if not out:
            return Poly()
        coeffs = [Fraction(0)] * (max(out) + 1)
        for k, c in out.items():
            coeffs[k] = c
        return Poly(coeffs)

    # -- linear combinations ----------------------------------------------

    def __add__(self, other: "BandedOp") -> "BandedOp":
        if not isinstance(other, BandedOp):
            return NotImplemented
        safe = min(self.trunc_degree, other.trunc_degree)
        out = []
        for n in range(safe + 1):
            action = dict(self.actions[n])
            for k, c in other.actions[n].items():
                action[k] = action.get(k, Fraction(0)) + c
            out.append(action)
        return BandedOp(out)

    def __sub__(self, other: "BandedOp") -> "BandedOp":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "BandedOp":
        scalar = as_fraction(scalar)
        return BandedOp(
            [{k: scalar * c for k, c in action.items()} for action in self.actions]
        )

    def __matmul__(self, inner: "BandedOp") -> "BandedOp":
        """self after inner (operator composition, matrix-product order)."""
        if not isinstance(inner, BandedOp):
            return NotImplemented
        safe = min(inner.trunc_degree, self.trunc_degree - inner.max_raise)
        if safe < 0:
            raise TruncationError(
                "composition leaves no trusted degrees: outer table too short "
                f"(outer {self.trunc_degree}, inner raises by {inner.max_raise})"
            )
        out = []
        for n in range(safe + 1):
            action: dict[int, Fraction] = {}
            for k, c in inner.actions[n].items():
                for j, d in self.actions[k].items():
                    action[j] = action.get(j, Fraction(0)) + c * d
            out.append(action)
        return BandedOp(out)

    # -- serialization ------------------------------------------------------

    def __repr__(self):
        return f"BandedOp(trunc_degree={self.trunc_degree}, max_raise={self.max_raise})"


def commutator(a: BandedOp, b: BandedOp) -> BandedOp:
    return a @ b - b @ a

def anticommutator(a: BandedOp, b: BandedOp) -> BandedOp:
    return a @ b + b @ a


@dataclass(frozen=True)
class OpIdentityReport:
    """Outcome of comparing two operators on their shared trusted range."""

    holds: bool
    safe_degree: int
    #: Nonzero rows of lhs - rhs: n -> {output power: coefficient}.
    residual_action: dict
    first_mismatch: Optional[int]


def op_equal(lhs: BandedOp, rhs: BandedOp) -> OpIdentityReport:
    """Exact comparison of two operator tables up to the shared safe degree."""
    safe = min(lhs.trunc_degree, rhs.trunc_degree)
    if safe < 0:
        raise TruncationError("operators share no trusted degrees")
    residual = {}
    for n in range(safe + 1):
        row = dict(lhs.actions[n])
        for k, c in rhs.actions[n].items():
            row[k] = row.get(k, Fraction(0)) - c
        row = {k: c for k, c in row.items() if c}
        if row:
            residual[n] = row
    first = min(residual) if residual else None
    return OpIdentityReport(
        holds=not residual,
        safe_degree=safe,
        residual_action=residual,
        first_mismatch=first,
    )


def identity_scalar(op: BandedOp) -> Optional[Fraction]:
    """The scalar c with op = c * identity on its table, or None if not scalar."""
    value = None
    for n, action in enumerate(op.actions):
        extra = {k: c for k, c in action.items() if k != n}
        if extra:
            return None
        c = action.get(n, Fraction(0))
        if value is None:
            value = c
        elif c != value:
            return None
    return value if value is not None else Fraction(0)


# -- stock operators --------------------------------------------------------


def identity(trunc_degree: int) -> BandedOp:
    return BandedOp.from_monomial(trunc_degree, lambda n: {n: 1})


def reflection(trunc_degree: int) -> BandedOp:
    """R: f(x) -> f(-x)."""
    return BandedOp.from_monomial(trunc_degree, lambda n: {n: (-1) ** n})


def derivative(trunc_degree: int) -> BandedOp:
    return BandedOp.from_monomial(
        trunc_degree, lambda n: {n - 1: n} if n else {}
    )


def mult_x(trunc_degree: int) -> BandedOp:
    return BandedOp.from_monomial(trunc_degree, lambda n: {n + 1: 1})


def dunkl_derivative(mu, trunc_degree: int) -> BandedOp:
    """Dunkl operator f -> f' + mu (f(x) - f(-x))/x.

    Sends x**n to [n]_mu x**(n-1) with the mu-deformed integer
    [n]_mu = n + mu (1 - (-1)**n); at mu = 0 it is the plain derivative.
    """
    mu = as_fraction(mu)
    if mu <= Fraction(-1, 2):
        raise ValueError("Dunkl parameter mu must exceed -1/2")

    def action(n):
        if n == 0:
            return {}
        return {n - 1: n + mu * (1 - (-1) ** n)}

    return BandedOp.from_monomial(trunc_degree, action)


def _intertwiner_sigmas(mu, n: int) -> list[Fraction]:
    """sigma_0..sigma_n as one running product: sigma_0 = 1, the odd step
    n = 2k+1 multiplies by (1/2 + k)/(mu + 1/2 + k), the even step repeats
    the previous entry."""
    mu = as_fraction(mu)
    if mu <= Fraction(-1, 2):
        raise ValueError("Dunkl parameter mu must exceed -1/2")
    if n < 0:
        raise ValueError("index must be nonnegative")
    sigmas = [Fraction(1)]
    for j in range(1, n + 1):
        if j % 2:
            k = j // 2
            sigmas.append(sigmas[-1] * (Fraction(1, 2) + k) / (mu + Fraction(1, 2) + k))
        else:
            sigmas.append(sigmas[-1])
    return sigmas


def intertwiner_sigma(mu, n: int) -> Fraction:
    """Diagonal entries of the Dunkl intertwiner: sigma_{2m-1} = sigma_{2m}."""
    return _intertwiner_sigmas(mu, n)[-1]


def dunkl_intertwiner(mu, trunc_degree: int) -> BandedOp:
    """Diagonal operator V with T_mu V = V d/dx (degree-preserving).

    V x**n = sigma_n x**n where sigma pairs off odd/even indices; it maps
    the plain derivative's eigenstructure onto the Dunkl operator's.  The
    whole table costs O(trunc_degree) Fraction products.
    """
    sigmas = _intertwiner_sigmas(mu, max(trunc_degree, 0))
    return BandedOp.from_monomial(trunc_degree, lambda n: {n: sigmas[n]})


def little_jacobi_operator(alpha, beta, trunc_degree: int) -> BandedOp:
    """First-order reflection-differential operator diagonalized by the
    little -1 Jacobi family.

    Acting on x**n it gives xi_n x**n + eta_n x**(n-1) with
      xi_n  = 2 (-1)**(n+1) n + (1 - (-1)**n)(alpha + beta + 1)
      eta_n = 2 (-1)**n n - (1 - (-1)**n) alpha
    The would-be x**(-1) term cancels identically, so the operator is
    polynomial-stable and degree-preserving.
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)

    def action(n):
        sign = (-1) ** n
        xi = -2 * sign * n + (1 - sign) * (alpha + beta + 1)
        eta = 2 * sign * n - (1 - sign) * alpha
        out = {n: xi}
        if n >= 1:
            out[n - 1] = eta
        return out

    return BandedOp.from_monomial(trunc_degree, action)


def raising_operator(alpha, beta, trunc_degree: int) -> BandedOp:
    """Degree-raising reflection operator that lowers the second family
    parameter by two.

    Acting on x**n:
      x**(n+1) coefficient: n + beta + alpha (1 + (-1)**n) / 2
      x**n     coefficient: -1 - (-1)**n alpha
      x**(n-1) coefficient: -n - alpha (1 - (-1)**n) / 2
    The x**(-1) piece at n = 0 cancels identically.
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)

    def action(n):
        sign = (-1) ** n
        up = n + beta + alpha * (1 + sign) / 2
        mid = -1 - sign * alpha
        down = -n - alpha * (1 - sign) / 2
        out = {n + 1: up, n: mid}
        if n >= 1:
            out[n - 1] = down
        return out

    return BandedOp.from_monomial(trunc_degree, action)


def jacobi_sturm_liouville(a, trunc_degree: int) -> BandedOp:
    """Second-order Sturm-Liouville operator for the Jacobi weight pair
    (a, a+1): (1 - x**2) d^2/dx^2 + (1 - (2a+3) x) d/dx.

    On x**n: -n (n + 2a + 2) x**n + n x**(n-1) + n (n-1) x**(n-2).
    """
    a = as_fraction(a)

    def action(n):
        out = {n: -n * (n + 2 * a + 2)}
        if n >= 1:
            out[n - 1] = Fraction(n)
        if n >= 2:
            out[n - 2] = Fraction(n * (n - 1))
        return out

    return BandedOp.from_monomial(trunc_degree, action)
