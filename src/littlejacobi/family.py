"""The little -1 Jacobi orthogonal family.

Recurrence data, spectral data, moments, explicit hypergeometric forms,
the orthogonality weight, and the numeric deformation limit q -> -1 of
the little q-Jacobi recurrence coefficients.

Everything that can be exact is exact (Fraction in, Fraction out); only
the weight integrals and the deformation limit are floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .polys import (
    Poly,
    _over_common_denominator,
    as_fraction,
    pochhammer,
    terminating_2f1,
)

__all__ = [
    "MomentFunctional",
    "ParamPair",
    "eigenvalue",
    "explicit_poly",
    "generate_monic",
    "moments",
    "norm_square",
    "qjacobi_recurrence",
    "qlimit_error",
    "recurrence_coeffs",
    "table_rows",
    "weight_eval",
    "weight_moment",
    "weight_normalization",
]


@dataclass(frozen=True)
class ParamPair:
    """Family parameters; positivity of the weight needs both > -1."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.alpha <= -1:
            raise ValueError("alpha must be > -1")
        if self.beta <= -1:
            raise ValueError("beta must be > -1")


def recurrence_coeffs(params: ParamPair, n: int) -> tuple[Optional[Fraction], Fraction]:
    """Monic three-term recurrence data (u_n, b_n); u_0 is None.

    With theta_n = 1 for even n and 0 for odd n:
      u_n = (n + (1-theta_n) alpha)(n + beta + theta_n alpha) / (2n+alpha+beta)^2
      b_n = (-1)^n ((2n+1)alpha + alpha beta + alpha^2 + (-1)^n beta)
            / ((2n+alpha+beta)(2n+2+alpha+beta))
    b_0 reduces to (alpha+1)/(alpha+beta+2); that form also covers the
    removable 0/0 of the general expression at alpha + beta = 0.
    """
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    alpha, beta = params.alpha, params.beta
    if n == 0:
        return None, (alpha + 1) / (alpha + beta + 2)
    sign = (-1) ** n
    theta = Fraction(1 + sign, 2)
    u = (n + (1 - theta) * alpha) * (n + beta + theta * alpha) / (2 * n + alpha + beta) ** 2
    b = (
        sign
        * ((2 * n + 1) * alpha + alpha * beta + alpha**2 + sign * beta)
        / ((2 * n + alpha + beta) * (2 * n + 2 + alpha + beta))
    )
    return u, b


def eigenvalue(params: ParamPair, n: int) -> Fraction:
    """Eigenvalue of the reflection-differential operator on degree n."""
    if n < 0:
        raise ValueError("eigenvalue index must be nonnegative")
    if n % 2 == 0:
        return Fraction(-2 * n)
    return 2 * (params.alpha + params.beta + n + 1)


#: Largest number of nested recurrence steps one generate_monic call makes.
_STRIDE = 64


@lru_cache(maxsize=None)
def generate_monic(params: ParamPair, n: int) -> Poly:
    """Monic family member of degree n, from the three-term recurrence.

    A cold call first builds the members at multiples of _STRIDE below n,
    in increasing order, so the recursion below reaches a cached member
    within _STRIDE levels: the stack depth does not grow with n.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return Poly.ONE
    for k in range(_STRIDE, n, _STRIDE):
        generate_monic(params, k)
    _, b_prev = recurrence_coeffs(params, n - 1)
    tail = Poly([-b_prev, 1]) * generate_monic(params, n - 1)
    if n == 1:
        return tail
    u_prev, _ = recurrence_coeffs(params, n - 1)
    return tail - u_prev * generate_monic(params, n - 2)


def explicit_poly(params: ParamPair, n: int) -> Poly:
    """Monic family member from the closed hypergeometric brackets.

    Even degrees combine two terminating series in x**2 (the second one
    carrying a single factor of x); odd degrees likewise with shifted
    parameters.  The bracket is rescaled by its leading coefficient,
    which cannot vanish for alpha, beta > -1.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    alpha, beta = params.alpha, params.beta
    if n % 2 == 0:
        m = n // 2
        bracket = terminating_2f1(-m, (n + alpha + beta + 2) / 2, (alpha + 1) / 2, arg_power=2)
        if m >= 1:
            second = terminating_2f1(
                -(m - 1), (n + alpha + beta + 2) / 2, (alpha + 3) / 2, arg_power=2
            )
            bracket = bracket + (Fraction(n) / (alpha + 1)) * Poly.X * second
    else:
        m = (n - 1) // 2
        first = terminating_2f1(-m, (n + alpha + beta + 1) / 2, (alpha + 1) / 2, arg_power=2)
        second = terminating_2f1(-m, (n + alpha + beta + 3) / 2, (alpha + 3) / 2, arg_power=2)
        bracket = first - ((alpha + beta + n + 1) / (alpha + 1)) * Poly.X * second
    if bracket.degree != n:
        raise RuntimeError(
            f"explicit bracket degenerated: expected degree {n}, got {bracket.degree}"
        )
    return bracket / bracket.leading_coefficient


# -- moment functional -------------------------------------------------------


@dataclass(frozen=True)
class MomentFunctional:
    """Finite slice of the family's moment sequence, with c_0 = 1."""

    params: ParamPair
    moments: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.moments)

    def c(self, k: int) -> Fraction:
        if not 0 <= k < len(self.moments):
            raise ValueError(
                f"moment index {k} outside the computed range 0..{len(self.moments) - 1}"
            )
        return self.moments[k]

    def inner_product(self, p: Poly, q: Poly) -> Fraction:
        """<p, q> = L[p q] against the moment functional, exact."""
        prod = p * q
        if prod.degree >= len(self.moments):
            raise ValueError(
                f"inner product needs moment {prod.degree}, have 0..{len(self.moments) - 1}"
            )
        return sum(
            (c * self.moments[k] for k, c in enumerate(prod.coeffs) if c),
            Fraction(0),
        )

    def gram(self, polys: Sequence[Poly]) -> list[list[Fraction]]:
        """Lower triangle of the Gram matrix: ``gram(ps)[n][m] = <ps[n], ps[m]>``
        for m <= n, exact and equal to ``inner_product`` entry by entry.

        No polynomial product is formed.  The moments are scaled to
        integers C_k = D c_k over one common denominator D, and each
        polynomial to integers over its own denominator d_n.  The moment
        image L[x^j p_n] = sum_i p_n[i] C_{i+j} is computed once per
        polynomial, and each entry is the integer dot product of p_m with
        it, divided by D d_n d_m once.  For N polynomials of degree <= N
        that is O(N^3) integer multiply-adds, against O(N^4) Fraction
        products for the pairwise ``inner_product`` scan.
        """
        top = max([0] + [2 * len(p.coeffs) - 2 for p in polys])
        if top >= len(self.moments):
            raise ValueError(
                f"inner product needs moment {top}, have 0..{len(self.moments) - 1}"
            )
        scaled_moments, moment_den = _over_common_denominator(self.moments[: top + 1])
        scaled = [_over_common_denominator(p.coeffs) for p in polys]

        rows, width = [], 0
        for a, den in scaled:
            width = max(width, len(a))
            image = [sum(map(mul, a, scaled_moments[j:])) for j in range(width)]
            rows.append(
                [
                    Fraction(sum(map(mul, b, image)), moment_den * den * d)
                    for b, d in scaled[: len(rows) + 1]
                ]
            )
        return rows

    def hankel_determinant(self, n: int) -> Fraction:
        """det of the (n+1) x (n+1) moment matrix (c_{i+j}), exact."""
        if 2 * n >= len(self.moments):
            raise ValueError(f"Hankel determinant of order {n} needs moment {2 * n}")
        size = n + 1
        m = [[self.moments[i + j] for j in range(size)] for i in range(size)]
        det = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if m[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, size):
                factor = m[r][col] * inv
                if factor:
                    for cdx in range(col, size):
                        m[r][cdx] -= factor * m[col][cdx]
        return det


@lru_cache(maxsize=None)
def moments(params: ParamPair, max_index: int) -> MomentFunctional:
    """Moments c_0..c_max_index: c_0 = 1 and pairwise-equal tail
    c_{2m} = c_{2m-1} = ((alpha+1)/2)_m / ((alpha+beta+2)/2)_m.
    """
    if max_index < 0:
        raise ValueError("moment range must be nonnegative")
    alpha, beta = params.alpha, params.beta
    out = [Fraction(1)] * (max_index + 1)
    top = (alpha + 1) / 2
    bottom = (alpha + beta + 2) / 2
    for m in range(1, max_index // 2 + 2):
        val = pochhammer(top, m) / pochhammer(bottom, m)
        for idx in (2 * m - 1, 2 * m):
            if idx <= max_index:
                out[idx] = val
    return MomentFunctional(params=params, moments=tuple(out))


def norm_square(params: ParamPair, n: int) -> Fraction:
    """<P_n, P_n> = u_1 u_2 ... u_n (equal to 1 for n = 0)."""
    out = Fraction(1)
    for k in range(1, n + 1):
        u, _ = recurrence_coeffs(params, k)
        out *= u
    return out


# -- weight function ---------------------------------------------------------


def weight_normalization(params: ParamPair) -> float:
    """Normalization constant making the weight integrate to 1."""
    a = float(params.alpha)
    b = float(params.beta)
    return math.exp(
        math.lgamma(a / 2 + b / 2 + 1)
        - math.lgamma(b / 2 + 0.5)
        - math.lgamma(a / 2 + 0.5)
    )


def weight_eval(params: ParamPair, x: float) -> float:
    """Orthogonality weight kappa |x|^alpha (1-x^2)^((beta-1)/2) (1+x)."""
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError("weight argument must satisfy |x| < 1")
    a = float(params.alpha)
    b = float(params.beta)
    if x == 0.0 and a < 0:
        return math.inf
    return (
        weight_normalization(params)
        * abs(x) ** a
        * (1.0 - x * x) ** ((b - 1.0) / 2.0)
        * (1.0 + x)
    )


def weight_moment(params: ParamPair, k: int) -> float:
    """Numeric integral of x**k against the weight over (-1, 1).

    The interval is split at 0 and each half is mapped by x = 1 - t**2,
    which absorbs the endpoint singularity of (1-x^2)^((beta-1)/2); the
    |x|^alpha singularity at 0 lands at t = 1 where it is integrable.
    The factors 1 - x = t**2 and 1 + x = 2 - t**2 are folded in
    analytically, so 1 - x^2 is never formed in floating point (it
    rounds to 0.0 near t = 0).
    """
    from scipy.integrate import quad  # deferred: the exact routes never need scipy

    if k < 0:
        raise ValueError("moment order must be nonnegative")
    a = float(params.alpha)
    b = float(params.beta)

    def integrand(t):
        x = 1.0 - t * t
        s = 2.0 - t * t
        # 2t (1-x^2)^((b-1)/2) = 2 t^b s^((b-1)/2); the halves carry 1+x = s and 1-x = t^2
        return 2.0 * t**b * s ** ((b - 1.0) / 2.0) * x**a * (x**k * s + (-x) ** k * t * t)

    out = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200, full_output=1)
    return weight_normalization(params) * out[0]


# -- deformation limit -------------------------------------------------------


def qjacobi_recurrence(epsilon: float, alpha, beta, n: int) -> tuple[Optional[float], float]:
    """Little q-Jacobi recurrence data (u_n, b_n) at the deformed base
    q = -exp(eps), a = -exp(eps alpha), b = -exp(eps beta).

    As eps -> 0+ these converge linearly in eps to the family's exact
    u_n, b_n.  u_n = A_{n-1} C_n and b_n = A_n + C_n; u_0 is None (C_0 = 0
    and A_{-1} is undefined).
    """
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError("deformation epsilon must be positive")
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    q = -math.exp(epsilon)
    a = -math.exp(epsilon * float(alpha))
    b = -math.exp(epsilon * float(beta))

    def checked(den: float, name: str) -> float:
        if abs(den) < 1e-12:
            raise ValueError(f"near-singular denominator in {name} at eps={epsilon}")
        return den

    def big_a(k: int) -> float:
        den = checked((1 - a * b * q ** (2 * k + 1)) * (1 - a * b * q ** (2 * k + 2)), f"A_{k}")
        return q**k * (1 - a * q ** (k + 1)) * (1 - a * b * q ** (k + 1)) / den

    def big_c(k: int) -> float:
        if k == 0:
            return 0.0  # the numerator carries 1 - q^0, whatever the denominator
        den = checked((1 - a * b * q ** (2 * k + 1)) * (1 - a * b * q ** (2 * k)), f"C_{k}")
        return a * q**k * (1 - q**k) * (1 - b * q**k) / den

    b_n = big_a(n) + big_c(n)
    if n == 0:
        return None, b_n
    return big_a(n - 1) * big_c(n), b_n


def qlimit_error(params: ParamPair, n: int, epsilon: float) -> tuple[Optional[float], float]:
    """Absolute deviations |u_n(eps) - u_n|, |b_n(eps) - b_n|."""
    uq, bq = qjacobi_recurrence(epsilon, params.alpha, params.beta, n)
    u, b = recurrence_coeffs(params, n)
    du = None if n == 0 else abs(uq - float(u))
    return du, abs(bq - float(b))


# -- tabulation ---------------------------------------------------------------


def table_rows(params: ParamPair, max_degree: int) -> list[dict]:
    """Rows n = 0..max_degree of exact recurrence/spectral data."""
    rows = []
    for n in range(max_degree + 1):
        u, b = recurrence_coeffs(params, n)
        rows.append(
            {
                "n": n,
                "u": None if u is None else str(u),
                "b": str(b),
                "lambda": str(eigenvalue(params, n)),
            }
        )
    return rows
