"""Exact rational polynomial arithmetic.

Scalars are `fractions.Fraction` and polynomials are dense coefficient
tuples over them.  Everything in this module is exact: identities proved
here hold with zero tolerance, which is what lets the operator and
transform layers assert equality instead of closeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "NEG_INFINITY",
    "ParityPair",
    "Poly",
    "as_fraction",
    "horner",
    "monomial",
    "parity_split",
    "pochhammer",
    "reflect",
    "terminating_2f1",
]

#: Degree of the zero polynomial.  A true -infinity keeps degree
#: comparisons honest (it never collides with the degree of a constant).
NEG_INFINITY = float("-inf")


def as_fraction(value) -> Fraction:
    """Coerce ints, "p/q" strings, floats, and Fractions to Fraction.

    Floats convert to their exact binary value; callers that care about
    decimal intent should pass strings.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with values[i] = ints[i] / d and d the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def horner(coeffs: Sequence, x):
    """sum_k coeffs[k] x**k by Horner's rule, in the arithmetic of x:
    exact for Fraction/int input with Fraction coefficients, float for float."""
    out = x * 0  # matches the input's arithmetic type
    for c in reversed(coeffs):
        out = out * x + c
    return out


class Poly:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies x**k.

    Trailing zeros are stripped on construction, so the representation is
    canonical and ``==`` is exact coefficient equality.  Instances are
    immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self):
        """Degree as an int, or NEG_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return Poly(out)
        scalar = as_fraction(other)
        return Poly([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        scalar = as_fraction(scalar)
        if not scalar:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly([c / scalar for c in self.coeffs])

    def __divmod__(self, divisor: "Poly"):
        """Exact long division: returns (quotient, remainder)."""
        if not isinstance(divisor, Poly):
            return NotImplemented
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlen = len(divisor.coeffs)
        lead = divisor.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - dlen + 1, 0)
        for i in range(len(rem) - dlen, -1, -1):
            factor = rem[i + dlen - 1] / lead
            if factor:
                quot[i] = factor
                for j, d in enumerate(divisor.coeffs):
                    rem[i + j] -= factor * d
        return Poly(quot), Poly(rem)

    # -- calculus and evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), exact, by one Horner pass over integers.

        With self = sum_k P_k x^k / d and inner = Q(x) / s over integer
        numerators, self(inner) = sum_k P_k s^(n-k) Q^k / (d s^n), n the
        degree of self.  Horner accumulates that integer polynomial with
        plain int multiply-adds, one pass per coefficient of self, each
        costing len(acc) products per nonzero coefficient of Q: O(n^2)
        for the linear and monomial inner polynomials the package uses.
        One Fraction is made per output coefficient.
        """
        if not self.coeffs:
            return Poly()
        outer, d = _over_common_denominator(self.coeffs)
        q, s = _over_common_denominator(inner.coeffs)
        taps = [(j, c) for j, c in enumerate(q) if c]
        acc, scale = [outer[-1]], 1
        for p in reversed(outer[:-1]):
            scale *= s
            nxt = [0] * max(len(acc) + len(q) - 1, 1)
            for j, c in taps:
                end = j + len(acc)
                nxt[j:end] = [x + c * a for x, a in zip(nxt[j:end], acc)]
            nxt[0] += p * scale
            acc = nxt
        den = d * scale
        return Poly([Fraction(a, den) for a in acc])

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input, float for float."""
        return horner(self.coeffs, x)

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as exact "p/q" strings, constant term first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Poly":
        return cls([Fraction(s) for s in items])

    # -- object protocol ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly()"
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"


Poly.ZERO = Poly()
Poly.ONE = Poly([1])
Poly.X = Poly([0, 1])


def monomial(power: int, coeff=1) -> Poly:
    """coeff * x**power."""
    if power < 0:
        raise ValueError("monomial power must be nonnegative")
    return Poly([0] * power + [coeff])


@dataclass(frozen=True)
class ParityPair:
    """Even and odd parts of a polynomial; even + odd reconstructs it."""

    even: Poly
    odd: Poly


def parity_split(p: Poly) -> ParityPair:
    even = Poly([c if k % 2 == 0 else 0 for k, c in enumerate(p.coeffs)])
    odd = Poly([c if k % 2 == 1 else 0 for k, c in enumerate(p.coeffs)])
    return ParityPair(even=even, odd=odd)


def reflect(p: Poly) -> Poly:
    """p(-x): flips the sign of every odd coefficient."""
    return Poly([-c if k % 2 else c for k, c in enumerate(p.coeffs)])


def pochhammer(x, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("pochhammer index must be a nonnegative integer")
    x = as_fraction(x)
    out = Fraction(1)
    for k in range(n):
        out *= x + k
    return out


def terminating_2f1(a, b, c, arg_power: int = 1) -> Poly:
    """Terminating Gauss hypergeometric sum as an exact polynomial.

    Returns sum_{k=0}^{n} (a)_k (b)_k / ((c)_k k!) * x**(k*arg_power)
    where a must be a nonpositive integer -n (that is what makes the sum
    terminate).  ``arg_power=2`` yields a series in x**2.

    The running term is carried as one integer numerator and one integer
    denominator (b and c enter through their own numerators and
    denominators), so each of the n steps costs a few int products and
    each coefficient costs one Fraction reduction.

    Raises ValueError if a is not a nonpositive integer, or if c hits a
    nonpositive integer before the series terminates (zero denominator).
    """
    a = as_fraction(a)
    b = as_fraction(b)
    c = as_fraction(c)
    if not isinstance(arg_power, int) or arg_power < 1:
        raise ValueError("arg_power must be a positive integer")
    if a.denominator != 1 or a > 0:
        raise ValueError("top parameter must be a nonpositive integer")
    n = -int(a)
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    out = [Fraction(0)] * (n * arg_power + 1)
    out[0] = Fraction(1)
    num = den = 1
    for k in range(n):
        c_k = cn + k * cd  # (c + k) cd
        if c_k == 0:
            raise ValueError(f"series denominator (c)_k vanishes at k={k + 1}")
        num *= (k - n) * (bn + k * bd) * cd  # (a + k) (b + k) bd cd
        den *= c_k * bd * (k + 1)
        out[(k + 1) * arg_power] = Fraction(num, den)
    return Poly(out)
