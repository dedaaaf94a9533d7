"""Exact rational polynomial arithmetic.

Scalars are `fractions.Fraction`.  A polynomial `Poly` is stored as one
tuple of integer numerators over one positive integer denominator, in a
canonical form, and its ring operations and the kernels built on it
(here and in `family`, `operators` and `transforms`) run on those ints.
A `Fraction` per coefficient is made only by the `Poly.coeffs` view,
for printing and for callers that read coefficients one by one.
Everything in this module is exact: identities proved here hold with
zero tolerance, which is what lets the operator and transform layers
assert equality instead of closeness.  The Horner evaluators (`horner`,
and `horner3` for three float tuples in one pass) work in the
arithmetic of their argument, floats included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from operator import add
from typing import Iterable, Sequence

__all__ = [
    "NEG_INFINITY",
    "Poly",
    "as_fraction",
    "horner",
    "horner3",
    "horner_rows",
    "monomial",
    "over_common_denominator",
    "pochhammer",
    "recurrence_step",
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


def horner(coeffs: Sequence, x):
    """sum_k coeffs[k] x**k by Horner's rule, in the arithmetic of x:
    exact for Fraction/int input with Fraction coefficients, float for float."""
    out = x * 0  # matches the input's arithmetic type
    for c in reversed(coeffs):
        out = out * x + c
    return out


def horner_rows(
    p: Sequence[float], q: Sequence[float], r: Sequence[float]
) -> tuple[tuple[float, float, float], ...]:
    """The rows that `horner3` steps through: three float coefficient
    tuples, lowest degree first as for `horner`, zipped top degree first,
    with a shorter tuple padded at its top with 0.0.

    The padding is exact: from either zero a step 0.0*x + 0.0 leaves +0.0,
    and the tuple's own top step 0.0*x + c then gives c, as the first step
    of `horner` does (for any c but -0.0, which no Poly or series
    coefficient is).  An empty tuple is all padding and reads +0.0, where
    `horner` gives x*0, which is -0.0 at a negative x.
    """
    top = max(len(p), len(q), len(r))
    return tuple(
        zip(*(((0.0,) * (top - len(c))) + tuple(reversed(c)) for c in (p, q, r)))
    )


def horner3(rows: Sequence[tuple[float, float, float]], x: float) -> tuple[float, float, float]:
    """(horner(p, x), horner(q, x), horner(r, x)) in one pass over
    ``rows = horner_rows(p, q, r)``.

    The three accumulators step in lockstep, each through exactly the
    operations of its own Horner loop, so each value equals the separate
    pass bit for bit (see `horner_rows` for the one exception, an empty
    tuple at a negative x); the pass costs one loop instead of three.
    """
    u = v = w = x * 0
    for a, b, c in rows:
        u = u * x + a
        v = v * x + b
        w = w * x + c
    return u, v, w


def over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [v D for v in values]) for D the lcm of the values'
    denominators: the values as integers over one positive denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _scaled(nums: Sequence[int], factor: int) -> Sequence[int]:
    return nums if factor == 1 else [factor * c for c in nums]


class Poly:
    """Dense univariate polynomial sum_k nums[k] x**k / den.

    ``nums`` is a tuple of ints and ``den`` a positive int, in canonical
    form: no trailing zero in ``nums``, ``den`` the lcm of the reduced
    coefficient denominators, and gcd(den, *nums) = 1 (the last two say
    the same thing).  The zero polynomial is ``nums == ()``, ``den == 1``.
    The form is unique, so ``==`` and ``hash`` compare ints, and every
    ring operation runs on ints and normalises once per result.

    ``coeffs`` is a read-only view, ``coeffs[k]`` the Fraction that
    multiplies x**k; it is built on each read, for printing and for
    callers that want Fractions.  Instances are immutable and hashable.

    Tuples are built from lists, not generators: ``tuple()`` of a
    generator takes a ten-slot tuple and resizes it, so each one moves a
    block between CPython's per-size tuple free lists, which only a full
    garbage collection empties; a list gives the exact size at once.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        den, nums = over_common_denominator(cs)
        self.nums: tuple[int, ...] = tuple(nums)
        self.den: int = den

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int) -> "Poly":
        """sum_k nums[k] x**k / den for any ints and a nonzero den, in
        canonical form: one gcd over the vector and, unless it is 1, one
        exact division per coefficient."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        if not nums:
            return cls._canonical((), 1)
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return cls._canonical(tuple([c // g for c in nums]), den // g)
        return cls._canonical(tuple(nums), den)

    @classmethod
    def _canonical(cls, nums: tuple[int, ...], den: int) -> "Poly":
        """A Poly from numerators and a denominator already in canonical form."""
        p = object.__new__(cls)
        p.nums, p.den = nums, den
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.nums])

    @property
    def degree(self):
        """Degree as an int, or NEG_INFINITY for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = _scaled(self.nums, den // self.den)
        b = _scaled(other.nums, den // other.den)
        if len(a) < len(b):
            a, b = b, a
        return Poly.from_ints([*map(add, a, b), *a[len(b) :]], den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._canonical(tuple([-c for c in self.nums]), self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            if not a or not b:
                return Poly.ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    end = i + len(b)
                    out[i:end] = [x + c * y for x, y in zip(out[i:end], b)]
            return Poly.from_ints(out, self.den * other.den)
        scalar = as_fraction(other)
        return Poly.from_ints(
            _scaled(self.nums, scalar.numerator), self.den * scalar.denominator
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        scalar = as_fraction(scalar)
        if not scalar:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly.from_ints(
            _scaled(self.nums, scalar.denominator), self.den * scalar.numerator
        )

    def __divmod__(self, divisor: "Poly"):
        """Exact long division: returns (quotient, remainder)."""
        if not isinstance(divisor, Poly):
            return NotImplemented
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, lead = Poly.ZERO, self, divisor.leading_coefficient
        while rem.degree >= divisor.degree:
            term = monomial(rem.degree - divisor.degree, rem.leading_coefficient / lead)
            quot, rem = quot + term, rem - term * divisor
        return quot, rem

    # -- calculus and evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return Poly.from_ints([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), exact, by Horner's rule in the polynomial ring."""
        out = Poly.ZERO
        for c in reversed(self.nums):
            out = out * inner + Poly.from_ints((c,), self.den)
        return out

    def __call__(self, x):
        """Horner evaluation over the Fraction coefficients; exact for
        Fraction/int input, float for float (each coefficient rounded once
        by float(Fraction))."""
        return horner(self.coeffs, x)

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as exact "p/q" strings, constant term first."""
        return [str(c) for c in self.coeffs]

    # -- object protocol ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        if not self.nums:
            return "Poly()"
        return f"Poly([{', '.join(self.to_strings())}])"


Poly.ZERO = Poly()
Poly.ONE = Poly([1])
Poly.X = Poly([0, 1])


def monomial(power: int, coeff=1) -> Poly:
    """coeff * x**power."""
    if power < 0:
        raise ValueError("monomial power must be nonnegative")
    return Poly([0] * power + [coeff])


def reflect(p: Poly) -> Poly:
    """p(-x): flips the sign of every odd coefficient."""
    return Poly._canonical(tuple([-c if k % 2 else c for k, c in enumerate(p.nums)]), p.den)


def recurrence_step(p: Poly, p_prev: Poly, b: Fraction, u: Fraction) -> Poly:
    """(x - b) p - u p_prev, the step of a monic three-term recurrence
    P_{n+1} = (x - b_n) P_n - u_n P_{n-1}, on integers.

    With p = A/dA and p_prev = B/dB read as numerators over their lcm d,
    and b = bn/bd, u = un/ud,
      (x - b) p - u p_prev = (x A bd ud - bn ud A - un bd B) / (d bd ud),
    so a step costs O(deg p) int multiply-adds and one normalisation of
    the result.
    """
    d = math.lcm(p.den, p_prev.den)
    fa, fb = d // p.den, d // p_prev.den
    shift = b.denominator * u.denominator
    # scalars of x A, A and B
    sx, sa, sb = shift * fa, b.numerator * u.denominator * fa, u.numerator * b.denominator * fb
    a = p.nums
    out = [
        sx * xa - sa * aa - sb * cc
        for xa, aa, cc in zip_longest((0, *a), a, p_prev.nums, fillvalue=0)
    ]
    return Poly.from_ints(out, d * shift)


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
    denominators), so each of the n steps costs a few int products.  The
    last denominator is a multiple of every earlier one, so it serves as
    the common denominator of the result: one exact division per term,
    and no Fraction.

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
    nums, dens = [1], [1]
    num = den = 1
    for k in range(n):
        c_k = cn + k * cd  # (c + k) cd
        if c_k == 0:
            raise ValueError(f"series denominator (c)_k vanishes at k={k + 1}")
        num *= (k - n) * (bn + k * bd) * cd  # (a + k) (b + k) bd cd
        den *= c_k * bd * (k + 1)
        nums.append(num)
        dens.append(den)
    out = [0] * (n * arg_power + 1)
    out[::arg_power] = [v * (den // d) for v, d in zip(nums, dens)]
    return Poly.from_ints(out, den)
