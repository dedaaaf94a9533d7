"""Linear operators on polynomials, known by their exact monomial action.

Two forms hold an operator.  A `Band` knows it at every degree: for each
parity p of n and each offset d it keeps one `Poly` in n, and sends
x**n to sum_d rows[n % 2][d](n) x**(n+d).  Sums, scalar multiples and
compositions of bands are bands again (composition shifts n -> n + d
with `Poly.compose`), and two bands are the same operator exactly when
their polynomials are equal.  So an identity between bands is an
identity of polynomials in n, and it holds at every degree.  Every
stock operator whose coefficients are polynomial in n is defined once,
as a band.

A `BandedOp` is a table: for every n up to a truncation degree it
records op(x**n) as a sparse {output power: coefficient} map with
Fraction entries.  It is what `apply` runs on: a stock operator's table
at N is its band's `table(N)`.  A table is never mutated, so its first
`apply` turns its rows into integers over one denominator and every
later `apply` reads them.  The Dunkl intertwiner, whose diagonal is
a product and not a polynomial in n, exists only as a table.

Tables also add, compose and compare, with conservative truncation.
Composing operators shrinks the degree range on which the product is
trusted (an inner operator that raises degree eats into the outer
table), so an identity reported as holding on its safe range can never
be a truncation artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .polys import Poly, as_fraction, horner, over_common_denominator

__all__ = [
    "Band",
    "BandedOp",
    "DERIVATIVE_BAND",
    "IDENTITY_BAND",
    "MULT_X_BAND",
    "OpIdentityReport",
    "TruncationError",
    "anticommutator",
    "derivative",
    "dunkl_band",
    "dunkl_derivative",
    "dunkl_intertwiner",
    "identity_scalar",
    "little_jacobi_band",
    "op_equal",
    "raising_band",
    "sturm_liouville_band",
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
    """Linear operator known by its action on x**n for n = 0..trunc_degree.

    A table is never mutated: every operation builds a new one.  So the
    integer form of its rows, which `apply` reads, is made once, on the
    first `apply`; the table algebra never makes it.  Sums, multiples and
    compositions drop their zero entries and track max_raise as they
    build, so their rows skip `_clean`.
    """

    __slots__ = ("actions", "max_raise", "_ints")

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
        self._ints = None

    @classmethod
    def _from_clean(cls, actions: list[dict[int, Fraction]], max_raise: int) -> "BandedOp":
        """A table from rows already in `_clean` form and their max_raise."""
        op = object.__new__(cls)
        op.actions, op.max_raise, op._ints = tuple(actions), max_raise, None
        return op

    @classmethod
    def from_monomial(cls, trunc_degree: int, action: Callable[[int], dict]) -> "BandedOp":
        """Build the table by evaluating ``action(n)`` for n = 0..trunc_degree."""
        if trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        return cls([action(n) for n in range(trunc_degree + 1)])

    @property
    def trunc_degree(self) -> int:
        return len(self.actions) - 1

    def apply(self, p: Poly) -> Poly:
        """op(p), exact, accumulated over integers.

        p is read as integer numerators over its denominator d, and the
        table's rows as integers over theirs, D, the lcm of every entry's
        denominator: each row as (output power, entry times D) pairs,
        made on the first apply and read by every later one.  The result
        is the int sums of products over d D, normalised once:
        O(deg p * band) int multiply-adds and no Fraction.
        """
        if p.degree > self.trunc_degree:
            raise TruncationError(
                f"polynomial degree {p.degree} exceeds operator truncation "
                f"degree {self.trunc_degree}"
            )
        if p.is_zero():
            return Poly.ZERO
        if self._ints is None:
            den, nums = over_common_denominator([a for row in self.actions for a in row.values()])
            ints = iter(nums)
            self._ints = den, [[(k, next(ints)) for k in row] for row in self.actions]
        den, rows = self._ints
        acc = [0] * (len(p.nums) + self.max_raise)
        for c, row in zip(p.nums, rows):
            if c:
                for k, a in row:
                    acc[k] += c * a
        return Poly.from_ints(acc, p.den * den)

    # -- linear combinations ----------------------------------------------

    def __add__(self, other: "BandedOp") -> "BandedOp":
        if not isinstance(other, BandedOp):
            return NotImplemented
        out = []
        raise_by = 0
        for n, (mine, theirs) in enumerate(zip(self.actions, other.actions)):
            action = dict(mine)
            for k, c in theirs.items():
                if k in action:
                    c += action[k]
                    if not c:
                        del action[k]
                        continue
                action[k] = c
            if action:
                raise_by = max(raise_by, max(action) - n)
            out.append(action)
        return BandedOp._from_clean(out, raise_by)

    def __sub__(self, other: "BandedOp") -> "BandedOp":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "BandedOp":
        scalar = as_fraction(scalar)
        if not scalar:
            return BandedOp._from_clean([{} for _ in self.actions], 0)
        return BandedOp._from_clean(
            [{k: scalar * c for k, c in action.items()} for action in self.actions],
            self.max_raise,
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
        raise_by = 0
        for n in range(safe + 1):
            action: dict[int, Fraction] = {}
            for k, c in inner.actions[n].items():
                for j, d in self.actions[k].items():
                    action[j] = action[j] + c * d if j in action else c * d
            action = {j: c for j, c in action.items() if c}
            if action:
                raise_by = max(raise_by, max(action) - n)
            out.append(action)
        return BandedOp._from_clean(out, raise_by)

    def scalar(self) -> Optional[Fraction]:
        """The c with self = c * identity on its table, or None."""
        value = None
        for n, action in enumerate(self.actions):
            if action.keys() - {n}:
                return None
            c = action.get(n, Fraction(0))
            if value is None:
                value = c
            elif c != value:
                return None
        return value if value is not None else Fraction(0)

    # -- serialization ------------------------------------------------------

    def __repr__(self):
        return f"BandedOp(trunc_degree={self.trunc_degree}, max_raise={self.max_raise})"


def anticommutator(a, b):
    """ab + ba, for two tables or two bands."""
    return a @ b + b @ a


@dataclass(frozen=True)
class OpIdentityReport:
    """Outcome of comparing two operators on their shared trusted range."""

    holds: bool
    safe_degree: int
    first_mismatch: Optional[int]


def op_equal(lhs: BandedOp, rhs: BandedOp) -> OpIdentityReport:
    """Exact comparison of two operator tables up to the shared safe degree.

    Every row holds only nonzero Fraction coefficients (see `_clean`), so
    two rows are the same action exactly when they are equal dicts.
    """
    safe = min(lhs.trunc_degree, rhs.trunc_degree)
    if safe < 0:
        raise TruncationError("operators share no trusted degrees")
    first = next((n for n in range(safe + 1) if lhs.actions[n] != rhs.actions[n]), None)
    return OpIdentityReport(holds=first is None, safe_degree=safe, first_mismatch=first)


def identity_scalar(op: BandedOp) -> Optional[Fraction]:
    """`op.scalar()`; kept for the benchmark's tracer."""
    return op.scalar()


class Band:
    """Linear operator on polynomials at every degree: for each parity p
    of n and offset d, one Poly rows[p][d] in n, with

        x**n -> sum_d rows[n % 2][d](n) x**(n+d).

    ``even`` and ``odd`` map offsets to a Poly or to its coefficients in
    n, constant first; zero entries are dropped, so the form is unique
    and ``==`` compares operators.  A polynomial is fixed by its values
    at the infinitely many n of its parity, so equal operators have
    equal rows.  At the bottom of the band a row with offset d < 0 must
    vanish at each n of its parity with n + d < 0, where x**(n+d) does
    not exist; the constructor checks it.  Sums and compositions of
    bands that pass the check pass it too.
    """

    __slots__ = ("rows",)

    def __init__(self, even: Mapping[int, object], odd: Mapping[int, object]):
        rows = []
        for parity, entries in enumerate((even, odd)):
            row = {}
            for d, entry in entries.items():
                poly = entry if isinstance(entry, Poly) else Poly(entry)
                if poly.is_zero():
                    continue
                bad = next((n for n in range(parity, -d, 2) if horner(poly.nums, n)), None)
                if bad is not None:
                    raise ValueError(
                        f"band row at offset {d} is {poly(bad)} at n={bad}, "
                        f"where x**{bad + d} does not exist"
                    )
                row[d] = poly
            rows.append(row)
        self.rows: tuple[dict[int, Poly], dict[int, Poly]] = tuple(rows)

    def __add__(self, other: "Band") -> "Band":
        if not isinstance(other, Band):
            return NotImplemented
        rows = []
        for mine, theirs in zip(self.rows, other.rows):
            row = dict(mine)
            for d, p in theirs.items():
                row[d] = row[d] + p if d in row else p
            rows.append(row)
        return Band(*rows)

    def __sub__(self, other: "Band") -> "Band":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Band":
        return Band(*({d: p * scalar for d, p in row.items()} for row in self.rows))

    def __matmul__(self, inner: "Band") -> "Band":
        """self after inner (operator composition, matrix-product order).

        inner sends x**n to c(n) x**(n+d), and self's row of parity
        n + d, read at n + d, carries that on: the product's entry at
        offset d + e gains c(n) a(n + d).
        """
        if not isinstance(inner, Band):
            return NotImplemented
        rows = []
        for parity, entries in enumerate(inner.rows):
            row = {}
            for d, c in entries.items():
                shift = Poly.from_ints((d, 1), 1)  # n -> n + d
                for e, a in self.rows[(parity + d) % 2].items():
                    term = c * (a.compose(shift) if d else a)
                    row[d + e] = row[d + e] + term if d + e in row else term
            rows.append(row)
        return Band(*rows)

    def __eq__(self, other):
        return isinstance(other, Band) and self.rows == other.rows

    def scalar(self) -> Optional[Fraction]:
        """The c with self = c * identity at every degree, or None."""
        values = set()
        for row in self.rows:
            diagonal = row.get(0, Poly.ZERO)
            if row.keys() - {0} or diagonal.degree > 0:
                return None
            values.add(diagonal.coefficient(0))
        return values.pop() if len(values) == 1 else None

    def table(self, trunc_degree: int) -> BandedOp:
        """The rows n = 0..trunc_degree as a table, each entry one int
        Horner pass over its Poly's numerators and one Fraction."""
        if trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        entries = [[(d, p.nums, p.den) for d, p in row.items()] for row in self.rows]
        actions = []
        raise_by = 0
        for n in range(trunc_degree + 1):
            action = {}
            for d, nums, den in entries[n % 2]:
                value = horner(nums, n)
                if value:
                    action[n + d] = Fraction(value, den)
                    raise_by = max(raise_by, d)
            actions.append(action)
        return BandedOp._from_clean(actions, raise_by)

    def __repr__(self):
        return f"Band(even={self.rows[0]!r}, odd={self.rows[1]!r})"


# -- stock operators --------------------------------------------------------

IDENTITY_BAND = Band({0: [1]}, {0: [1]})
MULT_X_BAND = Band({1: [1]}, {1: [1]})
#: x**n -> n x**(n-1)
DERIVATIVE_BAND = Band({-1: [0, 1]}, {-1: [0, 1]})


def dunkl_band(mu) -> Band:
    """Dunkl operator f -> f' + mu (f(x) - f(-x))/x.

    Sends x**n to [n]_mu x**(n-1) with the mu-deformed integer
    [n]_mu = n + mu (1 - (-1)**n); at mu = 0 it is the plain derivative.
    """
    mu = as_fraction(mu)
    if mu <= Fraction(-1, 2):
        raise ValueError("Dunkl parameter mu must exceed -1/2")
    return Band({-1: [0, 1]}, {-1: [2 * mu, 1]})


def little_jacobi_band(alpha, beta) -> Band:
    """First-order reflection-differential operator diagonalized by the
    little -1 Jacobi family.

    Acting on x**n it gives xi_n x**n + eta_n x**(n-1) with
      xi_n  = 2 (-1)**(n+1) n + (1 - (-1)**n)(alpha + beta + 1)
      eta_n = 2 (-1)**n n - (1 - (-1)**n) alpha
    The would-be x**(-1) term cancels identically (eta_0 = 0), so the
    operator is polynomial-stable and degree-preserving.
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    return Band(
        {0: [0, -2], -1: [0, 2]},
        {0: [2 * (alpha + beta + 1), 2], -1: [-2 * alpha, -2]},
    )


def raising_band(alpha, beta) -> Band:
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
    return Band(
        {1: [beta + alpha, 1], 0: [-1 - alpha], -1: [0, -1]},
        {1: [beta, 1], 0: [-1 + alpha], -1: [-alpha, -1]},
    )


def sturm_liouville_band(a) -> Band:
    """Second-order Sturm-Liouville operator for the Jacobi weight pair
    (a, a+1): (1 - x**2) d^2/dx^2 + (1 - (2a+3) x) d/dx.

    On x**n: -n (n + 2a + 2) x**n + n x**(n-1) + n (n-1) x**(n-2).
    """
    a = as_fraction(a)
    row = {0: [0, -2 * a - 2, -1], -1: [0, 1], -2: [0, -1, 1]}
    return Band(row, row)


def derivative(trunc_degree: int) -> BandedOp:
    """The table of `DERIVATIVE_BAND`; the benchmark's operator-algebra
    workload calls it."""
    return DERIVATIVE_BAND.table(trunc_degree)


def dunkl_derivative(mu, trunc_degree: int) -> BandedOp:
    """The table of `dunkl_band`; the benchmark's operator-algebra
    workload calls it."""
    return dunkl_band(mu).table(trunc_degree)


def dunkl_intertwiner(mu, trunc_degree: int) -> BandedOp:
    """Diagonal operator V with T_mu V = V d/dx (degree-preserving).

    V x**n = sigma_n x**n, where sigma_0 = 1, the odd step n = 2k+1
    multiplies by (1/2 + k)/(mu + 1/2 + k) and the even step repeats the
    previous entry, so sigma_{2m-1} = sigma_{2m}; it maps the plain
    derivative's eigenstructure onto the Dunkl operator's.  The whole
    table costs O(trunc_degree) Fraction products.  sigma_n is a product
    over n, not a polynomial in n, so V has no band.
    """
    mu = as_fraction(mu)
    if mu <= Fraction(-1, 2):
        raise ValueError("Dunkl parameter mu must exceed -1/2")
    sigmas = [Fraction(1)]
    for n in range(1, trunc_degree + 1):
        if n % 2:
            k = n // 2
            sigmas.append(sigmas[-1] * (Fraction(1, 2) + k) / (mu + Fraction(1, 2) + k))
        else:
            sigmas.append(sigmas[-1])
    return BandedOp.from_monomial(trunc_degree, lambda n: {n: sigmas[n]})
