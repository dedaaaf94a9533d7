"""The little -1 Jacobi orthogonal family.

Recurrence data, spectral data, moments, explicit hypergeometric forms,
the orthogonality weight, and the numeric deformation limit q -> -1 of
the little q-Jacobi recurrence coefficients.

Everything that can be exact is exact (Fraction in, Fraction out); only
the weight integrals and the deformation limit are floating point.
`to_float` is the package's one conversion of an exact value to a float
that can overflow: a value beyond the float range raises FloatRangeError
naming it, in the weight, the eigensolver and the well alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Optional, Sequence

from .polys import Poly, as_fraction, over_common_denominator, recurrence_step, terminating_2f1

__all__ = [
    "FloatRangeError",
    "MomentFunctional",
    "ParamPair",
    "WEIGHT_TOLERANCE",
    "WeightQuadrature",
    "eigenvalue",
    "explicit_poly",
    "generate_monic",
    "moments",
    "norm_square",
    "qjacobi_recurrence",
    "qlimit_error",
    "recurrence_coeffs",
    "to_float",
    "weight_eval",
    "weight_moment",
    "weight_moments",
    "weight_normalization",
    "weight_values",
]


class FloatRangeError(ValueError):
    """A float routine whose inputs or results lie beyond the float range.

    The exact routes never raise it: it marks the float boundary, where
    exact values become floats through `to_float`: the weight, its
    quadrature and the q-deformation of an admissible pair, the
    eigensolver's alpha, beta and lambda and its series, and the well's a
    and y.  There a check can only be skipped, a command can only refuse,
    and a Python caller gets this error, never OverflowError.
    """


def to_float(value, what: str) -> float:
    """float(value), or FloatRangeError naming `what` where the value lies
    beyond the float range: the one conversion of an exact value to a
    float that can overflow."""
    try:
        return float(value)
    except OverflowError:
        raise FloatRangeError(f"{what} lies beyond the float range") from None


@dataclass(frozen=True)
class ParamPair:
    """Family parameters; positivity of the weight needs both > -1.

    The pair is the key of the family's caches, so its hash, that of
    (alpha, beta), is taken once, when it is made.  So are its integers
    ``ints = (D, A, B)``: alpha = A/D and beta = B/D over D, the least
    common denominator, which the exact kernels read.  Neither is a
    field, so equality and repr are those of (alpha, beta).
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.alpha <= -1:
            raise ValueError("alpha must be > -1")
        if self.beta <= -1:
            raise ValueError("beta must be > -1")
        object.__setattr__(self, "_hash", hash((self.alpha, self.beta)))
        d, (a, b) = over_common_denominator((self.alpha, self.beta))
        object.__setattr__(self, "ints", (d, a, b))

    def __hash__(self):
        return self._hash

    def floats(self) -> tuple[float, float]:
        """(alpha, beta) as floats, by `to_float`."""
        return to_float(self.alpha, "alpha or beta"), to_float(self.beta, "alpha or beta")


def recurrence_coeffs(params: ParamPair, n: int) -> tuple[Optional[Fraction], Fraction]:
    """Monic three-term recurrence data (u_n, b_n); u_0 is None.

    With theta_n = 1 for even n and 0 for odd n:
      u_n = (n + (1-theta_n) alpha)(n + beta + theta_n alpha) / (2n+alpha+beta)^2
      b_n = (-1)^n ((2n+1)alpha + alpha beta + alpha^2 + (-1)^n beta)
            / ((2n+alpha+beta)(2n+2+alpha+beta))
    b_0 reduces to (alpha+1)/(alpha+beta+2); that form also covers the
    removable 0/0 of the general expression at alpha + beta = 0.

    Both are built from the pair's integers: with alpha = A/D and
    beta = B/D (`ParamPair.ints`), b_0 = (A+D)/(A+B+2D), and for n >= 1
    numerator and denominator are scaled by D^2, so each coefficient is
    one Fraction of two integers, reduced once.
    """
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    d, a, b = params.ints
    if n == 0:
        return None, Fraction(a + d, a + b + 2 * d)
    nd = n * d
    low = 2 * nd + a + b  # D (2n + alpha + beta) > 0 for n >= 1
    if n % 2:  # theta_n = 0, (-1)^n = -1
        u = Fraction((nd + a) * (nd + b), low * low)
        b_num = -((2 * n + 1) * a * d + a * b + a * a - b * d)
    else:
        u = Fraction(nd * (nd + b + a), low * low)
        b_num = (2 * n + 1) * a * d + a * b + a * a + b * d
    return u, Fraction(b_num, low * (low + 2 * d))


def eigenvalue(params: ParamPair, n: int) -> Fraction:
    """Eigenvalue of the reflection-differential operator on degree n:
    -2n for even n, 2(alpha + beta + n + 1) for odd n, the latter one
    Fraction of the pair's integers (`ParamPair.ints`)."""
    if n < 0:
        raise ValueError("eigenvalue index must be nonnegative")
    if n % 2 == 0:
        return Fraction(-2 * n)
    d, a, b = params.ints
    return Fraction(2 * (a + b + (n + 1) * d), d)


#: Largest number of nested recurrence steps one generate_monic call makes.
_STRIDE = 64


@lru_cache(maxsize=None)
def generate_monic(params: ParamPair, n: int) -> Poly:
    """Monic family member of degree n, from the three-term recurrence
    P_n = (x - b_{n-1}) P_{n-1} - u_{n-1} P_{n-2}, one integer
    `recurrence_step` per degree.

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
    u, b = recurrence_coeffs(params, n - 1)
    if n == 1:
        return recurrence_step(Poly.ONE, Poly.ZERO, b, Fraction(0))
    return recurrence_step(generate_monic(params, n - 1), generate_monic(params, n - 2), b, u)


def explicit_poly(params: ParamPair, n: int) -> Poly:
    """Monic family member from the closed hypergeometric brackets.

    The bracket is first + scale x second, two terminating series in x**2:
    at even n = 2m
        2F1(-m, (n+alpha+beta+2)/2; (alpha+1)/2) with
        scale n/(alpha+1) on 2F1(-(m-1), (n+alpha+beta+2)/2; (alpha+3)/2),
    and at odd n = 2m+1
        2F1(-m, (n+alpha+beta+1)/2; (alpha+1)/2) with
        scale -(alpha+beta+n+1)/(alpha+1) on 2F1(-m, (n+alpha+beta+3)/2; (alpha+3)/2).
    The parameters are formed from the pair's integers (`ParamPair.ints`),
    one Fraction each.  The bracket is combined on the
    series' numerators over the product of the denominators and
    normalised once, by its leading coefficient, which cannot vanish for
    alpha, beta > -1.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    d, a, b = params.ints
    m = n // 2
    # (alpha + 1) / 2, (alpha + 3) / 2 and d (alpha + beta + n + 1)
    low, high = Fraction(a + d, 2 * d), Fraction(a + 3 * d, 2 * d)
    s = a + b + (n + 1) * d
    if n % 2 == 0:
        shared = Fraction(s + d, 2 * d)
        first = terminating_2f1(-m, shared, low, arg_power=2)
        if not m:
            return first
        scale = Fraction(n * d, a + d)
        second = terminating_2f1(1 - m, shared, high, arg_power=2)
    else:
        first = terminating_2f1(-m, Fraction(s, 2 * d), low, arg_power=2)
        scale = Fraction(-s, a + d)
        second = terminating_2f1(-m, Fraction(s + 2 * d, 2 * d), high, arg_power=2)
    # first + scale x second over first.den * scale.denominator * second.den
    f, g = second.den * scale.denominator, first.den * scale.numerator
    out = [f * c for c in first.nums] + [0] * (n + 1 - len(first.nums))
    for k, c in enumerate(second.nums, 1):
        out[k] += g * c
    if not out[n]:
        raise RuntimeError(f"explicit bracket degenerated: its coefficient of x**{n} is 0")
    return Poly.from_ints(out, out[n])


# -- moment functional -------------------------------------------------------


@dataclass(frozen=True)
class MomentFunctional:
    """Finite slice of the family's moment sequence, with c_0 = 1."""

    params: ParamPair
    moments: tuple[Fraction, ...]

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
            (c * self.moments[k] for k, c in enumerate(prod.nums) if c),
            Fraction(0),
        ) / prod.den

    def mixed_moments(self, polys: Sequence[Poly]) -> list[Poly]:
        """Row n holds sigma_n(j) = L[x^j polys[n]], j = 0..n, as the
        coefficients of a Poly, so <q, polys[n]> = sum_j q[j] sigma_n(j) for
        deg q <= n.  polys holds one polynomial of each degree 0..N in order,
        so polys[0..n-1] span degree < n.

        The family's moments come in pairs, c_{2m-1} = c_{2m}, so with
        E_m = D c_{2m} the even moments scaled once to integers over a
        common denominator D, and p_n[i] / d_n the coefficients of
        polys[n] (``Poly.nums``, ``Poly.den``),
            D d_n sigma_n(2t)   = sum_m (p_n[2m-1] + p_n[2m]) E_{t+m},
            D d_n sigma_n(2t-1) = sum_m (p_n[2m] + p_n[2m+1]) E_{t+m},
        with p_n[-1] = 0: each member's coefficients are folded in pairs
        once, and each entry is a dot product against the even moments,
        half the products of summing against every moment.  O(N^3)
        integer multiply-adds in all and no Fraction per entry.  Raises
        ValueError on a slice whose moments are not paired.
        """
        if not polys or [p.degree for p in polys] != list(range(len(polys))):
            raise ValueError("mixed moments need one polynomial of each degree 0..N, in order")
        top = 2 * len(polys) - 2
        if top >= len(self.moments):
            raise ValueError(f"inner product needs moment {top}, have 0..{len(self.moments) - 1}")
        if self.moments[1 : top + 1 : 2] != self.moments[2 : top + 1 : 2]:
            raise ValueError("mixed moments need paired moments, c_{2m-1} = c_{2m}")
        den, even = over_common_denominator(self.moments[: top + 1 : 2])
        rows = []
        for p in polys:
            nums = [*p.nums, 0]
            # low[m] pairs (2m-1, 2m) and high[m] pairs (2m, 2m+1)
            low = [nums[0], *map(add, nums[1::2], nums[2::2])]
            high = list(map(add, nums[0::2], nums[1::2]))
            size = len(p.nums)
            out = [0] * size
            out[0::2] = [sum(map(mul, low, even[t:])) for t in range((size + 1) // 2)]
            out[1::2] = [sum(map(mul, high, even[t:])) for t in range(1, size // 2 + 1)]
            rows.append(Poly.from_ints(out, den * p.den))
        return rows

    def hankel_determinant(self, n: int) -> Fraction:
        """det of the (n+1) x (n+1) moment matrix (c_{i+j}), exact.

        Fraction-free elimination: the moments are scaled to integers over
        one common denominator D, and each row is held as a primitive
        integer vector (its content divided out) together with its scale,
        the Fraction by which it exceeds the matching row of the current
        Schur complement.  A step replaces row r by (lead row_r - f head)
        over its content, so the integers stay the size of the reduced
        Schur complement, and the determinant is the product of the pivots
        lead / scale, with a sign flip per row swap.  Bareiss elimination
        would keep every entry a minor of D (c_{i+j}), which grows with D
        to the power of the order (about ten times slower at order 80).
        """
        if 2 * n >= len(self.moments):
            raise ValueError(f"Hankel determinant of order {n} needs moment {2 * n}")
        size = n + 1
        den, scaled = over_common_denominator(self.moments[: 2 * n + 1])
        # rows[r] holds columns k..n of row r at step k
        rows, scales = [], []
        for i in range(size):
            row = scaled[i : i + size]
            g = math.gcd(*row)
            if not g:
                return Fraction(0)
            rows.append([c // g for c in row])
            scales.append(Fraction(den, g))
        det = Fraction(1)
        for k in range(size):
            pivot = next((r for r in range(k, size) if rows[r][0]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != k:
                rows[k], rows[pivot] = rows[pivot], rows[k]
                scales[k], scales[pivot] = scales[pivot], scales[k]
                det = -det
            head, scale = rows[k], scales[k]
            lead = head[0]
            det *= Fraction(lead * scale.denominator, scale.numerator)
            for r in range(k + 1, size):
                row, factor = rows[r], rows[r][0]
                if not factor:
                    rows[r] = row[1:]
                    continue
                new = [lead * a - factor * b for a, b in zip(row[1:], head[1:])]
                g = math.gcd(*new)
                if not g:
                    return Fraction(0)
                rows[r] = [c // g for c in new]
                scale = scales[r]
                scales[r] = Fraction(scale.numerator * lead, scale.denominator * g)
        return det


@lru_cache(maxsize=None)
def moments(params: ParamPair, max_index: int) -> MomentFunctional:
    """Moments c_0..c_max_index: c_0 = 1 and pairwise-equal tail
    c_{2m} = c_{2m-1} = ((alpha+1)/2)_m / ((alpha+beta+2)/2)_m, by the
    running product c_{2m} = c_{2m-2} (A + (2m-1)D) / (A + B + 2mD) with
    alpha = A/D and beta = B/D (`ParamPair.ints`): one Fraction of two
    integers and one Fraction product per m.
    """
    if max_index < 0:
        raise ValueError("moment range must be nonnegative")
    d, a, b = params.ints
    out = [Fraction(1)] * (max_index + 1)
    val = Fraction(1)
    for m in range(1, max_index // 2 + 2):
        val *= Fraction(a + (2 * m - 1) * d, a + b + 2 * m * d)
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


#: Absolute error allowed in a moment of the weight: the orthogonality
#: suite's quadrature gate, and the accuracy weight_normalization promises.
WEIGHT_TOLERANCE = 1e-8


def weight_normalization(params: ParamPair) -> float:
    """Normalization constant making the weight integrate to 1,
    kappa = exp(lgamma(A) - lgamma(B) - lgamma(C)) with A = (alpha+beta)/2
    + 1, B = (beta+1)/2 and C = (alpha+1)/2.

    A, B and C are formed exactly and rounded once, so B and C keep their
    relative precision as beta or alpha nears -1.  The difference of the
    lgammas cancels: each is rounded relative to its own size, so kappa's
    relative error is about 2^-53 (|lgamma A| + |lgamma B| + |lgamma C|).
    That estimate under-reads by up to a quarter at alpha = 5 10^6, so
    where twice it exceeds WEIGHT_TOLERANCE (alpha or beta from about
    3.3 10^6), FloatRangeError says so, as it does where alpha or beta
    rounds to -1.0 and the float weight's exponent with it.
    """
    a, b = params.floats()
    if a == -1.0 or b == -1.0:
        raise FloatRangeError("alpha or beta lies within float rounding of -1")
    alpha, beta = params.alpha, params.beta
    try:
        args = ((alpha + beta) / 2 + 1, (beta + 1) / 2, (alpha + 1) / 2)
        logs = [math.lgamma(float(v)) for v in args]
        kappa = math.exp(logs[0] - logs[1] - logs[2])
    except OverflowError:
        raise FloatRangeError("the weight's normalization lies beyond the float range") from None
    if sum(map(abs, logs)) * 2.0**-52 > WEIGHT_TOLERANCE:
        raise FloatRangeError("the weight's normalization loses digits to cancellation")
    return kappa


def weight_eval(params: ParamPair, x: float) -> float:
    """Orthogonality weight kappa |x|^alpha (1-x^2)^((beta-1)/2) (1+x)."""
    return weight_values(params, (x,))[0]


def weight_values(params: ParamPair, xs: Sequence[float]) -> list[float]:
    """weight_eval at each x, with kappa and the exponents taken once."""
    kappa = weight_normalization(params)
    a, b = params.floats()
    e = (b - 1.0) / 2.0
    out = []
    for x in xs:
        x = float(x)
        if not -1.0 < x < 1.0:
            raise ValueError("weight argument must satisfy |x| < 1")
        if x == 0.0 and a < 0:
            out.append(math.inf)
        else:
            out.append(kappa * abs(x) ** a * (1.0 - x * x) ** e * (1.0 + x))
    return out


@dataclass(frozen=True)
class WeightQuadrature:
    """Moments of the weight by the tanh-sinh rule of `weight_moments`.

    ``values[k]`` is the integral of x**k against the weight over (-1, 1);
    ``nodes`` counts the weight evaluations; ``level_difference`` is the
    largest relative change of a moment over the last step halving.  That
    difference is an estimate of the error, not a bound: it under-reads
    where the rule has not resolved the weight.
    """

    values: tuple[float, ...]
    nodes: int
    level_difference: float


#: Tanh-sinh rule on (0, 1): the step of level L is _TS_STEP / 2**L and
#: the nodes stop at |s| = _TS_SPAN, where the weights are below 1e-20.
_TS_STEP = 0.5
_TS_SPAN = 3.5
#: Levels agreeing to _TS_AGREE (relative) stop the halving, once at least
#: _TS_MIN_LEVELS have run; after _TS_MAX_LEVELS a difference above
#: _TS_ACCEPT means the rule did not converge.
_TS_MIN_LEVELS = 3
_TS_MAX_LEVELS = 8
_TS_AGREE = 1e-15
_TS_ACCEPT = 1e-12


@lru_cache(maxsize=None)
def _tanh_sinh_level(level: int) -> tuple[tuple[float, float], ...]:
    """(log v, weight) of the nodes v = (1 + tanh(pi/2 sinh s)) / 2 that
    level `level` adds: every s = j h with |s| <= _TS_SPAN at level 0,
    the odd multiples of h after.  log v comes from the distance to the
    nearer end, so neither v nor 1 - v is rounded away."""
    h = _TS_STEP / 2**level
    count = int(_TS_SPAN / h)
    steps = range(-count, count + 1) if level == 0 else range(1 - count - count % 2, count + 1, 2)
    out = []
    for s in (j * h for j in steps):
        u = math.pi * abs(math.sinh(s))
        q = math.exp(-u)  # min(v, 1 - v) = q / (1 + q)
        log_v = -u - math.log1p(q) if s < 0 else -math.log1p(q)
        out.append((log_v, h * math.pi * math.cosh(s) * q / (1 + q) ** 2))
    return tuple(out)


def weight_moments(params: ParamPair, top: int) -> WeightQuadrature:
    """The integrals of x**k against the weight over (-1, 1), k = 0..top,
    by one tanh-sinh rule (Takahasi and Mori, Publ. RIMS 9, 1974).

    The two halves of (-1, 1) fold onto (0, 1), where x^k (1+x) + (-x)^k
    (1-x) is 2 x^k for even k and 2 x^(k+1) for odd k, so each node
    weighs the even powers once.  (0, 1) splits at the mode
    sqrt(alpha/(alpha+2e)) of x^alpha (1-x^2)^e, e = (beta-1)/2, when it
    is interior, else at 1/2.  The singular part of each endpoint factor
    goes into the variable: x = m v^(1/(alpha+1)) near 0 when alpha < 0
    and 1 - x = (1-m) w^(1/(e+1)) near 1 when e < 0, so the rule sees a
    bounded integrand, at most about 4 / min(alpha+1, (beta+1)/2).  Each
    node's value is formed in logs, from x and t = 1 - x both computed
    without cancellation and each log taken from the nearer end: x^alpha
    is exp(alpha log1p(-t)) near 1, so the layer t ~ 1/alpha where large
    alpha puts the mass is not rounded away.

    The step halves until two levels agree to _TS_AGREE.  Raises
    FloatRangeError where `weight_normalization` does, and when the rule
    has not converged after _TS_MAX_LEVELS levels.
    """
    if top < 0:
        raise ValueError("moment order must be nonnegative")
    kappa = weight_normalization(params)  # raises where the pair leaves the float range
    a, e = float(params.alpha), float((params.beta - 1) / 2)
    if a > 0 and e > 0:
        mode2 = params.alpha / (params.alpha + params.beta - 1)
        m = math.sqrt(mode2)
        tm = float(1 - mode2) / (1 + m)  # 1 - m without cancellation
    else:
        m = tm = 0.5
    # exponents absorbed into v and w, and the factors left in the integrand
    pa = float(params.alpha + 1) if a < 0 else 1.0
    pe = float((params.beta + 1) / 2) if e < 0 else 1.0
    a_left, e_left = max(a, 0.0), max(e, 0.0)
    scale_a = pa * math.log(m) - math.log(pa)  # x^(pa-1) dx = m^pa / pa dv on (0, m)
    scale_b = pe * math.log(tm) - math.log(pe)  # t^(pe-1) dt = (1-m)^pe / pe dw on (m, 1)

    def log_value(x, t, scale, x_power, t_power):
        # log of scale x^x_power t^t_power (1+x)^e, with x and t = 1 - x both
        # accurate and each log taken from the nearer end
        out = scale + e * math.log1p(x)
        if x_power:
            out += x_power * (math.log(x) if x < 0.5 else math.log1p(-t))
        if t_power:
            out += t_power * (math.log(t) if t < 0.5 else math.log1p(-x))
        return out

    powers = (top + 1) // 2 + 1  # x^0, x^2, .., up to the even power of moment top
    sums: list[float] = []
    nodes = 0
    difference = math.inf
    for level in range(_TS_MAX_LEVELS):
        acc = [0.0] * powers
        table = _tanh_sinh_level(level)
        for log_v, weight in table:
            r = log_v / pa  # x = m v^(1/pa) on (0, m)
            x, t = m * math.exp(r), tm - m * math.expm1(r)
            near = (x, log_value(x, t, scale_a, a_left, e))
            r = log_v / pe  # 1 - x = (1-m) w^(1/pe) on (m, 1)
            x, t = m - tm * math.expm1(r), tm * math.exp(r)
            far = (x, log_value(x, t, scale_b, a, e_left))
            for x, log_f in (near, far):
                f = weight * math.exp(log_f)
                x2 = x * x
                for j in range(powers):
                    acc[j] += f
                    f *= x2
        nodes += 2 * len(table)
        new = acc if not sums else [s / 2 + c for s, c in zip(sums, acc)]
        if sums:
            difference = max(abs(n - o) / n for n, o in zip(new, sums))
        sums = new
        if level + 1 >= _TS_MIN_LEVELS and difference <= _TS_AGREE:
            break
    if difference > _TS_ACCEPT:
        raise FloatRangeError("the weight quadrature did not converge")
    values = tuple(2 * kappa * sums[(k + 1) // 2] for k in range(top + 1))
    return WeightQuadrature(values, nodes, difference)


def weight_moment(params: ParamPair, k: int) -> float:
    """Integral of x**k against the weight over (-1, 1): one entry of
    `weight_moments`."""
    return weight_moments(params, k).values[k]


# -- deformation limit -------------------------------------------------------


def qjacobi_recurrence(epsilon: float, alpha, beta, n: int) -> tuple[Optional[float], float]:
    """Little q-Jacobi recurrence data (u_n, b_n) at the deformed base
    q = -exp(eps), a = -exp(eps alpha), b = -exp(eps beta).

    As eps -> 0+ these converge linearly in eps to the family's exact
    u_n, b_n.  u_n = A_{n-1} C_n and b_n = A_n + C_n; u_0 is None (C_0 = 0
    and A_{-1} is undefined).  Raises FloatRangeError when the deformed
    parameters or coefficients leave the float range.
    """
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError("deformation epsilon must be positive")
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    beyond = f"the deformation at eps={epsilon} lies beyond the float range"
    try:
        q = -math.exp(epsilon)
        a = -math.exp(epsilon * float(alpha))
        b = -math.exp(epsilon * float(beta))
    except OverflowError:
        raise FloatRangeError(beyond) from None

    def checked(den: float, name: str) -> float:
        if abs(den) < 1e-12:
            raise FloatRangeError(
                f"the deformation's denominator in {name} at eps={epsilon} lies below "
                "1e-12, within float rounding of 0"
            )
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
    u_n = None if n == 0 else big_a(n - 1) * big_c(n)
    if not all(map(math.isfinite, (b_n,) if n == 0 else (b_n, u_n))):
        raise FloatRangeError(beyond)
    return u_n, b_n


def qlimit_error(params: ParamPair, n: int, epsilon: float) -> tuple[Optional[float], float]:
    """Absolute deviations |u_n(eps) - u_n|, |b_n(eps) - b_n|."""
    uq, bq = qjacobi_recurrence(epsilon, params.alpha, params.beta, n)
    u, b = recurrence_coeffs(params, n)
    du = None if n == 0 else abs(uq - float(u))
    return du, abs(bq - float(b))

