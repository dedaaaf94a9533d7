"""Numeric general solution of the reflection eigenvalue problem.

For L F = lambda F with the family's first-order reflection-differential
operator, the even part f and odd part g of F are Gauss hypergeometric
series in x**2 on |x| < 1.  This module evaluates those series with
term-recurrence arithmetic (`build_solution`) and samples both parts on
a grid over [-0.9, 0.9] (`sample_rows`), with the residual of the even
part's second-order equation at each point, from term-wise
differentiated series.  At lambda = 2(beta+1) the grid takes the even
part from its elementary closed form (1-x^2)^(-(beta+1)/2).  alpha,
beta and lambda become floats through `family.to_float`, so an input
beyond the float range raises FloatRangeError, as a series coefficient
or grid value beyond it does.

The differentiated coefficients of f are built once per solution, and
one fused Horner pass (`polys.horner3`) per point yields f, f' and f''
together; it is the only route to f.  A `sample_rows` grid walks the f
series once and the g series once per point, where separate passes
walked f four times.  At the default 201 points and |lambda| <= 30 the
series run to about 320 terms, and `sample eigenfunction` takes about
10 ms in process on a 2-core machine (Python 3.11.7), against 22 ms
with separate passes, with the same numbers bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .family import FloatRangeError, ParamPair, to_float
from .polys import horner, horner3, horner_rows

__all__ = ["EigenSolution", "build_solution", "sample_rows"]

_TRUNC_CAP = 400
#: Largest residual of the even part's equation, relative to the summed
#: magnitudes of its three terms (the third taken by the two parts of its
#: factor 2(alpha+beta)+4-lambda), that `sample_rows` accepts at a point
#: of its grid, |x| <= 0.9.
#: On (alpha, beta) in [-9/10, 29/10]^2 in steps of 1/5, at 0.1 <= |lambda|
#: <= 30 and at lambda_1 = 2(alpha+beta+2), it stays below 3e-10 (2.7e-10
#: at (29/10, 3/10), lambda = -30); it is near 1 where the float series
#: has lost every digit.
_RESIDUAL_LIMIT = 1e-8
#: Truncation reference point: terms are compared at z = 0.95**2, a
#: margin beyond the grid's |x| <= 0.9.
_Z_REF = 0.95**2


def _series(a: float, b: float, c: float, scale: float) -> tuple[float, ...]:
    """Coefficients t_k of scale * sum_k ((a)_k (b)_k / ((c)_k k!)) z**k.

    Terms follow the ratio recurrence; the sum stops when the next term
    is below 1e-16 of the accumulated magnitude at z = _Z_REF, when a
    numerator factor hits zero exactly (terminating case), or at the
    400-term cap.
    """
    if scale == 0.0:
        return (0.0,)
    coeffs = [float(scale)]
    total = abs(scale)
    zpow = 1.0
    k = 0
    while len(coeffs) < _TRUNC_CAP:
        den = (c + k) * (k + 1)
        if den == 0.0:  # only c = (alpha+1)/2 > 0 can round to 0.0, at alpha = -1 + tiny
            raise FloatRangeError("alpha lies within float rounding of -1")
        term = coeffs[-1] * (a + k) * (b + k) / den
        if term == 0.0:
            break
        coeffs.append(term)
        k += 1
        zpow *= _Z_REF
        contribution = abs(term) * zpow
        total += contribution
        if contribution < 1e-16 * total:
            break
    return tuple(coeffs)


def _jet_rows(coeffs: tuple[float, ...]) -> tuple[tuple[float, float, float], ...]:
    """`horner3` rows for one series and its derivative series
    sum k c_k z**(k-1) and sum k(k-1) c_k z**(k-2), with the products
    k c_k and k(k-1) c_k formed once, as int times float."""
    return horner_rows(
        coeffs,
        tuple(k * c for k, c in enumerate(coeffs) if k),
        tuple(k * (k - 1) * c for k, c in enumerate(coeffs) if k > 1),
    )


@dataclass(frozen=True)
class EigenSolution:
    """One eigenvalue's solution pair: f even, g = x times an even series.

    Each series is a float Horner polynomial in z = x**2.  The f series'
    first and second z-derivative coefficients are built once, with the
    series, and one `horner3` pass per point gives the series and both
    derivatives: `_f_jet` returns (f, f', f''), the one route to f; g
    takes one plain Horner pass.
    A grid point that needs f, f' and f'' pays three accumulators per
    series term in one loop, where separate passes walked the series
    four times (f' twice) and formed k c_k and k(k-1) c_k at every step;
    the values are the same bit for bit.
    """

    f_series_coeffs: tuple[float, ...]
    g_series_coeffs: tuple[float, ...]
    _f_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_f_rows", _jet_rows(self.f_series_coeffs))

    def _f_jet(self, x: float) -> tuple[float, float, float]:
        """(f, f', f'') at x from one pass over the f series."""
        z = x * x
        f, d, dd = horner3(self._f_rows, z)
        return f, 2.0 * x * d, 2.0 * d + 4.0 * z * dd

    def g(self, x: float) -> float:
        return x * horner(self.g_series_coeffs, x * x)


def build_solution(params: ParamPair, lam: float) -> EigenSolution:
    """Assemble the series pair for one eigenvalue, normalised by f(0) = 1.

    f carries parameters (lam/4, (alpha+beta)/2 + 1 - lam/4; (alpha+1)/2)
    and g is x times the series at (1 + lam/4, same; (alpha+3)/2) scaled
    by -lam / (2(alpha+1)).  alpha, beta and lambda become floats through
    `ParamPair.floats` and `to_float`; a value, or a series coefficient,
    beyond the float range (the latter from |lambda| of about 1600 at
    small alpha and beta) raises FloatRangeError.
    """
    alpha, beta = params.floats()
    lam = to_float(lam, "lambda")
    b_shared = (alpha + beta) / 2.0 + 1.0 - lam / 4.0
    f_coeffs = _series(lam / 4.0, b_shared, (alpha + 1.0) / 2.0, 1.0)
    g_scale = -lam / (2.0 * (alpha + 1.0))
    g_coeffs = _series(1.0 + lam / 4.0, b_shared, (alpha + 3.0) / 2.0, g_scale)
    if not all(map(math.isfinite, f_coeffs + g_coeffs)):
        raise FloatRangeError(f"a series coefficient at lambda={lam} overflows the float range")
    return EigenSolution(f_series_coeffs=f_coeffs, g_series_coeffs=g_coeffs)


def _elementary_derivatives(beta: float, x: float) -> tuple[float, float, float]:
    # f = u^(-p), u = 1 - x^2, p = (beta+1)/2
    p = (beta + 1.0) / 2.0
    u = 1.0 - x * x
    f = u**-p
    fp = 2.0 * p * x * u ** (-p - 1.0)
    fpp = 2.0 * p * u ** (-p - 2.0) * (1.0 + (2.0 * p + 1.0) * x * x)
    return f, fp, fpp


def _ode_terms(
    alpha: float, beta: float, lam: float, f: float, fp: float, fpp: float, x: float
) -> tuple[float, float, float]:
    """The three terms of the even part's equation; they sum to 0."""
    return (
        4.0 * x * (x * x - 1.0) * fpp,
        4.0 * ((alpha + beta + 3.0) * x * x - alpha) * fp,
        lam * x * (2.0 * (alpha + beta) + 4.0 - lam) * f,
    )


def sample_rows(params: ParamPair, lam: float, points: int) -> list[dict]:
    """Evaluation grid for CSV emission on [-0.9, 0.9]: x, F, f, g,
    residual columns.

    alpha, beta and lambda are read as floats once per call, as
    `build_solution` reads them; each point then costs one `horner3` pass
    over the f series (f, f' and f'') and one Horner pass over the g
    series.  A value beyond the float range (an input, the elementary
    closed form at large beta, or a series sum) raises FloatRangeError
    rather than printing inf or nan.  A grid whose residual exceeds
    `_RESIDUAL_LIMIT` of the summed magnitudes of the equation's three
    terms at some point raises ValueError: the float sums there have
    cancelled away the digits of f and g (large |lambda|, or a series
    stopped at its term cap).
    """
    if points < 2:
        raise ValueError("need at least two sample points")
    alpha, beta = params.floats()
    lam = to_float(lam, "lambda")
    elementary = lam == 2.0 * (beta + 1.0)
    # t3 is lambda x f times 2(alpha+beta)+4-lambda, judged by the sizes of
    # that factor's two parts: at lambda_1 = 2(alpha+beta+2) they cancel,
    # f is 1 and all three terms are rounding noise
    t3_parts = abs(2.0 * (alpha + beta) + 4.0) + abs(lam)
    sol = build_solution(params, lam)
    x_max = 0.9  # inside the truncation's reference |x| = 0.95 (_Z_REF)
    rows = []
    worst, worst_x = 0.0, 0.0
    for i in range(points):
        x = -x_max + 2.0 * x_max * i / (points - 1)
        if elementary:
            try:
                f, fp, fpp = _elementary_derivatives(beta, x)
            except OverflowError:  # float ** raises where * would give inf
                f = fp = fpp = math.inf
        else:
            f, fp, fpp = sol._f_jet(x)
        g = sol.g(x)
        value = f + g
        t1, t2, t3 = _ode_terms(alpha, beta, lam, f, fp, fpp, x)
        residual = abs(t1 + t2 + t3)
        if not (math.isfinite(value) and math.isfinite(residual)):
            raise FloatRangeError(
                f"eigenfunction at lambda={lam} overflows the float range at x={x}"
            )
        size = abs(t1) + abs(t2) + abs(lam * x * f) * t3_parts
        ratio = residual / size if size else 0.0
        if ratio > worst:
            worst, worst_x = ratio, x
        rows.append({"x": x, "F": value, "f": f, "g": g, "residual": residual})
    if worst > _RESIDUAL_LIMIT:
        raise ValueError(
            f"eigenfunction at lambda={lam} has lost its accuracy: the residual is "
            f"{worst:.1e} of the equation's terms at x={worst_x} (limit {_RESIDUAL_LIMIT:g})"
        )
    return rows
