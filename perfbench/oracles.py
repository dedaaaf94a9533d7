"""Oracle comparisons made after the timed phase, and the seed's known defects.

Each oracle takes one task and what the package returned for it, and
gives a list of (check name, passed, detail) comparisons.  The
hypergeometric and gamma-function oracles use mpmath; when it is not
importable they raise ``Unavailable`` and the benchmark reports those
checks as not run, never as passed.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from littlejacobi.family import ParamPair, explicit_poly

#: Relative tolerance of the eigenfunction f column against hyp2f1.
#: Below |lambda| = 40 the seed's series agrees to about 1e-9.
EIGEN_TOL = 1e-6
#: Relative tolerance of the weight column against the closed form.
WEIGHT_TOL = 1e-9
#: From this |lambda| on, an eigenfunction mismatch is the seed's known
#: loss of accuracy in the series, not a new defect.
EIGEN_LARGE_LAMBDA = 40


class Unavailable(Exception):
    """The oracle needs mpmath, which is not importable."""


def load_mpmath():
    try:
        import mpmath
    except ImportError:
        return None
    return mpmath


def _need(mp):
    if mp is None:
        raise Unavailable("mpmath is not importable")
    return mp


def _mpf(mp, value: Fraction):
    return mp.mpf(value.numerator) / value.denominator


def _spot_rows(rows: list) -> list:
    """Three grid rows: near the left end, right of centre, and the last."""
    count = len(rows)
    return [rows[i] for i in sorted({count // 8, (3 * count) // 4, count - 1})]


def _crossings(values) -> int:
    crossings, previous = 0, 0
    for value in values:
        sign = (value > 0.0) - (value < 0.0)
        if sign and previous and sign != previous:
            crossings += 1
        previous = sign or previous
    return crossings


def condense(task: dict, out: str):
    """What the oracle needs from a sample grid, taken right after the task
    so the benchmark does not hold whole grids in memory: the header and
    three spot rows, or the zero crossings of each wavefunction column."""
    kind = task.get("kind")
    if kind in ("weight", "eigenfunction"):
        lines = out.splitlines()
        return "\n".join([lines[0]] + _spot_rows(lines[1:]))
    if kind == "wavefunction":
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        return {
            name: _crossings(float(row[column]) for row in body)
            for column, name in enumerate(header)
            if name.startswith("psi_")
        }
    if kind == "potential":
        return ""
    return out


def table(task: dict, out: str) -> list[tuple]:
    """Each row's coefficients equal explicit_poly (hypergeometric route)."""
    params = ParamPair(Fraction(task["alpha"]), Fraction(task["beta"]))
    rows = list(csv.DictReader(io.StringIO(out)))
    checks = [("row count", len(rows) == task["n"] + 1, f"{len(rows)} rows")]
    for row in rows:
        n = int(row["n"])
        expected = ",".join(explicit_poly(params, n).to_strings())
        checks.append(
            (f"P_{n} = explicit_poly", row["coefficients"] == expected, row["coefficients"])
        )
    return checks


def weight(task: dict, out: str, mp) -> list[tuple]:
    """Spot rows' w(x) against kappa |x|^a (1-x^2)^((b-1)/2) (1+x), kappa from mpmath.gamma."""
    mp = _need(mp)
    rows = list(csv.DictReader(io.StringIO(out)))
    checks = []
    with mp.workdps(30):
        a = _mpf(mp, Fraction(task["alpha"]))
        b = _mpf(mp, Fraction(task["beta"]))
        kappa = mp.gamma(a / 2 + b / 2 + 1) / (mp.gamma(b / 2 + mp.mpf(1) / 2) * mp.gamma(a / 2 + mp.mpf(1) / 2))
        for row in rows:
            x = mp.mpf(float(row["x"]))
            ref = float(kappa * abs(x) ** a * (1 - x * x) ** ((b - 1) / 2) * (1 + x))
            got = float(row["w"])
            checks.append(
                (f"w({row['x']})", abs(got - ref) <= WEIGHT_TOL * abs(ref), f"got {got!r}, closed form {ref!r}")
            )
    return checks


def eigenfunction(task: dict, out: str, mp) -> list[tuple]:
    """Spot rows' f against 2F1(lam/4, (a+b)/2+1-lam/4; (a+1)/2; x^2) from mpmath."""
    mp = _need(mp)
    rows = list(csv.DictReader(io.StringIO(out)))
    alpha, beta, lam = (Fraction(task[k]) for k in ("alpha", "beta", "lambda"))
    checks = []
    with mp.workdps(30):
        top = _mpf(mp, lam / 4)
        shared = _mpf(mp, (alpha + beta) / 2 + 1 - lam / 4)
        bottom = _mpf(mp, (alpha + 1) / 2)
        for row in rows:
            x = mp.mpf(float(row["x"]))
            ref = float(mp.hyp2f1(top, shared, bottom, x * x))
            got = float(row["f"])
            ok = abs(got - ref) <= EIGEN_TOL * max(1.0, abs(ref))
            checks.append((f"f({row['x']})", ok, f"got {got!r}, hyp2f1 {ref!r}"))
    return checks


def wavefunction(task: dict, crossings: dict) -> list[tuple]:
    """Column psi_k crosses zero exactly k times."""
    return [
        (f"psi_{k} nodes", crossings.get(f"psi_{k}") == k, f"{crossings.get(f'psi_{k}')} sign changes")
        for k in range(task["n"] + 1)
    ]


def aw_structure(task: dict, structure) -> list[tuple]:
    """omega1 = 0, omega2 = beta, omega3 = -alpha, and the Casimir flag."""
    alpha, beta = Fraction(task["alpha"]), Fraction(task["beta"])
    return [
        ("omega1 = 0", structure.omega1 == 0, str(structure.omega1)),
        ("omega2 = beta", structure.omega2 == beta, str(structure.omega2)),
        ("omega3 = -alpha", structure.omega3 == -alpha, str(structure.omega3)),
        ("Casimir Y^2+Z^2 = I", structure.casimir_is_identity, ""),
    ]


def intertwiner(task: dict, report) -> list[tuple]:
    """T_mu V = V d/dx holds on the whole window 0..N."""
    return [
        ("T_mu V = V d/dx", report.holds, f"first mismatch {report.first_mismatch}"),
        ("window 0..N", report.safe_degree == task["N"], f"safe degree {report.safe_degree}"),
    ]


def known_defect(failure: dict) -> str | None:
    """Name of the seed defect a failure belongs to, or None if it is new."""
    call, kind, message = failure["call"], failure["type"], failure["message"]
    inputs = failure["inputs"]
    if call == "verify orthogonality":
        if kind == "ZeroDivisionError" and failure.get("where", "").startswith("family.py"):
            return "weight_moment raises ZeroDivisionError at an endpoint singularity"
        if kind == "FAIL" and message.startswith("weight quadrature"):
            return "weight quadrature misses its 1e-8 gate near the parameter boundary"
    if call == "verify prop2" and kind == "exit 2" and "alpha + beta > -1" in message:
        return "prop2 raises ValueError at alpha + beta <= -1"
    if call == "verify qlimit":
        if kind == "FAIL" and message.startswith("linear convergence"):
            return "qlimit two-point error ratio leaves [8, 12]"
        if kind == "exit 2" and "near-singular denominator" in message:
            return "qlimit deformation denominator vanishes"
    if (
        call == "verify aw"
        and kind == "FAIL"
        and message.startswith("anticommutator closure")
        and Fraction(inputs["alpha"]) < 0
    ):
        return "aw checks abs(omega3) == alpha, a false FAIL for alpha < 0"
    if (
        call == "sample eigenfunction"
        and kind == "oracle"
        and abs(Fraction(inputs["lambda"])) >= EIGEN_LARGE_LAMBDA
    ):
        return "eigenfunction series loses accuracy at large |lambda|"
    return None
