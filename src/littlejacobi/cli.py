"""Command-line front end.

Three subcommands: ``table`` prints exact recurrence/eigenvalue data and
monic coefficients, ``verify`` runs named check suites, and ``sample``
emits CSV grids (weight, eigenfunction, wavefunction, potential) for
plotting elsewhere.  Exit codes: 0 success (skipped checks included), 1
failed checks, 2 usage or domain errors and an ``--output`` path that
cannot be opened for writing.  An ``--output`` file is written only after
the command has finished, so an exit-2 error leaves it as it was.
Rational inputs take the exact "p/q" form; one that a command reads as
a float goes through `family.to_float`, so one beyond the float range
exits 2 naming its option.  The table's rows and the verify records'
JSON are formatted here and nowhere else.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from . import susyqm
from .eigensolver import sample_rows as eigenfunction_rows
from .family import ParamPair, eigenvalue, generate_monic, recurrence_coeffs, to_float, weight_values
from .verify import DEFAULT_PAIRS, SUITE_NAMES, SuiteOptions, run_suites

__all__ = ["main"]

_SAMPLE_POINTS = {
    "weight": 400,
    "eigenfunction": 201,
    "wavefunction": 1000,
    "potential": 400,
}


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every token starting "-<digit>" or
    "-.<digit>" as a value, never as a flag.  argparse by itself does so
    only for negative integers and decimals, so "--alpha -9/10" and
    "--eps -1e-4" would read as unknown flags.  No option of this CLI
    starts with a digit.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _require_floats(args, *names: str) -> None:
    """Exit-2 domain error, naming the flag, for a rational option that the
    command reads as a float but that lies beyond the float range."""
    for name in names:
        to_float(getattr(args, name), "--lambda" if name == "lam" else f"--{name}")


def _writer(out) -> "csv.writer":
    return csv.writer(out, lineterminator="\n")


def _cmd_table(args, out) -> int:
    params = ParamPair(args.alpha, args.beta)
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    columns = ("n", "u", "b", "lambda", "coefficients")
    rows = []
    for n in range(args.n + 1):
        u, b = recurrence_coeffs(params, n)
        u = None if u is None else str(u)
        coefficients = generate_monic(params, n).to_strings()
        rows.append((n, u, str(b), str(eigenvalue(params, n)), coefficients))
    if args.format == "json":
        json.dump([dict(zip(columns, row)) for row in rows], out, indent=2)
        out.write("\n")
        return 0
    # csv writes u_0 = None as an empty field
    writer = _writer(out)
    writer.writerow(columns)
    writer.writerows((*row[:-1], ",".join(row[-1])) for row in rows)
    return 0


def _cmd_verify(args, out) -> int:
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        pairs = (ParamPair(args.alpha, args.beta),)
    else:
        pairs = DEFAULT_PAIRS
    _require_floats(args, "a")
    options = SuiteOptions(
        pairs=pairs,
        max_degree=args.n,
        a=args.a,
        levels=args.levels,
        points=args.points,
        epsilon=args.eps,
    )
    results = run_suites([args.suite], options)
    failed = sum(1 for r in results if not r.passed)
    skipped = sum(1 for r in results if r.skipped)
    passed = len(results) - failed - skipped
    if args.format == "json":
        json.dump(
            {
                "results": [asdict(r) for r in results],
                "passed": passed,
                "failed": failed,
                "skipped": skipped,
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        for r in results:
            status = "SKIP" if r.skipped else "PASS" if r.passed else "FAIL"
            out.write(f"{status} [{r.suite}] {r.name}: {r.detail}\n")
        out.write(f"{passed}/{len(results)} checks passed, {skipped} skipped\n")
    return 0 if failed == 0 else 1


def _cmd_sample(args, out) -> int:
    points = args.points if args.points is not None else _SAMPLE_POINTS[args.target]
    if points < 2:
        raise ValueError("--points must be at least 2")
    # every grid is computed before its header is written, so that an
    # error leaves stdout empty
    writer = _writer(out)

    if args.target == "weight":
        _require_floats(args, "alpha", "beta")
        margin = 1e-3
        xs = [-1.0 + margin + (2.0 - 2.0 * margin) * i / (points - 1) for i in range(points)]
        values = weight_values(ParamPair(args.alpha, args.beta), xs)
        writer.writerow(["x", "w"])
        writer.writerows(zip(xs, values))
        return 0

    if args.target == "eigenfunction":
        _require_floats(args, "alpha", "beta", "lam")
        rows = eigenfunction_rows(ParamPair(args.alpha, args.beta), args.lam, points)
        writer.writerow(["x", "F", "f", "g", "residual"])
        writer.writerows([r["x"], r["F"], r["f"], r["g"], r["residual"]] for r in rows)
        return 0

    _require_floats(args, "a")
    # the potential target is the wavefunction grid without psi columns;
    # only wavefunction reads --n
    levels = 0
    if args.target == "wavefunction":
        if args.n < 0:
            raise ValueError("--n must be nonnegative")
        levels = args.n + 1
    ys = susyqm.default_grid(points)
    well = susyqm.WellGrid(args.a, ys)
    columns = [well.values(susyqm.eigenstate(args.a, k)) for k in range(levels)]
    writer.writerow(["y", "U"] + [f"psi_{k}" for k in range(levels)])
    writer.writerows(zip(ys, well.potential, *columns))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main()
    call in the process; parsing leaves it unchanged, and every call gets
    a fresh namespace filled from the defaults."""
    parser = _Parser(
        prog="littlejacobi",
        description="Exact tables, verification suites, and CSV samples "
        "for a -1 orthogonal polynomial family and its operator algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table", help="exact recurrence, eigenvalue, and coefficient rows"
    )
    table.add_argument("--alpha", type=_rational, default=Fraction(0), help='rational, e.g. "1/2"')
    table.add_argument("--beta", type=_rational, default=Fraction(0), help='rational, e.g. "3/2"')
    table.add_argument("--n", type=int, default=10, help="highest degree row, inclusive")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--output", default="-", help="file path or - for stdout")
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    verify.add_argument("--alpha", type=_rational, help="restrict to one parameter pair")
    verify.add_argument("--beta", type=_rational, help="restrict to one parameter pair")
    verify.add_argument("--n", type=int, default=None, help="max degree for swept checks")
    verify.add_argument("--a", type=_rational, default=Fraction(3, 2), help="well parameter for the susy suite")
    verify.add_argument("--levels", type=int, default=5)
    verify.add_argument("--points", type=int, default=200, help="grid of the susy suite's one float row, which reads every (points // 20)-th point")
    verify.add_argument("--eps", type=float, default=1e-3, help="qlimit's deformation parameter; it also runs at eps/10")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--output", default="-")
    verify.set_defaults(func=_cmd_verify)

    sample = sub.add_parser("sample", help="emit CSV sample grids")
    sample.add_argument(
        "target", choices=("weight", "eigenfunction", "wavefunction", "potential")
    )
    sample.add_argument("--alpha", type=_rational, default=Fraction(0))
    sample.add_argument("--beta", type=_rational, default=Fraction(0))
    sample.add_argument(
        "--lambda",
        dest="lam",
        type=_rational,
        default=Fraction(13, 10),
        help="eigenvalue for the eigenfunction target",
    )
    sample.add_argument("--a", type=_rational, default=Fraction(3, 2))
    sample.add_argument("--n", type=int, default=3, help="highest wavefunction level")
    sample.add_argument("--points", type=int, default=None)
    sample.add_argument("--output", default="-")
    sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        if args.output == "-":
            return args.func(args, sys.stdout)
        buffer = io.StringIO(newline="")
        code = args.func(args, buffer)
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(buffer.getvalue())
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror}") from None
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
