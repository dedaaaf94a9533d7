"""Command-line front end.

Three subcommands: ``table`` prints exact recurrence/eigenvalue data and
monic coefficients, ``verify`` runs named check suites, and ``sample``
emits CSV grids (weight, eigenfunction, wavefunction, potential) for
plotting elsewhere.  Exit codes: 0 success (skipped checks included), 1
failed checks, 2 usage or domain errors.  Rational inputs take the exact
"p/q" form.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import susyqm
from .eigensolver import sample_rows as eigenfunction_rows
from .family import ParamPair, generate_monic, table_rows, weight_eval
from .verify import DEFAULT_PAIRS, SUITE_NAMES, SuiteOptions, run_suites

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


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Glue a negative value onto the option before it: "--alpha -9/10"
    becomes "--alpha=-9/10".  argparse would read "-9/10" as a flag, since
    it only recognises negative integers and decimals as values."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        option = prev.startswith("--") and prev != "--" and "=" not in prev
        if option and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _writer(out) -> "csv.writer":
    return csv.writer(out, lineterminator="\n")


def _cmd_table(args, out) -> int:
    params = ParamPair(args.alpha, args.beta)
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    rows = table_rows(params, args.n)
    for row in rows:
        row["coefficients"] = generate_monic(params, row["n"]).to_strings()
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
        return 0
    writer = _writer(out)
    writer.writerow(["n", "u", "b", "lambda", "coefficients"])
    for row in rows:
        writer.writerow(
            [
                row["n"],
                row["u"] if row["u"] is not None else "",
                row["b"],
                row["lambda"],
                ",".join(row["coefficients"]),
            ]
        )
    return 0


def _cmd_verify(args, out) -> int:
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        pairs = (ParamPair(args.alpha, args.beta),)
    else:
        pairs = DEFAULT_PAIRS
    options = SuiteOptions(
        pairs=pairs,
        max_degree=args.n,
        a=args.a,
        levels=args.levels,
        points=args.points,
        epsilons=tuple(args.eps),
    )
    seed_text = os.environ.get("MINUSONE_SEED")
    seed = int(seed_text) if seed_text else None
    results = run_suites([args.suite], options, seed=seed)
    failed = sum(1 for r in results if not r.passed)
    skipped = sum(1 for r in results if r.skipped)
    passed = len(results) - failed - skipped
    if args.format == "json":
        json.dump(
            {
                "results": [r.to_dict() for r in results],
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
    writer = _writer(out)

    if args.target == "weight":
        params = ParamPair(args.alpha, args.beta)
        writer.writerow(["x", "w"])
        margin = 1e-3
        for i in range(points):
            x = -1.0 + margin + (2.0 - 2.0 * margin) * i / (points - 1)
            writer.writerow([x, weight_eval(params, x)])
        return 0

    if args.target == "eigenfunction":
        params = ParamPair(args.alpha, args.beta)
        writer.writerow(["x", "F", "f", "g", "residual"])
        for row in eigenfunction_rows(params, float(args.lam), points):
            writer.writerow([row["x"], row["F"], row["f"], row["g"], row["residual"]])
        return 0

    if args.target == "wavefunction":
        levels = args.n if args.n is not None else args.levels
        if levels < 0:
            raise ValueError("level count must be nonnegative")
        grid = susyqm.default_grid(points)
        states = [susyqm.eigenstate(args.a, k) for k in range(levels + 1)]
        writer.writerow(["y", "U"] + [f"psi_{k}" for k in range(levels + 1)])
        for y in grid:
            writer.writerow(
                [y, susyqm.potential(args.a, y)] + [s.value(y) for s in states]
            )
        return 0

    # potential
    writer.writerow(["y", "U"])
    for y in susyqm.default_grid(points):
        writer.writerow([y, susyqm.potential(args.a, y)])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    verify.add_argument("--points", type=int, default=200)
    verify.add_argument("--eps", type=float, nargs="+", default=[1e-3, 1e-4], help="deformation parameters, coarse to fine")
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
    sample.add_argument("--n", type=int, default=None, help="highest wavefunction level")
    sample.add_argument("--levels", type=int, default=3)
    sample.add_argument("--points", type=int, default=None)
    sample.add_argument("--output", default="-")
    sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_glue_negative_values(argv))
    try:
        if args.output == "-":
            return args.func(args, sys.stdout)
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            return args.func(args, handle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
