"""Command line surface: table, verify, sample."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from littlejacobi import cli, susyqm, verify


def run(args):
    return cli.main(args)


def test_table_csv(capsys):
    assert run(["table", "--alpha", "0", "--beta", "0", "--n", "2"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[2]["n"] == "2"
    assert rows[2]["u"] == "1/4"
    assert rows[2]["lambda"] == "-4"
    assert rows[2]["coefficients"] == "-1/4,-1/2,1"
    assert rows[0]["u"] == ""


def test_table_json(capsys):
    assert run(["table", "--alpha", "1/2", "--beta", "3/2", "--n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 4
    assert data[0]["u"] is None
    assert data[1]["u"] == "15/64"
    assert isinstance(data[3]["coefficients"], list)


def test_table_json_at_the_origin(capsys):
    assert run(["table", "--alpha", "0", "--beta", "0", "--n", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [0, 1, 2, 3]
    assert rows[0]["u"] is None
    assert rows[1]["u"] == "1/4"
    assert rows[2]["lambda"] == "-4"


#: sha256 of `table` output at two pairs, in both formats
TABLE_DIGESTS = [
    (("1/2", "3/2", "12", "csv"), "eccbd3e5bbd23e4c9e268e3b644322196dafcf4474f3d888fc5ef9e05838c2a9"),
    (("1/2", "3/2", "12", "json"), "8a77d902a01e620fb013a83c12592d626d75d9a3762433053de7776e70ef0547"),
    (("7/10", "5/3", "40", "csv"), "43c60926964fa165088d340163f55b7c46340fd2abab20fb1284c4e72f90af83"),
    (("7/10", "5/3", "40", "json"), "e0c28e8a346b502cbbc4c965a66893509cab38c35621ad447a6cf13343e988c6"),
]


@pytest.mark.parametrize(
    "args, digest", TABLE_DIGESTS, ids=[" ".join(args) for args, _ in TABLE_DIGESTS]
)
def test_table_output_is_pinned(args, digest, capsys):
    alpha, beta, n, form = args
    assert run(["table", "--alpha", alpha, "--beta", beta, "--n", n, "--format", form]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_table_negative_rational_after_space(capsys):
    assert run(["table", "--alpha", "-9/10", "--beta", "-1/2", "--n", "1"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["b"] == "1/6"
    # argparse abbreviations take a spaced negative value too
    assert run(["table", "--alph", "-9/10", "--bet", "-1/2", "--n", "1"]) == 0
    assert capsys.readouterr().out == out


def test_table_rejects_bad_params(capsys):
    assert run(["table", "--alpha", "-2"]) == 2
    assert "alpha must be > -1" in capsys.readouterr().err


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert run(["table", "--n", "1", "--output", str(target)]) == 0
    text = target.read_text()
    assert text.splitlines()[0] == "n,u,b,lambda,coefficients"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_output_is_a_usage_error(where, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.csv" if where == "missing_directory" else tmp_path
    assert run(["table", "--n", "2", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --output")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [["sample", "eigenfunction", "--lambda", "1e400"], ["table", "--alpha", "-2"]],
    ids=["sample", "table"],
)
def test_failed_command_leaves_the_output_file_unchanged(args, tmp_path, capsys):
    target = tmp_path / "x.csv"
    target.write_bytes(b"keep me\n")
    assert run([*args, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert target.read_bytes() == b"keep me\n"


def test_verify_single_suite(capsys):
    code = run(
        ["verify", "--suite", "explicit", "--alpha", "1/2", "--beta", "3/2", "--n", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    assert run(["verify", "--suite", "eigen", "--n", "8", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == 0
    assert data["passed"] >= 1
    assert all(r["passed"] for r in data["results"])


def test_verify_pair_must_be_complete(capsys):
    assert run(["verify", "--suite", "eigen", "--alpha", "1/2"]) == 2
    assert "together" in capsys.readouterr().err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "suite, alpha, beta",
    [
        ("aw", "-1/2", "3/2"),
        ("qlimit", "1/2", "-1/2"),
        ("qlimit", "-1/2", "1/2"),
        ("qlimit", "3/10", "-3/10"),
    ],
)
def test_verify_off_the_default_pairs(suite, alpha, beta, capsys):
    # omega3 = -alpha also for alpha < 0; alpha + beta = 0 leaves C_0 = 0
    assert run(["verify", "--suite", suite, "--alpha", alpha, "--beta", beta]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_aw_reports_a_positive_omega3(capsys):
    # omega3 = -alpha is positive for alpha < 0; the pinned digests cover
    # the signs - and 0
    assert run(["verify", "--suite", "aw", "--alpha=-1/2", "--beta=1/2"]) == 0
    assert "omega = (0, beta, 1/2); omega3 sign +" in capsys.readouterr().out


@pytest.mark.parametrize(
    "alpha, beta, may_fail",
    # qlimit's error ratio leaves [8, 12] near the parameter boundary
    # (12.30 at n=6 for (-9/10,-9/10))
    [("-9/10", "-9/10", {"qlimit"}), ("-1/2", "-1/2", set())],
    ids=["-9/10--9/10", "-1/2--1/2"],
)
def test_verify_skips_prop2_below_its_range(alpha, beta, may_fail, capsys):
    # the intertwiner route needs alpha + beta > -1 and raising needs
    # beta > 1: each reports a skip, which is no failure, and every other
    # suite still runs
    assert run(["verify", "--suite", "prop2", "--alpha", alpha, "--beta", beta]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("SKIP [prop2] intertwiner route")
    assert "not applicable" in lines[0]
    assert lines[1] == "0/1 checks passed, 1 skipped"

    code = run(["verify", "--alpha", alpha, "--beta", beta, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    results = data["results"]
    assert {r["suite"] for r in results} == set(verify.SUITES)
    assert [r["suite"] for r in results if r["skipped"]] == ["prop2", "raising"]
    assert all(r["passed"] for r in results if r["skipped"])
    assert data["skipped"] == 2
    assert data["passed"] + data["failed"] + data["skipped"] == len(results)
    assert {r["suite"] for r in results if not r["passed"]} <= may_fail
    assert code == (1 if data["failed"] else 0)


@pytest.mark.parametrize(
    "alpha, beta, skipped",
    [("1/2", "1/2", True), ("3/2", "1", True), ("3/2", "11/10", False)],
)
def test_verify_raising_skips_pairs_with_beta_at_most_one(alpha, beta, skipped, capsys):
    # raising lands at (alpha, beta - 2): a pair with beta <= 1 is reported
    # as a SKIP row of its own, not dropped, and the anchor (1/2,5/2) runs
    assert run(["verify", "--suite", "raising", "--alpha", alpha, "--beta", beta]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = f"[raising] degree raising n<=10 ({alpha},{beta})"
    if skipped:
        assert f"SKIP {row}: not applicable: raising lands at beta-2, so beta must exceed 1" in lines
        assert lines[-1] == "1/2 checks passed, 1 skipped"
    else:
        assert f"PASS {row}: exact" in lines
        assert lines[-1] == "2/2 checks passed, 0 skipped"
    assert "PASS [raising] degree raising n<=10 (1/2,5/2): exact" in lines


@pytest.mark.parametrize("coarse", [1e-3, 0.0], ids=["nonzero_coarse", "zero_coarse"])
def test_qlimit_rejects_zero_fine_error(monkeypatch, coarse):
    def fake(params, n, eps):
        if n == 0:
            return None, (coarse if eps == 1e-3 else 0.0)
        return eps, eps

    monkeypatch.setattr(verify, "qlimit_error", fake)
    options = verify.SuiteOptions(pairs=verify.DEFAULT_PAIRS[:1])
    [result] = verify.run_suites(["qlimit"], options)
    assert not result.passed
    assert result.detail == "ratio inf at n=0 outside [8,12]"


@pytest.mark.parametrize(
    "args",
    [["--suite", "explicit", "--n", "-1"], ["--suite", "susy", "--levels", "-1"]],
    ids=["n", "levels"],
)
def test_verify_rejects_negative_sweep(args, capsys):
    # an empty sweep must not pass vacuously
    assert run(["verify", *args]) == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eps",
    ["nan", "inf", "0", "-0.0001", "-1e-4"],
    ids=["nan", "inf", "zero", "negative", "negative_exponent"],
)
def test_verify_rejects_bad_epsilons(eps, capsys):
    # a nan or inf epsilon used to reach qlimit and report "ratio nan"
    assert run(["verify", "--suite", "qlimit", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert "epsilon must be finite and positive" in captured.err
    assert captured.out == ""


def test_verify_eps_takes_one_value(capsys):
    # qlimit's fine epsilon is eps/10, never a second value
    with pytest.raises(SystemExit) as exit_:
        run(["verify", "--suite", "qlimit", "--eps", "1e-3", "1e-4"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: 1e-4" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "suite, skipped",
    [
        ("dunkl", ["lowering n<=0"]),
        ("orthogonality", ["pair vanishing n<=0", "u_n positivity n<=0"]),
    ],
    ids=["dunkl", "orthogonality"],
)
def test_verify_empty_sweep_skips(suite, skipped, capsys):
    # a sweep with no degree in it checks nothing: SKIP, not a vacuous PASS
    assert run(["verify", "--suite", suite, "--n", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    skips = [line for line in lines if line.startswith("SKIP")]
    assert len(skips) == len(skipped) * len(verify.DEFAULT_PAIRS)
    assert all("not applicable" in line for line in skips)
    assert {line.split("] ")[1].split(" (")[0] for line in skips} == set(skipped)
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].endswith(f"{len(skips)} skipped")


@pytest.mark.parametrize("n", [0, 3, 7])
def test_verify_short_orthogonality_sweep(n, capsys):
    # the Hankel and quadrature checks read moments beyond 2n
    assert run(["verify", "--suite", "orthogonality", "--n", str(n)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--a", "1/2"], "a must exceed 1/2"),
        (["--a", "-3"], "a must exceed 1/2"),
        (["--points", "1"], "at least two grid points"),
        (["--points", "-5"], "at least two grid points"),
        (["--suite", "susy", "--a", "1/4"], "a must exceed 1/2"),
        (["--suite", "qlimit", "--points", "0"], "at least two grid points"),
    ],
    ids=["a_half", "a_negative", "points_one", "points_negative", "susy_a", "qlimit_points"],
)
def test_verify_rejects_bad_well_before_any_suite(args, message, monkeypatch, capsys):
    # a bad --a or --points used to surface only after every other suite ran
    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda opts, name=name: ran.append(name) or [])
    assert run(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert ran == []


def _child(*args) -> str:
    # the child imports the package from where this process found it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout


@pytest.mark.parametrize(
    "argv",
    [[], ["table", "--n", "4"], ["sample", "weight"], ["verify", "--suite", "all"]],
    ids=["import", "table", "sample_weight", "verify"],
)
def test_import_leaves_scipy_unloaded(argv):
    # no command needs scipy; each runs in a fresh process
    code = (
        "import contextlib, io, sys, littlejacobi.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        "print(code, 'scipy' in sys.modules)"
    )
    assert _child("-c", code, *argv).strip() == "0 False"


def test_verify_runs_with_scipy_blocked():
    # importing scipy raises ImportError; _child raises if verify exits nonzero
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import littlejacobi.cli as cli\n"
        "sys.exit(cli.main(['verify']))"
    )
    assert "checks passed" in _child("-c", code).splitlines()[-1]


def test_python_m_runs_the_cli(capsys):
    assert run(["table", "--n", "2"]) == 0
    assert _child("-m", "littlejacobi", "table", "--n", "2") == capsys.readouterr().out


def test_main_calls_in_sequence_match_fresh_processes(capsys):
    # the parser is built once per process; no option given to one call
    # may become a default of the next
    sequence = [
        ["verify", "--suite", "qlimit", "--eps", "2e-3"],
        ["verify", "--suite", "qlimit"],
        ["table", "--alpha", "1/2", "--n", "3", "--format", "json"],
        ["table", "--n", "3"],
        ["sample", "wavefunction", "--a", "5/2", "--n", "2", "--points", "5"],
        ["sample", "wavefunction", "--points", "5"],
    ]
    for argv in sequence:
        assert run(argv) == 0
        assert capsys.readouterr().out == _child("-m", "littlejacobi", *argv)


def test_sample_weight(capsys):
    assert run(["sample", "weight", "--alpha", "1/2", "--beta", "3/2", "--points", "50"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "x,w"
    assert len(lines) == 51


def test_sample_eigenfunction(capsys):
    assert run(["sample", "eigenfunction", "--lambda", "-4", "--points", "11"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    assert set(rows[0]) == {"x", "F", "f", "g", "residual"}
    assert all(abs(float(r["residual"])) < 1e-9 for r in rows)


def test_sample_wavefunction(capsys):
    assert run(["sample", "wavefunction", "--a", "3/2", "--n", "2", "--points", "10"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "y,U,psi_0,psi_1,psi_2"
    assert len(lines) == 11


def test_sample_wavefunction_level_is_n_alone(capsys):
    assert run(["sample", "wavefunction", "--n", "-1"]) == 2
    assert "--n must be nonnegative" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["sample", "wavefunction", "--levels", "2"])
    assert exc.value.code == 2


def test_sample_wavefunction_matches_per_point_values(capsys):
    # the grid path shares sin, cos and pow across states; every printed
    # number must still be the per-point one
    a = Fraction(5, 2)
    assert run(["sample", "wavefunction", "--a", "5/2", "--n", "6"]) == 0
    states = [susyqm.eigenstate(a, k) for k in range(7)]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["y", "U"] + [f"psi_{k}" for k in range(7)])
    for y in susyqm.default_grid(1000):
        writer.writerow([y, susyqm.potential(a, y)] + [s.value(y) for s in states])
    assert capsys.readouterr().out == expected.getvalue()


def test_sample_potential(capsys):
    assert run(["sample", "potential", "--a", "3/2", "--points", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "y,U"
    assert len(lines) == 6


def test_sample_potential_ignores_n(capsys):
    # potential shares the wavefunction branch, but --n is wavefunction's
    assert run(["sample", "potential", "--points", "9"]) == 0
    expected = capsys.readouterr().out
    assert run(["sample", "potential", "--points", "9", "--n", "-1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_sample_rejects_bad_lambda():
    with pytest.raises(SystemExit) as exc:
        run(["sample", "eigenfunction", "--lambda", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["sample", "eigenfunction", "--lambda", "1e400"], "--lambda"),
        (["sample", "eigenfunction", "--lambda", "-1e400"], "--lambda"),
        (["sample", "eigenfunction", "--alpha", "1e400"], "--alpha"),
        (["sample", "weight", "--alpha", "1e400"], "--alpha"),
        (["sample", "wavefunction", "--a", "1e400"], "--a"),
        (["sample", "potential", "--a", "1e400"], "--a"),
        (["verify", "--suite", "susy", "--a", "1e400"], "--a"),
    ],
    ids=[
        "lambda", "negative_lambda", "eigen_alpha", "weight_alpha", "wavefunction_a",
        "potential_a", "verify_a",
    ],
)
def test_rational_beyond_float_range_is_a_domain_error(argv, option, capsys):
    # float() of such a rational raised OverflowError: a traceback, exit 1
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert f"{option} lies beyond the float range" in captured.err
    assert captured.out == ""


#: -1 + 10^-30: admissible, but float() rounds it to -1.0
NEAR_MINUS_ONE = "-999999999999999999999999999999/1000000000000000000000000000000"
#: -1 + 10^-9: admissible, and the q-deformation's denominators at
#: eps = 1e-4 fall below float resolution when alpha and beta both take it
NEAR_MINUS_ONE_9 = "-999999999/1000000000"


@pytest.mark.parametrize(
    "args, skipped, reason",
    [
        (
            ["--suite", "orthogonality", "--alpha", "1e400", "--beta", "1"],
            "weight quadrature k<=8",
            "alpha or beta lies beyond the float range",
        ),
        (
            ["--suite", "qlimit", "--alpha", "1e400", "--beta", "1"],
            "linear convergence n<=10",
            "the deformation at eps=0.001 lies beyond the float range",
        ),
        (
            ["--suite", "orthogonality", "--alpha", "1000000", "--beta", "1000000"],
            "weight quadrature k<=8",
            "the weight's normalization lies beyond the float range",
        ),
        (
            ["--suite", "orthogonality", "--alpha", "1/2", f"--beta={NEAR_MINUS_ONE}"],
            "weight quadrature k<=8",
            "alpha or beta lies within float rounding of -1",
        ),
        (
            ["--suite", "orthogonality", f"--alpha={NEAR_MINUS_ONE}", "--beta", "3/2"],
            "weight quadrature k<=8",
            "alpha or beta lies within float rounding of -1",
        ),
        (
            ["--suite", "qlimit", f"--alpha={NEAR_MINUS_ONE_9}", f"--beta={NEAR_MINUS_ONE_9}"],
            "linear convergence n<=10",
            "the deformation's denominator in A_0 at eps=0.0001 lies below 1e-12, "
            "within float rounding of 0",
        ),
        (
            # h1's image of 1 is (a+1)^2, beyond the float range from a ~ 1.3e154
            ["--suite", "susy", "--a", "1e300"],
            "Sturm-Liouville conjugation",
            "a coefficient of the polynomial factor lies beyond the float range",
        ),
    ],
    ids=[
        "quadrature_1e400", "qlimit_1e400", "quadrature_1e6", "quadrature_beta_near_-1",
        "quadrature_alpha_near_-1", "qlimit_denominator_near_-1", "susy_boundary_1e300",
    ],
)
def test_verify_skips_float_checks_beyond_the_float_range(args, skipped, reason, capsys):
    # the float checks raised OverflowError (a traceback, exit 1); now each
    # reports a skip with its reason, and the exact checks still run
    assert run(["verify", *args, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    [skip] = [r for r in data["results"] if r["skipped"]]
    assert skip["name"].startswith(skipped)
    assert skip["detail"] == f"not applicable: {reason}"
    assert data["failed"] == 0
    assert data["passed"] == len(data["results"]) - 1


def test_verify_quadrature_passes_at_large_beta(capsys):
    # (1+x)^((beta-1)/2) overflowed the float range at beta = 2100, a skip;
    # the quadrature forms each node's value in logs
    args = ["--suite", "orthogonality", "--alpha", "0", "--beta", "2100", "--format", "json"]
    assert run(["verify", *args]) == 0
    data = json.loads(capsys.readouterr().out)
    [quad] = [r for r in data["results"] if r["name"].startswith("weight quadrature k<=8")]
    assert quad["passed"] and not quad["skipped"]
    assert data["failed"] == 0
    assert data["passed"] == len(data["results"])


def test_verify_all_suites_beyond_the_float_range(capsys):
    assert run(["verify", "--alpha", "1e400", "--beta", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].split(" (")[0] for line in lines if line.startswith("SKIP")] == [
        "SKIP [orthogonality] weight quadrature k<=8",
        "SKIP [qlimit] linear convergence n<=10",
        "SKIP [raising] degree raising n<=10",
    ]
    assert lines[-1] == "25/28 checks passed, 3 skipped"


#: The pairs of the float-boundary contract: every ordered pair of these
#: values, near -1 at two depths, zero, large, and beyond the float range
CONTRACT_VALUES = {
    "-1+1e-30": NEAR_MINUS_ONE,
    "-1+1e-9": NEAR_MINUS_ONE_9,
    "0": "0",
    "1000": "1000",
    "1e9": "1000000000",
    "1e400": "1e400",
}
CONTRACT_PAIRS = [(a, b) for a in CONTRACT_VALUES for b in CONTRACT_VALUES]


@pytest.mark.parametrize("pair", CONTRACT_PAIRS, ids=lambda pair: ",".join(pair))
def test_every_command_answers_or_refuses_at_the_float_boundary(pair, capsys):
    # an admissible pair gets an answer, a reported skip or a clear
    # refusal, never an aborted run; the only FAIL rows allowed are the
    # qlimit linear convergence rows, a known defect of that check
    options = [f"--alpha={CONTRACT_VALUES[pair[0]]}", f"--beta={CONTRACT_VALUES[pair[1]]}"]
    assert run(["verify", "--n", "4", *options, "--format", "json"]) in (0, 1)
    results = json.loads(capsys.readouterr().out)["results"]
    failed = [(r["suite"], r["name"].split(" n<=")[0]) for r in results if not r["passed"]]
    assert set(failed) <= {("qlimit", "linear convergence")}
    for r in results:
        if r["skipped"]:
            assert r["detail"].startswith("not applicable: ") and "\n" not in r["detail"]
    for argv in (
        ["table", "--n", "6"],
        ["sample", "weight"],
        ["sample", "eigenfunction", "--lambda", "3/2"],
    ):
        code = run([*argv, *options])
        captured = capsys.readouterr()
        assert code in (0, 2), argv
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "out of domain" not in captured.err


@pytest.mark.parametrize(
    "args, skipped",
    [
        (["--suite", "susy", "--a", "300", "--points", "2"], ["Sturm-Liouville conjugation"]),
        (["--a", "1e20"], ["Sturm-Liouville conjugation"]),
    ],
    ids=["a300_points2", "a1e20"],
)
def test_verify_skips_susy_rows_whose_states_underflow(args, skipped, capsys):
    # cos^(a+1/2) underflows at every point of the float boundary row's
    # grid, so Phi is subnormal at each: the row reports a skip with the
    # reason, and the exact rows, which never evaluate a state, still answer
    assert run(["verify", *args, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    susy = [r for r in json.loads(captured.out)["results"] if r["suite"] == "susy"]
    assert len(susy) == 7
    assert all(r["passed"] for r in susy)
    assert [r["name"].split(" a=")[0] for r in susy if r["skipped"]] == skipped
    for r in susy:
        if r["skipped"]:
            assert r["detail"] == (
                "not applicable: Phi is subnormal or the terms are 0 at every grid point"
            )


@pytest.mark.parametrize(
    "args",
    [
        ["--levels", "18"],
        ["--levels", "25"],
        ["--a", "10000"],
        ["--a", "100000"],
        ["--points", "2", "--a", "5"],
        ["--a", "100", "--points", "2"],
    ],
    ids=lambda args: " ".join(args),
)
def test_verify_susy_holds_where_float_rows_failed(args, capsys):
    # each of these once FAILed an L1/H1 row on cancellation in the float
    # evaluation, or, at a = 100000, missed a node on a 400-point grid
    assert run(["verify", "--suite", "susy", *args, "--format", "json"]) == 0
    susy = json.loads(capsys.readouterr().out)["results"]
    assert len(susy) == 7
    assert all(r["passed"] for r in susy)
    [nodes] = [r for r in susy if r["name"].startswith("node counts")]
    assert nodes["detail"] == "psi_n crosses zero exactly n times"


@pytest.mark.parametrize(
    "args, reason",
    [
        # exp(...) overflows: OverflowError and exit 1 before
        (
            ["--alpha", "1000000", "--beta", "1000000"],
            "the weight's normalization lies beyond the float range",
        ),
        # lgamma(0.0): "math domain error" before
        ([f"--beta={NEAR_MINUS_ONE}"], "alpha or beta lies within float rounding of -1"),
        # kappa's relative error reaches 1e-6: a grid of zeros before
        (
            ["--alpha", "1000000000", "--beta", "0"],
            "the weight's normalization loses digits to cancellation",
        ),
    ],
    ids=["normalization_1e6", "beta_near_-1", "cancellation_1e9"],
)
def test_sample_weight_beyond_the_float_range(args, reason, capsys):
    # a finite pair the float weight cannot hold is a domain error
    assert run(["sample", "weight", *args]) == 2
    captured = capsys.readouterr()
    assert reason in captured.err
    assert captured.out == ""


def test_sample_eigenfunction_at_alpha_near_minus_one(capsys):
    # (alpha+1)/2 > 0 rounds to 0.0; the pair is admissible, so the refusal
    # names the float limit and not the domain
    assert run(["sample", "eigenfunction", f"--alpha={NEAR_MINUS_ONE}"]) == 2
    captured = capsys.readouterr()
    assert "alpha lies within float rounding of -1" in captured.err
    assert "out of domain" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--lambda", "1e200"],
        ["--lambda", "1e308"],
        ["--lambda", "-1e200"],
        ["--lambda", "2000"],
        # lambda = 2(beta+1): (1-x^2)^(-(beta+1)/2) overflows near |x| = 0.9
        ["--beta", "1000", "--lambda", "2002"],
    ],
    ids=["1e200", "1e308", "-1e200", "2000", "elementary"],
)
def test_sample_eigenfunction_rejects_overflowing_values(args, capsys):
    # the series used to overflow to inf and print rows of nan, and the
    # elementary form to raise OverflowError (exit 1)
    assert run(["sample", "eigenfunction", *args]) == 2
    captured = capsys.readouterr()
    assert "overflows the float range" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--alpha", "1/2", "--beta", "3/2", "--lambda", "2003/10"],
        ["--alpha", "1/2", "--beta", "3/2", "--lambda", "10003/10"],
        # the series stops at its term cap before it converges
        ["--alpha", "0", "--beta", "1000", "--lambda", "3/2"],
    ],
    ids=["200.3", "1000.3", "beta1000"],
)
def test_sample_eigenfunction_refuses_a_grid_that_lost_its_digits(args, capsys):
    # the float sums cancel to a finite, wrong f (8.6e16 where f is -1.03
    # at lambda = 200.3); the residual, relative to the equation's terms,
    # shows it
    assert run(["sample", "eigenfunction", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "has lost its accuracy" in captured.err
    assert "out of domain" not in captured.err


@pytest.mark.parametrize(
    "alpha, beta",
    [("1/2", "3/2"), ("0", "0"), ("-9/10", "-9/10"), ("3", "3"), ("-1/2", "3")],
    ids=str,
)
def test_sample_eigenfunction_answers_at_moderate_lambda(alpha, beta, capsys):
    options = [f"--alpha={alpha}", f"--beta={beta}"]
    for lam in ("1.3", "-13.5", "30", "-30", "45"):
        assert run(["sample", "eigenfunction", *options, f"--lambda={lam}"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 202


#: (alpha, beta) with lambda = lambda_1 = 2(alpha+beta+2), the family's
#: first odd eigenvalue, as the benchmark's cli-interactive stream draws
#: them (seeds 21, 29, 32, 36, 42 and 50)
FIRST_EIGENVALUE_CASES = [
    ("-3/5", "-1/2"),
    ("11/5", "-2/5"),
    ("-4/5", "-3/4"),
    ("-9/10", "-7/10"),
    ("-3/5", "-3/4"),
    ("-9/10", "-1/2"),
]


@pytest.mark.parametrize("alpha, beta", FIRST_EIGENVALUE_CASES, ids=str)
def test_sample_eigenfunction_answers_at_the_first_eigenvalue(alpha, beta, capsys):
    # the f series terminates at f = 1, so every term of the even part's
    # equation is rounding noise; the grid used to exit 2 there
    lam = 2 * (Fraction(alpha) + Fraction(beta) + 2)
    assert run(["sample", "eigenfunction", f"--alpha={alpha}", f"--beta={beta}", f"--lambda={lam}"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 201
    assert all(abs(float(row["f"]) - 1.0) <= 1e-15 for row in rows)


#: sha256 of `sample` output at the defaults and two other argument sets
#: per target; every number in the grids is pinned to the bit.
SAMPLE_DIGESTS = [
    (("eigenfunction",), "bd5ca770959decf051d1811da3fa30ffbda44f497a9866d972b77c362adefe97"),
    (
        ("eigenfunction", "--alpha", "1/2", "--beta", "3/2", "--lambda", "-27/2"),
        "05fcbd870589a31766685d6b18c8b0c7c3a0bb094fd95909be9205ae5d9fbe9c",
    ),
    (
        # lambda = 2(beta+1): the elementary closed form
        ("eigenfunction", "--alpha", "-9/10", "--beta", "2", "--lambda", "6", "--points", "51"),
        "b5752449903f24f4a5041d353c2bd2a2f1fbb13e6bd4d486e844aae4eae7d3ec",
    ),
    (("weight",), "9605bef81d2ada6c4f986e22b94b9f6bcd8862868466e1404f69c005b3284763"),
    (
        ("weight", "--alpha", "1/2", "--beta", "3/2"),
        "d97ebc737f7e43defffd0e3607711cd4c467126dead5ed0622c0bd188f6fbf89",
    ),
    (
        # an odd point count puts x = 0 on the grid, where alpha < 0 gives inf
        ("weight", "--alpha", "-1/2", "--beta", "1", "--points", "401"),
        "d6743ec4e79d6f0655de2d4635aa7a44af66c02d1ac2b69e0c210daae154453e",
    ),
    (("wavefunction",), "45408165376d40dc7f12a40fbfd298ca415f5db8b415d02fdb0cf1032622ff71"),
    (
        ("wavefunction", "--a", "5/2", "--n", "5"),
        "3a2027bee8e8e6f5ef108224857883a15b0ce3118c92d868431e88a3c7752127",
    ),
    (
        ("wavefunction", "--a", "7/10", "--n", "2", "--points", "50"),
        "6ab866415c2c4f45f29782b1f3cbfc548faac96f6058b80e1f2d0be4ea96da7d",
    ),
    (("potential",), "2a61413303b4ed62b04c13ccfcc533d6ee8c0dadcd3cb1208a2ab1578f8257f7"),
    (("potential", "--a", "5/2"), "d36aa1ae168f1fda68ad4ed2f9fefae530e94a171f0f3b0599f11d1048f93cfb"),
    (
        ("potential", "--a", "11/3", "--points", "7"),
        "30be2ae967a47ed05e2c9b0938890a94160ad7a8ee906abf8f98c4be171b3172",
    ),
]


@pytest.mark.parametrize(
    "args, digest", SAMPLE_DIGESTS, ids=[" ".join(args) for args, _ in SAMPLE_DIGESTS]
)
def test_sample_output_is_pinned(args, digest, capsys):
    assert run(["sample", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: sha256 of `verify --format json`: the default run, and each suite of
#: transforms sweeps, the aw suite and the orthogonality suite at --n 40
#: for (7/10,5/3)
VERIFY_DIGESTS = [
    ((), "8b6285198c03345238e331c638aa442daf0aa6b8538d58e1976ec4836f660b93"),
    (("--suite", "dunkl"), "d4859b57b17926d3bc2da2cf5b9bfa7c64f610db5f994fc03386c91920d3f25b"),
    (("--suite", "raising"), "4c5be1324e75c4d32c0cd3f3af9d1e050c36e45c72a1a9ab85a0a887fbb5fe18"),
    (("--suite", "transforms"), "7ed520e7c1c51e1e4d27469356adc295a7161aa9f9b033135b7ae348ecac2979"),
    (("--suite", "prop2"), "e7961165055e0492e8303b1ce76f7cad9c4802a5fabc2487cbbd04ffd15ad651"),
    (("--suite", "aw"), "c336ec0515f48ee4cc9436acd293306496ce681d3f60514f5c43796d798e795e"),
    (
        ("--suite", "orthogonality"),
        "8bf2780f4dcf1278b3da24d1a82bb4a87fd9abec6052aac78f736a0367152ebf",
    ),
]


@pytest.mark.parametrize(
    "args, digest", VERIFY_DIGESTS, ids=[" ".join(args) or "defaults" for args, _ in VERIFY_DIGESTS]
)
def test_verify_output_is_pinned(args, digest, capsys):
    if args:
        args = (*args, "--n", "40", "--alpha", "7/10", "--beta", "5/3")
    assert run(["verify", *args, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: sha256 of `verify --suite susy --format json`: a shallow well on a
#: 7-point grid, a deep well where the float boundary row skips the points
#: at which Phi is subnormal, and one so deep that it skips every point and
#: the row reports SKIP; its printed residual is pinned to the bit.
SUSY_DIGESTS = [
    (
        ("--a", "51/100", "--points", "7", "--levels", "3"),
        "f22104c10b91f2c2acc211740d671ad0751db1f4ab2c5b2ed14bbec7c6640271",
    ),
    (("--a", "1000"), "12b899695f670cdd90fbe7d663f292be4b1f41609d2cd5ed47c6573cb23a5e5d"),
    (("--a", "1e20"), "cb608642fd66dd4906f994d66fdafd84c8083260ca4496b1e9127b1f10433560"),
]


@pytest.mark.parametrize(
    "args, digest", SUSY_DIGESTS, ids=[" ".join(args) for args, _ in SUSY_DIGESTS]
)
def test_verify_susy_output_is_pinned(args, digest, capsys):
    assert run(["verify", "--suite", "susy", *args, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rational_parser():
    assert cli._rational("3/4") == Fraction(3, 4)
    assert cli._rational("-2") == Fraction(-2)
    with pytest.raises(Exception):
        cli._rational("x")
