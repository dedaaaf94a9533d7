"""Command line surface: table, verify, sample."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from littlejacobi import cli, verify


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


@pytest.mark.parametrize(
    "alpha, beta, may_fail",
    # qlimit's error ratio leaves [8, 12] near the parameter boundary
    # (12.30 at n=6 for (-9/10,-9/10))
    [("-9/10", "-9/10", {"qlimit"}), ("-1/2", "-1/2", set())],
    ids=["-9/10--9/10", "-1/2--1/2"],
)
def test_verify_skips_prop2_below_its_range(alpha, beta, may_fail, capsys):
    # the intertwiner route needs alpha + beta > -1: prop2 reports a skip,
    # which is no failure, and every other suite still runs
    assert run(["verify", "--suite", "prop2", "--alpha", alpha, "--beta", beta]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("SKIP [prop2] intertwiner route")
    assert "not applicable" in lines[0]
    assert lines[1] == "0/1 checks passed, 1 skipped"

    code = run(["verify", "--alpha", alpha, "--beta", beta, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    results = data["results"]
    assert {r["suite"] for r in results} == set(verify.SUITES)
    assert [r["suite"] for r in results if r["skipped"]] == ["prop2"]
    assert all(r["passed"] for r in results if r["skipped"])
    assert data["skipped"] == 1
    assert data["passed"] + data["failed"] + data["skipped"] == len(results)
    assert {r["suite"] for r in results if not r["passed"]} <= may_fail
    assert code == (1 if data["failed"] else 0)


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


@pytest.mark.parametrize("n", [0, 3, 7])
def test_verify_short_orthogonality_sweep(n, capsys):
    # the Hankel and quadrature checks read moments beyond 2n
    assert run(["verify", "--suite", "orthogonality", "--n", str(n)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_import_leaves_scipy_unloaded():
    code = "import sys, littlejacobi.cli; print('scipy' in sys.modules)"
    # the child imports the package from where this process found it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "False"


def test_verify_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("MINUSONE_SEED", "7")
    assert run(["verify", "--suite", "qlimit"]) == 0
    assert "checks passed" in capsys.readouterr().out


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


def test_sample_potential(capsys):
    assert run(["sample", "potential", "--a", "3/2", "--points", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "y,U"
    assert len(lines) == 6


def test_sample_rejects_bad_lambda():
    with pytest.raises(SystemExit) as exc:
        run(["sample", "eigenfunction", "--lambda", "abc"])
    assert exc.value.code == 2


def test_rational_parser():
    from fractions import Fraction

    assert cli._rational("3/4") == Fraction(3, 4)
    assert cli._rational("-2") == Fraction(-2)
    with pytest.raises(Exception):
        cli._rational("x")
