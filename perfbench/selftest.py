"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

1. Two traced runs of each workload at one seed must report identical
   count metrics (calls, errors, coefficient and row products, series
   terms, cache hit ratio, verify checks), identical check totals and
   identical input digests.
2. In a directory holding only BENCHMARK.json and perfbench/, run.py
   must exit non-zero without printing a result line.
3. The census of one exact-deep block must show failures, every one of
   them a known defect.

Exit code 0 when every comparison holds.  Each traced run and the census
take about half a minute; runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench"
COUNTS = {
    "polys.mul.coeff_products",
    "polys.mul.max_coeff_bits",
    "operators.compose.row_products",
    "eigensolver.series_terms",
    "eigensolver.series_cap_hits",
    "family.generate_monic.cache_hit_ratio",
    "verify.checks",
    "verify.checks_failed",
}


def _is_count(name: str) -> bool:
    return name in COUNTS or name.endswith((".calls", ".errors"))


def _traced_run(workload: str, seed: int, cwd: Path = ROOT) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _fingerprint(workload: str, seed: int) -> dict:
    code, out, err = _traced_run(workload, seed)
    if code != 0:
        raise RuntimeError(f"{workload}: run.py exited {code}: {err.strip()[-400:]}")
    line = json.loads(out.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {k: v["value"] for k, v in line["metrics"].items() if _is_count(k)}
    return {
        "counts": counts,
        "attempted": line["attempted"],
        "failed": line["failed"],
        "digest": record["inputs"]["digest"],
        "correct": line["correct"],
    }


def check_repeatable(workload: str, seed: int) -> list[str]:
    first, second = _fingerprint(workload, seed), _fingerprint(workload, seed)
    problems = [f"{workload}: correct is false" for run in (first, second) if not run["correct"]]
    for key in ("attempted", "failed", "digest"):
        if first[key] != second[key]:
            problems.append(f"{workload}: {key} {first[key]!r} != {second[key]!r}")
    for name in sorted(first["counts"]):
        a, b = first["counts"][name], second["counts"].get(name)
        if a != b:
            problems.append(f"{workload}: {name} {a!r} != {b!r}")
    print(f"{workload}: {len(first['counts'])} count metrics compared, "
          f"{len(problems)} differ")
    return problems


def check_refuses_without_package() -> list[str]:
    bare = RESULTS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = _traced_run("operator-algebra", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = out.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    print(f"bare checkout: exit {code}, result line printed: {printed_result}")
    if code == 0 or printed_result:
        return ["run.py did not refuse a checkout without the package"]
    return []


def check_census(seed: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "census.py"), "--workload", "exact-deep", "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode not in (0, 1):
        return [f"census exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    checks = json.loads((RESULTS / f"census-exact-deep-seed{seed}.json").read_text())["checks"]
    print(f"census exact-deep: exit {proc.returncode}, "
          f"{checks['failed']} failed of {checks['attempted']} checks")
    problems = []
    if proc.returncode:
        problems.append("census: a failure is not a known defect")
    if not checks["failed"]:
        problems.append("census: no known defect showed on exact-deep")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    problems = check_refuses_without_package() + check_census(args.seed)
    for workload in args.workload:
        problems += check_repeatable(workload, args.seed)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
