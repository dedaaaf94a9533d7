"""Census of the package's known defects on unfiltered inputs.

    python3 perfbench/census.py --workload NAME --seed N [--tasks K]

run.py's workloads draw only inputs on which every check passes.  This
runs the first K tasks (default: one block) of a workload's census
stream instead: the whole parameter square, |lambda| up to 300 and
every exact-deep suite at degree 40, with nothing filtered out.  Checks
are counted as run.py counts them, each failure is matched to a known
defect (oracles.known_defect), and fail_ratio is printed.  Nothing is
timed.  The record, every failure with its inputs, goes to
.perfbench/census-<workload>-seed<N>.json.

Exit code 0 when every failure is a known defect, 1 when one is not,
2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
#: One block of each workload's stream (exact-deep: about half a minute).
BLOCK = {"exact-deep": 6, "cli-interactive": 70, "operator-algebra": 8}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, default=None)
    args = parser.parse_args(argv)
    count = args.tasks or BLOCK[args.workload]
    if not (SRC / "littlejacobi" / "__init__.py").is_file():
        print(f"census: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MINUSONE_SEED", None)  # it would reshuffle suite order
    import oracles
    import workloads

    tasks = inputs.first_tasks(args.workload, args.seed, count, census=True)
    phase = workloads.run_phase(args.workload, iter(tasks), count=count)
    tally = workloads.evaluate(args.workload, phase.records, oracles.load_mpmath())
    defects = Counter(f["known_defect"] or "unknown" for f in tally.failures)

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"census-{args.workload}-seed{args.seed}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {"tasks": count, "digest": inputs.digest(tasks)},
        "checks": {"attempted": tally.attempted, "failed": len(tally.failures),
                   "not_run": tally.not_run},
        "failures_by_defect": dict(defects),
        "failures": tally.failures,
    }
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    ratio = len(tally.failures) / tally.attempted if tally.attempted else 0.0
    print(f"census workload={args.workload} seed={args.seed} tasks={count}")
    print(f"  fail_ratio {ratio!r} ratio ({len(tally.failures)} failed of "
          f"{tally.attempted} checks), not run: {tally.not_run or 'none'}")
    for name, n in sorted(defects.items()):
        print(f"    {n:6d}  {name}")
    print(f"  full record in {path.relative_to(ROOT)}")
    return 1 if defects.get("unknown") else 0


if __name__ == "__main__":
    sys.exit(main())
