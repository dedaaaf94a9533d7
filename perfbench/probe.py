"""Set-up probe: a fresh interpreter imports the CLI and runs one small
warm-up task of a workload, then prints {"import_s": seconds} as JSON.

run.py launches it several times and times each launch from outside, so
interpreter start, imports, lazy set-up and cache fills all count.
"""

import argparse
import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

WARMUPS = {
    # exact-deep needs scipy (weight quadrature), so its warm-up uses it
    "exact-deep": ["verify", "--suite", "orthogonality", "--alpha=1/2", "--beta=3/2",
                   "--n", "8", "--format", "json"],
    "cli-interactive": ["table", "--n", "4"],
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    workload = parser.parse_args().workload

    start = time.perf_counter()
    import littlejacobi.cli as cli

    import_s = time.perf_counter() - start
    if workload in WARMUPS:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(WARMUPS[workload])
        if rc != 0:
            print(f"warm-up of {workload} exited {rc}", file=sys.stderr)
            return 1
    else:
        from littlejacobi.awalgebra import verify_relations
        from littlejacobi.family import ParamPair

        verify_relations(ParamPair(Fraction(1, 2), Fraction(3, 2)), 8)
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
