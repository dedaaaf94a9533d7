"""Benchmark of the littlejacobi package: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads: exact-deep, cli-interactive, operator-algebra (see README.md
beside this file).  Each run is one process and one closed-loop client.

--trace 0 measures set-up in fresh interpreters, then runs the
workload's seeded tasks back to back for S seconds and reports the
end-to-end metrics.  --trace 1 runs a fixed prefix of the same task
stream twice, untraced and then traced, and reports the per-layer
metrics; a fixed prefix makes every count repeat exactly at one seed.

Outputs are checked against oracles after the timed phase.  Stdout ends
with one JSON line {"correct", "attempted", "failed", "metrics"}; the
full record (environment, input digests, every failure) is written to
.perfbench/ in the checkout.  The workloads draw only inputs on which
every check passed when the benchmark was written, so ``correct`` is
false when any check fails; census.py counts the known defects on the
unfiltered inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh-interpreter launches per run; setup_s is their median.
SETUP_LAUNCHES = 3
#: Tasks in the traced prefix of each workload (whole blocks, or half a
#: block of exact-deep, whose tasks take seconds each).
TRACE_PREFIX = {"exact-deep": 3, "cli-interactive": 280, "operator-algebra": 32}
#: A percentile is reported only with at least this many tasks beyond it.
TAIL_SAMPLES = 10


def _error(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup(workload: str) -> tuple[list[float], list[float]]:
    """Wall time of each fresh launch, and the import time each reports."""
    env = dict(os.environ)
    env.pop("MINUSONE_SEED", None)
    walls, imports = [], []
    for _ in range(SETUP_LAUNCHES):
        begin = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - begin)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


def _cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def _environment(mp) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scipy": version("scipy"),
        "mpmath": mp.__version__ if mp is not None else None,
        "mpmath_available": mp is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": _cpu_caches(),
        "platform": platform.platform(),
    }


def _end_to_end(phase, setup_walls, peak_rss_mb, tally) -> tuple[dict, dict]:
    latencies = sorted(latency for _, latency, _ in phase.records)
    count = len(latencies)
    values = {
        "setup_s": statistics.median(setup_walls),
        "tasks_per_s": count / phase.busy_s,
        "task_p50_s": statistics.median(latencies),
        "fail_ratio": len(tally.failures) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_walls)} fresh launches",
        "tasks_per_s": f"{count} tasks in {phase.busy_s:.2f} s of task latency",
        "task_p50_s": f"n={count}",
        "fail_ratio": f"{len(tally.failures)} failed of {tally.attempted} checks",
        "peak_rss_mb": "ru_maxrss of the workload process after the timed phase",
    }
    p90 = statistics.quantiles(latencies, n=10)[-1] if count >= 2 else None
    beyond = sum(1 for latency in latencies if p90 is not None and latency > p90)
    if beyond >= TAIL_SAMPLES:
        values["task_p90_s"] = p90
        notes["task_p90_s"] = f"n={count}, {beyond} tasks beyond"
    else:
        notes["task_p90_s"] = (
            f"absent: {count} tasks leave {beyond} beyond p90, fewer than {TAIL_SAMPLES}"
        )
    return values, notes


def _report(workload, seed, trace, names, values, notes, units) -> None:
    print(f"perfbench workload={workload} seed={seed} trace={trace}")
    for name in names:
        note = notes.get(name) or notes.get(name.rsplit(".", 1)[0], "")
        if name in values:
            print(f"  {name:<42} {values[name]!r:>22} {units.get(name, ''):<6} {note}")
        else:
            print(f"  {name:<42} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _error("--seconds must be positive")

    if not (SRC / "littlejacobi" / "__init__.py").is_file():
        return _error(f"package source not found under {SRC}")
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _error(f"cannot read {SPEC.name}: {exc}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("MINUSONE_SEED", None)  # it would reshuffle suite order
    try:
        import oracles
        import workloads
    except ImportError as exc:
        return _error(f"cannot import the package: {exc}")

    try:
        setup_walls, import_times = _setup(args.workload)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        return _error(str(exc))

    workload, seed = args.workload, args.seed
    if args.trace == 0:
        phase = workloads.run_phase(workload, inputs.task_stream(workload, seed),
                                    seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        mp = oracles.load_mpmath()
        tally = workloads.evaluate(workload, phase.records, mp)
        values, notes = _end_to_end(phase, setup_walls, peak_rss_mb, tally)
        wanted = spec["end_to_end"]
    else:
        import tracing

        count = TRACE_PREFIX[workload]
        plain = workloads.run_phase(workload, inputs.task_stream(workload, seed), count=count)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            phase = workloads.run_phase(workload, inputs.task_stream(workload, seed),
                                        count=count, tracer=tracer)
        finally:
            tracer.restore()
        mp = oracles.load_mpmath()
        tally = workloads.evaluate(workload, phase.records, mp)
        values, notes = tracing.layer_metrics(tracer, phase.cache_stats)
        values["cli.import_s"] = statistics.median(import_times)
        untraced, traced = count / plain.busy_s, count / phase.busy_s
        values["trace.overhead_ratio"] = (untraced - traced) / untraced
        notes["trace.overhead_ratio"] = (
            f"untraced {untraced:.4g} tasks/s, traced {traced:.4g} tasks/s over {count} tasks"
        )
        wanted = spec["per_layer"]

    if not tally.attempted:
        return _error("no check was attempted")
    tasks = [task for task, _, _ in phase.records]
    unknown = [f for f in tally.failures if f["known_defect"] is None]
    defects = {}
    for failure in tally.failures:
        key = failure["known_defect"] or "unknown"
        defects[key] = defects.get(key, 0) + 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"fail_ratio": "ratio", "task_p90_s": "s"})

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{args.trace}"
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(mp),
        "inputs": {
            "tasks": len(tasks),
            "digest": inputs.digest(tasks),
            "stream_digest": inputs.digest(inputs.first_tasks(workload, seed, 64)),
        },
        "setup": {"launch_s": setup_walls, "import_s": import_times},
        "task_latency_s": [latency for _, latency, _ in phase.records],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()},
        "notes": notes,
        "checks": {"attempted": tally.attempted, "failed": len(tally.failures),
                   "not_run": tally.not_run},
        "failures_by_defect": defects,
        "failures": tally.failures,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")

    shown = [m["name"] for m in wanted]
    if not args.trace:
        shown += ["fail_ratio", "task_p90_s"]
    _report(workload, seed, args.trace, shown, values, notes, units)
    print(f"  checks: {tally.attempted} attempted, {len(tally.failures)} failed "
          f"({len(unknown)} not a known defect), not run: {tally.not_run or 'none'}")
    for name, n in sorted(defects.items()):
        print(f"    {n:6d}  {name}")
    print(f"  inputs digest {record['inputs']['digest']}; full record in "
          f"{(RESULTS / stem).relative_to(ROOT)}.json")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _error(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
