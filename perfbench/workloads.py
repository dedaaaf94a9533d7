"""Executing workload tasks against the package and accounting for them.

A task is a closed-loop unit of work: its calls run back to back in this
process, each call's exception or exit code is caught and kept, and the
next call runs regardless.  Only task latencies are timed: between
tasks a sample grid is cut down to what its oracle needs, and after the
timed phase the kept outputs are turned into checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from littlejacobi import awalgebra, cli, family, operators

import oracles

#: lru caches that a task may fill; they are emptied between tasks, so
#: the suites of one exact-deep pair share them and two pairs never do.
#: These are the cache objects themselves, captured before any tracing
#: wrapper replaces the module attributes.
CACHES = {"generate_monic": family.generate_monic, "moments": family.moments}


@dataclass
class Call:
    """One call into the package and what came back."""

    label: str
    rc: Optional[int] = None
    out: str = ""
    err: str = ""
    #: (exception type, message, innermost frame) when the call raised
    error: Optional[tuple[str, str, str]] = None
    value: object = None


@dataclass
class Phase:
    """Tasks run back to back, with their latencies and calls."""

    records: list = field(default_factory=list)  # (task, latency_s, calls)
    #: summed task latencies: the loop's wall time less the benchmark's
    #: own bookkeeping between tasks
    busy_s: float = 0.0
    #: cache name -> [hits, misses] summed over the phase's tasks
    cache_stats: dict = field(default_factory=lambda: {k: [0, 0] for k in CACHES})


@dataclass
class Tally:
    """Checks attempted and failed, each failure with its inputs."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    not_run: dict = field(default_factory=dict)


def _describe(exc: BaseException) -> tuple[str, str, str]:
    frames = traceback.extract_tb(exc.__traceback__)
    where = f"{Path(frames[-1].filename).name}:{frames[-1].lineno} {frames[-1].name}" if frames else ""
    return type(exc).__name__, str(exc), where


def _cli(label: str, argv: list[str]) -> Call:
    call = Call(label)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call.rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        call.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        call.error = _describe(exc)
    call.out, call.err = out.getvalue(), err.getvalue()
    return call


def _api(label: str, fn) -> Call:
    call = Call(label)
    try:
        call.value = fn()
    except Exception as exc:
        call.error = _describe(exc)
    return call


def _intertwiner_identity(alpha: Fraction, n: int):
    mu = alpha / 2
    lhs = operators.dunkl_derivative(mu, n) @ operators.dunkl_intertwiner(mu, n)
    rhs = operators.dunkl_intertwiner(mu, n) @ operators.derivative(n)
    return operators.op_equal(lhs, rhs)


def execute(workload: str, task: dict) -> list[Call]:
    """Run one task's calls; nothing the package raises escapes."""
    if workload == "exact-deep":
        pair = [f"--alpha={task['alpha']}", f"--beta={task['beta']}"]
        return [
            _cli(f"verify {suite}", ["verify", "--suite", suite, *pair,
                                     "--n", str(degree), "--format", "json"])
            for suite, degree in task["suites"]
        ]
    if workload == "cli-interactive":
        kind = task["kind"]
        label = {"verify": f"verify {task.get('suite')}", "table": "table"}.get(kind, f"sample {kind}")
        return [_cli(label, task["argv"])]
    alpha, beta, n = Fraction(task["alpha"]), Fraction(task["beta"]), task["N"]
    if task["kind"] == "aw":
        return [_api("aw relations", lambda: awalgebra.verify_relations(family.ParamPair(alpha, beta), n))]
    return [_api("intertwiner identity", lambda: _intertwiner_identity(alpha, n))]


def _condense(workload: str, task: dict, calls: list[Call]) -> None:
    """Keep only what the oracles need of a sample grid's output."""
    if workload != "cli-interactive" or task["kind"] == "verify":
        return
    for call in calls:
        if call.error is None and call.rc == 0:
            try:
                call.value = oracles.condense(task, call.out)
            except (ValueError, IndexError):
                call.value = call.out  # the oracle will report it unreadable
            call.out = ""


def _reset_caches(stats: dict) -> None:
    for name, cache in CACHES.items():
        info = cache.cache_info()
        stats[name][0] += info.hits
        stats[name][1] += info.misses
        cache.cache_clear()


def run_phase(
    workload: str,
    tasks: Iterator[dict],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    tracer=None,
) -> Phase:
    """Closed loop: run tasks until their latencies add up to ``seconds``
    (finishing the task in flight) or ``count`` tasks are done."""
    phase = Phase()
    _reset_caches({k: [0, 0] for k in CACHES})
    while True:
        task = next(tasks)
        if tracer is not None:
            tracer.task = len(phase.records)
        begin = time.perf_counter()
        calls = execute(workload, task)
        latency = time.perf_counter() - begin
        if tracer is not None:
            tracer.task = None
        _condense(workload, task, calls)
        phase.records.append((task, latency, calls))
        phase.busy_s += latency
        _reset_caches(phase.cache_stats)
        if count is not None and len(phase.records) >= count:
            break
        if seconds is not None and phase.busy_s >= seconds:
            break
    return phase


def _oracle_checks(workload: str, task: dict, call: Call, mp) -> list[tuple]:
    if workload == "operator-algebra":
        if task["kind"] == "aw":
            return oracles.aw_structure(task, call.value)
        return oracles.intertwiner(task, call.value)
    kind = task["kind"]
    if kind == "table":
        return oracles.table(task, call.value)
    if kind == "weight":
        return oracles.weight(task, call.value, mp)
    if kind == "eigenfunction":
        return oracles.eigenfunction(task, call.value, mp)
    if kind == "wavefunction":
        return oracles.wavefunction(task, call.value)
    return []  # the potential grid has no independent oracle


def evaluate(workload: str, records: list, mp) -> Tally:
    """Turn each call into checks: one per verify CheckResult, one per
    oracle comparison, and one for a call that raised or exited with a
    usage/domain error."""
    tally = Tally()

    def fail(index, task, call, kind, message, where=""):
        failure = {
            "workload": workload,
            "task": index,
            "inputs": task,
            "call": call.label,
            "type": kind,
            "message": message,
            "where": where,
        }
        failure["known_defect"] = oracles.known_defect(failure)
        tally.failures.append(failure)

    for index, (task, _, calls) in enumerate(records):
        for call in calls:
            if call.error is not None:
                tally.attempted += 1
                fail(index, task, call, call.error[0], call.error[1], call.error[2])
                continue
            if call.label.startswith("verify") and call.rc in (0, 1):
                try:
                    results = json.loads(call.out)["results"]
                except (ValueError, KeyError, TypeError) as exc:
                    tally.attempted += 1
                    fail(index, task, call, "unreadable output", str(exc))
                    continue
                for result in results:
                    tally.attempted += 1
                    if not result["passed"]:
                        fail(index, task, call, "FAIL", f"{result['name']}: {result['detail']}")
                continue
            if call.rc not in (None, 0):
                tally.attempted += 1
                fail(index, task, call, f"exit {call.rc}", call.err.strip())
                continue
            try:
                checks = _oracle_checks(workload, task, call, mp)
            except oracles.Unavailable:
                tally.not_run[call.label] = tally.not_run.get(call.label, 0) + 1
                continue
            except Exception as exc:  # an output the oracle cannot read is a failure
                tally.attempted += 1
                fail(index, task, call, "unreadable output", "%s: %s" % _describe(exc)[:2])
                continue
            for name, passed, detail in checks:
                tally.attempted += 1
                if not passed:
                    fail(index, task, call, "oracle", f"{name}: {detail}")
    return tally
