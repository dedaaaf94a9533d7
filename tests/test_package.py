"""The package's surface: what each module exports, the names the
benchmark's tracer (`perfbench/tracing.py`) wraps, and the calls its
workloads (`perfbench/workloads.py`) make."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import littlejacobi

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(littlejacobi.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"littlejacobi.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_version_matches_the_project_metadata():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "(.+)"$', pyproject.read_text(), re.MULTILINE)
    assert littlejacobi.__version__
    assert littlejacobi.__version__ == declared.group(1)


def test_no_module_reads_the_environment():
    # what a command does is set by its options alone; an environment
    # variable would change it without any option saying so
    src = Path(littlejacobi.__file__).parent
    readers = [
        path.name
        for path in sorted(src.glob("*.py"))
        if re.search(r"\benviron\b|\bgetenv\b", path.read_text())
    ]
    assert readers == []


def _bindings(tracing):
    """(owner, key) -> value for every binding the tracer may replace: the
    package modules' attributes, the traced classes' attributes and the
    suite table."""
    out = {}
    for module in (getattr(tracing, name) for name in tracing.MODULES):
        out.update(((module, key), value) for key, value in vars(module).items())
    for cls in (tracing.Poly, tracing.BandedOp, tracing.MomentFunctional, tracing.PhiPoly):
        out.update(((cls, key), value) for key, value in vars(cls).items())
    out.update((("verify.SUITES", key), value) for key, value in tracing.verify.SUITES.items())
    return out


def test_tracer_wraps_and_restores_the_package(monkeypatch):
    # every name the tracer looks up must exist, and restore() must bind
    # each traced name to its original again
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    before = _bindings(tracing)
    original = tracing.transforms.identify_little
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert tracing.transforms.identify_little is not original
        assert "transforms.identify_little" in tracer.names
    finally:
        tracer.restore()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tracing.transforms.identify_little is original


@pytest.mark.parametrize(
    "workload, count",
    [("exact-deep", 6), ("cli-interactive", 70), ("operator-algebra", 8)],
)
def test_one_block_of_each_workload_passes_its_oracles(workload, count, monkeypatch):
    # every call a workload makes must still exist and answer as its
    # oracles expect; one seeded block of tasks, untimed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    inputs = importlib.import_module("inputs")
    oracles = importlib.import_module("oracles")
    workloads = importlib.import_module("workloads")
    phase = workloads.run_phase(workload, inputs.task_stream(workload, 1), count=count)
    tally = workloads.evaluate(workload, phase.records, oracles.load_mpmath())
    assert tally.attempted > 0
    assert tally.failures == []
