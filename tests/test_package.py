"""The package's surface: what each module exports, how its public
entries refuse a value beyond the float range, the names the benchmark's
tracer (`perfbench/tracing.py`) wraps, and the calls its workloads
(`perfbench/workloads.py`) make."""

import ast
import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import littlejacobi
from littlejacobi import eigensolver, family, susyqm, verify
from littlejacobi.family import ParamPair
from littlejacobi.polys import Poly

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(littlejacobi.__path__) if info.name != "__main__"
)
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"littlejacobi.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


#: exported names that nothing in src/ or perfbench/ calls, and why they stay
UNCALLED_EXPORTS = {
    "polys.pochhammer": "the tests' closed-form reference",
}


def _is_getattr(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"


def _references(tree) -> set[str]:
    """Every name a module reads: bare names, attributes, imported names,
    getattr's string arguments and the strings a loop feeds to getattr."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif _is_getattr(node) and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
        elif (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, (ast.Tuple, ast.List))
            and any(
                _is_getattr(call)
                and len(call.args) > 1
                and isinstance(call.args[1], ast.Name)
                and call.args[1].id == node.target.id
                for call in ast.walk(node)
            )
        ):
            names.update(e.value for e in node.iter.elts if isinstance(e, ast.Constant))
    return names


def test_every_exported_name_has_a_caller():
    # a name in __all__ that no module of the package or the benchmark
    # reads is dead surface; the listed exceptions say why they stay
    referenced = set()
    for path in [*(ROOT / "src" / "littlejacobi").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        referenced |= _references(ast.parse(path.read_text()))
    uncalled = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in importlib.import_module(f"littlejacobi.{name}").__all__
        if attr not in referenced
    ]
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)


HUGE = Fraction(10) ** 400
WELL = Fraction(3, 2)
PAIR = "alpha or beta"

#: (entry, the name its refusal gives) for every public entry that reads
#: alpha, beta, lambda, a, y or a well state's coefficients as a float;
#: each is fed HUGE in one place
FLOAT_BOUNDARY = {
    "build_solution": (lambda: eigensolver.build_solution(ParamPair(HUGE, 1), 1.0), PAIR),
    "sample_rows pair": (lambda: eigensolver.sample_rows(ParamPair(HUGE, 1), 1.0, 5), PAIR),
    "sample_rows lambda": (lambda: eigensolver.sample_rows(ParamPair(0, 0), HUGE, 5), "lambda"),
    "SchrodingerParams": (lambda: susyqm.SchrodingerParams(HUGE), "well parameter a"),
    "SuiteOptions a": (lambda: verify.SuiteOptions(a=HUGE), "well parameter a"),
    "eigenstate": (lambda: susyqm.eigenstate(HUGE, 1), "well parameter a"),
    "WellGrid a": (lambda: susyqm.WellGrid(HUGE, (0.0,)), "well parameter a"),
    "WellGrid y": (lambda: susyqm.WellGrid(WELL, (0.0, HUGE)), "y"),
    "PhiPoly.value": (lambda: susyqm.eigenstate(WELL, 1).value(HUGE), "y"),
    "PhiPoly coefficients": (
        lambda: susyqm.PhiPoly(WELL, Poly([HUGE])),
        "a coefficient of the polynomial factor",
    ),
    "potential": (lambda: susyqm.potential(WELL, HUGE), "y"),
    "apply_L1": (lambda: susyqm.apply_L1(WELL, susyqm.eigenstate(WELL, 1), HUGE), "y"),
    "apply_H1": (lambda: susyqm.apply_H1(WELL, susyqm.eigenstate(WELL, 1), HUGE), "y"),
    "weight_values": (lambda: family.weight_values(ParamPair(HUGE, 1), (0.5,)), PAIR),
    "qlimit_error": (
        lambda: family.qlimit_error(ParamPair(HUGE, 1), 1, 1e-3),
        "the deformation at eps=0.001",
    ),
}


@pytest.mark.parametrize("entry", FLOAT_BOUNDARY)
def test_no_overflow_error_leaves_the_float_boundary(entry):
    # float() of such a rational raises OverflowError; every entry turns it
    # into the FloatRangeError that names the value, as the CLI does
    call, what = FLOAT_BOUNDARY[entry]
    with pytest.raises(family.FloatRangeError, match=f"^{what} lies beyond the float range$"):
        call()


def test_version_matches_the_project_metadata():
    pyproject = ROOT / "pyproject.toml"
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


#: (seed, index) of the cli-interactive tasks whose lambda is the family's
#: first odd eigenvalue 2(alpha+beta+2); `sample eigenfunction` refused
#: them with exit 2 until its residual judged the third term by its parts
FIRST_EIGENVALUE_TASKS = [(21, 4279), (29, 6867), (32, 7692), (36, 247), (42, 8023), (50, 223)]


@pytest.mark.parametrize("seed, index", FIRST_EIGENVALUE_TASKS, ids=str)
def test_stream_tasks_at_the_first_eigenvalue_pass_their_oracle(seed, index, monkeypatch):
    mp = pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    inputs = importlib.import_module("inputs")
    oracles = importlib.import_module("oracles")
    workloads = importlib.import_module("workloads")
    task = inputs.first_tasks("cli-interactive", seed, index + 1)[index]
    assert task["kind"] == "eigenfunction"
    alpha, beta = Fraction(task["alpha"]), Fraction(task["beta"])
    assert Fraction(task["lambda"]) == 2 * (alpha + beta + 2)
    call = workloads._cli("sample eigenfunction", task["argv"])
    assert (call.error, call.rc, call.err) == (None, 0, "")
    checks = oracles.eigenfunction(task, oracles.condense(task, call.out), mp)
    assert len(checks) == 3
    assert [check for check in checks if not check[1]] == []
