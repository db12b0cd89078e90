"""The names other code looks up at run time still exist, and ``src``
holds only what the commands run.

The benchmark tracer reads each module's ``__all__`` (``main`` for the
CLI) and wraps ``ResidualFamily``'s checked kernels by name, so a stale
entry breaks traced runs even while every direct caller still works.
The committed ``BENCH_*.json`` records keep the fields a reader of a
measured claim needs.  A function in ``src`` that no command calls is
dead code or a test helper; the reach guard names it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import odenet
from odenet.harness import ExperimentConfig
from odenet.residual_models import ResidualFamily
import mutants
import outputs
import reach

MODULES = ("cli", "harness", "linear_flow", "dynamics", "adjoint", "residual_models",
           "numerics")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"odenet.{name}")
    public = getattr(module, "__all__", ("main",))
    assert public
    assert [attr for attr in public if not hasattr(module, attr)] == []


def test_package_root_exports_exactly_the_module_lists():
    """The root re-exports every library module's ``__all__`` and nothing
    else, so a name added to a module needs no second registry."""
    modules = [name for name in MODULES if name != "cli"]
    expected = set().union(*(importlib.import_module(f"odenet.{name}").__all__
                             for name in modules))
    exported = {name for name, value in vars(odenet).items()
                if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert exported == expected


@pytest.mark.parametrize("path", sorted(
    p for p in (Path(__file__).resolve().parents[1] / "src" / "odenet").glob("*.py")
    if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_no_unused_top_level_import(path):
    """A module-level import the module never reads is dead code left
    behind by a deletion (the package root's re-exports are exempt)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in bound.items() if name not in read} == {}


def test_every_config_key_is_read():
    """Each ExperimentConfig field is read as ``config.<name>`` by the
    harness or the CLI outside the class itself; a key only its
    validation reads is an option that changes nothing."""
    src = Path(__file__).resolve().parents[1] / "src" / "odenet"
    read = set()
    for name in ("harness.py", "cli.py"):
        tree = ast.parse((src / name).read_text())
        skipped = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "ExperimentConfig"
                   for node in ast.walk(cls)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and id(node) not in skipped
                 and isinstance(node.value, ast.Name) and node.value.id == "config"}
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert keys - read == set()


def test_residual_family_keeps_its_checked_kernels():
    for method in ("eval", "vjp_state", "vjp_params"):
        assert callable(getattr(ResidualFamily, method, None))


# Every command of ``reach.CALLS`` under the benchmark tracer, in a fresh
# interpreter, so its class-level kernel patches never leak into the rest
# of the suite.
TRACED_RUN = r"""
import os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench"),
                os.path.join(root, "tests")]
import reach
import tracing
from odenet import cli

recorder = tracing.SpanRecorder()
tracer = tracing.install(recorder)
reach.run_calls(cli.main, out)
_, table = tracing.layer_metrics(recorder, tracer, [], 1.0)
names = sys.argv[3:]
silent = [n for n in names if table.get(n, {}).get("calls", 0) == 0]
if silent:
    sys.exit(f"no calls recorded for {silent}")
"""

TRACED_NAMES = (
    "dynamics.forward_euler_chain", "dynamics.forward_heun_chain",
    "adjoint.backprop_exact", "adjoint.backprop_exact_heun",
    "adjoint.backprop_adjoint_euler", "adjoint.backprop_adjoint_heun",
    "adjoint.adjoint_sweep_euler", "adjoint.adjoint_sweep_heun",
    "dynamics.solve_ode_oracle", "linear_flow.integrate_flow",
    "linear_flow.product_vs_ode", "linear_flow.transport_product",
    "linear_flow.extract_limit_map", "linear_flow.monitor_invariants",
    "linear_flow.check_small_loss_regime", "numerics.spectral_norm",
    "numerics.fit_loglog_slope", "harness.run_scaling_study",
    "harness.run_tightness_suite", "harness.run_linear_flow_experiment",
    "harness.run_toy_training", "cli.main")


def test_benchmark_tracer_installs_and_records(tmp_path):
    """The tracer reads ``VectorField.eval``, ``FlowState.schedule.depth``,
    the kernel and sweep names; a refactor that renames any of them
    breaks traced benchmark runs."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root), str(tmp_path), *TRACED_NAMES],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


BENCH_RECORD_KEYS = {"change", "parent_commit", "machine", "method", "end_to_end"}


@pytest.mark.parametrize("path", sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_bench_record_parses_and_is_complete(path):
    """A measured claim names what changed, against which commit, on which
    machine and by which method, and gives its end-to-end figures."""
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert BENCH_RECORD_KEYS - record.keys() == set()


THROWAWAY = """
class Box:
    def __init__(self, v):
        self.v = v

    @property
    def doubled(self):
        return 2 * self.v

    @property
    def halved(self):
        return self.v / 2


def called(x):
    def inner(y):
        return y + 1

    def unused_inner(y):
        return y - 1
    return inner(x) + [v for v in range(3)][0] + Box(x).doubled


def uncalled():
    return 0


square = lambda t: t * t
cube = lambda t: t ** 3
"""


def test_reach_reports_exactly_the_uncalled_functions(tmp_path):
    """Class bodies and comprehensions are no functions of their own, a
    property's code starts at its decorator line, and two lambdas of one
    scope share a name: none of these may give a false report."""
    path = tmp_path / "throwaway.py"
    path.write_text(THROWAWAY)

    def run():
        spec = importlib.util.spec_from_file_location("throwaway", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.called(1)
        module.square(2)

    assert reach.uncalled([path], reach.calls(run)) == {
        "throwaway.Box.__init__": 0, "throwaway.Box.doubled": 0,
        "throwaway.Box.halved": 1, "throwaway.called": 0,
        "throwaway.called.<locals>.inner": 0,
        "throwaway.called.<locals>.unused_inner": 1, "throwaway.uncalled": 1,
        "throwaway.<lambda>": 1}


# Every command of ``reach.CALLS`` in a fresh interpreter under
# reach.calls.  Prints reach.uncalled for ``src`` as JSON.
REACH_RUN = r"""
import json, os, sys
root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src", "odenet")
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
import reach


def run_pass():
    from odenet import cli
    reach.run_calls(cli.main, out)


seen = reach.calls(run_pass)
paths = sorted(os.path.join(src, name) for name in os.listdir(src) if name.endswith(".py"))
print(json.dumps(reach.uncalled(paths, seen)))
"""


def test_outputs_records_a_call_with_its_roots_replaced(tmp_path):
    """``outputs.py`` keeps a call's tables, streams and exit code, with
    the output root and the checkout read as markers, so one call
    recorded under two roots gives two byte-identical trees."""
    name, text, argv = next(job for job in outputs.jobs() if job[0].endswith("-train"))
    root = Path(__file__).resolve().parents[1]
    trees = [tmp_path / side for side in ("a", "b")]
    for tree in trees:
        assert outputs.record(root, tree, 0, name, text, argv) == 0
    files = [sorted(p.relative_to(tree) for p in tree.rglob("*") if p.is_file())
             for tree in trees]
    assert files[0] == files[1]
    assert {"config", "stdout", "stderr", "exit"} <= {p.name for p in files[0]}
    assert any(p.suffix == ".csv" for p in files[0])
    for path in files[0]:
        assert (trees[0] / path).read_bytes() == (trees[1] / path).read_bytes()
    stdout = (trees[0] / "seed0" / name / "stdout").read_text()
    assert "OUT/" in stdout and str(tmp_path) not in stdout


# The functions no command reaches yet: {name: what it waits for}.
UNREACHED = {
    # The chain-vs-ODE bound (ROADMAP item 2): no run reports it yet.
    "dynamics.approximation_bound": "item 2: the bound waits for a closed-form c_n",
    # A field's pointwise eval: the oracle steps through `piece`, but the
    # tests state interpolate's contract through field.eval, and
    # bench/tracing.py's wrap_oracle replaces field.eval by dataclasses.replace.
    "dynamics.interpolate.<locals>.eval_field": "the field.eval tests and the tracer use",
    "dynamics._locate": "eval_field's grid lookup",
    # The checked kernels: bench/tracing.py wraps eval, vjp_state and
    # vjp_params by name until it traces by code object (item 1a).
    "residual_models.ResidualFamily.eval": "item 1a: traced by name",
    "residual_models.ResidualFamily.vjp_state": "item 1a: traced by name",
    "residual_models.ResidualFamily.vjp_params": "item 1a: traced by name",
    "residual_models.ResidualFamily._pull": "item 1a: the vjp_* call it",
}


def test_every_src_function_is_reached(tmp_path):
    """``src`` is what the commands run: a def or lambda no command calls
    is dead code or a test helper, unless UNREACHED names why it stays.
    An entry that is reached, or no longer exists, must leave the list."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", REACH_RUN, str(root), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(proc.stdout.splitlines()[-1])
    dead = sorted(n for n, left in counts.items() if left and n not in UNREACHED)
    assert not dead, f"no command calls {dead}"
    gone = sorted(n for n in UNREACHED if n not in counts)
    assert not gone, f"UNREACHED names functions src no longer has: {gone}"
    reached = sorted(n for n in UNREACHED if counts.get(n) == 0)
    assert not reached, f"UNREACHED names functions a command now calls: {reached}"


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_mutant_substitution_occurs_once(name):
    """Each planted defect of ``tests/mutants.py`` still names one exact
    spot of its file, so the catalogue cannot go stale in silence."""
    path, old, *_ = mutants.MUTANTS[name]
    assert mutants.source(path).count(old) == 1


def test_mutant_killers_are_collected_test_ids():
    """Each planted defect's recorded killer is a test id pytest collects,
    so a killer-first catalogue run never falls back to the full suite on
    a stale id."""
    killers = sorted({killer for *_, killer in mutants.MUTANTS.values()})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *killers], cwd=mutants.ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(killers) <= set(proc.stdout.splitlines())
