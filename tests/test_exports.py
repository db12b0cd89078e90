"""The names other code looks up at run time still exist.

The benchmark tracer reads each module's ``__all__`` (``main`` for the
CLI) and wraps ``ResidualFamily``'s checked kernels by name, so a stale
entry breaks traced runs even while every direct caller still works.
The committed ``BENCH_*.json`` records keep the fields a reader of a
measured claim needs.
"""

import ast
import dataclasses
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import odenet
from odenet.harness import ExperimentConfig
from odenet.residual_models import ResidualFamily

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


# Runs tiny CLI calls under the benchmark tracer in a fresh interpreter, so
# its class-level kernel patches never leak into the rest of the suite.
TRACED_RUN = r"""
import os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import tracing
from odenet import cli

recorder = tracing.SpanRecorder()
tracer = tracing.install(recorder)
calls = [
    ("study", "experiment = heun_adjoint\ndepths = 4, 8\n"),
    ("study", "experiment = euler_adjoint\ndepths = 4, 8\n"),
    ("study", "experiment = approx_error\ndepths = 4, 8\n"),
    ("tightness", "experiment = tightness_suite\ndepths = 4, 8\n"),
    ("linflow", "experiment = limit_map\ndepths = 4, 8, 16\nt_end = 0.1\n"),
    ("train", "experiment = toy_train\ndepths = 4\niterations = 2\n"),
]
for i, (command, text) in enumerate(calls):
    path = os.path.join(out, f"{i}.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    rc = cli.main([command, "--config", path, "--out", os.path.join(out, str(i))])
    if rc != 0:
        sys.exit(f"{command} exited {rc}")
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
    "adjoint.reconstruct_backward_euler", "adjoint.reconstruct_backward_heun",
    "dynamics.solve_ode_oracle", "linear_flow.integrate_flow",
    "linear_flow.product_vs_ode", "harness.run_scaling_study",
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
