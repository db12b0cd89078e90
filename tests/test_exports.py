"""The names other code looks up at run time still exist.

The benchmark tracer reads each module's ``__all__`` (``main`` for the
CLI) and wraps ``ResidualFamily``'s checked kernels by name, so a stale
entry breaks traced runs even while every direct caller still works.
"""

import importlib

import pytest

from odenet.residual_models import ResidualFamily

MODULES = ("cli", "harness", "linear_flow", "dynamics", "adjoint", "residual_models",
           "numerics")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"odenet.{name}")
    public = getattr(module, "__all__", ("main",))
    assert public
    assert [attr for attr in public if not hasattr(module, attr)] == []


def test_residual_family_keeps_its_checked_kernels():
    for method in ("eval", "vjp_state", "vjp_params"):
        assert callable(getattr(ResidualFamily, method, None))
