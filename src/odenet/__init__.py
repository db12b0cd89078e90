"""Residual chains as discretizations of a depth-continuous flow.

Forward Euler/Heun chains with 1/N step scaling, exact and memory-free
reverse sweeps, the rescaled gradient flow for deep linear networks,
and an experiment harness with a CLI front end.  The package root
re-exports each library module's ``__all__``; ``odenet.cli`` is not
imported here.
"""

from .adjoint import *
from .dynamics import *
from .harness import *
from .linear_flow import *
from .numerics import *
from .residual_models import *

__version__ = "0.1.0"
