"""Backpropagation through residual chains: exact reverse mode over
stored activations, and memory-free variants that rebuild activations
on the fly while sweeping backwards.

Single-stage reverse reconstruction runs

    x~_n = x~_{n+1} - (1/N) f(x~_{n+1}, theta_n),

and the gradient proxies reuse the exact backprop formulas at the
reconstructed states.  The two-stage scheme reverses both stages,

    y~_n = x~_{n+1} - (1/N) f(x~_{n+1}, theta_{n+1})
    x~_n = x~_{n+1} - (1/2N) (f(x~_{n+1}, theta_{n+1}) + f(y~_n, theta_n)),

and evaluates the same two-term parameter-gradient assembly at the
reconstructed states.

One reverse sweep runs both schemes' ``dynamics.Scheme`` steps.  It
yields (n, grad_theta_n, grad_x_n, x_n) for n = N-1..0, x_n being the
state it linearized at layer n: the stored node in exact reverse mode,
and the rebuilt x~_n in the memory-free adjoint, so one pass gives both
the reconstruction and the gradients.

The sweep walks the layers in blocks of ``SWEEP_BLOCK``, from the top:
a block's states are a view of the stored nodes, or a block buffer the
reverse step fills and ``dynamics._check_block`` screens once, and the
scheme's ``backprop`` linearizes the block in one stacked call (two for
the two-stage scheme), builds every layer's cotangent transition matrix
from the stacked state Jacobians, and applies them one product per
layer (one cumulative product for a scalar state).  So a sweep holds
one or two blocks of states, activations, Jacobians and state
gradients, O(SWEEP_BLOCK (d^2 + h) B) for a (d, B) state and h hidden
units, whatever the depth N; ``backprop_*`` keep only its
parameter gradients, one (param_dim,) row per layer.

Every sweep validates its inputs once on entry (state and schedule
against the family, output gradient against the state's shape), binds
the family's unchecked kernels to the schedule's ``padded`` rows once,
and then calls them at layer indices: ``eval`` for a reverse step and
``linearize_block`` for a block of layer points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import EULER, HEUN, SWEEP_BLOCK, Scheme, Trajectory, _check_block
from .numerics import require_finite
from .residual_models import ResidualFamily, WeightSchedule

__all__ = [
    "GradientComparison",
    "backprop_exact",
    "backprop_exact_heun",
    "backprop_adjoint_euler",
    "backprop_adjoint_heun",
    "adjoint_sweep_euler",
    "adjoint_sweep_heun",
    "compare_gradients",
]

REL_ERROR_FLOOR = 1e-15


@dataclass
class GradientComparison:
    per_layer_abs: np.ndarray
    per_layer_rel: np.ndarray
    max_abs: float
    max_rel: float


def _backprop_exact(scheme: Scheme, family: ResidualFamily, schedule: WeightSchedule,
                    traj: Trajectory, output_grad) -> np.ndarray:
    """Exact reverse mode: the reverse sweep reading x_n from the stored trajectory."""
    if traj.scheme is not scheme:
        raise ValueError(f"expected a {scheme.name!r} trajectory, got {traj.scheme.name!r}")
    if traj.depth != schedule.depth:
        raise ValueError("trajectory and schedule depths differ")
    return _collect(_sweep(scheme, family, schedule, traj.nodes[-1], output_grad, traj.nodes),
                    schedule)


def backprop_exact(family: ResidualFamily, schedule: WeightSchedule,
                   traj: Trajectory, output_grad) -> np.ndarray:
    """Exact reverse mode over a stored single-stage trajectory."""
    return _backprop_exact(EULER, family, schedule, traj, output_grad)


def backprop_exact_heun(family: ResidualFamily, schedule: WeightSchedule,
                        traj: Trajectory, output_grad) -> np.ndarray:
    """Exact reverse mode over a stored two-stage trajectory."""
    return _backprop_exact(HEUN, family, schedule, traj, output_grad)


def _sweep(scheme: Scheme, family: ResidualFamily, schedule: WeightSchedule,
           xN, output_grad, nodes=None
           ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Reverse sweep yielding (n, grad_theta_n, grad_x_n, x_n), n = N-1..0.

    x_n is the state layer n was linearized at.  With ``nodes`` (a stored
    x_0..x_N) a block's states are a view of them: exact reverse mode.
    Without, they are x~_n, rebuilt by the scheme's reverse step, which
    is the memory-free adjoint.  A stage's carry to theta_{n+1} comes
    from step n, so a block's lowest layer is yielded with the next
    block; theta_N's carry is padded back to theta_{N-1}.
    """
    x = family.check_entry(schedule, xN, "xN")
    g = require_finite(output_grad, "output_grad")
    if g.shape != x.shape:
        raise ValueError(f"output gradient shape {g.shape} does not match "
                         f"the state shape {x.shape}")
    N = schedule.depth
    step, lead = scheme.step, scheme.lead
    f, linearize_block = family._bind(schedule.padded)[:2]
    pending = None
    for hi in range(N, 0, -SWEEP_BLOCK):
        lo = max(hi - SWEEP_BLOCK, 0)
        if nodes is None:
            xs = np.empty((hi - lo,) + x.shape)
            # Layers past a divergence run on until the block's screen.
            with np.errstate(over="ignore", invalid="ignore"):
                for n in range(hi - 1, lo - 1, -1):
                    x = xs[n - lo] = step(f, x, n + lead, n, -N)
            _check_block(xs[::-1], range(hi - 1, lo - 1, -1), "adjoint sweep")
        else:
            xs = nodes[lo:hi]
        own, carry, grads = scheme.backprop(linearize_block, xs, lo, g, N)
        if carry is not None:
            row = own[-1] if hi == N else pending[1]  # theta_hi's row
            row += carry[-1]
            own[1:] += carry[:-1]
        if pending is not None:
            yield pending
        for j in range(hi - lo - 1, 0, -1):
            yield lo + j, own[j], grads[j], xs[j]
        pending, g = (lo, own[0], grads[0], xs[0]), grads[0]
    yield pending


def adjoint_sweep_euler(family: ResidualFamily, schedule: WeightSchedule, xN, output_grad
                        ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Memory-free single-stage sweep yielding (n, grad_theta_n, grad_x_n,
    x~_n): one evaluation per layer and one block linearization per block."""
    yield from _sweep(EULER, family, schedule, xN, output_grad)


def adjoint_sweep_heun(family: ResidualFamily, schedule: WeightSchedule, xN, output_grad
                       ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Memory-free two-stage sweep yielding (n, grad_theta_n, grad_x_n,
    x~_n): two evaluations per layer and two block linearizations per block."""
    yield from _sweep(HEUN, family, schedule, xN, output_grad)


def _collect(sweep, schedule: WeightSchedule) -> np.ndarray:
    """Run a reverse sweep, which yields every layer once and checks its
    inputs before the first, into its (N, param_dim) parameter gradients."""
    param_grads = np.empty((schedule.depth, schedule.param_dim))
    for n, theta_grad, _, _ in sweep:
        param_grads[n] = theta_grad
    return require_finite(param_grads, "param_grads")


def backprop_adjoint_euler(family: ResidualFamily, schedule: WeightSchedule,
                           xN, output_grad) -> np.ndarray:
    """The single-stage memory-free sweep's (N, param_dim) parameter gradients."""
    return _collect(adjoint_sweep_euler(family, schedule, xN, output_grad), schedule)


def backprop_adjoint_heun(family: ResidualFamily, schedule: WeightSchedule,
                          xN, output_grad) -> np.ndarray:
    """The two-stage memory-free sweep's (N, param_dim) parameter gradients."""
    return _collect(adjoint_sweep_heun(family, schedule, xN, output_grad), schedule)


def compare_gradients(exact: np.ndarray, approx: np.ndarray) -> GradientComparison:
    """Per-layer absolute and floored relative gaps between two gradients."""
    if exact.shape != approx.shape:
        raise ValueError("gradients have different shapes")
    diffs = np.linalg.norm(approx - exact, axis=1)
    denoms = np.maximum(np.linalg.norm(exact, axis=1), REL_ERROR_FLOOR)
    rels = diffs / denoms
    return GradientComparison(diffs, rels, float(np.max(diffs)), float(np.max(rels)))
