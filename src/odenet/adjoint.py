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
reconstructed states.  A step of order p followed by its step at -h is
the identity plus O(h^{p+1}) for odd p and O(h^{p+2}) for even p, as a
method and its adjoint differ by (-1)^p in the leading error term
(Hairer, Lubich & Wanner, Geometric Numerical Integration, II.3).  Over
N = 1/h layers of a smooth schedule the reconstruction error is thus
O(N^-1) single-stage and O(N^-3) two-stage; O(1) jumps between layers,
as on ``alternating``, break the cancellation.  Observed, not derived:
the two-stage gradient error on ``lipschitz_profile`` (N = 16..1024)
decays near N^-4, with slopes -3.966 to -3.863 over seeds 0-15.

One reverse sweep, ``_sweep``, runs both schemes' ``dynamics.Scheme``
steps and yields each block of layers' gradients with the states it
linearized them at, so one pass gives both the reconstruction and the
gradients; ``backprop_*`` store each block's parameter rows with one
slice assignment, and ``adjoint_sweep_*`` yield the blocks as they come.
It walks the layers in blocks of ``SWEEP_BLOCK``, from the top:
a block's states are a view of the stored nodes, or a block buffer the
reverse step writes in place and ``dynamics._check_block`` screens once,
and the scheme's ``backprop`` linearizes the block in one stacked call
(two for the two-stage scheme), builds every layer's cotangent
transition matrix from the stacked state Jacobians, and applies them
one product per layer (one cumulative product for a scalar state).  So
a sweep holds one or two blocks of states, activations, Jacobians and
state gradients, O(SWEEP_BLOCK (d^2 + h) B) for a (d, B) state and h
hidden units, whatever the depth N; ``backprop_*`` keep only its
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
    """Reverse sweep yielding one (lo, own, grads, xs) per block of layers
    lo..lo + J - 1, from the top block down: row j of each array belongs
    to layer lo + j, own[j] being grad_theta, grads[j] grad_x and xs[j]
    the state the layer was linearized at.

    With ``nodes`` (a stored x_0..x_N) a block's states are a view of
    them: exact reverse mode.  Without, they are x~_n, rebuilt by the
    scheme's reverse step, which is the memory-free adjoint.  A stage's
    carry to theta_{n+1} comes from step n, so each block is yielded
    once the block below it has added its carry to own[0]; theta_N's
    carry is padded back to theta_{N-1}.
    """
    x = family.check_entry(schedule, xN, "xN")
    g = require_finite(output_grad, "output_grad")
    if g.shape != x.shape:
        raise ValueError(f"output gradient shape {g.shape} does not match "
                         f"the state shape {x.shape}")
    N = schedule.depth
    lead = scheme.lead
    f, linearize_block = family._bind(schedule.padded)[:2]
    step = scheme.stepper(f, -N, x.shape)
    pending = None
    for hi in range(N, 0, -SWEEP_BLOCK):
        lo = max(hi - SWEEP_BLOCK, 0)
        if nodes is None:
            xs = np.empty((hi - lo,) + x.shape)
            # Layers past a divergence run on until the block's screen.
            with np.errstate(over="ignore", invalid="ignore"):
                for n in range(hi - 1, lo - 1, -1):
                    x = step(x, n + lead, n, xs[n - lo])
            _check_block(xs[::-1], range(hi - 1, lo - 1, -1), "adjoint sweep")
        else:
            xs = nodes[lo:hi]
        own, carry, grads = scheme.backprop(linearize_block, xs, lo, g, N)
        if carry is not None:
            row = own[-1] if hi == N else pending[1][0]  # theta_hi's row
            row += carry[-1]
            own[1:] += carry[:-1]
        if pending is not None:
            yield pending
        pending, g = (lo, own, grads[:-1], xs), grads[0]
    yield pending


def adjoint_sweep_euler(family: ResidualFamily, schedule: WeightSchedule, xN, output_grad
                        ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The memory-free single-stage ``_sweep``: its (lo, own, grads, xs)
    blocks, from one evaluation per layer and one linearization per block."""
    yield from _sweep(EULER, family, schedule, xN, output_grad)


def adjoint_sweep_heun(family: ResidualFamily, schedule: WeightSchedule, xN, output_grad
                       ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The memory-free two-stage ``_sweep``: its (lo, own, grads, xs) blocks,
    from two evaluations per layer and two linearizations per block."""
    yield from _sweep(HEUN, family, schedule, xN, output_grad)


def _collect(blocks, schedule: WeightSchedule) -> np.ndarray:
    """Run a reverse sweep, which yields every block once and checks its
    inputs before the first, into its (N, param_dim) parameter gradients."""
    param_grads = np.empty((schedule.depth, schedule.param_dim))
    for lo, own, _, _ in blocks:
        param_grads[lo:lo + len(own)] = own
    return require_finite(param_grads, "param_grads")


def backprop_adjoint_euler(family: ResidualFamily, schedule: WeightSchedule,
                           xN, output_grad) -> np.ndarray:
    """The single-stage memory-free sweep's (N, param_dim) parameter gradients."""
    return _collect(_sweep(EULER, family, schedule, xN, output_grad), schedule)


def backprop_adjoint_heun(family: ResidualFamily, schedule: WeightSchedule,
                          xN, output_grad) -> np.ndarray:
    """The two-stage memory-free sweep's (N, param_dim) parameter gradients."""
    return _collect(_sweep(HEUN, family, schedule, xN, output_grad), schedule)


def compare_gradients(exact: np.ndarray, approx: np.ndarray) -> GradientComparison:
    """The largest per-layer absolute and floored relative gaps between two gradients."""
    if exact.shape != approx.shape:
        raise ValueError("gradients have different shapes")
    diffs = np.linalg.norm(approx - exact, axis=1)
    denoms = np.maximum(np.linalg.norm(exact, axis=1), REL_ERROR_FLOOR)
    rels = diffs / denoms
    return GradientComparison(float(np.max(diffs)), float(np.max(rels)))
