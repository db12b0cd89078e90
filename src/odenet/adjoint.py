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
the reconstruction and the gradients.  The sweep is a generator that
holds only the current and previous states, the current state gradient,
and one pending parameter contribution; ``backprop_*`` keep only its
parameter gradients, one (param_dim,) row per layer.

Every sweep validates its inputs once on entry (state and schedule
against the family, output gradient against the state's shape), binds
the family's unchecked kernels to the schedule's ``padded`` rows once,
and then calls them at layer indices: ``eval`` for a reverse step and
``linearize`` for a pullback, which returns both [d_x f]^T v and
[d_theta f]^T v from one forward pass at a layer point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import EULER, HEUN, Scheme, Trajectory, _check_divergence
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
    x_0..x_N) it is read there: exact reverse mode.  Without, it is x~_n,
    rebuilt by the scheme's reverse step, which is the memory-free
    adjoint.  A stage's carry to theta_{n+1} comes from step n, so layer
    n+1 is yielded, from one pending gradient and the previous state,
    once step n has run; theta_N's carry is padded back to theta_{N-1}.
    At lead 1 the pullback's f(x~_n, theta_n) is the next reverse step's
    first evaluation, so only the first step evaluates f(x~_N, theta_N).
    """
    x = family.check_entry(schedule, xN, "xN")
    g = require_finite(output_grad, "output_grad")
    if g.shape != x.shape:
        raise ValueError(f"output gradient shape {g.shape} does not match "
                         f"the state shape {x.shape}")
    N = schedule.depth
    step, pullback, lead = scheme.step, scheme.pullback, scheme.lead
    f, lin = family._bind(schedule.padded)[:2]
    f_first = pending = x_prev = None
    for n in range(N - 1, -1, -1):
        if nodes is None:
            x = step(f, x, n + lead, n, -N, f_first)
            _check_divergence(x, n, "adjoint sweep")
        else:
            x = nodes[n]
        f_x, own, carry, g_new = pullback(lin, x, n, n + 1, g, N)
        if lead:
            f_first = f_x
        if carry is not None:
            if n == N - 1:
                own = own + carry
            else:
                pending = pending + carry
        if n < N - 1:
            yield n + 1, pending, g, x_prev
        pending, g, x_prev = own, g_new, x
    yield 0, pending, g, x


def adjoint_sweep_euler(family: ResidualFamily, schedule: WeightSchedule, xN, output_grad
                        ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Memory-free single-stage sweep yielding (n, grad_theta_n, grad_x_n,
    x~_n): one evaluation and one pullback per layer."""
    yield from _sweep(EULER, family, schedule, xN, output_grad)


def adjoint_sweep_heun(family: ResidualFamily, schedule: WeightSchedule, xN, output_grad
                       ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Memory-free two-stage sweep yielding (n, grad_theta_n, grad_x_n,
    x~_n): one evaluation and two linearizations per layer."""
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
