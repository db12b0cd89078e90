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

One reverse reconstruction and one reverse gradient sweep run both
schemes' ``dynamics.Scheme`` steps; exact reverse mode is that sweep
reading x_n from stored nodes instead of rebuilding it.  The sweep is a
generator that holds only the current state, the current state
gradient, and one pending parameter contribution; ``backprop_*`` keep
only its parameter gradients, one (param_dim,) row per layer.

Every sweep validates its inputs once on entry (state and schedule
against the family, output gradient against the state's shape) and
then calls the family's unchecked kernels: ``_eval`` for a reverse step
and ``_linearize`` for a pullback, which returns both [d_x f]^T v and
[d_theta f]^T v from one forward pass at a layer point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .dynamics import EULER, HEUN, Scheme, Trajectory, _check_divergence
from .numerics import require_finite
from .residual_models import ResidualFamily, WeightSchedule

__all__ = [
    "ReconstructionReport",
    "GradientComparison",
    "backprop_exact",
    "backprop_exact_heun",
    "reconstruct_backward_euler",
    "reconstruct_backward_heun",
    "backprop_adjoint_euler",
    "backprop_adjoint_heun",
    "adjoint_sweep_euler",
    "adjoint_sweep_heun",
    "compare_gradients",
]

REL_ERROR_FLOOR = 1e-15


@dataclass
class ReconstructionReport:
    reconstructed: Trajectory
    per_node_error: Optional[np.ndarray]  # (N+1,), None without a reference
    max_error: Optional[float]


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


def _reconstruct(scheme: Scheme, family: ResidualFamily, schedule: WeightSchedule,
                 xN, true_traj: Optional[Trajectory]) -> ReconstructionReport:
    """Rebuild x~_N..x~_0 from the output alone; report errors vs a stored run."""
    x = family.check_entry(schedule, xN, "xN")
    N = schedule.depth
    step, f, rows, lead = scheme.step, family._eval, schedule.padded, scheme.lead
    nodes = np.empty((N + 1,) + x.shape)
    nodes[N] = x
    for n in range(N - 1, -1, -1):
        x = step(f, x, rows[n + lead], rows[n], -N)
        _check_divergence(x, n, "reverse reconstruction")
        nodes[n] = x
    rec = Trajectory(nodes, scheme)
    if true_traj is None:
        return ReconstructionReport(rec, None, None)
    if true_traj.nodes.shape != rec.nodes.shape:
        raise ValueError("reference trajectory shape does not match")
    axes = tuple(range(1, rec.nodes.ndim))
    errs = np.sqrt(np.sum((rec.nodes - true_traj.nodes) ** 2, axis=axes))
    return ReconstructionReport(rec, errs, float(np.max(errs)))


def reconstruct_backward_euler(family: ResidualFamily, schedule: WeightSchedule,
                               xN, true_traj: Optional[Trajectory] = None
                               ) -> ReconstructionReport:
    """Single-stage reverse sweep from the output alone."""
    return _reconstruct(EULER, family, schedule, xN, true_traj)


def reconstruct_backward_heun(family: ResidualFamily, schedule: WeightSchedule,
                              xN, true_traj: Optional[Trajectory] = None
                              ) -> ReconstructionReport:
    """Two-stage reverse sweep from the output alone."""
    return _reconstruct(HEUN, family, schedule, xN, true_traj)


def _sweep(scheme: Scheme, family: ResidualFamily, schedule: WeightSchedule,
           xN, output_grad, nodes=None) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Reverse sweep yielding (n, grad_theta_n, grad_x_n), n = N-1..0.

    With ``nodes`` (a stored x_0..x_N) it reads x_n there: exact reverse
    mode.  Without, it rebuilds x~_n by the scheme's reverse step, which
    is the memory-free adjoint.  A stage's carry to theta_{n+1} comes
    from step n, so layer n+1 is yielded, from one pending gradient, once
    step n has run; theta_N's carry is padded back to theta_{N-1}.  At
    lead 1 the pullback's f(x~_n, theta_n) is the next reverse step's
    first evaluation, so only the first step evaluates f(x~_N, theta_N).
    """
    x = family.check_entry(schedule, xN, "xN")
    g = require_finite(output_grad, "output_grad")
    if g.shape != x.shape:
        raise ValueError(f"output gradient shape {g.shape} does not match "
                         f"the state shape {x.shape}")
    N = schedule.depth
    step, pullback, lead = scheme.step, scheme.pullback, scheme.lead
    f, lin, rows = family._eval, family._linearize, schedule.padded
    f_first = pending = None
    for n in range(N - 1, -1, -1):
        if nodes is None:
            x = step(f, x, rows[n + lead], rows[n], -N, f_first)
            _check_divergence(x, n, "adjoint sweep")
        else:
            x = nodes[n]
        f_x, own, carry, g_new = pullback(lin, x, rows[n], rows[n + 1], g, N)
        if lead:
            f_first = f_x
        if carry is not None:
            if n == N - 1:
                own = own + carry
            else:
                pending = pending + carry
        if n < N - 1:
            yield n + 1, pending, g
        pending, g = own, g_new
    yield 0, pending, g


def adjoint_sweep_euler(family: ResidualFamily, schedule: WeightSchedule,
                        xN, output_grad) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Memory-free single-stage sweep: one evaluation and one pullback per layer."""
    yield from _sweep(EULER, family, schedule, xN, output_grad)


def adjoint_sweep_heun(family: ResidualFamily, schedule: WeightSchedule,
                       xN, output_grad) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Memory-free two-stage sweep: one evaluation and two linearizations per layer."""
    yield from _sweep(HEUN, family, schedule, xN, output_grad)


def _collect(sweep, schedule: WeightSchedule) -> np.ndarray:
    """Run a reverse sweep, which yields every layer once and checks its
    inputs before the first, into its (N, param_dim) parameter gradients."""
    param_grads = np.empty((schedule.depth, schedule.param_dim))
    for n, theta_grad, _ in sweep:
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
