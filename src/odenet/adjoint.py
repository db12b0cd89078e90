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

The memory-free sweeps are written as generators that hold only the
current state, the current state gradient, and (for the two-stage
scheme) one pending parameter contribution.  Nothing proportional to N
is kept alive inside a sweep; collecting the per-layer results into a
GradientSet is the caller's choice.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .dynamics import Trajectory, _check_divergence
from .numerics import require_finite
from .residual_models import ResidualFamily, WeightSchedule

__all__ = [
    "GradientSet",
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
    "comparison_to_csv",
]

REL_ERROR_FLOOR = 1e-15


@dataclass
class GradientSet:
    """Per-layer parameter gradients and per-node state gradients."""

    param_grads: np.ndarray   # (N, param_dim)
    state_grads: np.ndarray   # (N+1, d)

    @property
    def input_grad(self) -> np.ndarray:
        return self.state_grads[0]

    def __post_init__(self):
        if self.state_grads.ndim == 3:
            # Summed over the batch, like the parameter VJPs of a summed loss.
            self.state_grads = self.state_grads.sum(axis=2)
        require_finite(self.param_grads, "param_grads")
        require_finite(self.state_grads, "state_grads")
        if self.state_grads.shape[0] != self.param_grads.shape[0] + 1:
            raise ValueError("state_grads must hold one entry per node")


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


def _check_output_grad(family, output_grad):
    g = require_finite(output_grad, "output_grad")
    if g.shape[0] != family.state_dim:
        raise ValueError("output gradient dimension does not match the family")
    return g.astype(float)


def backprop_exact(family: ResidualFamily, schedule: WeightSchedule,
                   traj: Trajectory, output_grad) -> GradientSet:
    """Exact reverse mode over a stored single-stage trajectory.

    grad_theta_n = (1/N) [d_theta f(x_n, theta_n)]^T grad_{x_{n+1}}
    grad_x_n     = [I + (1/N) d_x f(x_n, theta_n)]^T grad_{x_{n+1}}
    """
    if traj.scheme != "euler":
        raise ValueError("backprop_exact expects a single-stage trajectory")
    if traj.depth != schedule.depth:
        raise ValueError("trajectory and schedule depths differ")
    N = schedule.depth
    g = _check_output_grad(family, output_grad)
    param_grads = np.empty((N, schedule.param_dim))
    state_grads = np.empty((N + 1,) + g.shape)
    state_grads[N] = g
    for n in range(N - 1, -1, -1):
        x = traj.nodes[n]
        param_grads[n] = family.vjp_params(x, schedule[n], g) / N
        g = g + family.vjp_state(x, schedule[n], g) / N
        state_grads[n] = g
    return GradientSet(param_grads, state_grads)


def _heun_param_steps(family, theta_n, theta_next, x_n, y_n, g_next, N):
    """Two contributions the step n = (x_n -> x_{n+1}) sends backwards.

    Differentiating the two-stage update gives, for v = grad_{x_{n+1}},

      to theta_n:      (1/2N) [d_theta f(x_n, theta_n)]^T (v + (1/N) [d_x f(y_n, theta_next)]^T v)
      to theta_{n+1}:  (1/2N) [d_theta f(y_n, theta_next)]^T v

    and the state gradient picks up

      grad_{x_n} = v + (1/2N) ( [d_x f(x_n)]^T v + (I + (1/N) d_x f(x_n))^T [d_x f(y_n)]^T v ).

    The stage point y_n = x_n + f(x_n, theta_n)/N comes from the stored
    trajectory in the exact path and is recomputed from the
    reconstructed state in the memory-free path.
    """
    u = family.vjp_state(y_n, theta_next, g_next)         # [d_x f(y)]^T v
    own = family.vjp_params(x_n, theta_n, g_next + u / N) / (2.0 * N)
    carry = family.vjp_params(y_n, theta_next, g_next) / (2.0 * N)
    g_prev = g_next + (family.vjp_state(x_n, theta_n, g_next) + u
                       + family.vjp_state(x_n, theta_n, u) / N) / (2.0 * N)
    return own, carry, g_prev


def backprop_exact_heun(family: ResidualFamily, schedule: WeightSchedule,
                        traj: Trajectory, output_grad) -> GradientSet:
    """Exact reverse mode over a stored two-stage trajectory.

    Because theta_{n+1} enters both step n (through the stage point)
    and step n+1, each layer's gradient is assembled from two adjacent
    steps; the padding rule routes the final stage's contribution back
    to theta_{N-1}.
    """
    if traj.scheme != "heun" or traj.midpoints is None:
        raise ValueError("backprop_exact_heun expects a two-stage trajectory with midpoints")
    if traj.depth != schedule.depth:
        raise ValueError("trajectory and schedule depths differ")
    N = schedule.depth
    g = _check_output_grad(family, output_grad)
    param_grads = np.zeros((N, schedule.param_dim))
    state_grads = np.empty((N + 1,) + g.shape)
    state_grads[N] = g
    for n in range(N - 1, -1, -1):
        own, carry, g = _heun_param_steps(
            family, schedule[n], schedule.padded_row(n + 1),
            traj.nodes[n], traj.midpoints[n], g, N)
        param_grads[n] += own
        param_grads[min(n + 1, N - 1)] += carry
        state_grads[n] = g
    return GradientSet(param_grads, state_grads)


def reconstruct_backward_euler(family: ResidualFamily, schedule: WeightSchedule,
                               xN, true_traj: Optional[Trajectory] = None
                               ) -> ReconstructionReport:
    """Rebuild x~_N..x~_0 from the output alone; report errors vs a stored run."""
    x = require_finite(xN, "xN").astype(float)
    N = schedule.depth
    nodes = np.empty((N + 1,) + x.shape)
    nodes[N] = x
    for n in range(N - 1, -1, -1):
        x = x - family.eval(x, schedule[n]) / N
        _check_divergence(x, n, "reverse reconstruction")
        nodes[n] = x
    rec = Trajectory(N, nodes, "euler")
    return _report(rec, true_traj)


def reconstruct_backward_heun(family: ResidualFamily, schedule: WeightSchedule,
                              xN, true_traj: Optional[Trajectory] = None
                              ) -> ReconstructionReport:
    """Two-stage reverse sweep; records the reverse stage points y~_n."""
    x = require_finite(xN, "xN").astype(float)
    N = schedule.depth
    nodes = np.empty((N + 1,) + x.shape)
    mids = np.empty((N,) + x.shape)
    nodes[N] = x
    for n in range(N - 1, -1, -1):
        f_up = family.eval(x, schedule.padded_row(n + 1))
        y = x - f_up / N
        mids[n] = y
        x = x - (f_up + family.eval(y, schedule[n])) / (2.0 * N)
        _check_divergence(x, n, "reverse reconstruction")
        nodes[n] = x
    rec = Trajectory(N, nodes, "heun", midpoints=mids)
    return _report(rec, true_traj)


def _report(rec: Trajectory, true_traj: Optional[Trajectory]) -> ReconstructionReport:
    if true_traj is None:
        return ReconstructionReport(rec, None, None)
    if true_traj.nodes.shape != rec.nodes.shape:
        raise ValueError("reference trajectory shape does not match")
    axes = tuple(range(1, rec.nodes.ndim))
    errs = np.sqrt(np.sum((rec.nodes - true_traj.nodes) ** 2, axis=axes))
    return ReconstructionReport(rec, errs, float(np.max(errs)))


def adjoint_sweep_euler(family: ResidualFamily, schedule: WeightSchedule,
                        xN, output_grad) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Memory-free single-stage sweep.

    Yields (n, grad_theta_n, grad_x_n) from layer N-1 down to 0.  Live
    state is one reconstructed activation and one state gradient; the
    forward trajectory is never materialized.
    """
    x = require_finite(xN, "xN").astype(float)
    g = _check_output_grad(family, output_grad)
    N = schedule.depth
    for n in range(N - 1, -1, -1):
        x = x - family.eval(x, schedule[n]) / N
        _check_divergence(x, n, "adjoint sweep")
        theta_grad = family.vjp_params(x, schedule[n], g) / N
        g = g + family.vjp_state(x, schedule[n], g) / N
        yield n, theta_grad, g


def adjoint_sweep_heun(family: ResidualFamily, schedule: WeightSchedule,
                       xN, output_grad) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Memory-free two-stage sweep yielding (n, grad_theta_n, grad_x_n).

    A layer's gradient needs contributions from reverse steps n and
    n-1, so one parameter-sized buffer is carried between iterations;
    layer n's total is final once step n-1 has run.
    """
    x = require_finite(xN, "xN").astype(float)
    g = _check_output_grad(family, output_grad)
    N = schedule.depth
    pending = None  # accumulating grad for theta_{n+1} during step n
    for n in range(N - 1, -1, -1):
        f_up = family.eval(x, schedule.padded_row(n + 1))
        y_rev = x - f_up / N
        x = x - (f_up + family.eval(y_rev, schedule[n])) / (2.0 * N)
        _check_divergence(x, n, "adjoint sweep")
        y_fwd = x + family.eval(x, schedule[n]) / N
        own, carry, g_new = _heun_param_steps(
            family, schedule[n], schedule.padded_row(n + 1), x, y_fwd, g, N)
        if n == N - 1:
            # carry targets theta_N, which the padding rule folds back.
            pending = own + carry
        else:
            yield n + 1, pending + carry, g
            pending = own
        g = g_new
    yield 0, pending, g


def _collect_sweep(sweep, family, schedule, xN, output_grad) -> GradientSet:
    """Run a memory-free sweep, which yields every layer once, into a GradientSet."""
    N = schedule.depth
    param_grads = np.empty((N, schedule.param_dim))
    g0 = _check_output_grad(family, output_grad)
    state_grads = np.empty((N + 1,) + g0.shape)
    state_grads[N] = g0
    for n, theta_grad, g in sweep(family, schedule, xN, output_grad):
        param_grads[n] = theta_grad
        state_grads[n] = g
    return GradientSet(param_grads, state_grads)


def backprop_adjoint_euler(family: ResidualFamily, schedule: WeightSchedule,
                           xN, output_grad) -> GradientSet:
    """Collect the single-stage memory-free sweep into a GradientSet."""
    return _collect_sweep(adjoint_sweep_euler, family, schedule, xN, output_grad)


def backprop_adjoint_heun(family: ResidualFamily, schedule: WeightSchedule,
                          xN, output_grad) -> GradientSet:
    """Collect the two-stage memory-free sweep into a GradientSet."""
    return _collect_sweep(adjoint_sweep_heun, family, schedule, xN, output_grad)


def compare_gradients(exact: GradientSet, approx: GradientSet) -> GradientComparison:
    """Per-layer absolute and floored relative gaps between gradient sets."""
    if exact.param_grads.shape != approx.param_grads.shape:
        raise ValueError("gradient sets have different shapes")
    diffs = np.linalg.norm(approx.param_grads - exact.param_grads, axis=1)
    denoms = np.maximum(np.linalg.norm(exact.param_grads, axis=1), REL_ERROR_FLOOR)
    rels = diffs / denoms
    return GradientComparison(diffs, rels, float(np.max(diffs)), float(np.max(rels)))


def comparison_to_csv(cmp: GradientComparison, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "abs_err", "rel_err"])
        for n, (a, r) in enumerate(zip(cmp.per_layer_abs, cmp.per_layer_rel)):
            writer.writerow([n, f"{a:.17g}", f"{r:.17g}"])
        writer.writerow(["max", f"{cmp.max_abs:.17g}", f"{cmp.max_rel:.17g}"])
