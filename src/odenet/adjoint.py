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

Every sweep validates its inputs once on entry (state and schedule
against the family, output gradient against the state's shape) and
then calls the family's unchecked kernels: ``_eval`` for a reverse step
and ``_linearize`` for a pullback, which returns both [d_x f]^T v and
[d_theta f]^T v from one forward pass at a layer point.
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


def _check_output_grad(output_grad, state) -> np.ndarray:
    g = require_finite(output_grad, "output_grad")
    if g.shape != state.shape:
        raise ValueError(f"output gradient shape {g.shape} does not match "
                         f"the state shape {state.shape}")
    return g


def backprop_exact(family: ResidualFamily, schedule: WeightSchedule,
                   traj: Trajectory, output_grad) -> GradientSet:
    """Exact reverse mode over a stored single-stage trajectory.

    grad_theta_n = (1/N) [d_theta f(x_n, theta_n)]^T grad_{x_{n+1}}
    grad_x_n     = [I + (1/N) d_x f(x_n, theta_n)]^T grad_{x_{n+1}}

    Both come from one pullback of f at (x_n, theta_n).
    """
    if traj.scheme != "euler":
        raise ValueError("backprop_exact expects a single-stage trajectory")
    if traj.depth != schedule.depth:
        raise ValueError("trajectory and schedule depths differ")
    N = schedule.depth
    g = _check_output_grad(output_grad, family.check_entry(schedule, traj.nodes[N], "xN"))
    param_grads = np.empty((N, schedule.param_dim))
    state_grads = np.empty((N + 1,) + g.shape)
    state_grads[N] = g
    for n in range(N - 1, -1, -1):
        d_x, d_theta = family._linearize(traj.nodes[n], schedule[n])[1](g)
        param_grads[n] = d_theta / N
        g = g + d_x / N
        state_grads[n] = g
    return GradientSet(param_grads, state_grads)


def _heun_param_steps(pull_x, pull_y, g_next, N):
    """Two contributions the step n = (x_n -> x_{n+1}) sends backwards.

    Differentiating the two-stage update gives, for v = grad_{x_{n+1}},

      to theta_n:      (1/2N) [d_theta f(x_n, theta_n)]^T (v + (1/N) [d_x f(y_n, theta_next)]^T v)
      to theta_{n+1}:  (1/2N) [d_theta f(y_n, theta_next)]^T v

    and the state gradient picks up

      grad_{x_n} = v + (1/2N) ( [d_x f(x_n)]^T v + (I + (1/N) d_x f(x_n))^T [d_x f(y_n)]^T v ).

    ``pull_x`` and ``pull_y`` are the pullbacks of f(., theta_n) at x_n
    and of f(., theta_next) at the stage point y_n = x_n + f(x_n, theta_n)/N.
    By linearity in the cotangent, one pullback of each at v and at
    v + u/N, u = [d_x f(y_n)]^T v, gives all three terms.
    """
    u, carry = pull_y(g_next)
    s, own = pull_x(g_next + u / N)
    return own / (2.0 * N), carry / (2.0 * N), g_next + (s + u) / (2.0 * N)


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
    g = _check_output_grad(output_grad, family.check_entry(schedule, traj.nodes[N], "xN"))
    param_grads = np.zeros((N, schedule.param_dim))
    state_grads = np.empty((N + 1,) + g.shape)
    state_grads[N] = g
    for n in range(N - 1, -1, -1):
        own, carry, g = _heun_param_steps(
            family._linearize(traj.nodes[n], schedule[n])[1],
            family._linearize(traj.midpoints[n], schedule.padded_row(n + 1))[1], g, N)
        param_grads[n] += own
        param_grads[min(n + 1, N - 1)] += carry
        state_grads[n] = g
    return GradientSet(param_grads, state_grads)


def reconstruct_backward_euler(family: ResidualFamily, schedule: WeightSchedule,
                               xN, true_traj: Optional[Trajectory] = None
                               ) -> ReconstructionReport:
    """Rebuild x~_N..x~_0 from the output alone; report errors vs a stored run."""
    x = family.check_entry(schedule, xN, "xN")
    N = schedule.depth
    nodes = np.empty((N + 1,) + x.shape)
    nodes[N] = x
    for n in range(N - 1, -1, -1):
        x = x - family._eval(x, schedule[n]) / N
        _check_divergence(x, n, "reverse reconstruction")
        nodes[n] = x
    rec = Trajectory(N, nodes, "euler")
    return _report(rec, true_traj)


def reconstruct_backward_heun(family: ResidualFamily, schedule: WeightSchedule,
                              xN, true_traj: Optional[Trajectory] = None
                              ) -> ReconstructionReport:
    """Two-stage reverse sweep; records the reverse stage points y~_n."""
    x = family.check_entry(schedule, xN, "xN")
    N = schedule.depth
    nodes = np.empty((N + 1,) + x.shape)
    mids = np.empty((N,) + x.shape)
    nodes[N] = x
    for n in range(N - 1, -1, -1):
        f_up = family._eval(x, schedule.padded_row(n + 1))
        y = x - f_up / N
        mids[n] = y
        x = x - (f_up + family._eval(y, schedule[n])) / (2.0 * N)
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
    forward trajectory is never materialized.  Each layer takes one
    evaluation (the reverse step) and one pullback.
    """
    x = family.check_entry(schedule, xN, "xN")
    g = _check_output_grad(output_grad, x)
    N = schedule.depth
    for n in range(N - 1, -1, -1):
        theta = schedule[n]
        x = x - family._eval(x, theta) / N
        _check_divergence(x, n, "adjoint sweep")
        d_x, d_theta = family._linearize(x, theta)[1](g)
        g = g + d_x / N
        yield n, d_theta / N, g


def adjoint_sweep_heun(family: ResidualFamily, schedule: WeightSchedule,
                       xN, output_grad) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Memory-free two-stage sweep yielding (n, grad_theta_n, grad_x_n).

    A layer's gradient needs contributions from reverse steps n and
    n-1, so one parameter-sized buffer is carried between iterations;
    layer n's total is final once step n-1 has run.  Each layer takes
    one evaluation and two linearizations: f(x~_n, theta_n) from the
    linearization at x~_n is the next reverse step's f(x~_{n+1}, theta_{n+1}).
    """
    x = family.check_entry(schedule, xN, "xN")
    g = _check_output_grad(output_grad, x)
    N = schedule.depth
    f_up = family._eval(x, schedule.padded_row(N))
    pending = None  # accumulating grad for theta_{n+1} during step n
    for n in range(N - 1, -1, -1):
        theta = schedule[n]
        y_rev = x - f_up / N
        x = x - (f_up + family._eval(y_rev, theta)) / (2.0 * N)
        _check_divergence(x, n, "adjoint sweep")
        f_up, pull_x = family._linearize(x, theta)
        pull_y = family._linearize(x + f_up / N, schedule.padded_row(n + 1))[1]
        own, carry, g_new = _heun_param_steps(pull_x, pull_y, g, N)
        if n == N - 1:
            # carry targets theta_N, which the padding rule folds back.
            pending = own + carry
        else:
            yield n + 1, pending + carry, g
            pending = own
        g = g_new
    yield 0, pending, g


def _collect_sweep(sweep, family, schedule, xN, output_grad) -> GradientSet:
    """Run a memory-free sweep, which yields every layer once and checks
    its inputs before the first, into a GradientSet."""
    N = schedule.depth
    param_grads = np.empty((N, schedule.param_dim))
    state_grads = np.empty((N + 1,) + np.shape(output_grad))
    for n, theta_grad, g in sweep(family, schedule, xN, output_grad):
        param_grads[n] = theta_grad
        state_grads[n] = g
    state_grads[N] = output_grad
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
