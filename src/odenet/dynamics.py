"""Forward residual chains, interpolating vector fields, and a
high-accuracy ODE oracle.

A depth-N chain takes N steps of size 1/N.  The single-stage update is

    x_{n+1} = x_n + (1/N) f(x_n, theta_n),

and the two-stage (midpoint-corrected) update is

    y_n     = x_n + (1/N) f(x_n, theta_n)
    x_{n+1} = x_n + (1/2N) (f(x_n, theta_n) + f(y_n, theta_{n+1})),

where theta_N falls back to theta_{N-1} (see WeightSchedule.padded).
Each update is one ``Scheme`` (EULER, HEUN) with its reverse-mode
derivative over a block of layers, one cotangent transition matrix per
layer; every chain and reverse sweep runs
one of them, SWEEP_BLOCK layers at a time, and screens each block of
states for divergence once (``_check_block``): the error names the
first layer in step order whose state fails the per-state rule.
Interpolating fields turn a schedule into a continuous-time right-hand
side, given per layer interval, that agrees with f(., theta_n) at both
ends of its intervals: fraction 0 of interval n and fraction 1 of
interval n - 1, the property all error measurements below are anchored on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import _rk4_stepper, require_finite
from .residual_models import ResidualFamily, WeightSchedule, _jac_t_dot

__all__ = [
    "Trajectory",
    "VectorField",
    "DivergenceError",
    "forward_euler_chain",
    "forward_heun_chain",
    "interpolate",
    "solve_ode_oracle",
    "approximation_error",
    "approximation_bound",
]

# A state this large has left the regime where any of the error bounds
# mean anything; fail fast with the layer index instead of overflowing.
DIVERGENCE_THRESHOLD = 1e12
# Layers per block of a chain or reverse sweep: one divergence screen and
# one stacked linearization each.  It bounds a sweep's working memory,
# whatever the depth.  At 2 or more, the unstored chain's reused block
# buffer never steps a block's first state (slot 0) from itself: its
# input is the previous block's last slot.
SWEEP_BLOCK = 16


class DivergenceError(RuntimeError):
    """A chain or ODE solve produced a state above the divergence threshold."""

    def __init__(self, message: str, layer: int):
        super().__init__(message)
        self.layer = layer


@dataclass
class VectorField:
    """Right-hand side of dx/ds = phi(x, s) on s in [0, 1], given per layer
    interval at bound stage fractions: piece(alphas) -> at(n) -> g(x, m)
    = phi(x, (n + alphas[m]) / N), one unchecked kernel per interval, its
    inputs checked when the field was built.  ``piece`` does the work all
    intervals share once, ``at`` that of interval n; a kernel is valid
    until the next ``at`` call, since the mlp's ``at`` refills shared
    buffers and returns the same kernel.  The oracle uses ``piece`` alone.
    """

    piece: Callable[[list], Callable[[int], Callable]]
    depth: int = 1   # grid resolution the field is piecewise-defined on
    state_dim: int = 1
    # Never set or called in src: bench/tracing.py's wrap_oracle reads and
    # replaces it (dataclasses.replace); ROADMAP item 1 deletes it.
    eval: Optional[Callable] = None


def _check_divergence(x, layer: int, context: str):
    # NaN fails the comparison; inf or an overflowing square gives inf.
    if not math.sqrt(float(np.vdot(x, x))) <= DIVERGENCE_THRESHOLD:
        raise DivergenceError(f"{context} diverged at layer {layer}", layer)


def _check_block(states, layers, context: str):
    """``_check_divergence`` over a stack of states, states[j] reached at
    layer layers[j] in step order, in one reduction while none is near
    the threshold.

    max|x| <= DIVERGENCE_THRESHOLD / (2 sqrt(size)) bounds every state's
    norm by half the threshold, so the per-state rule passes each of
    them whatever its rounding; NaN fails the comparison.  Any other
    stack is checked state by state, so the layer and message are the
    per-state rule's.
    """
    if not np.abs(states).max() <= DIVERGENCE_THRESHOLD / (2.0 * math.sqrt(states[0].size)):
        for x, layer in zip(states, layers):
            _check_divergence(x, layer, context)


def _euler_step(f, x, a, b, div, out):
    out = f(x, a, out)
    out /= div
    out += x
    return out


def _heun_step(f, x, a, b, div, out):
    f_a = f(x, a)
    y = f_a / div
    y += x
    out = f(y, b, out)
    out += f_a
    out /= 2.0 * div
    out += x
    return out


def _eye_plus(m) -> np.ndarray:
    """I + m for a (J, d, d) stack of matrices or a (J, d, d, B) stack of
    one matrix per input, added in place to m's contiguous copy (m
    itself when it is contiguous): every (d + 1)-th entry of a flattened
    matrix is on its diagonal."""
    m, d = np.ascontiguousarray(m), m.shape[1]
    m.reshape((len(m), d * d) + m.shape[3:])[:, ::d + 1] += 1.0
    return m


def _transitions(ms, grads):
    """grads[j] = ms[j] grads[j + 1] for j = J - 1..0, from grads[J]: one
    product per layer, and a scalar state's block as one cumulative
    product over [g, m_{J-1}, ..., m_0], g first so that the factors
    multiply in the recursion's order."""
    if ms.shape[1] == 1:
        grads[:-1] = ms.reshape(grads[:-1].shape)
        np.cumprod(grads[::-1], axis=0, out=grads[::-1])
    else:
        for j in range(len(ms) - 1, -1, -1):
            _jac_t_dot(ms[j], grads[j + 1], out=grads[j])


def _euler_backprop(linearize_block, xs, lo, g, N):
    """Steps lo..lo + J - 1 in reverse, J = len(xs), from g = grad_{x_{lo+J}}:

      grad_{x_n}     = g_n = (I + (1/N) [d_x f(x_n, theta_n)]^T) g_{n+1}
      grad_{theta_n} = (1/N) [d_theta f(x_n, theta_n)]^T g_{n+1},

    the first as one transition matrix per layer, built for the block at
    once, the second for the block in one stacked parameter pullback at
    the cotangents g_{lo+1..lo+J}."""
    _, jac_t, vjp_theta = linearize_block(xs, lo)
    grads = np.empty((len(xs) + 1,) + g.shape)
    grads[-1] = g
    _transitions(_eye_plus(jac_t / N), grads)
    return vjp_theta(grads[1:]) / N, None, grads


def _heun_backprop(linearize_block, xs, lo, g, N):
    """The two contributions each step n = (x_n -> x_{n+1}) of a block
    sends backwards.  Differentiating the two-stage update gives, for
    g = grad_{x_{n+1}}, J_x = d_x f(x_n, theta_n), J_y = d_x f(y_n, theta_{n+1})
    and v = (I + J_y^T / N) g,

      to theta_n:      (1/2N) [d_theta f(x_n, theta_n)]^T v
      to theta_{n+1}:  (1/2N) [d_theta f(y_n, theta_{n+1})]^T g
      grad_{x_n}     = [I + (J_x^T (I + J_y^T / N) + J_y^T) / (2N)] g.

    One block linearization of f(., theta_n) at the x_n, and one of
    f(., theta_{n+1}) at the stage points y_n = x_n + f(x_n, theta_n)/N
    built from its values (bit-equal to the forward stages), give all
    three terms: the transition matrices and the v for the whole block
    in stacked products, each parameter half in one stacked pullback.
    """
    f_x, jac_x, vjp_theta = linearize_block(xs, lo)
    _, jac_y, vjp_theta_y = linearize_block(xs + f_x / N, lo + 1)
    stage = _eye_plus(jac_y / N)
    grads = np.empty((len(xs) + 1,) + g.shape)
    grads[-1] = g
    _transitions(_eye_plus((np.einsum("jki...,jil...->jkl...", jac_x, stage) + jac_y)
                           / (2.0 * N)), grads)
    cotangents = np.einsum("jki...,ji...->jk...", stage, grads[1:])
    return vjp_theta(cotangents) / (2.0 * N), vjp_theta_y(grads[1:]) / (2.0 * N), grads


@dataclass(frozen=True)
class Scheme:
    """One integration scheme, defined once for every chain and sweep.

    ``f`` and ``linearize_block`` are a family's kernels bound to the
    schedule's ``padded`` rows (``ResidualFamily._bind``); a, b and lo
    are layer indices into those rows.  ``step(f, x, a, b, div, out)``
    steps by 1/div, forward at div = N from layer a = n to b = n + 1, in
    reverse at div = -N from a = n + lead to b = n: it writes x_next into
    ``out``, which must not overlap x, and returns it.  f(x, n, out)
    writes into ``out`` too; without one it returns a fresh array.

    ``backprop(linearize_block, xs, lo, g, N) -> (own, carry, grads)``
    differentiates forward steps lo..lo + J - 1 at the states xs (J of
    them) from g = grad_{x_{lo+J}}: row j of ``own`` goes to
    theta_{lo+j}, row j of ``carry`` (None without a stage) to
    theta_{lo+j+1}, and grads[j] is grad_{x_{lo+j}}, grads[J] being g.
    It states the scheme's reverse-mode algebra once, as one transition
    matrix per layer, grads[j] = M_j grads[j + 1], built for the block
    in a few stacked calls from the transposed state Jacobians that
    ``linearize_block`` returns (``_transitions`` applies them).
    """

    name: str
    lead: int
    step: Callable
    backprop: Callable


EULER = Scheme("euler", 0, _euler_step, _euler_backprop)
HEUN = Scheme("heun", 1, _heun_step, _heun_backprop)


@dataclass
class Trajectory:
    """States x_0..x_N of a chain and the scheme that ran it."""

    nodes: np.ndarray                 # (N+1, d) or (N+1, d, B)
    scheme: Scheme

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")

    @property
    def depth(self) -> int:
        return self.nodes.shape[0] - 1


def _forward(scheme: Scheme, family: ResidualFamily, schedule: WeightSchedule,
             x0, store: bool = True):
    """Run the chain: its Trajectory if ``store``, else only x_N.

    It steps SWEEP_BLOCK layers at a time, into the stored nodes or into
    one reused block buffer, and screens each block once for divergence.
    """
    x = family.check_entry(schedule, x0)
    N = schedule.depth
    step, f = scheme.step, family._bind(schedule.padded)[0]
    states = np.empty(((N + 1) if store else SWEEP_BLOCK,) + x.shape)
    if store:
        states[0] = x
    for lo in range(0, N, SWEEP_BLOCK):
        hi = min(lo + SWEEP_BLOCK, N)
        block = states[lo + 1:hi + 1] if store else states[:hi - lo]
        # Layers past a divergence run on until the block's screen.
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(lo, hi):
                x = step(f, x, n, n + 1, N, block[n - lo])
        _check_block(block, range(lo, hi), "forward chain")
    return Trajectory(states, scheme) if store else x


def forward_euler_chain(family: ResidualFamily, schedule: WeightSchedule,
                        x0) -> Trajectory:
    """Run the single-stage chain; nodes[0] is x0, nodes[N] the output."""
    return _forward(EULER, family, schedule, x0)


def forward_heun_chain(family: ResidualFamily, schedule: WeightSchedule,
                       x0) -> Trajectory:
    """Run the two-stage chain; nodes[0] is x0, nodes[N] the output."""
    return _forward(HEUN, family, schedule, x0)


def interpolate(family: ResidualFamily, schedule: WeightSchedule, kind: str,
                theta_end: Optional[np.ndarray] = None) -> VectorField:
    """Continuous-time field, given per layer interval, agreeing with the
    chain's residual f(., theta_n) at both ends of the intervals n - 1, n.

    kind "residual_interp" blends the residual values,

        phi_n(x, a) = (1 - a) f(x, theta_n) + a f(x, theta_{n+1}),

    kind "weight_interp" blends the parameters,

        phi_n(x, a) = f(x, (1 - a) theta_n + a theta_{n+1}),

    both at fraction a in [0, 1] of layer interval n, depth s = (n + a) / N,
    the fractions ``piece(alphas)`` binds.  The last interval needs
    theta_N: by default the padding rule (theta_N = theta_{N-1}) applies;
    pass ``theta_end`` to extend the schedule differently, e.g. to
    continue an analytic pattern.

    The schedule and ``theta_end`` are checked here, once, for both kinds.
    residual_interp binds the rows once and its ``piece`` is the bound
    ``blend``; weight_interp takes the 1 - alpha and alpha columns once
    and binds each interval's blended rows.
    """
    if kind not in ("residual_interp", "weight_interp"):
        raise ValueError(f"unknown interpolation kind {kind!r}")
    family.check_schedule(schedule)
    N = schedule.depth
    if theta_end is None:
        rows = schedule.padded
    else:
        last = family._check_params(require_finite(theta_end, "theta_end"))
        rows = np.vstack([schedule.params, last[None, :]])
    if kind == "residual_interp":
        piece = family._bind(rows)[2]
    else:
        def piece(alphas):
            alpha = np.asarray(alphas)[:, None]
            rest = 1.0 - alpha
            return lambda n: family._bind(rest * rows[n] + alpha * rows[n + 1])[0]
    return VectorField(piece, depth=N, state_dim=family.state_dim)


def solve_ode_oracle(field: VectorField, x0, fine_steps: int) -> np.ndarray:
    """Classical 4-stage Runge-Kutta flow of the field at the chain nodes
    n/N, returned as the (N + 1,) + x0.shape array of node states.

    ``fine_steps`` must be a multiple of the field's grid resolution N
    and at least 4N, so each layer interval takes K = fine_steps / N
    whole sub-steps and none straddles an interpolation interval.  The
    solve binds one RK4 stepper and the field's ``piece`` at the stage
    fractions j / (2K), j = 0..2K, once; each interval gets one kernel,
    and sub-step i of it evaluates fractions 2i, 2i + 1 and 2i + 2; it
    never calls ``field.eval``.  Each interval's K sub-step states are
    screened for divergence once, as a chain's block is.  x0 and
    fine_steps are validated once, here.
    """
    x = require_finite(x0, "x0").astype(float)
    if x.ndim not in (1, 2) or x.shape[0] != field.state_dim:
        raise ValueError(f"x0 shape {x.shape} does not match state_dim {field.state_dim}")
    if isinstance(fine_steps, bool) or not hasattr(fine_steps, "__index__"):
        raise ValueError(f"fine_steps must be an integer, got {fine_steps!r}")
    fine_steps = operator.index(fine_steps)
    n_grid = max(int(field.depth), 1)
    if fine_steps % n_grid != 0:
        raise ValueError(f"fine_steps {fine_steps} must be a multiple of {n_grid}")
    if fine_steps < 4 * n_grid:
        raise ValueError(f"fine_steps {fine_steps} too coarse; need >= {4 * n_grid}")

    per_layer = fine_steps // n_grid
    at = field.piece((np.arange(2 * per_layer + 1) / (2 * per_layer)).tolist())
    increment = _rk4_stepper(1.0 / fine_steps, x.shape)
    states = np.empty((n_grid + 1,) + x.shape)
    sub_steps = np.empty((per_layer,) + x.shape)
    states[0] = x
    # Sub-steps past a divergence run on until the interval's screen.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_grid):
            g = at(n)
            for j in range(per_layer):
                x = np.add(x, increment(g, x, 2 * j), sub_steps[j])
            _check_block(sub_steps, (n,) * per_layer, "ode oracle")
            states[n + 1] = x
    return states


def approximation_error(traj: Trajectory, flow: np.ndarray):
    """Per-node gaps ||x_n - x(n/N)|| and their maximum; ``flow`` is the
    oracle's node array, the flow at the same N + 1 nodes as the chain."""
    if traj.nodes.ndim != 2 or flow.shape != traj.nodes.shape:
        raise ValueError("trajectory and solution nodes do not match")
    gaps = np.linalg.norm(traj.nodes - flow, axis=1)
    return gaps, float(np.max(gaps))


def approximation_bound(L: float, c_n: float, N: int) -> float:
    """Worst-case chain-vs-ODE gap: (e^L - 1)/(2NL) * c_n, or c_n/(2N) at L = 0."""
    L, c_n = float(L), float(c_n)  # Python floats overflow to inf without a warning
    if not (L >= 0.0 and c_n >= 0.0) or N < 1:  # NaN fails both comparisons
        raise ValueError("bound inputs must be nonnegative with N >= 1")
    if L == 0.0 or c_n == 0.0:
        return c_n / (2.0 * N)
    log_max = math.log(np.finfo(float).max)
    if L > log_max:  # e^L overflows; e^L - 1 is e^L to rounding, so work in logs
        exponent = L + math.log(c_n) - math.log(2.0 * N * L)
        # At L = inf the exponent is inf - inf, a NaN, which fails the test too.
        return math.exp(exponent) if exponent < log_max else math.inf
    # expm1 keeps the L -> 0 limit (e^L - 1)/L -> 1 continuous.
    return math.expm1(L) / (2.0 * N * L) * c_n
