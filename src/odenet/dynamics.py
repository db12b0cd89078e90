"""Forward residual chains, interpolating vector fields, and a
high-accuracy ODE oracle.

A depth-N chain takes N steps of size 1/N.  The single-stage update is

    x_{n+1} = x_n + (1/N) f(x_n, theta_n),

and the two-stage (midpoint-corrected) update is

    y_n     = x_n + (1/N) f(x_n, theta_n)
    x_{n+1} = x_n + (1/2N) (f(x_n, theta_n) + f(y_n, theta_{n+1})),

where theta_N falls back to theta_{N-1} (see WeightSchedule.padded_row).
Each update is one ``Scheme`` (EULER, HEUN) with its pullback; every
chain and reverse sweep runs one of them through one driver.
Interpolating fields turn a schedule into a continuous-time right-hand
side that agrees with f(., theta_n) at every grid time n/N, which is the
property all error measurements below are anchored on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import _rk4_step, require_finite
from .residual_models import ResidualFamily, WeightSchedule

__all__ = [
    "Trajectory",
    "VectorField",
    "ODESolution",
    "DivergenceError",
    "forward_euler_chain",
    "forward_heun_chain",
    "interpolate",
    "solve_ode_oracle",
    "approximation_error",
    "approximation_bound",
    "estimate_c_n",
]

# A state this large has left the regime where any of the error bounds
# mean anything; fail fast with the layer index instead of overflowing.
DIVERGENCE_THRESHOLD = 1e12


class DivergenceError(RuntimeError):
    """A chain or ODE solve produced a state above the divergence threshold."""

    def __init__(self, message: str, layer: int):
        super().__init__(message)
        self.layer = layer


@dataclass
class VectorField:
    """Right-hand side of dx/ds = eval(x, s) on s in [0, 1].

    ``piece``, if set, is piece(n, times) -> g(x, m) = eval(x, times[m])
    for times in layer interval [n/N, (n+1)/N]: one unchecked kernel per
    interval, with its parameters checked and blend weights built once.
    """

    eval: Callable[[np.ndarray, float], np.ndarray]
    depth: int = 1   # grid resolution the field is piecewise-defined on
    state_dim: int = 1
    piece: Optional[Callable[[int, list], Callable]] = None


@dataclass
class ODESolution:
    states: np.ndarray      # (steps+1, d)
    oracle_steps: int


def _check_divergence(x, layer: int, context: str):
    # NaN fails the comparison; inf or an overflowing square gives inf.
    if not math.sqrt(float(np.vdot(x, x))) <= DIVERGENCE_THRESHOLD:
        raise DivergenceError(f"{context} diverged at layer {layer}", layer)


def _locate(s, N: int):
    """Layer intervals n (left-continuous) of the times s, and positions s*N
    snapped to the grid so that s = n/N hits layer n bit-exactly."""
    u = np.asarray(s, dtype=float) * N
    nearest = np.round(u)
    u = np.where((np.abs(u - nearest) < 1e-9) & (nearest >= 0) & (nearest <= N), nearest, u)
    return np.clip(np.ceil(u).astype(int) - 1, 0, N - 1), u


def _euler_step(f, x, theta_a, theta_b, div, f_first=None):
    f_first = f(x, theta_a) if f_first is None else f_first
    return x + f_first / div


def _heun_step(f, x, theta_a, theta_b, div, f_first=None):
    f_first = f(x, theta_a) if f_first is None else f_first
    return x + (f_first + f(x + f_first / div, theta_b)) / (2.0 * div)


def _euler_pullback(linearize, x, theta_a, theta_b, g, N):
    """grad_theta_n = (1/N) [d_theta f(x_n, theta_n)]^T g and
    grad_x_n = [I + (1/N) d_x f(x_n, theta_n)]^T g, from one pullback."""
    f_x, pull = linearize(x, theta_a)
    d_x, d_theta = pull(g)
    return f_x, d_theta / N, None, g + d_x / N


def _heun_pullback(linearize, x, theta_a, theta_b, g, N):
    """Two contributions the step n = (x_n -> x_{n+1}) sends backwards.

    Differentiating the two-stage update gives, for g = grad_{x_{n+1}},

      to theta_n:      (1/2N) [d_theta f(x_n, theta_n)]^T (g + (1/N) [d_x f(y_n, theta_{n+1})]^T g)
      to theta_{n+1}:  (1/2N) [d_theta f(y_n, theta_{n+1})]^T g

    and the state gradient picks up

      grad_{x_n} = g + (1/2N) ( [d_x f(x_n)]^T g + (I + (1/N) d_x f(x_n))^T [d_x f(y_n)]^T g ).

    By linearity in the cotangent, one pullback of f(., theta_n) at x_n
    (at g + u/N) and one of f(., theta_{n+1}) at the stage point y_n (at
    g, giving u = [d_x f(y_n)]^T g) give all three terms.  y_n = x_n +
    f(x_n, theta_n)/N is rebuilt from the linearization's value, bit-equal
    to the stage the forward step computed.
    """
    f_x, pull_x = linearize(x, theta_a)
    u, carry = linearize(x + f_x / N, theta_b)[1](g)
    s, own = pull_x(g + u / N)
    return f_x, own / (2.0 * N), carry / (2.0 * N), g + (s + u) / (2.0 * N)


@dataclass(frozen=True)
class Scheme:
    """One integration scheme, defined once for every chain and sweep.

    ``step(f, x, theta_a, theta_b, div, f_first=None) -> x_next`` steps
    by 1/div: forward at div = N from theta_n to theta_{n+1}, in reverse
    at div = -N from theta_{n+lead} to theta_n.  ``f_first`` is
    f(x, theta_a) if already known.

    ``pullback(linearize, x_n, theta_n, theta_{n+1}, g, N) -> (f, own,
    carry, g_prev)`` differentiates forward step n at g = grad_{x_{n+1}}:
    ``own`` goes to theta_n, ``carry`` (None without a stage) to
    theta_{n+1}, g_prev is grad_{x_n}, f is f(x_n, theta_n).
    """

    name: str
    lead: int
    step: Callable
    pullback: Callable


EULER = Scheme("euler", 0, _euler_step, _euler_pullback)
HEUN = Scheme("heun", 1, _heun_step, _heun_pullback)


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
    """Run the chain: its Trajectory if ``store``, else only x_N."""
    x = family.check_entry(schedule, x0)
    N = schedule.depth
    step, f, rows = scheme.step, family._eval, schedule.padded
    if store:
        nodes = np.empty((N + 1,) + x.shape)
        nodes[0] = x
    for n in range(N):
        x = step(f, x, rows[n], rows[n + 1], N)
        _check_divergence(x, n, "forward chain")
        if store:
            nodes[n + 1] = x
    return Trajectory(nodes, scheme) if store else x


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
    """Continuous-time field agreeing with the chain's residuals on the grid.

    kind "residual_interp" blends the residual values,

        phi(x, s) = (n+1-Ns) f(x, theta_n) + (Ns-n) f(x, theta_{n+1}),

    kind "weight_interp" blends the parameters,

        phi(x, s) = f(x, (n+1-Ns) theta_n + (Ns-n) theta_{n+1}),

    both on s in [n/N, (n+1)/N].  The last interval needs theta_N: by
    default the padding rule (theta_N = theta_{N-1}) applies; pass
    ``theta_end`` to extend the schedule differently, e.g. to continue
    an analytic pattern.
    """
    if kind not in ("residual_interp", "weight_interp"):
        raise ValueError(f"unknown interpolation kind {kind!r}")
    N = schedule.depth
    if theta_end is None:
        rows = schedule.padded
    else:
        last = require_finite(theta_end, "theta_end")
        if last.shape != (schedule.param_dim,):
            raise ValueError("theta_end must match the schedule's parameter dimension")
        rows = np.vstack([schedule.params, last[None, :]])

    def piece(n, times):
        alphas = (_locate(times, N)[1] - n).tolist()
        if kind == "residual_interp":
            return family.blend(rows[n], rows[n + 1], alphas)
        alpha = np.asarray(alphas)[:, None]
        thetas = (1.0 - alpha) * rows[n] + alpha * rows[n + 1]
        return lambda x, m: family._eval(x, thetas[m])

    def eval_field(x, s):
        if not (0.0 <= s <= 1.0):
            raise ValueError(f"field time {s} outside [0, 1]")
        return piece(int(_locate(s, N)[0]), [s])(family._check_state(x), 0)

    return VectorField(eval_field, depth=N, state_dim=family.state_dim, piece=piece)


def solve_ode_oracle(field: VectorField, x0, fine_steps: int) -> ODESolution:
    """Classical 4-stage Runge-Kutta reference solution on a uniform fine grid.

    ``fine_steps`` must be a multiple of the field's grid resolution N
    and at least 4N, so every chain node time n/N lands exactly on the
    fine grid and sub-steps never straddle an interpolation interval.
    Sub-step i evaluates the field's ``piece`` kernel for its interval
    (else ``eval``) at (2i + m) / (2 fine_steps), m = 0..2: exactly
    i/fine_steps and (i + 1/2)/fine_steps.  x0 is validated once, here.
    """
    x = require_finite(x0, "x0").astype(float)
    if x.ndim not in (1, 2) or x.shape[0] != field.state_dim:
        raise ValueError(f"x0 shape {x.shape} does not match state_dim {field.state_dim}")
    n_grid = max(int(field.depth), 1)
    if fine_steps % n_grid != 0:
        raise ValueError(f"fine_steps {fine_steps} must be a multiple of {n_grid}")
    if fine_steps < 4 * n_grid:
        raise ValueError(f"fine_steps {fine_steps} too coarse; need >= {4 * n_grid}")

    piece = field.piece or (lambda n, times: lambda y, m: field.eval(y, times[m]))
    per_layer = fine_steps // n_grid
    h = 1.0 / fine_steps
    states = np.empty((fine_steps + 1,) + x.shape)
    states[0] = x
    for n in range(n_grid):
        first = n * per_layer
        stages = np.arange(2 * first, 2 * (first + per_layer) + 1)
        g = piece(n, (stages / (2 * fine_steps)).tolist())
        for j in range(per_layer):
            x = _rk4_step(g, x, h, 2 * j)
            _check_divergence(x, first + j, "ode oracle")
            states[first + j + 1] = x
    return ODESolution(states, fine_steps)


def approximation_error(traj: Trajectory, sol: ODESolution):
    """Per-node gaps ||x_n - x(n/N)|| and their maximum."""
    N = traj.depth
    if sol.oracle_steps % N != 0:
        raise ValueError("oracle grid does not contain the chain grid")
    stride = sol.oracle_steps // N
    if traj.nodes.ndim != 2 or sol.states.shape[1] != traj.nodes.shape[1]:
        raise ValueError("trajectory and solution dimensions do not match")
    gaps = np.linalg.norm(traj.nodes - sol.states[::stride], axis=1)
    return gaps, float(np.max(gaps))


def approximation_bound(L: float, c_n: float, N: int) -> float:
    """Worst-case chain-vs-ODE gap: (e^L - 1)/(2NL) * c_n, or c_n/(2N) at L = 0."""
    if L < 0.0 or c_n < 0.0 or N < 1:
        raise ValueError("bound inputs must be nonnegative with N >= 1")
    if L == 0.0:
        return c_n / (2.0 * N)
    # expm1 keeps the L -> 0 limit (e^L - 1)/L -> 1 continuous.
    return float(np.expm1(L) / (2.0 * N * L) * c_n)


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / max(np.linalg.norm(v), 1e-300)


def estimate_c_n(field: VectorField, region_radius: float, samples: int,
                 seed: int = 0) -> float:
    """Sampled supremum of ||d_s phi + d_x phi[phi]|| over ball x [0, 1].

    The time derivative is one-sided with step 1/(100N), taken inside
    the interpolation interval the sample falls in: the field is only
    piecewise smooth in s, and differences across a grid point would
    measure the (generally large) jump instead of the derivative.
    """
    if region_radius <= 0.0 or samples < 1:
        raise ValueError("need positive radius and at least one sample")
    rng = np.random.default_rng(seed)
    N = max(int(field.depth), 1)
    d = field.state_dim
    hs = 1.0 / (100.0 * N)
    best = 0.0
    for _ in range(samples):
        v = _unit(rng, d)
        x = region_radius * rng.random() ** (1.0 / d) * v
        interval = int(rng.integers(0, N))
        u = 0.02 + 0.96 * rng.random()  # stay clear of the interval edges
        s = (interval + u) / N
        phi = field.eval(x, s)
        # forward difference, flipped near the right edge of the interval
        if u + hs * N < 0.995:
            ds = (field.eval(x, s + hs) - phi) / hs
        else:
            ds = (phi - field.eval(x, s - hs)) / hs
        eps = 1e-6 * max(1.0, float(np.linalg.norm(x))) / max(1.0, float(np.linalg.norm(phi)))
        jvp = (field.eval(x + eps * phi, s) - field.eval(x - eps * phi, s)) / (2.0 * eps)
        best = max(best, float(np.linalg.norm(ds + jvp)))
    return best
