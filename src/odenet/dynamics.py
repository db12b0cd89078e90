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

import functools
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
    "stack_fields",
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

    ``fuse`` is the family's stacked kernel (``ResidualFamily.fuse``) when
    ``piece(alphas, slot=...)`` can fill one row's slot of its buffers.
    A stack (``stack_fields``) has no ``piece``: its ``rows`` are the
    (field, RK4 sub-steps per layer) pairs one oracle solve steps in
    lockstep, and its ``depth`` is their total layer count.
    """

    piece: Optional[Callable[[list], Callable[[int], Callable]]]
    depth: int = 1   # grid resolution the field is piecewise-defined on
    state_dim: int = 1
    # Never set or called in src: bench/tracing.py's wrap_oracle reads and
    # replaces it (dataclasses.replace); ROADMAP item 1 deletes it.
    eval: Optional[Callable] = None
    fuse: Optional[Callable] = None
    rows: tuple = ()


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


def _euler_stepper(f, div, shape):
    div = np.array(float(div))

    def step(x, a, b, out):
        out = f(x, a, out)
        np.divide(out, div, out)
        out += x
        return out
    return step


def _heun_stepper(f, div, shape):
    div, twice = np.array(float(div)), np.array(2.0 * div)
    f_a, y = np.empty(shape), np.empty(shape)

    def step(x, a, b, out):
        f(x, a, f_a)
        np.add(np.divide(f_a, div, y), x, y)
        out = f(y, b, out)
        out += f_a
        np.divide(out, twice, out)
        out += x
        return out
    return step


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
    are layer indices into those rows.  ``stepper(f, div, shape)`` binds
    the divisor, as a 0-d array, and the stage's scratch buffers once per
    chain or sweep of states of ``shape``; its ``step(x, a, b, out)``
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
    stepper: Callable
    backprop: Callable


EULER = Scheme("euler", 0, _euler_stepper, _euler_backprop)
HEUN = Scheme("heun", 1, _heun_stepper, _heun_backprop)


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
    step = scheme.stepper(family._bind(schedule.padded)[0], N, x.shape)
    states = np.empty(((N + 1) if store else SWEEP_BLOCK,) + x.shape)
    if store:
        states[0] = x
    for lo in range(0, N, SWEEP_BLOCK):
        hi = min(lo + SWEEP_BLOCK, N)
        block = states[lo + 1:hi + 1] if store else states[:hi - lo]
        # Layers past a divergence run on until the block's screen.
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(lo, hi):
                x = step(x, n, n + 1, block[n - lo])
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
    ``blend``, its ``fuse`` the family's; weight_interp takes the 1 - alpha and alpha columns once
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
    return VectorField(piece, depth=N, state_dim=family.state_dim,
                       fuse=family.fuse if kind == "residual_interp" else None)


def _grid(field: VectorField) -> int:
    return max(int(field.depth), 1)


def stack_fields(fields, per_layer) -> VectorField:
    """The fields as the rows of one stack, row r solved at per_layer[r]
    RK4 sub-steps per layer, for one ``solve_ode_oracle`` call: its state
    holds one row state per field, its ``fine_steps`` is the rows' total
    sub-step count sum(N_r K_r), and the solve returns each row's nodes."""
    rows = tuple(zip(fields, per_layer))
    if not rows or len({field.state_dim for field, _ in rows}) != 1:
        raise ValueError("a stack needs one or more fields of one state_dim")
    for _, k in rows:
        if isinstance(k, bool) or not hasattr(k, "__index__") or k < 4:
            raise ValueError(f"sub-steps per layer must be an integer >= 4, got {k!r}")
    return VectorField(None, depth=sum(_grid(field) for field, _ in rows),
                       state_dim=rows[0][0].state_dim,
                       rows=tuple((field, operator.index(k)) for field, k in rows))


def solve_ode_oracle(field: VectorField, x0, fine_steps: int):
    """Classical 4-stage Runge-Kutta flow of the field at the chain nodes
    n/N, returned as the (N + 1,) + x0.shape array of node states; of a
    stack (``stack_fields``), the list of its rows' node arrays, in order.

    A field's ``fine_steps`` must be a multiple of its grid resolution N
    and at least 4N, so each layer interval takes K = fine_steps / N
    whole sub-steps and none straddles an interpolation interval; it is
    solved as the one-row stack.  A stack's x0 holds one state per row,
    and its ``fine_steps`` must be the rows' total sub-step count.
    x0 and fine_steps are validated once, here.

    The rows step in lockstep, one cell of C = gcd(K_r) sub-steps per
    tick: row r's layer interval is K_r / C cells, and its field's
    ``piece`` binds each cell c's stage fractions (2Cc + j) / (2K_r),
    j = 0..2C, once; sub-step i of a cell evaluates stages 2i, 2i + 1 and
    2i + 2.  Sorted by cell count, the active rows are a prefix that
    shrinks as rows finish, and each active-row count binds one RK4
    stepper with the rows' own step sizes 1 / (N_r K_r).  A lone row
    steps through its own kernel; more rows step through the ``fuse``
    kernel they share (``_stack_kernel``).  Each tick's sub-step states
    are screened for divergence once, the error naming the layer of the
    row that failed; it never calls ``field.eval``.
    """
    x = require_finite(x0, "x0").astype(float)
    row_shape = x.shape[1:] if field.rows else x.shape
    if (len(row_shape) not in (1, 2) or row_shape[0] != field.state_dim
            or field.rows and x.shape[0] != len(field.rows)):
        rows = f" in {len(field.rows)} rows" if field.rows else ""
        raise ValueError(f"x0 shape {x.shape} does not match state_dim {field.state_dim}{rows}")
    if isinstance(fine_steps, bool) or not hasattr(fine_steps, "__index__"):
        raise ValueError(f"fine_steps must be an integer, got {fine_steps!r}")
    fine_steps = operator.index(fine_steps)
    if field.rows:
        total = sum(_grid(row) * k for row, k in field.rows)
        if fine_steps != total:
            raise ValueError(f"fine_steps {fine_steps} must be the stack's {total} sub-steps")
        return _solve_rows(field.rows, x)
    n_grid = _grid(field)
    if fine_steps % n_grid != 0:
        raise ValueError(f"fine_steps {fine_steps} must be a multiple of {n_grid}")
    if fine_steps < 4 * n_grid:
        raise ValueError(f"fine_steps {fine_steps} too coarse; need >= {4 * n_grid}")
    return _solve_rows(((field, fine_steps // n_grid),), x[None])[0]


def _cell_fractions(per_layer: int, cell: int, c: int) -> list:
    """Stage fractions j / (2 per_layer) of sub-steps c cell .. (c + 1) cell."""
    return ((2 * cell * c + np.arange(2 * cell + 1)) / (2 * per_layer)).tolist()


def _stack_kernel(kernels, fused, last):
    """Stage m of the active rows x[r]: the rows' ``fused`` kernel at a
    cell's interior stages 0 < m < last, else kernels[r] row by row.  A
    cell's end stages, where a row's fraction may be 0 or 1, keep each
    row's own kernel, as the mlp's single-layer ends are not always its
    fused two-layer form bit for bit."""
    def g(x, m):
        if fused is not None and 0 < m < last:
            return fused(x, m)
        out = np.empty_like(x)
        for kernel, row, o in zip(kernels, x, out):
            o[...] = kernel(row, m)
        return out
    return g


def _solve_rows(rows, x):
    """``solve_ode_oracle``'s lockstep RK4 loop over the (field, K) rows
    from their (R,) + shape start states x."""
    shape, cell = x.shape[1:], math.gcd(*(k for _, k in rows))
    # Most cells first, so the rows still stepping are always a prefix.
    order = sorted(range(len(rows)), key=lambda r: -_grid(rows[r][0]) * rows[r][1])
    fields, per_layer = zip(*(rows[r] for r in order))
    ticks = [_grid(f) * k // cell for f, k in zip(fields, per_layer)]
    steps = [1.0 / (_grid(f) * k) for f, k in zip(fields, per_layer)]
    pieces, fused = [f.piece for f in fields], None
    fuse = fields[0].fuse
    if len(rows) > 1 and fuse is not None and all(f.fuse is fuse for f in fields):
        slots, fused = fuse(len(rows), 2 * cell + 1)
        pieces = [functools.partial(p, slot=slot) for p, slot in zip(pieces, slots)]
    # ats[r][c] gives row r's kernel for cell c of a layer interval.
    ats = [[p(_cell_fractions(k, cell, c)) for c in range(k // cell)]
           for p, k in zip(pieces, per_layer)]
    nodes = [np.empty((_grid(f) + 1,) + shape) for f in fields]
    x = x[order]
    for r, row_nodes in enumerate(nodes):
        row_nodes[0] = x[r]
    t = 0
    # Sub-steps past a divergence run on until the tick's screen.
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(len(rows), 0, -1):
            if ticks[a - 1] <= t:
                continue
            active = ats[:a]
            x = x[0] if a == 1 else x[:a]
            h = steps[0] if a == 1 else np.reshape(steps[:a], (a,) + (1,) * len(shape))
            increment = _rk4_stepper(h, x.shape)
            block = np.empty((cell,) + x.shape)
            states = block.reshape((-1,) + shape)
            stacked = fused(a) if fused is not None and a > 1 else None
            for t in range(t, ticks[a - 1]):
                kernels = [at[t % len(at)](t // len(at)) for at in active]
                g = kernels[0] if a == 1 else _stack_kernel(kernels, stacked, 2 * cell)
                for i in range(cell):
                    x = np.add(x, increment(g, x, 2 * i), block[i])
                _check_block(states, (t // len(at) for _ in block for at in active),
                             "ode oracle")
                for at, row, row_nodes in zip(active, (x,) if a == 1 else x, nodes):
                    if (t + 1) % len(at) == 0:
                        row_nodes[(t + 1) // len(at)] = row
            t = ticks[a - 1]
    return [nodes[order.index(r)] for r in range(len(rows))]


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
