"""Reference quantities and fixtures the tests check the package against.

The reference quantities are built only from the package's public,
shape-checked kernels: ``jac_state``, ``reverse_nodes``, the reverse
sweep one layer at a time (``layer_sweep``) and central finite
differences.  The flow's velocity kernel is checked against its earlier
broadcast form (``bind_flow_broadcast``), and ``interpolate``'s fields
against the same blends stated through the checked ``eval``
(``interpolated_field``).  The fixtures are the index schedule, the
pointwise-defined vector field, a study's clean values by depth and the
text of each table a runner returns.
"""

from typing import Callable

import numpy as np

from odenet.dynamics import VectorField, _check_divergence
from odenet.linear_flow import SCAN_BLOCK
from odenet.numerics import require_finite
from odenet.residual_models import WeightSchedule


def jac_state(family, x, theta):
    """(d, d) Jacobian of f(., theta) at one (d,) state, row i being
    [d_x f]^T e_i from ``vjp_state``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.state_dim,):
        raise ValueError("jac_state takes a single (d,) state")
    return np.array([family.vjp_state(x, theta, e) for e in np.eye(family.state_dim)])


def checked_eval(family, schedule):
    """f(x, n, out=None) = f(x, theta_n), a bound ``eval``'s signature,
    through the checked ``eval``; copied into ``out`` when one is given."""
    def f(x, n, out=None):
        value = family.eval(x, schedule.padded[n])
        if out is None:
            return value
        out[...] = value
        return out
    return f


def reverse_nodes(scheme, family, schedule, xN):
    """x~_0..x~_N as one (N + 1, ...) array: the scheme's reverse step
    looped from xN through the checked ``eval``."""
    f, N = checked_eval(family, schedule), schedule.depth
    nodes = np.empty((N + 1,) + np.shape(xN))
    x = nodes[N] = xN
    for n in range(N - 1, -1, -1):
        x = scheme.step(f, x, n + scheme.lead, n, -N, nodes[n])
    return nodes


def _euler_layer(family, x, theta, theta_up, g, N):
    """Euler step n's pullback at g = grad_{x_{n+1}}: (f(x_n, theta_n),
    to theta_n, to theta_{n+1}, grad_{x_n} = g + [d_x f]^T g / N)."""
    return (family.eval(x, theta), family.vjp_params(x, theta, g) / N, None,
            g + family.vjp_state(x, theta, g) / N)


def _heun_layer(family, x, theta, theta_up, g, N):
    """Heun step n's pullback: f(., theta_n) pulled back at x_n and
    f(., theta_{n+1}) at the stage point y_n, one layer at a time, from
    u = [d_x f(y_n, theta_{n+1})]^T g and v = g + u / N."""
    f_x = family.eval(x, theta)
    y = x + f_x / N
    u, carry = family.vjp_state(y, theta_up, g), family.vjp_params(y, theta_up, g)
    v = g + u / N
    s, own = family.vjp_state(x, theta, v), family.vjp_params(x, theta, v)
    return f_x, own / (2.0 * N), carry / (2.0 * N), g + (s + u) / (2.0 * N)


LAYER_PULLBACKS = {"euler": _euler_layer, "heun": _heun_layer}


def layer_sweep(scheme, family, schedule, xN, output_grad, nodes=None):
    """The reverse sweep one layer at a time, yielding (n, grad_theta_n,
    grad_x_n, x_n) for n = N-1..0, the rows ``adjoint._sweep`` yields a
    block at a time, whose per-layer transition matrices it checks to
    rounding: the cotangent recursion of ``LAYER_PULLBACKS``, cotangent by
    cotangent; x_n read from ``nodes`` or rebuilt by the scheme's reverse
    step through the checked ``eval`` (carrying Heun's f(x~_n, theta_n)
    from the pullback to the next step), with a divergence check per
    layer; each layer pulled back through the checked ``vjp_state`` and
    ``vjp_params``.  A stage's carry to theta_{n+1} comes from step n, so
    layer n + 1 is yielded once step n has run; theta_N's carry is padded
    back to theta_{N-1}."""
    f, N = checked_eval(family, schedule), schedule.depth
    pullback = LAYER_PULLBACKS[scheme.name]
    x, g = np.asarray(xN, dtype=float), np.asarray(output_grad, dtype=float)
    f_next = pending = x_prev = None
    for n in range(N - 1, -1, -1):
        if nodes is None:
            if f_next is None:
                x = scheme.step(f, x, n + scheme.lead, n, -N, np.empty_like(x))
            else:  # Heun's reverse step from the carried f(x~_{n+1}, theta_{n+1})
                x = x + (f_next + f(x + f_next / -N, n)) / (2.0 * -N)
            _check_divergence(x, n, "adjoint sweep")
        else:
            x = nodes[n]
        f_x, own, carry, g_new = pullback(family, x, schedule.padded[n],
                                          schedule.padded[n + 1], g, N)
        if scheme.lead:
            f_next = f_x
        if carry is not None:
            if n == N - 1:
                own = own + carry
            else:
                pending = pending + carry
        if n < N - 1:
            yield n + 1, pending, g, x_prev
        pending, g, x_prev = own, g_new, x
    yield 0, pending, g, x


def finite_difference_gradient(
    loss: Callable[[np.ndarray], float], params, eps: float
) -> np.ndarray:
    """Central-difference gradient (loss(p + eps*e_i) - loss(p - eps*e_i)) / (2 eps)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    p = require_finite(params, "params").copy()
    grad = np.empty_like(p)
    for i in range(p.size):
        saved = p[i]
        p[i] = saved + eps
        hi = float(loss(p))
        p[i] = saved - eps
        lo = float(loss(p))
        p[i] = saved
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"loss returned a non-finite value near coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def bind_flow_broadcast(n_layers: int, d: int):
    """``linear_flow._bind_flow`` as it was before its shared-operand
    products ran as one gemm each: the carry multiplies every in-block
    entry by its block's predecessor through a broadcast ``(..., 1, d, d)``
    operand, and the velocity sandwich is the three-operand
    ``suf_t[1:] @ (-2 gap) @ pre_t``.  numpy makes one BLAS call per matrix
    of such a stack, with the same sums, so the two kernels agree byte for
    byte; this one is the reference."""
    eye = np.eye(d)
    blocks = n_layers // SCAN_BLOCK + 1
    scan_buf = np.empty((2, blocks * SCAN_BLOCK, d, d))
    scan_buf[:, 0] = eye
    head, pad = scan_buf[0, 1:n_layers + 1], scan_buf[:, n_layers + 1:]
    head_t, head_t_rev = head.swapaxes(1, 2), scan_buf[1, n_layers:0:-1]
    blocked = scan_buf.reshape(2, blocks, SCAN_BLOCK, d, d)
    totals = blocked[:, :, -1]
    pairs = [(blocked[:, :, j], blocked[:, :, j - 1]) for j in range(1, SCAN_BLOCK)]
    doublings = (1 << k for k in range((blocks - 1).bit_length()))   # s = 1, 2, 4, .. < blocks
    pairs += [(totals[:, s:], totals[:, :-s]) for s in doublings]
    pairs.append((blocked[:, 1:, :-1], totals[:, :-1, None]))
    pre, suf_t = scan_buf[0, :n_layers + 1], scan_buf[1, n_layers::-1]
    # numpy's matmul reads a swapped-axes view about 2.5x slower than a
    # contiguous stack (N = 256, d = 4), so the transposed prefixes are copied.
    pre_t, pre_t_view = np.empty((n_layers, d, d)), pre[:-1].swapaxes(1, 2)

    def scan(thetas):
        pad[...] = eye
        np.add(eye, thetas / n_layers, out=head)
        head_t_rev[...] = head_t
        for a, b in pairs:
            a[...] = a @ b
        return pre, suf_t

    def velocity(thetas, target):
        # Layer n sees transposed partial products on both sides; the
        # quadratic loss contributes the overall factor 2.
        scan(thetas)
        gap = pre[-1] - target
        pre_t[...] = pre_t_view
        return suf_t[1:] @ (-2.0 * gap) @ pre_t, gap
    return scan, velocity


def make_index_schedule(N: int) -> WeightSchedule:
    """theta_n = n for the identity family: the canonical depth-growing schedule."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    return WeightSchedule(np.arange(N, dtype=float).reshape(N, 1))


def eval_field(eval, depth=1, state_dim=1) -> VectorField:
    """The field defined by eval(x, s) alone.  Its ``piece`` evaluates
    eval at s = (n + alphas[m]) / depth, one call per stage."""
    def piece(alphas):
        return lambda n: lambda y, m: eval(y, (n + alphas[m]) / depth)

    return VectorField(piece, depth=depth, state_dim=state_dim)


def interpolated_field(family, schedule, kind, theta_end=None) -> VectorField:
    """``interpolate``'s field through the checked ``eval``, one stage at a
    time: at fraction a of layer interval n, residual_interp is
    (1 - a) f(x, theta_n) + a f(x, theta_{n+1}) and weight_interp is
    f(x, (1 - a) theta_n + a theta_{n+1}), theta_N being ``theta_end``
    when one is given and theta_{N-1} otherwise."""
    rows = schedule.padded if theta_end is None else np.vstack([schedule.params, theta_end])

    def stage(x, n, a):
        if kind == "residual_interp":
            return (1.0 - a) * family.eval(x, rows[n]) + a * family.eval(x, rows[n + 1])
        return family.eval(x, (1.0 - a) * rows[n] + a * rows[n + 1])

    def piece(alphas):
        return lambda n: lambda x, m: stage(x, n, alphas[m])

    return VectorField(piece, depth=schedule.depth, state_dim=family.state_dim)


def values(result, metric: str) -> dict:
    """A study's unflagged values of ``metric``, by depth."""
    return {r.depth: r.value for r in result.records
            if r.metric == metric and r.flag == ""}


def tables(result) -> dict:
    """{file name: text} of the CSV tables a runner returned; a streamed
    table is consumed, so call this once per result."""
    return {name: "".join(lines) for name, lines in result.tables}
