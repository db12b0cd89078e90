"""Reference quantities and fixtures the tests check the package against.

The reference quantities are built only from the package's public,
shape-checked kernels: ``jac_state``, ``reverse_nodes`` and central
finite differences.  The fixtures are the index schedule, the
eval-defined vector field and a study's clean values by depth.
"""

from typing import Callable

import numpy as np

from odenet.dynamics import VectorField
from odenet.numerics import require_finite
from odenet.residual_models import WeightSchedule


def jac_state(family, x, theta):
    """(d, d) Jacobian of f(., theta) at one (d,) state, row i being
    [d_x f]^T e_i from ``vjp_state``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.state_dim,):
        raise ValueError("jac_state takes a single (d,) state")
    return np.array([family.vjp_state(x, theta, e) for e in np.eye(family.state_dim)])


def reverse_nodes(scheme, family, schedule, xN):
    """x~_0..x~_N as one (N + 1, ...) array: the scheme's reverse step
    looped from xN through the checked ``eval``."""
    def f(x, n):
        return family.eval(x, schedule.padded[n])

    N = schedule.depth
    nodes = np.empty((N + 1,) + np.shape(xN))
    x = nodes[N] = xN
    for n in range(N - 1, -1, -1):
        x = nodes[n] = scheme.step(f, x, n + scheme.lead, n, -N)
    return nodes


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


def make_index_schedule(N: int) -> WeightSchedule:
    """theta_n = n for the identity family: the canonical depth-growing schedule."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    return WeightSchedule(np.arange(N, dtype=float).reshape(N, 1))


def eval_field(eval, depth=1, state_dim=1) -> VectorField:
    """The field defined by eval(x, s) alone.  Its ``piece`` evaluates
    eval at s = (n + alphas[m]) / depth, one call per stage: the reference
    path the package's per-interval kernels are checked against."""
    def piece(n, alphas):
        return lambda y, m: eval(y, (n + alphas[m]) / depth)

    return VectorField(eval, piece, depth=depth, state_dim=state_dim)


def values(result, metric: str) -> dict:
    """A study's unflagged values of ``metric``, by depth."""
    return {r.depth: r.value for r in result.records
            if r.metric == metric and r.flag == ""}
