"""Residual-function families f(x, theta) with exact pullbacks, plus
per-layer parameter schedules.

A family evaluates states of shape (d,) or batched (d, B); parameter
vectors are always flat 1-D arrays.  The parameter half of a pullback
sums over the batch axis, matching the gradient of a batch-summed
scalar loss.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .numerics import require_finite

__all__ = [
    "ResidualFamily",
    "WeightSchedule",
    "make_linear_family",
    "make_mlp_family",
    "make_square_family",
    "make_identity_family",
    "make_index_schedule",
]


class ResidualFamily:
    """A residual function f(x, theta) with its exact pullback.

    eval:       (x, theta) -> f(x, theta), same shape as x
    linearize:  (x, theta) -> (f(x, theta), pullback), where
                pullback(v) -> ([d_x f]^T v, [d_theta f]^T v) reuses the
                forward pass (the mlp's tanh(W1 x)) for any cotangent v
    vjp_state:  (x, theta, v) -> [d_x f]^T v, same shape as x
    vjp_params: (x, theta, v) -> [d_theta f]^T v, flat (param_dim,)
    jac_state:  (x, theta) -> (d, d) Jacobian of f in x (unbatched)
    blend:      (theta_a, theta_b, alphas) -> g(x, m), see ``blend``

    The public methods check shapes; ``vjp_state``, ``vjp_params`` and
    ``jac_state`` are read off one pullback.  The sweeps validate their
    inputs once on entry (``check_entry``) and then call the unchecked
    ``_eval`` and ``_linearize`` at every layer.
    """

    def __init__(self, name: str, state_dim: int, param_dim: int,
                 eval_fn: Callable, linearize: Callable,
                 blend: Optional[Callable] = None):
        self.name = name
        self.state_dim = int(state_dim)
        self.param_dim = int(param_dim)
        self._eval = eval_fn
        self._linearize = linearize
        self._blend = blend

    def _check_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.state_dim:
            raise ValueError(
                f"state shape {x.shape} does not match state_dim {self.state_dim}")
        return x

    def _check_params(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(
                f"parameter shape {theta.shape} does not match param_dim {self.param_dim}")
        return theta

    def check_entry(self, schedule: WeightSchedule, x, label: str = "x0") -> np.ndarray:
        """Validate a chain's or sweep's inputs once, before it runs the
        unchecked kernels: a finite (d,) or (d, B) state and a schedule
        of this family's parameter dimension.  Returns the float state."""
        if schedule.param_dim != self.param_dim:
            raise ValueError(f"schedule param_dim {schedule.param_dim} does not "
                             f"match param_dim {self.param_dim}")
        return self._check_state(require_finite(x, label))

    def eval(self, x, theta) -> np.ndarray:
        return self._eval(self._check_state(x), self._check_params(theta))

    def linearize(self, x, theta) -> tuple:
        return self._linearize(self._check_state(x), self._check_params(theta))

    def _pull(self, x, theta, v) -> tuple:
        x = self._check_state(x)
        v = np.asarray(v, dtype=float)
        if v.shape != x.shape:
            raise ValueError("cotangent shape must match state shape")
        return self._linearize(x, self._check_params(theta))[1](v)

    def vjp_state(self, x, theta, v) -> np.ndarray:
        return self._pull(x, theta, v)[0]

    def vjp_params(self, x, theta, v) -> np.ndarray:
        return self._pull(x, theta, v)[1]

    def jac_state(self, x, theta) -> np.ndarray:
        x = self._check_state(x)
        if x.ndim != 1:
            raise ValueError("jac_state takes a single (d,) state")
        pullback = self._linearize(x, self._check_params(theta))[1]
        return np.array([pullback(e)[0] for e in np.eye(self.state_dim)])

    def blend(self, theta_a, theta_b, alphas) -> Callable:
        """Kernel g(x, m) = (1 - alphas[m]) f(x, theta_a) + alphas[m] f(x, theta_b).

        The parameters are checked once, here; g checks nothing.  A family
        may supply a fused form that agrees with this one to rounding.
        """
        theta_a, theta_b = self._check_params(theta_a), self._check_params(theta_b)
        if self._blend is not None:
            return self._blend(theta_a, theta_b, alphas)
        f = self._eval
        return lambda x, m: (1.0 - alphas[m]) * f(x, theta_a) + alphas[m] * f(x, theta_b)

    def __repr__(self):
        return (f"ResidualFamily({self.name!r}, state_dim={self.state_dim}, "
                f"param_dim={self.param_dim})")


class WeightSchedule:
    """Depth-indexed parameters theta_0..theta_{N-1}, one flat row each, read-only;
    ``padded`` adds theta_N = theta_{N-1}, the padding rule of ``padded_row``."""

    def __init__(self, params):
        arr = require_finite(params, "schedule parameters")
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("schedule must be a non-empty (N, param_dim) array")
        self.padded = np.concatenate([arr, arr[-1:]])
        self.padded.setflags(write=False)
        self.params = self.padded[:-1]

    @property
    def depth(self) -> int:
        return self.params.shape[0]

    @property
    def param_dim(self) -> int:
        return self.params.shape[1]

    def __getitem__(self, n: int) -> np.ndarray:
        return self.params[n]

    def padded_row(self, n: int) -> np.ndarray:
        """Row n, with n == depth mapped to the last row.

        The final half-step of a two-stage chain (and the last
        interpolation interval) reference theta_N, which the schedule
        does not carry; the padding rule reuses theta_{N-1}.
        """
        if not 0 <= n <= self.depth:
            raise IndexError(f"layer index {n} out of range for depth {self.depth}")
        return self.padded[n]


def _outer_sum(p, q, out) -> np.ndarray:
    """Write the sum over the batch of p q^T, row-major, into the flat
    buffer ``out`` and return it; 1-D p, q are one column."""
    if p.ndim == 1:
        p, q = p[:, None], q[:, None]
    np.dot(p, q.T, out=out.reshape(p.shape[0], q.shape[0]))
    return out


def make_linear_family(d: int) -> ResidualFamily:
    """f(x, theta) = theta x with theta a flattened row-major d x d matrix."""
    if d < 1:
        raise ValueError("state dimension must be >= 1")

    def eval_fn(x, theta):
        return np.dot(theta.reshape(d, d), x)

    def linearize(x, theta):
        a = theta.reshape(d, d)
        return np.dot(a, x), lambda v: (np.dot(a.T, v), _outer_sum(v, x, np.empty(d * d)))

    return ResidualFamily("linear", d, d * d, eval_fn, linearize)


def make_mlp_family(d: int, hidden: int) -> ResidualFamily:
    """Two-layer residual f(x, (W1, W2)) = W2 tanh(W1 x).

    tanh keeps every derivative of f bounded; as tanh' <= 1,
    ||d_x f|| <= ||W2|| ||W1||.  Parameters are concatenated row-major:
    W1 is (hidden, d), W2 is (d, hidden).
    """
    if d < 1 or hidden < 1:
        raise ValueError("dimensions must be >= 1")
    n1 = hidden * d

    def unpack(theta):
        return theta[:n1].reshape(hidden, d), theta[n1:].reshape(d, hidden)

    def eval_fn(x, theta):
        w1, w2 = unpack(theta)
        return np.dot(w2, np.tanh(np.dot(w1, x)))

    def linearize(x, theta):
        w1, w2 = unpack(theta)
        a = np.tanh(np.dot(w1, x))

        def pullback(v):
            u = (1.0 - a**2) * np.dot(w2.T, v)  # backprop through tanh pre-activation
            grad = np.empty(2 * n1)
            _outer_sum(u, x, grad[:n1])
            _outer_sum(v, a, grad[n1:])
            return np.dot(w1.T, u), grad
        return np.dot(w2, a), pullback

    def blend(theta_a, theta_b, alphas):
        # One stacked (2h, d) first layer, so one tanh per stage; alpha 0
        # or 1 keeps its single layer, so g is f(., theta) bit-exactly.
        ends = {0.0: unpack(theta_a), 1.0: unpack(theta_b)}
        w1 = np.concatenate([theta_a[:n1], theta_b[:n1]]).reshape(2 * hidden, d)
        alpha = np.asarray(alphas, dtype=float)[:, None, None]
        table = np.concatenate([(1.0 - alpha) * ends[0.0][1], alpha * ends[1.0][1]], axis=2)
        layers = [ends.get(a) or (w1, table[m]) for m, a in enumerate(alphas)]
        return lambda x, m: np.dot(layers[m][1], np.tanh(np.dot(layers[m][0], x)))

    return ResidualFamily("mlp", d, 2 * d * hidden, eval_fn, linearize, blend)


def make_square_family() -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = theta^2."""

    def eval_fn(x, theta):
        return np.full_like(x, theta[0] ** 2)

    def linearize(x, theta):
        return eval_fn(x, theta), lambda v: (
            np.zeros_like(v), np.array([2.0 * theta[0] * float(np.sum(v))]))

    return ResidualFamily("square", 1, 1, eval_fn, linearize)


def make_identity_family() -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = theta."""

    def eval_fn(x, theta):
        return np.full_like(x, theta[0])

    def linearize(x, theta):
        return eval_fn(x, theta), lambda v: (np.zeros_like(v), np.array([float(np.sum(v))]))

    return ResidualFamily("identity", 1, 1, eval_fn, linearize)


def make_index_schedule(N: int) -> WeightSchedule:
    """theta_n = n for the identity family: the canonical depth-growing schedule."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    return WeightSchedule(np.arange(N, dtype=float).reshape(N, 1))
