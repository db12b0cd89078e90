"""Residual-function families f(x, theta) with exact pullbacks, plus
per-layer parameter schedules.

A family evaluates states of shape (d,) or batched (d, B); parameter
vectors are always flat 1-D arrays, and its kernels are bound once to a
(K, param_dim) stack of them (``ResidualFamily``).  The parameter half
of a pullback sums over the batch axis, matching the gradient of a
batch-summed scalar loss.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .numerics import require_finite

__all__ = [
    "ResidualFamily",
    "WeightSchedule",
    "make_linear_family",
    "make_mlp_family",
    "make_square_family",
    "make_identity_family",
]


class ResidualFamily:
    """A residual function f(x, theta) with its exact pullback.

    bind:       rows -> (eval, linearize, blend), the family's one kernel
                definition: it reads layer n of a (K, param_dim) stack of
                rows through views of that buffer (the mlp's (K, h, d)
                and (K, d, h) weights, the linear family's (K, d, d)), so
                binding holds nothing per layer and no call re-splits a row
    eval:       (x, n) -> f(x, rows[n]), same shape as x
    linearize:  (x, n) -> (f(x, rows[n]), pullback), where
                pullback(v) -> ([d_x f]^T v, [d_theta f]^T v) reuses the
                forward pass (the mlp's tanh(W1 x)) for any cotangent v
    blend:      (n, alphas) -> g(x, m) = (1 - alphas[m]) f(x, rows[n])
                + alphas[m] f(x, rows[n + 1]); the mlp fuses it into one
                tanh per stage, the others sum two evals (``_eval_blend``)

    The public ``eval``, ``vjp_state`` and ``vjp_params`` check shapes
    and bind the one row ``theta[None]``.  The chains, sweeps and
    interpolating fields validate their inputs once on entry
    (``check_schedule``, ``check_entry``), bind the rows once and then
    call the bound kernels at layer indices, unchecked.
    """

    def __init__(self, name: str, state_dim: int, param_dim: int, bind: Callable):
        self.name = name
        self.state_dim = int(state_dim)
        self.param_dim = int(param_dim)
        self._bind = bind

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

    def check_schedule(self, schedule: WeightSchedule) -> None:
        """Reject a schedule not of this family's parameter dimension."""
        if schedule.param_dim != self.param_dim:
            raise ValueError(f"schedule param_dim {schedule.param_dim} does not "
                             f"match param_dim {self.param_dim}")

    def check_entry(self, schedule: WeightSchedule, x, label: str = "x0") -> np.ndarray:
        """Validate a chain's or sweep's inputs once, before it runs the
        unchecked kernels: a finite (d,) or (d, B) state and a schedule
        of this family's parameter dimension.  Returns the float state."""
        self.check_schedule(schedule)
        return self._check_state(require_finite(x, label))

    def eval(self, x, theta) -> np.ndarray:
        x = self._check_state(x)
        return self._bind(self._check_params(theta)[None])[0](x, 0)

    def _pull(self, x, theta, v) -> tuple:
        x = self._check_state(x)
        v = np.asarray(v, dtype=float)
        if v.shape != x.shape:
            raise ValueError("cotangent shape must match state shape")
        return self._bind(self._check_params(theta)[None])[1](x, 0)[1](v)

    def vjp_state(self, x, theta, v) -> np.ndarray:
        return self._pull(x, theta, v)[0]

    def vjp_params(self, x, theta, v) -> np.ndarray:
        return self._pull(x, theta, v)[1]


class WeightSchedule:
    """Depth-indexed parameters theta_0..theta_{N-1}, one flat row each, read-only;
    ``padded`` adds theta_N = theta_{N-1}, which Heun's last half-step and
    the last interpolation interval read."""

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


def _outer_sum(p, q, out) -> np.ndarray:
    """Write the sum over the batch of p q^T, row-major, into the flat
    buffer ``out`` and return it; 1-D p, q are one column."""
    if p.ndim == 1:
        p, q = p[:, None], q[:, None]
    np.dot(p, q.T, out=out.reshape(p.shape[0], q.shape[0]))
    return out


def _eval_blend(eval_fn) -> Callable:
    """The blend kernel of a bound ``eval``, as the weighted sum of two calls."""
    def blend(n, alphas):
        return lambda x, m: (1.0 - alphas[m]) * eval_fn(x, n) + alphas[m] * eval_fn(x, n + 1)
    return blend


def make_linear_family(d: int) -> ResidualFamily:
    """f(x, theta) = theta x with theta a flattened row-major d x d matrix."""
    if d < 1:
        raise ValueError("state dimension must be >= 1")

    def bind(rows):
        mats = rows.reshape(-1, d, d)

        def eval_fn(x, n):
            return np.dot(mats[n], x)

        def linearize(x, n):
            a = mats[n]
            return np.dot(a, x), lambda v: (np.dot(a.T, v), _outer_sum(v, x, np.empty(d * d)))
        return eval_fn, linearize, _eval_blend(eval_fn)

    return ResidualFamily("linear", d, d * d, bind)


def make_mlp_family(d: int, hidden: int) -> ResidualFamily:
    """Two-layer residual f(x, (W1, W2)) = W2 tanh(W1 x).

    tanh keeps every derivative of f bounded; as tanh' <= 1,
    ||d_x f|| <= ||W2|| ||W1||.  Parameters are concatenated row-major:
    W1 is (hidden, d), W2 is (d, hidden).
    """
    if d < 1 or hidden < 1:
        raise ValueError("dimensions must be >= 1")
    n1 = hidden * d

    def bind(rows):
        w1s, w2s = rows[:, :n1].reshape(-1, hidden, d), rows[:, n1:].reshape(-1, d, hidden)

        def eval_fn(x, n):
            return np.dot(w2s[n], np.tanh(np.dot(w1s[n], x)))

        def linearize(x, n):
            w1, w2 = w1s[n], w2s[n]
            a = np.tanh(np.dot(w1, x))

            def pullback(v):
                u = (1.0 - a**2) * np.dot(w2.T, v)  # backprop through tanh pre-activation
                grad = np.empty(2 * n1)
                _outer_sum(u, x, grad[:n1])
                _outer_sum(v, a, grad[n1:])
                return np.dot(w1.T, u), grad
            return np.dot(w2, a), pullback

        def blend(n, alphas):
            # One stacked (2h, d) first layer, so one tanh per stage; alpha 0
            # or 1 keeps its single layer, so g is f(., rows[n]) bit-exactly.
            ends = {0.0: (w1s[n], w2s[n]), 1.0: (w1s[n + 1], w2s[n + 1])}
            w1 = w1s[n:n + 2].reshape(2 * hidden, d)
            alpha = np.asarray(alphas, dtype=float)[:, None, None]
            table = np.concatenate([(1.0 - alpha) * w2s[n], alpha * w2s[n + 1]], axis=2)
            layers = [ends.get(a) or (w1, table[m]) for m, a in enumerate(alphas)]
            return lambda x, m: np.dot(layers[m][1], np.tanh(np.dot(layers[m][0], x)))
        return eval_fn, linearize, blend

    return ResidualFamily("mlp", d, 2 * d * hidden, bind)


def _scalar_family(name: str, g: Callable, dg: Callable) -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = g(theta) with derivative dg."""

    def bind(rows):
        thetas = rows[:, 0]

        def eval_fn(x, n):
            return np.full_like(x, g(thetas[n]))

        def linearize(x, n):
            return eval_fn(x, n), lambda v: (
                np.zeros_like(v), np.array([dg(thetas[n]) * float(np.sum(v))]))
        return eval_fn, linearize, _eval_blend(eval_fn)

    return ResidualFamily(name, 1, 1, bind)


def make_square_family() -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = theta^2."""
    return _scalar_family("square", lambda t: t ** 2, lambda t: 2.0 * t)


def make_identity_family() -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = theta."""
    return _scalar_family("identity", lambda t: t, lambda t: 1.0)

