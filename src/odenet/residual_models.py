"""Residual-function families f(x, theta) with exact pullbacks, plus
per-layer parameter schedules.

A family evaluates states of shape (d,) or batched (d, B); parameter
vectors are always flat 1-D arrays, and its kernels are bound once to a
(K, param_dim) stack of them (``ResidualFamily``), and it linearizes a
block of layers in one stacked call.  The parameter half of a pullback
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
]


class ResidualFamily:
    """A residual function f(x, theta) with its exact pullback.

    bind:       rows -> (eval, linearize_block, blend), the family's one
                kernel definition: it reads layer n of a (K, param_dim)
                stack of rows through views of that buffer (the mlp's
                (K, h, d) and (K, d, h) weights, the linear family's
                (K, d, d)), so binding holds nothing per layer and no
                call re-splits a row
    eval:       (x, n, out=None) -> f(x, rows[n]), same shape as x,
                written into ``out`` when one is given
    linearize_block:
                (xs, lo) -> (values, jac_t, vjp_theta) at the points xs[j]
                of layers lo + j, j < len(xs), from one stacked forward
                pass (the mlp's tanh(W1 x)): values[j] is ``eval``'s
                f(xs[j], rows[lo + j]), jac_t[j] the transposed state
                Jacobian [d_x f]^T at that point, (d, d) for a (d,) state
                and (d, d, B) for a (d, B) one (``jac_t[j][:, :, b]``
                belongs to input b), and vjp_theta(vs) the fresh
                (len(xs), param_dim) rows [d_theta f]^T vs[j], in one
                stacked pullback
    blend:      (alphas) -> at(n) -> g(x, m) = (1 - alphas[m]) f(x, rows[n])
                + alphas[m] f(x, rows[n + 1]): ``blend`` binds one solve's
                stage fractions, ``at`` gives interval n's kernel, valid
                until the next ``at`` call; the mlp fuses it into one
                tanh per stage over two weight buffers ``at`` refills,
                the others sum two evals (``_eval_blend``)
    fuse:       (count, stages) -> (slots, kernel), the mlp's alone: the
                blends of a stack of fields, one per row, each bound as
                blend(alphas, slot=slots[r]) to fill row r's slot, and
                kernel(a) -> g(x, m) evaluating stage m of the first a
                rows, x[r] being row r's state, in one stacked pass

    The public ``eval``, ``vjp_state`` and ``vjp_params`` check shapes
    and bind the one row ``theta[None]``.  The chains, sweeps and
    interpolating fields validate their inputs once on entry
    (``check_schedule``, ``check_entry``), bind the rows once and then
    call the bound kernels at layer indices, unchecked.
    """

    def __init__(self, name: str, state_dim: int, param_dim: int, bind: Callable,
                 fuse: Optional[Callable] = None):
        self.name = name
        self.state_dim = int(state_dim)
        self.param_dim = int(param_dim)
        self._bind = bind
        self.fuse = fuse

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
        _, jac_t, vjp_theta = self._bind(self._check_params(theta)[None])[1](x[None], 0)
        return _jac_t_dot(jac_t[0], v), vjp_theta(v[None])[0]

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


def _columns(xs) -> np.ndarray:
    """A (J, d) stack of single states as (J, d, 1) columns; a (J, d, B)
    stack as it is."""
    return xs[..., None] if xs.ndim == 2 else xs


def _outer(a, b) -> np.ndarray:
    """np.matmul of a (..., m, 1) and a (..., 1, n) stack, bit for bit: each
    entry is one product, and einsum keeps it off numpy's slow stacked
    path for an inner dimension of 1."""
    return np.einsum("...ij,...jk->...ik", a, b)


def _jac_t_dot(jac_t, v, out=None) -> np.ndarray:
    """[d_x f]^T v from one layer's ``jac_t``: a (d, d) matrix on a (d,)
    cotangent, or a (d, d, B) stack on a (d, B) one, input by input."""
    if v.ndim == 1:
        return jac_t.dot(v, out=out)
    return np.einsum("kib,ib->kb", jac_t, v, out=out)


def _eval_blend(eval_fn) -> Callable:
    """The blend kernel of a bound ``eval``, as the weighted sum of two calls."""
    def blend(alphas):
        return lambda n: lambda x, m: ((1.0 - alphas[m]) * eval_fn(x, n)
                                       + alphas[m] * eval_fn(x, n + 1))
    return blend


def make_linear_family(d: int) -> ResidualFamily:
    """f(x, theta) = theta x with theta a flattened row-major d x d matrix."""
    if d < 1:
        raise ValueError("state dimension must be >= 1")

    def bind(rows):
        mats = rows.reshape(-1, d, d)

        def eval_fn(x, n, out=None):
            return mats[n].dot(x, out=out)

        def linearize_block(xs, lo):
            count, cols = len(xs), _columns(xs)
            block = mats[lo:lo + count]
            jac_t = block.swapaxes(1, 2)
            if xs.ndim == 3:  # the same matrix for every input
                jac_t = np.broadcast_to(jac_t[..., None], jac_t.shape + xs.shape[2:])

            def vjp_theta(vs):
                return np.matmul(_columns(vs), cols.swapaxes(1, 2)).reshape(count, d * d)
            return np.matmul(block, cols).reshape(xs.shape), jac_t, vjp_theta
        return eval_fn, linearize_block, _eval_blend(eval_fn)

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
    # At d = 1 the stacked W1 x and W2^T v are (h, 1) @ (1, B) outer products.
    widen = _outer if d == 1 else np.matmul

    def bind(rows):
        w1s, w2s = rows[:, :n1].reshape(-1, hidden, d), rows[:, n1:].reshape(-1, d, hidden)

        def eval_fn(x, n, out=None):
            pre = w1s[n].dot(x)
            return w2s[n].dot(np.tanh(pre, out=pre), out=out)

        def linearize_block(xs, lo):
            count, cols = len(xs), _columns(xs)
            w1, w2 = w1s[lo:lo + count], w2s[lo:lo + count]
            a = np.tanh(widen(w1, cols))
            slope = 1.0 - a**2  # tanh' at the pre-activations
            # [d_x f]^T = W1^T diag(slope) W2^T: entry (k, i) sums
            # W1[h, k] W2[i, h] slope[h] over h, one (d d, h) @ (h, B) product.
            pairs = (w1.swapaxes(1, 2)[:, :, None] * w2[:, None]).reshape(count, d * d, hidden)
            jac_t = np.matmul(pairs, slope).reshape((count, d, d) + xs.shape[2:])

            def vjp_theta(vs):
                v = _columns(vs)
                u = slope * widen(w2.swapaxes(1, 2), v)
                grad_w1 = np.matmul(u, cols.swapaxes(1, 2)).reshape(count, n1)
                grad_w2 = np.matmul(v, a.swapaxes(1, 2)).reshape(count, n1)
                return np.concatenate([grad_w1, grad_w2], axis=1)
            return np.matmul(w2, a).reshape(xs.shape), jac_t, vjp_theta

        def blend(alphas, slot=None):
            # One stacked (2h, d) first layer [W1_n; W1_n+1] and, per stage
            # m, the (d, 2h) second layer [(1 - alpha_m) W2_n, alpha_m W2_n+1],
            # so one tanh per stage; alpha 0 or 1 keeps its single layer, so
            # g is f(., rows[n]) or f(., rows[n + 1]) bit-exactly.  The
            # weights, both buffers (``slot``, one row of ``fuse``'s, when
            # given) and their bound .dot methods are made once; at(n)
            # refills the buffers and rebinds the end stages, so its one
            # kernel holds interval n until the next call.
            alpha = np.asarray(alphas, dtype=float)[:, None, None, None]
            weights = np.concatenate([1.0 - alpha, alpha], axis=2)
            w1, table = slot or (np.empty((2 * hidden, d)),
                                 np.empty((len(alphas), d, 2 * hidden)))
            pair, split = w1.reshape(2, hidden, d), table.reshape(len(alphas), d, 2, hidden)
            layers = [(w1.dot, w2.dot) for w2 in table]
            ends = [(m, int(a)) for m, a in enumerate(alphas) if a in (0.0, 1.0)]

            def g(x, m):
                inner, outer = layers[m]
                pre = inner(x)
                return outer(np.tanh(pre, pre))

            def at(n):
                pair[...] = w1s[n:n + 2]
                np.multiply(weights, w2s[n:n + 2].swapaxes(0, 1), out=split)
                for m, end in ends:
                    layers[m] = (w1s[n + end].dot, w2s[n + end].dot)
                return g
            return at
        return eval_fn, linearize_block, blend

    def fuse(count, stages):
        """One slot per row of ``count`` blends at ``stages`` fractions
        each, and kernel(a): stage m of the first a rows' blends, as two
        stacked matmuls and one tanh, bit-equal to each row's kernel at a
        stage that keeps both layers."""
        w1, table = np.empty((count, 2 * hidden, d)), np.empty((count, stages, d, 2 * hidden))

        def kernel(a):
            inner, layers = w1[:a], [table[:a, m] for m in range(stages)]

            def g(x, m):
                pre = widen(inner, _columns(x))
                return np.matmul(layers[m], np.tanh(pre, pre)).reshape(x.shape)
            return g
        return list(zip(w1, table)), kernel

    return ResidualFamily("mlp", d, 2 * d * hidden, bind, fuse)


def _scalar_family(name: str, g: Callable, dg: Callable) -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = g(theta) with derivative dg."""

    def bind(rows):
        thetas = rows[:, 0]

        def eval_fn(x, n, out=None):
            out = np.empty_like(x) if out is None else out
            out.fill(g(thetas[n]))
            return out

        def linearize_block(xs, lo):
            th = thetas[lo:lo + len(xs)]
            layer_axis = (len(xs),) + (1,) * (xs.ndim - 1)

            def vjp_theta(vs):
                return (dg(th) * np.sum(vs, axis=tuple(range(1, vs.ndim))))[:, None]
            values = np.broadcast_to(np.reshape(g(th), layer_axis), xs.shape)
            return values, np.zeros((len(xs), 1, 1) + xs.shape[2:]), vjp_theta
        return eval_fn, linearize_block, _eval_blend(eval_fn)

    return ResidualFamily(name, 1, 1, bind)


def make_square_family() -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = theta^2."""
    return _scalar_family("square", lambda t: t ** 2, lambda t: 2.0 * t)


def make_identity_family() -> ResidualFamily:
    """Scalar, state-independent f(x, theta) = theta."""
    return _scalar_family("identity", lambda t: t, lambda t: 1.0)

