import gc
import inspect
import tracemalloc

import numpy as np
import pytest

from odenet.dynamics import SWEEP_BLOCK
from odenet.residual_models import (
    WeightSchedule,
    _eval_blend,
    _jac_t_dot,
    _outer,
    make_identity_family,
    make_linear_family,
    make_mlp_family,
    make_square_family,
)
from oracles import jac_state, make_index_schedule

ALL_FAMILIES = [
    make_identity_family(),
    make_square_family(),
    make_linear_family(1),
    make_linear_family(3),
    make_mlp_family(2, 3),
    make_mlp_family(4, 8),
]


def directional_state_derivative(family, x, theta, u, eps=1e-6):
    return (family.eval(x + eps * u, theta) - family.eval(x - eps * u, theta)) / (2 * eps)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
class TestFamilyDerivatives:
    """Every family's VJPs against central finite differences."""

    def test_vjp_state_matches_directional_derivative(self, family):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(family.state_dim)
            theta = rng.standard_normal(family.param_dim) * 0.5
            u = rng.standard_normal(family.state_dim)
            v = rng.standard_normal(family.state_dim)
            lhs = float(family.vjp_state(x, theta, v) @ u)
            rhs = float(v @ directional_state_derivative(family, x, theta, u))
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    def test_vjp_params_matches_coordinate_differences(self, family):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(family.state_dim)
        theta = rng.standard_normal(family.param_dim) * 0.5
        v = rng.standard_normal(family.state_dim)
        grad = family.vjp_params(x, theta, v)
        eps = 1e-6
        for j in range(family.param_dim):
            step = np.zeros(family.param_dim)
            step[j] = eps
            num = float(v @ (family.eval(x, theta + step) - family.eval(x, theta - step))) / (2 * eps)
            assert grad[j] == pytest.approx(num, rel=1e-5, abs=1e-9)

    def test_jac_state_consistent_with_vjp(self, family):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(family.state_dim)
        theta = rng.standard_normal(family.param_dim) * 0.5
        jac = jac_state(family, x, theta)
        assert jac.shape == (family.state_dim, family.state_dim)
        v = rng.standard_normal(family.state_dim)
        assert np.allclose(jac.T @ v, family.vjp_state(x, theta, v), rtol=1e-12)

    def test_batched_vjp_params_sums_over_batch(self, family):
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((family.state_dim, 4))
        theta = rng.standard_normal(family.param_dim) * 0.5
        vs = rng.standard_normal((family.state_dim, 4))
        batched = family.vjp_params(xs, theta, vs)
        summed = sum(family.vjp_params(xs[:, b], theta, vs[:, b]) for b in range(4))
        assert np.allclose(batched, summed, rtol=1e-12, atol=1e-14)

    def test_shape_validation(self, family):
        good_x = np.zeros(family.state_dim)
        with pytest.raises(ValueError):
            family.eval(np.zeros(family.state_dim + 1), np.zeros(family.param_dim))
        with pytest.raises(ValueError):
            family.eval(good_x, np.zeros(family.param_dim + 1))
        with pytest.raises(ValueError):
            family.vjp_state(good_x, np.zeros(family.param_dim), np.zeros((family.state_dim, 2)))
        with pytest.raises(ValueError):
            family.vjp_params(good_x, np.zeros(family.param_dim), np.zeros((family.state_dim, 2)))


def reference_vjps(family, x, theta, v):
    """Each family's separate vjp_state and vjp_params formulas from
    before the fused pullback, kept as an independent reference."""
    if family.name == "linear":
        d = family.state_dim
        mat = theta.reshape(d, d)
        d_theta = np.outer(v, x) if x.ndim == 1 else np.einsum("ib,jb->ij", v, x)
        return mat.T @ v, d_theta.ravel()
    if family.name == "mlp":
        d = family.state_dim
        hidden = family.param_dim // (2 * d)
        w1, w2 = theta[:hidden * d].reshape(hidden, d), theta[hidden * d:].reshape(d, hidden)
        a = np.tanh(w1 @ x)
        u = (1.0 - a**2) * (w2.T @ v)
        if x.ndim == 1:
            g1, g2 = np.outer(u, x), np.outer(v, a)
        else:
            g1, g2 = np.einsum("hb,db->hd", u, x), np.einsum("db,hb->dh", v, a)
        return w1.T @ u, np.concatenate([g1.ravel(), g2.ravel()])
    scale = 2.0 * theta[0] if family.name == "square" else 1.0
    return np.zeros_like(v), np.array([scale * float(np.sum(v))])


@pytest.mark.parametrize("batch", [None, 64], ids=["unbatched", "B64"])
@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
class TestLinearize:
    """The bound linearize_block(xs, lo) -> (values, jac_t, vjp_theta) of
    a block of layers lo..lo + J - 1: one stacked forward pass shared by
    the stacked transposed state Jacobians and every parameter pullback
    taken from it, each row as the one layer alone."""

    LAYERS = 3  # block layers 1..3 of five rows

    @classmethod
    def draw(cls, family, batch, seed, layers=LAYERS):
        rng = np.random.default_rng(seed)
        shape = (layers, family.state_dim) + (() if batch is None else (batch,))
        rows = rng.standard_normal((layers + 2, family.param_dim)) * 0.7
        return (rng.standard_normal(shape), rows,
                rng.standard_normal(shape), rng.standard_normal(shape))

    def test_value_is_eval_bit_exactly(self, family, batch):
        xs, rows, _, _ = self.draw(family, batch, 31)
        values, _, _ = family._bind(rows)[1](xs, 1)
        assert values.shape == xs.shape
        for j, x in enumerate(xs):
            assert np.array_equal(values[j], family.eval(x, rows[1 + j]))

    def test_pullback_matches_separate_formulas(self, family, batch):
        xs, rows, vs, ws = self.draw(family, batch, 32)
        _, jac_t, vjp_theta = family._bind(rows)[1](xs, 1)
        for cotangents in (vs, ws, vs + ws):  # one linearization, several pullbacks
            d_theta = vjp_theta(cotangents)
            for j, (x, v) in enumerate(zip(xs, cotangents)):
                want = reference_vjps(family, x, rows[1 + j], v)
                for got, w in zip((_jac_t_dot(jac_t[j], v), d_theta[j]), want):
                    assert got.shape == w.shape
                    assert np.max(np.abs(got - w)) <= 1e-14 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("layers", [1, SWEEP_BLOCK, 7], ids=["one", "full", "partial"])
    def test_jacobians_match_the_oracle(self, family, batch, layers):
        """jac_t[j] is the transpose of ``oracles.jac_state`` at layer
        lo + j's point, input by input, for any block length."""
        xs, rows, _, _ = self.draw(family, batch, 35, layers)
        d = family.state_dim
        jac_t = family._bind(rows)[1](xs, 1)[1]
        assert jac_t.shape == (layers, d, d) + xs.shape[2:]
        for j, x in enumerate(xs):
            inputs = [(x, jac_t[j])] if batch is None else [
                (x[:, b], jac_t[j][:, :, b]) for b in range(batch)]
            for point, got in inputs:
                want = jac_state(family, point, rows[1 + j]).T
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_public_vjps_are_the_pullback_halves(self, family, batch):
        """The checked ``vjp_state`` is the transposed Jacobian's product
        with the cotangent, and ``vjp_params`` the stacked pullback's row."""
        xs, rows, vs, _ = self.draw(family, batch, 33)
        _, jac_t, vjp_theta = family._bind(rows)[1](xs, 1)
        d_theta = vjp_theta(vs)
        for j, (x, v) in enumerate(zip(xs, vs)):
            assert np.array_equal(family.vjp_state(x, rows[1 + j], v), _jac_t_dot(jac_t[j], v))
            assert np.array_equal(family.vjp_params(x, rows[1 + j], v), d_theta[j])

    def test_pullbacks_write_fresh_gradients(self, family, batch):
        """Two parameter pullbacks of one linearization write separate
        gradient rows: the second leaves the first unchanged, and neither
        shares memory with the inputs."""
        xs, rows, vs, ws = self.draw(family, batch, 34)
        _, _, vjp_theta = family._bind(rows)[1](xs, 1)
        first = vjp_theta(vs)
        kept = first.copy()
        second = vjp_theta(ws)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)
        for grad in (first, second):
            assert grad.shape == (self.LAYERS, family.param_dim) and grad.dtype == np.float64
            assert grad.flags.c_contiguous and grad.flags.writeable
            for other in (xs, vs, ws, rows):
                assert not np.shares_memory(grad, other)
        assert not np.shares_memory(first, second)


class TestSpecificFamilies:
    def test_identity_and_square_values(self):
        ident = make_identity_family()
        square = make_square_family()
        x = np.array([2.0])
        assert ident.eval(x, np.array([3.0])) == pytest.approx([3.0])
        assert square.eval(x, np.array([3.0])) == pytest.approx([9.0])
        # both are state independent
        v = np.array([1.7])
        assert ident.vjp_state(x, np.array([3.0]), v) == pytest.approx([0.0])
        assert square.vjp_state(x, np.array([3.0]), v) == pytest.approx([0.0])
        assert square.vjp_params(x, np.array([3.0]), v) == pytest.approx([2 * 3.0 * 1.7])

    def test_linear_family_is_matrix_action(self):
        fam = make_linear_family(2)
        theta = np.array([1.0, 2.0, 3.0, 4.0])  # [[1,2],[3,4]] row-major
        x = np.array([1.0, -1.0])
        assert fam.eval(x, theta) == pytest.approx([-1.0, -1.0])
        assert np.allclose(jac_state(fam, x, theta), [[1, 2], [3, 4]])

    def test_mlp_zero_weights_is_zero_map(self):
        fam = make_mlp_family(3, 5)
        x = np.linspace(-1, 1, 3)
        out = fam.eval(x, np.zeros(fam.param_dim))
        assert np.all(out == 0.0)

    def test_mlp_fixes_origin(self):
        fam = make_mlp_family(2, 4)
        theta = np.random.default_rng(0).standard_normal(fam.param_dim)
        assert np.allclose(fam.eval(np.zeros(2), theta), 0.0)

    @pytest.mark.parametrize("make, dims", [(make_linear_family, (0,)),
                                            (make_mlp_family, (0, 8)), (make_mlp_family, (4, 0))],
                             ids=["linear_d0", "mlp_d0", "mlp_hidden0"])
    def test_empty_dimensions_are_rejected(self, make, dims):
        with pytest.raises(ValueError, match=">= 1"):
            make(*dims)


class TestBlend:
    """The bound blend(alphas) -> at(n) -> g(x, m), the interpolation
    kernel of interval n, against ``_eval_blend``, the weighted sum of two evals."""

    ALPHAS = [0.0, 1.0 / 3.0, 0.5, 0.75, 1.0 - 2.0 ** -52, 1.0]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    def test_generic_default_is_the_weighted_sum(self, family):
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((4, family.param_dim))
        f, _, blend = family._bind(rows)
        for n in range(3):
            kernels = [_eval_blend(f)(self.ALPHAS)(n)]
            if family.name != "mlp":  # the mlp's own blend is fused, below
                kernels.append(blend(self.ALPHAS)(n))
            for x in (rng.standard_normal(family.state_dim),
                      rng.standard_normal((family.state_dim, 5))):
                for m, alpha in enumerate(self.ALPHAS):
                    expected = ((1.0 - alpha) * family.eval(x, rows[n])
                                + alpha * family.eval(x, rows[n + 1]))
                    for kernel in kernels:
                        assert np.array_equal(kernel(x, m), expected)

    @pytest.mark.parametrize("d,hidden", [(1, 8), (2, 3), (4, 8)])
    def test_mlp_fused_blend_matches_generic(self, d, hidden):
        fam = make_mlp_family(d, hidden)
        rng = np.random.default_rng(22)
        for _ in range(5):
            rows = rng.standard_normal((5, fam.param_dim))
            f, _, blend = fam._bind(rows)
            for n in range(4):
                fused, plain = blend(self.ALPHAS)(n), _eval_blend(f)(self.ALPHAS)(n)
                for x in (rng.standard_normal(d), rng.standard_normal((d, 6))):
                    for m in range(len(self.ALPHAS)):
                        want = plain(x, m)
                        gap = np.max(np.abs(fused(x, m) - want))
                        assert gap <= 1e-15 * max(1.0, np.max(np.abs(want)))
                    # the end weights keep one layer, so they are f itself
                    assert np.array_equal(fused(x, 0), fam.eval(x, rows[n]))
                    assert np.array_equal(fused(x, len(self.ALPHAS) - 1),
                                          fam.eval(x, rows[n + 1]))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    def test_one_binding_serves_every_interval(self, family):
        """One ``at`` called for intervals in any order, its kernel used
        before the next call, gives each interval's kernel bit for bit."""
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((5, family.param_dim))
        blend = family._bind(rows)[2]
        at = blend(self.ALPHAS)
        x = rng.standard_normal((family.state_dim, 3))
        for n in (3, 0, 2, 2, 1):
            g, fresh = at(n), blend(self.ALPHAS)(n)
            for m in range(len(self.ALPHAS)):
                assert np.array_equal(g(x, m), fresh(x, m))


def matmul_kernels(family, x, theta, v):
    """The linear and mlp kernels written with ``@`` and ``np.concatenate``,
    as they were before the kernels called ``np.dot`` and wrote into one
    gradient buffer, for one layer: f(x, theta), the linearization's
    value, its transposed state Jacobian (one (d, d) matrix per input,
    inputs on the last axis) and its parameter pullback at v."""
    def outer_sum(p, q):
        return (p.reshape(p.shape[0], -1) @ q.reshape(q.shape[0], -1).T).ravel()

    d = family.state_dim
    per_input = x.shape[1:]
    if family.name == "linear":
        a = theta.reshape(d, d)
        jac_t = np.broadcast_to(a.T.reshape((d, d) + (1,) * len(per_input)), (d, d) + per_input)
        return a @ x, a @ x, jac_t, outer_sum(v, x)
    n1 = family.param_dim // 2
    w1, w2 = theta[:n1].reshape(-1, d), theta[n1:].reshape(d, -1)
    a = np.tanh(w1 @ x)
    slope = 1.0 - a**2
    pairs = (w1.T[:, None, :] * w2[None]).reshape(d * d, -1)
    u = slope * (w2.T @ v)
    return (w2 @ np.tanh(w1 @ x), w2 @ a, (pairs @ slope).reshape((d, d) + per_input),
            np.concatenate([outer_sum(u, x), outer_sum(v, a)]))


def matmul_blend(family, theta_a, theta_b, alphas):
    """The fused mlp blend kernel written with ``@``."""
    d = family.state_dim
    n1 = family.param_dim // 2
    hidden = n1 // d

    def unpack(theta):
        return theta[:n1].reshape(hidden, d), theta[n1:].reshape(d, hidden)

    ends = {0.0: unpack(theta_a), 1.0: unpack(theta_b)}
    w1 = np.concatenate([theta_a[:n1], theta_b[:n1]]).reshape(2 * hidden, d)
    alpha = np.asarray(alphas, dtype=float)[:, None, None]
    table = np.concatenate([(1.0 - alpha) * ends[0.0][1], alpha * ends[1.0][1]], axis=2)
    layers = [ends.get(a) or (w1, table[m]) for m, a in enumerate(alphas)]
    return lambda x, m: layers[m][1] @ np.tanh(layers[m][0] @ x)


BIT_FAMILIES = [make_mlp_family(1, 8), make_mlp_family(2, 3), make_mlp_family(4, 8),
                make_linear_family(1), make_linear_family(3)]
def state_shape(family, batch):
    return (family.state_dim,) if batch is None else (family.state_dim, batch)


def assert_bit_equal(got, want):
    """Equal shapes, dtypes and bytes, so signed zeros count too."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("batch", [None, 0, 1, 64], ids=lambda b: "unbatched" if b is None else f"B{b}")
class TestKernelsBitForBit:
    """The ``np.dot`` kernels, bound to a stack of rows and called at a
    row index, reproduce the ``@`` forms on that row bit for bit, so the
    chains, sweeps and oracle keep their outputs byte-identical."""

    @pytest.mark.parametrize("family", BIT_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    def test_eval_linearize_and_pullback(self, family, batch):
        """Every row of a block linearization, at the block's first layer
        and past it, is the one-row ``@`` form."""
        rng = np.random.default_rng(41)
        shape = state_shape(family, batch)
        for _ in range(2):
            rows = rng.standard_normal((5, family.param_dim)) * 0.7
            rows.setflags(write=False)  # read-only, as WeightSchedule.padded is
            f, linearize_block = family._bind(rows)[:2]
            for lo in (0, 2):
                xs = rng.standard_normal((rows.shape[0] - lo,) + shape)
                vs = rng.standard_normal(xs.shape)
                values, jac_t, vjp_theta = linearize_block(xs, lo)
                d_theta = vjp_theta(vs)
                for j, (x, v) in enumerate(zip(xs, vs)):
                    got = (f(x, lo + j), values[j], jac_t[j], d_theta[j])
                    for g, w in zip(got, matmul_kernels(family, x, rows[lo + j], v)):
                        assert_bit_equal(g, w)

    @pytest.mark.parametrize("d", [1, 4])
    def test_mlp_stacked_products_are_the_dot_form(self, d, batch):
        """A block's values, Jacobians and parameter rows at d = 1, where
        the stacked W1 x and W2^T v are (h, 1) @ (1, B) outer products
        taken by einsum, and at d = 4, where they are np.matmul, are the
        one-layer ``ndarray.dot`` forms byte for byte.  The states and
        cotangents hold zeros and half the weights are negative, and
        ``_outer`` gives np.matmul's bytes, signed zeros included."""
        fam = make_mlp_family(d, 8)
        rng = np.random.default_rng(43)
        rows = rng.standard_normal((SWEEP_BLOCK + 1, fam.param_dim))
        shape = (SWEEP_BLOCK,) + state_shape(fam, batch)
        xs = np.where(rng.random(shape) < 0.3, 0.0, rng.standard_normal(shape))
        vs = np.where(rng.random(shape) < 0.3, 0.0, rng.standard_normal(shape))
        values, jac_t, vjp_theta = fam._bind(rows)[1](xs, 1)
        d_theta = vjp_theta(vs)
        n1 = fam.param_dim // 2
        w1s, w2s = rows[1:, :n1].reshape(-1, 8, d), rows[1:, n1:].reshape(-1, d, 8)
        cols = xs.reshape(SWEEP_BLOCK, d, -1)
        assert_bit_equal(_outer(w1s[..., :1], cols[:, :1]), np.matmul(w1s[..., :1], cols[:, :1]))
        for j, (x, v) in enumerate(zip(xs, vs)):
            w1, w2 = w1s[j], w2s[j]
            a = np.tanh(w1.dot(x))
            slope = 1.0 - a**2
            u = slope * w2.T.dot(v)
            pairs = (w1.T[:, None, :] * w2[None]).reshape(d * d, 8)
            assert_bit_equal(values[j], w2.dot(a))
            assert_bit_equal(jac_t[j], pairs.dot(slope).reshape(jac_t[j].shape))
            assert_bit_equal(d_theta[j], np.concatenate([
                u.reshape(8, -1).dot(x.reshape(d, -1).T).ravel(),
                v.reshape(d, -1).dot(a.reshape(8, -1).T).ravel()]))

    @pytest.mark.parametrize("d,hidden", [(1, 8), (2, 3), (4, 8)])
    def test_mlp_blend(self, d, hidden, batch):
        fam = make_mlp_family(d, hidden)
        rng = np.random.default_rng(42)
        alphas = TestBlend.ALPHAS
        for _ in range(5):
            rows = rng.standard_normal((4, fam.param_dim))
            rows.setflags(write=False)
            blend = fam._bind(rows)[2]
            for n in range(3):
                got, want = blend(alphas)(n), matmul_blend(fam, rows[n], rows[n + 1], alphas)
                x = rng.standard_normal(state_shape(fam, batch))
                for m in range(len(alphas)):
                    assert_bit_equal(got(x, m), want(x, m))


def held(fn):
    """What a kernel's closure holds, and what the bound kernels it calls
    hold (``_eval_blend`` holds the bound eval)."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        found.extend(held(value) if inspect.isfunction(value) else [value])
    return found


class TestBindingHoldsNothingPerLayer:
    """Binding a family to a schedule makes views of its one buffer: no
    per-layer weights are built, whatever the depth, for any of the
    three kernels."""

    @pytest.mark.parametrize("family", [make_mlp_family(1, 8), make_linear_family(3)],
                             ids=lambda f: f"{f.name}{f.state_dim}")
    def test_bound_weights_are_views_of_the_schedule(self, family):
        schedule = WeightSchedule(np.random.default_rng(5).standard_normal((7, family.param_dim)))
        kernels = family._bind(schedule.padded)
        assert len(kernels) == 3
        for kernel in kernels:
            contents = held(kernel)
            weights = [a for a in contents if isinstance(a, np.ndarray)]
            assert weights and not any(isinstance(a, (list, tuple, dict)) for a in contents)
            assert all(np.shares_memory(w, schedule.padded) for w in weights)

    @staticmethod
    def bind_peak(family, depth):
        """Peak heap of binding a depth-``depth`` schedule and building the
        blend kernel of its last interval."""
        schedule = WeightSchedule(np.ones((depth, family.param_dim)))
        family._bind(schedule.padded)[2](TestBlend.ALPHAS)(depth - 1)  # warm
        gc.collect()
        tracemalloc.start()
        tracemalloc.reset_peak()
        family._bind(schedule.padded)[2](TestBlend.ALPHAS)(depth - 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    def test_bind_peak_does_not_grow_with_depth(self, family):
        assert self.bind_peak(family, 10_000) <= self.bind_peak(family, 100) + 512


class TestWeightSchedule:
    def test_construct_copies_and_freezes(self):
        rows = np.ones((3, 2))
        sched = WeightSchedule(rows)
        rows[0, 0] = 99.0
        assert sched.params[0][0] == 1.0
        with pytest.raises(ValueError):
            sched.params[0, 0] = 5.0

    def test_padding_rule(self):
        sched = make_index_schedule(4)
        assert sched.padded[3] == pytest.approx([3.0])
        # theta_N falls back to the last stored row
        assert sched.padded[4] == pytest.approx([3.0])
        with pytest.raises(IndexError):
            sched.padded[5]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            WeightSchedule(np.ones(4))
        with pytest.raises(ValueError):
            WeightSchedule(np.ones((0, 2)))
        with pytest.raises(ValueError):
            WeightSchedule(np.array([[np.nan]]))


class TestScheduleStatistics:
    def test_index_schedule(self):
        sched = make_index_schedule(3)
        assert sched.depth == 3 and sched.param_dim == 1
        assert np.array_equal(sched.params.ravel(), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            make_index_schedule(0)
