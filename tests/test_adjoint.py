import gc
import tracemalloc

import numpy as np
import pytest

from odenet import adjoint
from odenet.adjoint import (
    SWEEP_BLOCK,
    _sweep,
    backprop_adjoint_euler,
    backprop_adjoint_heun,
    backprop_exact,
    backprop_exact_heun,
    adjoint_sweep_euler,
    adjoint_sweep_heun,
    compare_gradients,
)
from odenet.dynamics import (
    EULER,
    HEUN,
    DivergenceError,
    Trajectory,
    _forward,
    _transitions,
    forward_euler_chain,
    forward_heun_chain,
    interpolate,
    solve_ode_oracle,
)
from odenet.numerics import fit_loglog_slope
from odenet.residual_models import (
    ResidualFamily,
    WeightSchedule,
    make_identity_family,
    make_linear_family,
    make_mlp_family,
    make_square_family,
)
from odenet.harness import _adjoint_depth_metrics
from claims import CLAIMS
from oracles import finite_difference_gradient, jac_state, layer_sweep, reverse_nodes


def layer_rows(blocks, depth):
    """A sweep's (lo, own, grads, xs) blocks as its (grad_theta, grad_x, x)
    arrays, row n belonging to layer n, once the blocks are checked to
    tile layers depth-1..0 from the top block down."""
    blocks = list(blocks)
    assert [lo + len(own) for lo, own, _, _ in blocks] == [depth] + [
        lo for lo, *_ in blocks[:-1]]
    assert blocks[-1][0] == 0
    return tuple(np.concatenate([block[i] for block in blocks[::-1]]) for i in (1, 2, 3))


def constant_schedule(theta, depth):
    return WeightSchedule(np.tile(np.asarray(theta, dtype=float), (depth, 1)))


def cubic_profile_schedule(depth, param_dim, seed=3, scale=0.25):
    """Rows g(n/N) for a fixed random cubic g scaled to sup-norm `scale`."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((4, param_dim))

    def evaluate(s):
        vals = np.zeros((s.size, param_dim))
        for c in coeffs:
            vals = vals * s[:, None] + c
        return vals

    grid = evaluate(np.linspace(0.0, 1.0, 513))
    factor = scale / np.max(np.abs(grid))
    return WeightSchedule(evaluate(np.arange(depth) / depth) * factor)


class TestExactBackpropEuler:
    def test_scalar_linear_hand_values(self):
        """Chain 1 -> 1.5 -> 2.25 with unit residual weight, L = x_2."""
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_euler_chain(fam, sched, np.array([1.0]))
        g = np.array([1.0])
        grads = backprop_exact(fam, sched, traj, g)
        _, g_xs, _ = layer_rows(_sweep(EULER, fam, sched, traj.nodes[-1], g, traj.nodes), 2)
        assert g_xs[:, 0].tolist() + [g[0]] == [2.25, 1.5, 1.0]
        assert grads[:, 0].tolist() == [0.75, 0.75]

    def test_zero_weight_mlp(self):
        # tanh net at the origin of weight space is the identity chain
        fam = make_mlp_family(2, 3)
        sched = WeightSchedule(np.zeros((4, fam.param_dim)))
        traj = forward_euler_chain(fam, sched, np.array([0.3, -0.8]))
        g = np.array([1.0, 2.0])
        grads = backprop_exact(fam, sched, traj, g)
        assert np.all(grads == 0.0)
        _, g_xs, _ = layer_rows(_sweep(EULER, fam, sched, traj.nodes[-1], g, traj.nodes), 4)
        assert np.all(g_xs == g)

    def test_rejects_heun_trajectory(self):
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_heun_chain(fam, sched, np.ones(1))
        with pytest.raises(ValueError):
            backprop_exact(fam, sched, traj, np.ones(1))

    def test_rejects_depth_and_dim_mismatch(self):
        fam = make_linear_family(1)
        traj = forward_euler_chain(fam, constant_schedule([1.0], 2), np.ones(1))
        with pytest.raises(ValueError):
            backprop_exact(fam, constant_schedule([1.0], 3), traj, np.ones(1))
        with pytest.raises(ValueError):
            backprop_exact(fam, constant_schedule([1.0], 2), traj, np.ones(2))


class TestExactBackpropHeun:
    def test_single_step_scalar_gradient(self):
        """d/dt of x_0 (1 + t + t^2/2) is x_0 (1 + t); the padded final
        stage must route its contribution back to the only real row."""
        fam = make_linear_family(1)
        t = 0.3
        sched = constant_schedule([t], 1)
        traj = forward_heun_chain(fam, sched, np.array([1.0]))
        grads = backprop_exact_heun(fam, sched, traj, np.array([1.0]))
        assert grads[0, 0] == pytest.approx(1.0 + t, rel=1e-12)

    def test_state_independent_two_term_assembly(self):
        # f = theta^2: dL/dtheta_n = (g_{n+1} + g_{n+2}-stage terms) * theta
        fam = make_square_family()
        sched = WeightSchedule(np.array([[0.4], [-0.9], [0.7]]))
        x0 = np.array([0.2])
        traj = forward_heun_chain(fam, sched, x0)
        grads = backprop_exact_heun(fam, sched, traj, np.ones(1))

        def loss(flat):
            t = forward_heun_chain(fam, WeightSchedule(flat.reshape(3, 1)), x0)
            return t.nodes[-1, 0]

        fd = finite_difference_gradient(loss, sched.params.ravel(), eps=1e-6)
        assert np.max(np.abs(fd - grads.ravel())) <= 1e-8

    def test_rejects_missing_midpoints(self):
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_euler_chain(fam, sched, np.ones(1))
        with pytest.raises(ValueError):
            backprop_exact_heun(fam, sched, traj, np.ones(1))


def _fd_reference(fam, sched, x0, target, scheme):
    forward = forward_euler_chain if scheme == "euler" else forward_heun_chain

    def loss(flat):
        t = forward(fam, WeightSchedule(flat.reshape(sched.params.shape)), x0)
        return 0.5 * float(np.sum((t.nodes[-1] - target) ** 2))

    return finite_difference_gradient(loss, sched.params.ravel(), eps=1e-6)


FD_FAMILIES = [
    make_identity_family(),
    make_square_family(),
    make_linear_family(2),
    make_mlp_family(2, 3),
]


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("depth", [1, 2, 8])
    @pytest.mark.parametrize("fam", FD_FAMILIES, ids=lambda f: f.name)
    def test_exact_matches_fd(self, fam, depth, scheme):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            sched = WeightSchedule(rng.standard_normal((depth, fam.param_dim)) * 0.5)
            x0 = rng.standard_normal(fam.state_dim)
            target = rng.standard_normal(fam.state_dim)
            forward = forward_euler_chain if scheme == "euler" else forward_heun_chain
            backprop = backprop_exact if scheme == "euler" else backprop_exact_heun
            traj = forward(fam, sched, x0)
            grads = backprop(fam, sched, traj, traj.nodes[-1] - target)
            fd = _fd_reference(fam, sched, x0, target, scheme)
            exact = grads.ravel()
            rel = np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-15)
            assert rel <= 1e-6

    def test_mechanical_heun_assembly_beats_displayed_pairing(self):
        """The two-term layer gradient pairs each stage with the state
        gradient one node above it.  Pairing with the same-index and
        lower-index node gradients instead (the other plausible reading
        of the assembly) leaves a visibly larger residual against finite
        differences on a varying schedule."""
        fam = make_mlp_family(2, 3)
        sched = cubic_profile_schedule(8, fam.param_dim, seed=5)
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(2)
        target = rng.standard_normal(2)
        traj = forward_heun_chain(fam, sched, x0)
        g = traj.nodes[-1] - target
        grads = backprop_exact_heun(fam, sched, traj, g)
        fd = _fd_reference(fam, sched, x0, target, "heun")
        _, state_grads, _ = layer_rows(
            _sweep(HEUN, fam, sched, traj.nodes[-1], g, traj.nodes), sched.depth)

        N = sched.depth
        alt = np.zeros_like(grads)
        for n in range(N):
            g_here = state_grads[n]
            g_below = state_grads[max(n - 1, 0)]
            y_n = traj.nodes[n] + fam.eval(traj.nodes[n], sched.params[n]) / N
            u = fam.vjp_state(y_n, sched.padded[n + 1], g_here)
            alt[n] += fam.vjp_params(traj.nodes[n], sched.params[n], g_here + u / N) / (2 * N)
            alt[min(n + 1, N - 1)] += fam.vjp_params(
                y_n, sched.padded[n + 1], g_below) / (2 * N)
        res_mech = np.linalg.norm(fd - grads.ravel())
        res_alt = np.linalg.norm(fd - alt.ravel())
        print(f"assembly residuals: adjacent-node {res_mech:.3e}, "
              f"same-node {res_alt:.3e}")
        assert res_mech <= 1e-8
        assert res_alt > 100 * res_mech


def swept_nodes(sweep, fam, sched, xN):
    """x~_0..x~_N: the states a memory-free sweep yields, below its input xN."""
    nodes = np.empty((sched.depth + 1,) + np.shape(xN))
    nodes[-1] = xN
    for lo, _, _, xs in sweep(fam, sched, xN, np.ones_like(xN)):
        nodes[lo:lo + len(xs)] = xs
    return nodes


def node_errors(nodes, traj):
    """Euclidean gap to the stored trajectory at each node."""
    return np.sqrt(np.sum((nodes - traj.nodes) ** 2, axis=tuple(range(1, nodes.ndim))))


class TestReconstructionEuler:
    def test_zero_residual_is_exact(self):
        fam = make_mlp_family(2, 2)
        sched = WeightSchedule(np.zeros((5, fam.param_dim)))
        traj = forward_euler_chain(fam, sched, np.array([1.0, -2.0]))
        nodes = swept_nodes(adjoint_sweep_euler, fam, sched, traj.nodes[-1])
        assert np.max(node_errors(nodes, traj)) == 0.0

    def test_scalar_linear_hand_values(self):
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_euler_chain(fam, sched, np.array([1.0]))
        nodes = swept_nodes(adjoint_sweep_euler, fam, sched, traj.nodes[-1])
        errors = node_errors(nodes, traj)
        assert nodes[:, 0].tolist() == [0.5625, 1.125, 2.25]
        assert errors.tolist() == [0.4375, 0.375, 0.0]
        assert np.max(errors) == 0.4375

    def test_reverse_divergence_reports_layer(self):
        fam = make_linear_family(1)
        with pytest.raises(DivergenceError) as exc:
            list(adjoint_sweep_euler(fam, constant_schedule([-400.0], 8),
                                     np.array([1.0]), np.ones(1)))
        assert exc.value.layer is not None


class TestReconstructionHeun:
    def test_state_independent_residual_inverts(self):
        fam = make_square_family()
        sched = WeightSchedule(np.array([[0.4], [-0.9], [0.7], [0.1]]))
        traj = forward_heun_chain(fam, sched, np.array([0.2]))
        nodes = swept_nodes(adjoint_sweep_heun, fam, sched, traj.nodes[-1])
        assert np.max(node_errors(nodes, traj)) <= 1e-14

    def test_scalar_linear_hand_values(self):
        """Reverse factor per step is 1 - 3/8 = 0.625 at N = 2."""
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_heun_chain(fam, sched, np.array([1.0]))
        nodes = swept_nodes(adjoint_sweep_heun, fam, sched, traj.nodes[-1])
        errors = node_errors(nodes, traj)
        assert nodes[1, 0] == 0.625 * 2.640625
        assert errors[1] == pytest.approx(0.025390625, abs=0)
        # an order smaller than the single-stage miss at the same node
        euler_traj = forward_euler_chain(fam, sched, np.ones(1))
        euler = node_errors(
            swept_nodes(adjoint_sweep_euler, fam, sched, euler_traj.nodes[-1]), euler_traj)
        assert errors[1] < euler[1] / 10

    def test_error_vanishes_at_output_node(self):
        """The study's recon_max_error is the largest node gap, the zero
        at x_N included, bit for bit."""
        fam = make_mlp_family(2, 3)
        sched = cubic_profile_schedule(6, fam.param_dim)
        x0 = np.array([0.5, 0.5])
        traj = forward_heun_chain(fam, sched, x0)
        errors = node_errors(swept_nodes(adjoint_sweep_heun, fam, sched, traj.nodes[-1]), traj)
        assert errors[-1] == 0.0
        metrics, _ = _adjoint_depth_metrics(HEUN, fam, sched, x0, np.zeros(2))
        assert metrics[0][0] == np.max(errors)


class TestSweepStates:
    """The x_n a sweep yields is the state it linearized layer n at."""

    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("depth", [1, 2, 7, 64])
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    @pytest.mark.parametrize("fam", FD_FAMILIES, ids=lambda f: f.name)
    def test_adjoint_states_equal_the_reverse_step_loop(self, fam, scheme, depth, batch):
        """Bit-equal to the scheme's reverse step through the checked
        ``eval``, so the Heun sweep's reuse of the pullback's
        f(x~_n, theta_n) changes no state."""
        sched = cubic_profile_schedule(depth, fam.param_dim, seed=depth, scale=0.8)
        rng = np.random.default_rng(depth)
        shape = (fam.state_dim,) if batch is None else (fam.state_dim, batch)
        xN = _forward(scheme, fam, sched, rng.standard_normal(shape), store=False)
        sweep = adjoint_sweep_heun if scheme is HEUN else adjoint_sweep_euler
        _, _, xs = layer_rows(sweep(fam, sched, xN, rng.standard_normal(shape)), depth)
        assert np.array_equal(xs, reverse_nodes(scheme, fam, sched, xN)[:-1])

    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    @pytest.mark.parametrize("fam", FD_FAMILIES, ids=lambda f: f.name)
    def test_exact_sweep_yields_the_stored_nodes(self, fam, scheme, batch):
        sched = cubic_profile_schedule(7, fam.param_dim)
        rng = np.random.default_rng(1)
        shape = (fam.state_dim,) if batch is None else (fam.state_dim, batch)
        traj = _forward(scheme, fam, sched, rng.standard_normal(shape))
        blocks = list(_sweep(scheme, fam, sched, traj.nodes[-1], np.ones(shape), traj.nodes))
        layer_rows(blocks, 7)
        for lo, _, _, xs in blocks:
            for j, x_n in enumerate(xs):
                assert np.shares_memory(x_n, traj.nodes[lo + j])
                assert np.array_equal(x_n, traj.nodes[lo + j])


SWEEP_DEPTHS = [1, 2, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK + 3, 300]
RECURSION_DEPTHS = [1, 2, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK + 1, 300]
# Every family at d = 1 and d = 3.
RECURSION_FAMILIES = [make_identity_family(), make_square_family(), make_linear_family(1),
                      make_linear_family(3), make_mlp_family(1, 8), make_mlp_family(3, 5)]


def sweep_case(fam, scheme, depth, batch):
    """A schedule, its stored trajectory and an output gradient."""
    sched = cubic_profile_schedule(depth, fam.param_dim, seed=depth, scale=0.8)
    rng = np.random.default_rng(depth)
    shape = (fam.state_dim,) if batch is None else (fam.state_dim, batch)
    traj = _forward(scheme, fam, sched, rng.standard_normal(shape))
    return sched, traj, rng.standard_normal(shape)


class TestBlockedSweep:
    """The blocked reverse sweep against the same sweep taken one layer
    per block, bit for bit, and against ``oracles.layer_sweep``, the
    per-layer cotangent recursion through the checked kernels, to
    rounding."""

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "memory_free"])
    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("depth", SWEEP_DEPTHS)
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    @pytest.mark.parametrize("fam", FD_FAMILIES, ids=lambda f: f.name)
    def test_bit_equal_to_the_layer_sweep(self, fam, scheme, depth, batch, stored,
                                          monkeypatch):
        """Blocking changes no output byte: a layer's transition matrix
        and parameter rows do not depend on the block they were built in."""
        sched, traj, g = sweep_case(fam, scheme, depth, batch)
        nodes = traj.nodes if stored else None
        got = layer_rows(_sweep(scheme, fam, sched, traj.nodes[-1], g, nodes), depth)
        monkeypatch.setattr(adjoint, "SWEEP_BLOCK", 1)
        want = layer_rows(_sweep(scheme, fam, sched, traj.nodes[-1], g, nodes), depth)
        for a, b in zip(got, want):  # grad_theta, grad_x, x
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "memory_free"])
    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("depth", RECURSION_DEPTHS)
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    @pytest.mark.parametrize("fam", RECURSION_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    def test_matches_the_per_layer_recursion(self, fam, scheme, depth, batch, stored):
        """Each layer's transition matrix gives the gradients the per-layer
        recursion does, within 1e-13 of each yielded array's largest
        entry, and the same states bit for bit."""
        sched, traj, g = sweep_case(fam, scheme, depth, batch)
        nodes = traj.nodes if stored else None
        thetas, gs, xs = layer_rows(_sweep(scheme, fam, sched, traj.nodes[-1], g, nodes), depth)
        want = list(layer_sweep(scheme, fam, sched, traj.nodes[-1], g, nodes))
        assert [n for n, *_ in want] == list(range(depth - 1, -1, -1))
        for n, theta_want, g_want, x_want in want:
            assert np.array_equal(xs[n], x_want)
            for a, b in ((thetas[n], theta_want), (gs[n], g_want)):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("batch", [None, 3])
    def test_scalar_block_multiplies_in_the_recursion_order(self, batch):
        """A scalar state's block is one cumulative product.  Factors of
        1e+-150 from g = 1e-300 keep every partial product of the
        recursion finite until the fifth factor of 1e150 in a row
        overflows it, at the bottom layer; the factors' own running
        product overflows at the third.  The block equals the per-layer
        loop g_n = m_n g_{n+1} bit for bit, the infinity included."""
        big, small = [1e150] * 3, [1e-150] * 3
        per_input = np.array(big + small + big + small + [0.5, 2.0] + [1e150] * 5)
        top_down = per_input[:, None] * np.linspace(1.0, 1.5, 3)[None, :]
        ms = top_down[::-1][:, None, None, :]                  # ms[j] = m_j, top layer last
        g = np.full(3, 1e-300)
        if batch is None:
            ms, g = ms[..., 0], g[:1]
        grads = np.empty((len(ms) + 1,) + g.shape)
        grads[-1] = g
        want = grads.copy()
        with np.errstate(over="ignore"):
            _transitions(ms, grads)
            for j in range(len(ms) - 1, -1, -1):
                want[j] = ms[j].reshape(g.shape) * want[j + 1]
            assert not np.all(np.isfinite(np.cumprod(ms[::-1], axis=0)[:12]))
        finite = np.isfinite(want).all(axis=tuple(range(1, want.ndim)))
        assert finite.tolist() == [False] + [True] * len(ms)
        assert grads.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layer", [SWEEP_BLOCK + 3, SWEEP_BLOCK + 2],
                             ids=["lowest_of_block", "highest_of_next"])
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    def test_divergence_at_a_block_edge_reports_the_layer(self, scheme, layer):
        """At N = 2 SWEEP_BLOCK + 3 the top block is layers SWEEP_BLOCK + 3
        and up; one layer whose reverse step scales x~ by about 1e14 stops
        both sweeps there."""
        N = 2 * SWEEP_BLOCK + 3
        rows = np.zeros((N, 1))
        rows[layer] = -1e14 * N
        sched, fam = WeightSchedule(rows), make_linear_family(1)
        message = f"adjoint sweep diverged at layer {layer}"
        for sweep in (_sweep, layer_sweep):
            with pytest.raises(DivergenceError, match=message) as exc:
                list(sweep(scheme, fam, sched, np.ones(1), np.ones(1)))
            assert exc.value.layer == layer


class TestAdjointBackprop:
    def test_euler_hand_values(self):
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        grads = backprop_adjoint_euler(fam, sched, np.array([2.25]), np.ones(1))
        assert grads[:, 0].tolist() == [0.421875, 0.5625]

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_state_independent_family_recovers_exact(self, scheme):
        fam = make_square_family()
        sched = WeightSchedule(np.array([[0.4], [-0.9], [0.7], [0.1]]))
        x0 = np.array([0.2])
        forward = forward_euler_chain if scheme == "euler" else forward_heun_chain
        backprop = backprop_exact if scheme == "euler" else backprop_exact_heun
        adjoint = backprop_adjoint_euler if scheme == "euler" else backprop_adjoint_heun
        traj = forward(fam, sched, x0)
        g = np.array([1.3])
        exact = backprop(fam, sched, traj, g)
        approx = adjoint(fam, sched, traj.nodes[-1], g)
        assert compare_gradients(exact, approx).max_abs <= 1e-14

    def test_non_finite_parameter_row_is_rejected(self):
        """A sweep whose parameter pullback is NaN at one layer, with every
        state finite, fails each backprop_* call on the collected rows."""
        base = make_linear_family(1)

        def bind(rows):
            f, linearize_block, blend = base._bind(rows)

            def nan_row(xs, lo):
                values, jac_t, vjp_theta = linearize_block(xs, lo)

                def pullback(vs):
                    grads = vjp_theta(vs)
                    grads[rows[lo:lo + len(xs), 0] == 0.5] = np.nan
                    return grads
                return values, jac_t, pullback
            return f, nan_row, blend

        fam = ResidualFamily("nan_row", 1, 1, bind)
        sched = WeightSchedule(np.array([[1.0], [0.5], [1.0]]))
        for name in ("backprop_exact", "backprop_exact_heun",
                     "backprop_adjoint_euler", "backprop_adjoint_heun"):
            with pytest.raises(ValueError, match="param_grads"):
                ENTRY_POINTS[name](fam, sched, np.ones(1), np.ones(1))

    def test_sweep_divergence(self):
        fam = make_linear_family(1)
        with pytest.raises(DivergenceError):
            backprop_adjoint_euler(fam, constant_schedule([-400.0], 8),
                                   np.array([1.0]), np.ones(1))

    @pytest.mark.parametrize("batch", [None, 64])
    @pytest.mark.parametrize("depth", [1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK + 1])
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    @pytest.mark.parametrize("fam", RECURSION_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    def test_rows_equal_the_per_layer_sweep(self, fam, scheme, depth, batch):
        """``adjoint_sweep_*`` yield the blocks top block first, ``lo``
        falling by ``SWEEP_BLOCK`` to 0, each block's three arrays one row
        per layer, and their states are the reverse step loop's bit for
        bit.  ``backprop_adjoint_*`` store each block's rows with one slice
        assignment: they equal the blocks' rows byte for byte, Heun's rows
        that take a carry from the block below included."""
        sched, traj, g = sweep_case(fam, scheme, depth, batch)
        backprop, sweep = ((backprop_adjoint_heun, adjoint_sweep_heun) if scheme is HEUN else
                           (backprop_adjoint_euler, adjoint_sweep_euler))
        got = backprop(fam, sched, traj.nodes[-1], g)
        blocks = list(sweep(fam, sched, traj.nodes[-1], g))
        tops = range(depth, 0, -SWEEP_BLOCK)
        assert [lo for lo, *_ in blocks] == [max(hi - SWEEP_BLOCK, 0) for hi in tops]
        for (lo, own, grads, xs), hi in zip(blocks, tops):
            assert len(own) == len(grads) == len(xs) == hi - lo
        rows, _, xs = layer_rows(blocks, depth)
        assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
        want_xs = reverse_nodes(scheme, fam, sched, traj.nodes[-1])[:-1]
        assert xs.shape == want_xs.shape and xs.tobytes() == want_xs.tobytes()


def test_gradient_rows_survive_later_sweeps():
    """The rows one backprop call returns are its own: sweeps run
    afterwards on the same family and schedule leave them unchanged."""
    fam = make_mlp_family(2, 3)
    sched = cubic_profile_schedule(12, fam.param_dim)
    rng = np.random.default_rng(44)
    x0, g, g_other = rng.standard_normal((3, 2, 5))
    traj = forward_heun_chain(fam, sched, x0)
    rows = backprop_adjoint_heun(fam, sched, traj.nodes[-1], g)
    kept = rows.copy()
    later = [backprop_adjoint_heun(fam, sched, traj.nodes[-1], g_other),
             backprop_exact_heun(fam, sched, traj, g_other),
             backprop_adjoint_euler(fam, sched, traj.nodes[-1], g_other)]
    assert np.array_equal(rows, kept)
    assert not np.array_equal(rows, later[0])
    assert not any(np.shares_memory(rows, other) for other in later)


def _batch_growth_bytes(scheme, backprop, depth: int) -> int:
    """Traced allocation peak of one memory-free gradient call at B = 256
    less that at B = 16: parameter-sized arrays cancel, and what is left
    grows with the batch, as any per-layer state buffer would."""
    family = make_mlp_family(1, 8)
    schedule = cubic_profile_schedule(depth, family.param_dim)
    peaks = []
    for batch in (16, 256):
        out = _forward(scheme, family, schedule, np.linspace(-1.0, 1.0, batch)[None],
                       store=False)
        g = np.ones_like(out)
        backprop(family, WeightSchedule(schedule.params[:2]), out, g)  # warm numpy
        gc.collect()
        tracemalloc.start()
        tracemalloc.reset_peak()
        backprop(family, schedule, out, g)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return peaks[1] - peaks[0]


@pytest.mark.parametrize("scheme,backprop", [(EULER, backprop_adjoint_euler),
                                             (HEUN, backprop_adjoint_heun)],
                         ids=["euler", "heun"])
def test_memory_free_gradients_hold_nothing_per_layer(scheme, backprop):
    """The paper's training "without memory consumption in the residual
    layers": the batch-sized part of a memory-free gradient's heap peak
    does not grow with depth."""
    shallow = _batch_growth_bytes(scheme, backprop, 100)
    deep = _batch_growth_bytes(scheme, backprop, 10_000)
    assert deep <= 1.1 * shallow


def _exact_peak_beyond_result(scheme, backprop, depth: int) -> int:
    """Traced allocation peak of one exact gradient call at B = 64 over
    stored nodes, less its (N, param_dim) result."""
    family = make_mlp_family(1, 8)
    schedule = cubic_profile_schedule(depth, family.param_dim)
    x0 = np.linspace(-1.0, 1.0, 64)[None]
    traj = _forward(scheme, family, schedule, x0)
    g = np.ones_like(x0)
    warm = WeightSchedule(schedule.params[:2])
    backprop(family, warm, _forward(scheme, family, warm, x0), g)  # warm numpy
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    backprop(family, schedule, traj, g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak - depth * family.param_dim * 8


@pytest.mark.parametrize("scheme,backprop", [(EULER, backprop_exact),
                                             (HEUN, backprop_exact_heun)],
                         ids=["euler", "heun"])
def test_exact_gradients_hold_one_block_of_layers(scheme, backprop):
    """Exact reverse mode linearizes the stored nodes one block at a
    time, so its heap peak beyond the gradient rows it returns does not
    grow with depth."""
    shallow = _exact_peak_beyond_result(scheme, backprop, 100)
    deep = _exact_peak_beyond_result(scheme, backprop, 10_000)
    assert deep <= 1.1 * shallow


@pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
def test_adjoint_study_holds_only_rows_and_nodes(scheme):
    """The study compares the memory-free gradients with the exact ones
    block by block, so its heap peak at N = 2048 stays within 1.5 times
    the exact (N, param_dim) rows plus the stored (N + 1, d) nodes."""
    family, depth = make_mlp_family(4, 8), 2048
    schedule = cubic_profile_schedule(depth, family.param_dim)
    x0, target = np.linspace(-1.0, 1.0, 4), np.zeros(4)
    _adjoint_depth_metrics(scheme, family, WeightSchedule(schedule.params[:2]),
                           x0, target)  # warm numpy
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    _adjoint_depth_metrics(scheme, family, schedule, x0, target)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.5 * (depth * family.param_dim * 8 + (depth + 1) * family.state_dim * 8)


class TestCompareGradients:
    def test_identical_sets_are_zero(self):
        fam = make_mlp_family(2, 2)
        sched = WeightSchedule(np.random.default_rng(0).standard_normal((3, fam.param_dim)))
        traj = forward_euler_chain(fam, sched, np.zeros(2))
        grads = backprop_exact(fam, sched, traj, np.ones(2))
        cmp = compare_gradients(grads, grads)
        assert cmp.max_abs == 0.0 and cmp.max_rel == 0.0

    def test_hand_example_layer_gaps(self):
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_euler_chain(fam, sched, np.array([1.0]))
        exact = backprop_exact(fam, sched, traj, np.ones(1))
        approx = backprop_adjoint_euler(fam, sched, traj.nodes[-1], np.ones(1))
        cmp = compare_gradients(exact, approx)
        assert cmp.max_abs == 0.328125 and cmp.max_rel == 0.4375
        # the second layer's gaps alone, below the first's
        cmp = compare_gradients(exact[1:], approx[1:])
        assert cmp.max_abs == 0.1875 and cmp.max_rel == 0.25

    def test_relative_floor(self):
        cmp = compare_gradients(np.zeros((2, 1)), np.full((2, 1), 1e-18))
        assert cmp.max_rel == pytest.approx(1e-3)  # 1e-18 / 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_gradients(np.zeros((2, 1)), np.zeros((3, 1)))


def _benchmark_rows():
    """Reconstruction and gradient gaps on a fixed smooth-profile net."""
    fam = make_mlp_family(2, 3)
    x0 = np.array([0.7, -0.4])
    target = np.array([0.2, 0.1])
    rows = {"euler_recon": [], "euler_grad": [], "heun_recon": [], "heun_grad": []}
    for depth in (16, 32, 64, 128, 256):
        sched = cubic_profile_schedule(depth, fam.param_dim)
        te = forward_euler_chain(fam, sched, x0)
        ge = te.nodes[-1] - target
        rows["euler_recon"].append(
            (depth, np.max(node_errors(
                swept_nodes(adjoint_sweep_euler, fam, sched, te.nodes[-1]), te))))
        rows["euler_grad"].append(
            (depth, compare_gradients(
                backprop_exact(fam, sched, te, ge),
                backprop_adjoint_euler(fam, sched, te.nodes[-1], ge)).max_abs))
        th = forward_heun_chain(fam, sched, x0)
        gh = th.nodes[-1] - target
        rows["heun_recon"].append(
            (depth, np.max(node_errors(
                swept_nodes(adjoint_sweep_heun, fam, sched, th.nodes[-1]), th))))
        rows["heun_grad"].append(
            (depth, compare_gradients(
                backprop_exact_heun(fam, sched, th, gh),
                backprop_adjoint_heun(fam, sched, th.nodes[-1], gh)).max_abs))
    return rows


@pytest.fixture(scope="module")
def benchmark_slopes():
    rows = _benchmark_rows()
    return {name: fit_loglog_slope(vals) for name, vals in rows.items()}


class TestErrorScaling:
    def test_euler_reconstruction_first_order(self, benchmark_slopes):
        fit = benchmark_slopes["euler_recon"]
        # Stricter than the `euler_recon_slope` row: this cubic fixture
        # reads -1.028.
        assert fit.r_squared >= 0.99
        assert -1.2 <= fit.slope <= -0.8

    def test_euler_gradient_second_order(self, benchmark_slopes):
        claim = CLAIMS["euler_grad_slope"]
        fit = benchmark_slopes["euler_grad"]
        assert fit.r_squared >= 0.99  # stricter than the row's floor
        assert claim.low <= fit.slope <= claim.high

    def test_heun_gradient_smooth_schedule(self, benchmark_slopes):
        claim = CLAIMS["heun_smooth_grad_slope"]
        fit = benchmark_slopes["heun_grad"]
        assert fit.r_squared >= claim.r2_min
        assert claim.low <= fit.slope <= claim.high

    def test_heun_reconstruction_smooth_schedule(self, benchmark_slopes):
        # two-stage reversal cancels the constant-parameter defect, so
        # smooth profiles decay a full order faster than single-stage
        claim = CLAIMS["heun_smooth_recon_slope"]
        fit = benchmark_slopes["heun_recon"]
        assert fit.r_squared >= claim.r2_min
        assert claim.low <= fit.slope <= claim.high

    def test_order_separation(self, benchmark_slopes):
        s = benchmark_slopes
        assert s["heun_recon"].slope <= s["euler_recon"].slope - 0.7
        assert s["heun_grad"].slope <= s["euler_grad"].slope - 0.7

    def test_heun_gradient_alternating_schedule(self):
        """Parameter jumps of fixed size knock the gradient gap back to
        second order."""
        fam = make_mlp_family(2, 3)
        rng = np.random.default_rng(11)
        a = rng.standard_normal(fam.param_dim)
        a *= 0.25 / np.max(np.abs(a))
        b = rng.standard_normal(fam.param_dim)
        b *= 0.25 / np.max(np.abs(b))
        x0 = np.array([0.7, -0.4])
        target = np.array([0.2, 0.1])
        pts = []
        for depth in (16, 32, 64, 128, 256):
            rows = np.tile(a, (depth, 1))
            rows[1::2] = b
            sched = WeightSchedule(rows)
            th = forward_heun_chain(fam, sched, x0)
            gh = th.nodes[-1] - target
            cmp = compare_gradients(
                backprop_exact_heun(fam, sched, th, gh),
                backprop_adjoint_heun(fam, sched, th.nodes[-1], gh))
            pts.append((depth, cmp.max_abs))
        fit = fit_loglog_slope(pts)
        claim = CLAIMS["heun_alternating_grad_slope"]
        assert fit.r_squared >= 0.99  # stricter than the row's floor
        assert claim.low <= fit.slope <= claim.high

    def test_heun_beats_euler_relative_error(self):
        fam = make_mlp_family(2, 3)
        sched = cubic_profile_schedule(64, fam.param_dim)
        x0 = np.array([0.7, -0.4])
        target = np.array([0.2, 0.1])
        te = forward_euler_chain(fam, sched, x0)
        ge = te.nodes[-1] - target
        euler = compare_gradients(
            backprop_exact(fam, sched, te, ge),
            backprop_adjoint_euler(fam, sched, te.nodes[-1], ge))
        th = forward_heun_chain(fam, sched, x0)
        gh = th.nodes[-1] - target
        heun = compare_gradients(
            backprop_exact_heun(fam, sched, th, gh),
            backprop_adjoint_heun(fam, sched, th.nodes[-1], gh))
        assert heun.max_rel < euler.max_rel


class TestOneStepResidualIdentity:
    def test_quarter_jacobian_jump_formula(self):
        """The forward/backward residual mismatch across one step where
        the parameters jump by a fixed amount approaches
        (1/4N) (J_b - J_a)(f_b - f_a) as steps shrink."""
        fam = make_mlp_family(2, 3)
        rng = np.random.default_rng(7)
        theta_a = rng.standard_normal(fam.param_dim) * 0.5
        theta_b = rng.standard_normal(fam.param_dim) * 0.5
        for x_seed in range(3):
            x0 = np.random.default_rng(100 + x_seed).standard_normal(2)
            for depth in (128, 512):
                rows = np.tile(theta_a, (depth, 1))
                rows[depth - 1] = theta_b
                sched = WeightSchedule(rows)
                traj = forward_heun_chain(fam, sched, x0)
                rec = swept_nodes(adjoint_sweep_heun, fam, sched, traj.nodes[-1])
                x = traj.nodes[depth - 2]
                phi = depth * (traj.nodes[depth - 1] - x)
                psi = depth * (rec[depth - 1] - rec[depth - 2])
                measured = np.linalg.norm(psi - phi)
                jump = (jac_state(fam, x, theta_b) - jac_state(fam, x, theta_a)) @ (
                    fam.eval(x, theta_b) - fam.eval(x, theta_a))
                predicted = np.linalg.norm(jump) / (4 * depth)
                assert measured == pytest.approx(predicted, rel=0.2)


def counting_family(fam):
    """The same family, tallying its binds, the calls of its bound eval,
    its block linearizations and the layers they cover, and the calls of
    each block's stacked parameter pullback, and logging each call in
    ``counts["calls"]``; its bound blend is passed through."""
    counts = {"bind": 0, "eval": 0, "linearize": 0, "layers": 0, "vjp_theta": 0, "calls": []}

    def bind(rows):
        counts["bind"] += 1
        f, linearize_block, blend = fam._bind(rows)

        def eval_fn(x, n, out=None):
            counts["eval"] += 1
            counts["calls"].append("eval")
            return f(x, n, out)

        def linearize(xs, lo):
            counts["linearize"] += 1
            counts["layers"] += len(xs)
            counts["calls"].append("linearize")
            values, jac_t, vjp_theta = linearize_block(xs, lo)

            def counted_theta(vs):
                counts["vjp_theta"] += 1
                counts["calls"].append("vjp_theta")
                return vjp_theta(vs)
            return values, jac_t, counted_theta
        return eval_fn, linearize, blend

    return ResidualFamily(fam.name, fam.state_dim, fam.param_dim, bind), counts


def _stored(scheme, x, depth):
    """A stored trajectory that sits at x; only its shapes matter."""
    return Trajectory(np.repeat(x[None], depth + 1, axis=0), scheme)


# Every chain and sweep entry point, called as run(family, schedule, x, g)
# with x its input state (x0 or xN) and g its output gradient.
ENTRY_POINTS = {
    "forward_euler_chain": lambda f, s, x, g: forward_euler_chain(f, s, x),
    "forward_heun_chain": lambda f, s, x, g: forward_heun_chain(f, s, x),
    "forward_output_euler": lambda f, s, x, g: _forward(EULER, f, s, x, store=False),
    "forward_output_heun": lambda f, s, x, g: _forward(HEUN, f, s, x, store=False),
    "backprop_exact": lambda f, s, x, g: backprop_exact(f, s, _stored(EULER, x, s.depth), g),
    "backprop_exact_heun": lambda f, s, x, g: backprop_exact_heun(
        f, s, _stored(HEUN, x, s.depth), g),
    "adjoint_sweep_euler": lambda f, s, x, g: list(adjoint_sweep_euler(f, s, x, g)),
    "adjoint_sweep_heun": lambda f, s, x, g: list(adjoint_sweep_heun(f, s, x, g)),
    "backprop_adjoint_euler": lambda f, s, x, g: backprop_adjoint_euler(f, s, x, g),
    "backprop_adjoint_heun": lambda f, s, x, g: backprop_adjoint_heun(f, s, x, g),
}
TAKES_OUTPUT_GRAD = {name for name in ENTRY_POINTS
                     if name.startswith(("backprop_", "adjoint_sweep_"))}
MISMATCHES = ("state_dim", "zero_dim_state", "param_dim", "output_grad_shape",
              "non_finite_state")


class TestEntryValidation:
    """Sweeps run unchecked kernels, so each entry point rejects, before
    any kernel call, every input the first checked kernel call used to."""

    @pytest.mark.parametrize("entry,mismatch", [
        (entry, mismatch) for entry in ENTRY_POINTS for mismatch in MISMATCHES
        if mismatch != "output_grad_shape" or entry in TAKES_OUTPUT_GRAD])
    def test_rejects_mismatch_on_entry(self, entry, mismatch):
        fam, counts = counting_family(make_mlp_family(2, 3))
        sched = cubic_profile_schedule(3, fam.param_dim)
        x, g = np.full((2, 4), 0.1), np.ones((2, 4))
        run = ENTRY_POINTS[entry]
        run(fam, sched, x, g)
        if mismatch == "state_dim":
            x, g = np.full((3, 4), 0.1), np.ones((3, 4))
        elif mismatch == "zero_dim_state":  # was an IndexError
            x, g = np.array(0.1), np.array(1.0)
        elif mismatch == "param_dim":
            sched = cubic_profile_schedule(3, fam.param_dim + 1)
        elif mismatch == "output_grad_shape":
            g = np.ones(2)  # (d,) against a (d, B) state
        else:
            x = np.where(np.arange(4) == 2, np.nan, x)
        counts.update(bind=0, eval=0, linearize=0)
        with pytest.raises(ValueError):
            run(fam, sched, x, g)
        assert counts["bind"] == counts["eval"] == counts["linearize"] == 0

    @pytest.mark.parametrize("kind", ["residual_interp", "weight_interp"])
    @pytest.mark.parametrize("base", [make_mlp_family(2, 3), make_linear_family(2)],
                             ids=lambda f: f.name)
    def test_interpolate_rejects_param_dim_on_entry(self, base, kind):
        """An interpolating field's pieces are unchecked kernels too, so
        ``interpolate`` rejects a schedule, or a ``theta_end``, of the
        wrong parameter dimension before it binds anything."""
        fam, counts = counting_family(base)
        wide = WeightSchedule(np.full((3, fam.param_dim + 4), 0.1))
        with pytest.raises(ValueError, match=f"schedule param_dim {fam.param_dim + 4} "
                                             f"does not match param_dim {fam.param_dim}"):
            interpolate(fam, wide, kind)
        sched = WeightSchedule(np.full((3, fam.param_dim), 0.1))
        with pytest.raises(ValueError, match="does not match param_dim"):
            interpolate(fam, sched, kind, theta_end=np.zeros(fam.param_dim + 1))
        assert counts["bind"] == counts["eval"] == counts["linearize"] == 0


class TestKernelCounts:
    """Invocations of the unchecked kernels by each backprop sweep: per
    block of ``SWEEP_BLOCK`` layers, one block linearization for Euler
    and two for Heun, each pulled back once per block for the
    parameters, and between them no kernel call, so the per-layer
    cotangent recursion calls none; per layer, no evaluation in exact
    mode, the reverse step's one (Euler) or two (Heun, which rebuilds
    f(x~_{n+1}, theta_{n+1}) itself) in the memory-free adjoint, all
    before the block's first linearization.  Each chain or sweep binds
    the family to its schedule once."""

    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("N", [SWEEP_BLOCK, 2 * SWEEP_BLOCK + 3])
    @pytest.mark.parametrize("sweep,evals,linearizations", [
        ("exact_euler", 0, 1), ("adjoint_euler", 1, 1),
        ("exact_heun", 0, 2), ("adjoint_heun", 2, 2)])
    def test_calls_per_layer(self, sweep, evals, linearizations, N, batch):
        base = make_mlp_family(2, 3)
        fam, counts = counting_family(base)
        sched = cubic_profile_schedule(N, fam.param_dim)
        shape = (2,) if batch is None else (2, batch)
        x0 = np.random.default_rng(4).standard_normal(shape)
        forward = forward_heun_chain if sweep.endswith("heun") else forward_euler_chain
        traj = forward(base, sched, x0)
        g = np.ones(shape)
        {"exact_euler": lambda: backprop_exact(fam, sched, traj, g),
         "adjoint_euler": lambda: backprop_adjoint_euler(fam, sched, traj.nodes[-1], g),
         "exact_heun": lambda: backprop_exact_heun(fam, sched, traj, g),
         "adjoint_heun": lambda: backprop_adjoint_heun(fam, sched, traj.nodes[-1], g),
         }[sweep]()
        blocks = -(-N // SWEEP_BLOCK)
        calls = counts.pop("calls")
        assert counts == {"bind": 1, "eval": evals * N,
                          "linearize": linearizations * blocks, "layers": linearizations * N,
                          "vjp_theta": linearizations * blocks}
        want = []
        for hi in range(N, 0, -SWEEP_BLOCK):
            want += (["eval"] * evals * min(SWEEP_BLOCK, hi) + ["linearize"] * linearizations
                     + ["vjp_theta"] * linearizations)
        assert calls == want

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_each_entry_point_binds_once(self, entry):
        fam, counts = counting_family(make_mlp_family(2, 3))
        sched = cubic_profile_schedule(8, fam.param_dim)
        x, g = np.full((2, 3), 0.1), np.ones((2, 3))
        ENTRY_POINTS[entry](fam, sched, x, g)
        assert counts["bind"] == 1 and counts["eval"] + counts["linearize"] > 0


class TestInterpolationBindsOnce:
    """A residual_interp field binds its family to the rows once, and
    each layer interval of an oracle solve takes the bound blend."""

    @pytest.mark.parametrize("extended", [False, True], ids=["padded", "theta_end"])
    @pytest.mark.parametrize("base", [make_mlp_family(2, 3), make_linear_family(2),
                                      make_square_family(), make_identity_family()],
                             ids=lambda f: f.name)
    def test_oracle_solve_binds_once(self, base, extended):
        fam, counts = counting_family(base)
        N = 8
        sched = cubic_profile_schedule(N, fam.param_dim)
        theta_end = np.full(fam.param_dim, 0.2) if extended else None
        x0 = np.full((fam.state_dim, 3), 0.1)
        states = solve_ode_oracle(interpolate(fam, sched, "residual_interp", theta_end),
                                  x0, 4 * N)
        assert counts["bind"] == 1
        plain = solve_ode_oracle(interpolate(base, sched, "residual_interp", theta_end),
                                 x0, 4 * N)
        assert np.array_equal(states, plain)


def eight_call_heun_sweep(family, schedule, xN, g):
    """The two-stage sweep before the fused pullback: three evaluations
    and five VJP calls per layer, through the checked public kernels."""
    N = schedule.depth
    x, pending = xN, None
    for n in range(N - 1, -1, -1):
        theta, theta_up = schedule.params[n], schedule.padded[n + 1]
        f_up = family.eval(x, theta_up)
        y_rev = x - f_up / N
        x = x - (f_up + family.eval(y_rev, theta)) / (2.0 * N)
        y = x + family.eval(x, theta) / N
        u = family.vjp_state(y, theta_up, g)
        own = family.vjp_params(x, theta, g + u / N) / (2.0 * N)
        carry = family.vjp_params(y, theta_up, g) / (2.0 * N)
        g_new = g + (family.vjp_state(x, theta, g) + u
                     + family.vjp_state(x, theta, u) / N) / (2.0 * N)
        if n == N - 1:
            pending = own + carry
        else:
            yield n + 1, pending + carry, g
            pending = own
        g = g_new
    yield 0, pending, g


class TestHeunSweepAgainstEightCallStep:
    """The carried f(x~_n, theta_n) and the two-pullback step reproduce
    the old per-layer arithmetic; N = 1 and 2 reach the pending edges."""

    @pytest.mark.parametrize("batch", [None, 64])
    @pytest.mark.parametrize("depth", [1, 2, 64])
    def test_matches_eight_call_step(self, depth, batch):
        fam = make_mlp_family(3, 5)
        sched = cubic_profile_schedule(depth, fam.param_dim, seed=9, scale=0.8)
        rng = np.random.default_rng(depth)
        shape = (3,) if batch is None else (3, batch)
        xN = forward_heun_chain(fam, sched, rng.standard_normal(shape)).nodes[-1]
        g = rng.standard_normal(shape)
        thetas, gs, _ = layer_rows(adjoint_sweep_heun(fam, sched, xN, g), depth)
        want = list(eight_call_heun_sweep(fam, sched, xN, g))
        assert [n for n, *_ in want] == list(range(depth - 1, -1, -1))
        for n, theta_want, g_want in want:
            for a, b in ((thetas[n], theta_want), (gs[n], g_want)):
                assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))
