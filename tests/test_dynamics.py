import dataclasses

import numpy as np
import pytest

from odenet.adjoint import _sweep
from odenet.dynamics import (
    DIVERGENCE_THRESHOLD,
    EULER,
    HEUN,
    SWEEP_BLOCK,
    DivergenceError,
    Trajectory,
    approximation_bound,
    _cell_fractions,
    _check_divergence,
    _forward,
    _stack_kernel,
    approximation_error,
    forward_euler_chain,
    forward_heun_chain,
    interpolate,
    solve_ode_oracle,
    stack_fields,
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
from oracles import eval_field, interpolated_field, make_index_schedule
from test_residual_models import ALL_FAMILIES


def constant_schedule(theta, depth):
    return WeightSchedule(np.tile(np.asarray(theta, dtype=float), (depth, 1)))


def alternating_unit_schedule(depth):
    return WeightSchedule(np.where(np.arange(depth) % 2 == 0, 1.0, -1.0).reshape(depth, 1))


class TestForwardEulerChain:
    def test_zero_family_keeps_state(self):
        fam = make_mlp_family(3, 4)
        sched = WeightSchedule(np.zeros((5, fam.param_dim)))
        traj = forward_euler_chain(fam, sched, np.array([1.0, -2.0, 0.5]))
        assert np.all(traj.nodes == traj.nodes[0])
        assert traj.scheme is EULER

    def test_scalar_linear_hand_values(self):
        # x_{n+1} = x_n (1 + 1/2): nodes 1, 1.5, 2.25
        fam = make_linear_family(1)
        traj = forward_euler_chain(fam, constant_schedule([1.0], 2), np.array([1.0]))
        assert traj.nodes[:, 0] == pytest.approx([1.0, 1.5, 2.25])

    def test_index_schedule_halfway_point(self):
        # f = n: x_N = x_0 + (0 + 1 + ... + N-1)/N = (N-1)/2
        traj = forward_euler_chain(make_identity_family(), make_index_schedule(2),
                                   np.zeros(1))
        assert traj.nodes[-1, 0] == pytest.approx(0.5)

    def test_batched_matches_columns(self):
        fam = make_mlp_family(2, 3)
        rng = np.random.default_rng(1)
        sched = WeightSchedule(rng.standard_normal((4, fam.param_dim)) * 0.3)
        x0 = rng.standard_normal((2, 5))
        batched = forward_euler_chain(fam, sched, x0)
        assert batched.nodes.shape == (5, 2, 5)
        for b in range(5):
            single = forward_euler_chain(fam, sched, x0[:, b])
            assert np.allclose(batched.nodes[:, :, b], single.nodes, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_euler_chain(make_linear_family(2), constant_schedule(np.zeros(4), 2),
                                np.zeros(3))

    def test_divergence_names_layer(self):
        fam = make_linear_family(1)
        with pytest.raises(DivergenceError) as exc:
            forward_euler_chain(fam, constant_schedule([400.0], 8), np.ones(1))
        assert exc.value.layer == 7


class TestForwardHeunChain:
    def test_state_independent_residual_matches_euler(self):
        sq = make_square_family()
        sched = alternating_unit_schedule(6)
        x0 = np.array([0.25])
        heun = forward_heun_chain(sq, sched, x0)
        euler = forward_euler_chain(sq, sched, x0)
        assert np.allclose(heun.nodes, euler.nodes, atol=0)

    def test_scalar_linear_hand_values(self):
        """Per-step factor 1 + 1/2 + 1/8 = 1.625 for theta = 1, N = 2."""
        fam = make_linear_family(1)
        sched = constant_schedule([1.0], 2)
        traj = forward_heun_chain(fam, sched, np.array([1.0]))
        assert traj.nodes[:, 0] == pytest.approx([1.0, 1.625, 2.640625])
        stages = [traj.nodes[n] + fam.eval(traj.nodes[n], sched.params[n]) / 2 for n in range(2)]
        assert np.ravel(stages) == pytest.approx([1.5, 2.4375])

    def test_single_step_uses_padded_parameter(self):
        # N=1 reads theta_1 which pads to theta_0: x_1 = 1 + t + t^2/2
        fam = make_linear_family(1)
        t = 0.3
        traj = forward_heun_chain(fam, constant_schedule([t], 1), np.array([1.0]))
        assert traj.nodes[-1, 0] == pytest.approx(1.0 + t + 0.5 * t * t, rel=1e-15)

    def test_exponential_limit(self):
        fam = make_linear_family(1)
        traj = forward_heun_chain(fam, constant_schedule([1.0], 1000), np.array([1.0]))
        assert abs(traj.nodes[-1, 0] - np.e) <= 1e-5


class TestForwardWithoutStorage:
    """The memory-free training forward pass ends exactly where the
    stored chain does."""

    @pytest.mark.parametrize("batch", [None, 64])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_output_equals_stored_chain(self, scheme, batch):
        fam = make_mlp_family(3, 5)
        rng = np.random.default_rng(11)
        sched = WeightSchedule(0.4 * rng.standard_normal((32, fam.param_dim)))
        x0 = rng.standard_normal((3,) if batch is None else (3, batch))
        chain = {"euler": forward_euler_chain, "heun": forward_heun_chain}[scheme]
        out = _forward({"euler": EULER, "heun": HEUN}[scheme], fam, sched, x0, store=False)
        assert np.array_equal(out, chain(fam, sched, x0).nodes[-1])

    @pytest.mark.parametrize("batch", [None, 1, 64])
    @pytest.mark.parametrize("depth", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                       2 * SWEEP_BLOCK + 1])
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    @pytest.mark.parametrize("fam", [make_mlp_family(3, 5), make_mlp_family(1, 8),
                                     make_linear_family(2), make_square_family()],
                             ids=lambda f: f"{f.name}{f.state_dim}")
    def test_reused_block_buffer_is_bit_equal_at_every_block_edge(self, fam, scheme, depth,
                                                                  batch):
        """The unstored chain steps in place through one reused block
        buffer, each block's first state from the last slot of the block
        before; its output is the stored chain's x_N byte for byte, and
        the caller's x0 is left as it was."""
        rng = np.random.default_rng(depth)
        sched = WeightSchedule(0.4 * rng.standard_normal((depth, fam.param_dim)))
        shape = (fam.state_dim,) if batch is None else (fam.state_dim, batch)
        x0 = rng.standard_normal(shape)
        given = x0.copy()
        out = _forward(scheme, fam, sched, x0, store=False)
        want = _forward(scheme, fam, sched, x0).nodes[-1]
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert x0.tobytes() == given.tobytes()


class TestTrajectoryType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 1)), "rk4")
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 1)), "euler")  # a name, not the Scheme
        assert Trajectory(np.zeros((3, 1)), EULER).depth == 2


class TestInterpolate:
    @pytest.mark.parametrize("kind", ["residual_interp", "weight_interp"])
    def test_grid_consistency(self, kind):
        """Both ends of every layer interval equal the layer residuals
        exactly: fraction 0 of interval n is f(., theta_n), fraction 1 of
        interval n - 1 is f(., theta_n) too, theta_N being the padded row."""
        fam = make_mlp_family(2, 3)
        rng = np.random.default_rng(9)
        sched = WeightSchedule(rng.standard_normal((8, fam.param_dim)) * 0.4)
        field = interpolate(fam, sched, kind)
        for n in range(sched.depth):
            g = field.piece([0.0, 1.0])(n)
            for _ in range(50):
                x = rng.standard_normal(2)
                for m, theta in enumerate(sched.padded[n:n + 2]):
                    gap = g(x, m) - fam.eval(x, theta)
                    assert np.max(np.abs(gap)) == 0.0

    def test_constant_schedule_time_independent(self):
        fam = make_mlp_family(2, 2)
        theta = np.random.default_rng(2).standard_normal(fam.param_dim)
        sched = constant_schedule(theta, 5)
        x = np.array([0.3, -0.7])
        expected = fam.eval(x, theta)
        alphas = [0.0, 0.123, 0.5, 0.999, 1.0]
        for kind in ("residual_interp", "weight_interp"):
            field = interpolate(fam, sched, kind)
            for n in range(sched.depth):
                g = field.piece(alphas)(n)
                for m in range(len(alphas)):
                    assert np.allclose(g(x, m), expected, atol=0)

    def test_alternating_square_weight_interp_closed_form(self):
        # theta linear between +-1 gives phi_n(a) = (2a - 1)^2 on every interval
        depth = 4
        field = interpolate(make_square_family(), alternating_unit_schedule(depth),
                            "weight_interp", theta_end=np.array([1.0]))
        x = np.zeros(1)
        alphas = np.linspace(0.0, 1.0, 9).tolist()
        for n in range(depth):
            g = field.piece(alphas)(n)
            for m, a in enumerate(alphas):
                assert g(x, m)[0] == pytest.approx((2 * a - 1) ** 2, abs=1e-12)

    def test_alternating_square_residual_interp_is_constant_one(self):
        field = interpolate(make_square_family(), alternating_unit_schedule(5),
                            "residual_interp")
        x = np.zeros(1)
        alphas = np.linspace(0.0, 1.0, 17).tolist()
        for n in range(field.depth):
            g = field.piece(alphas)(n)
            for m in range(len(alphas)):
                assert g(x, m)[0] == pytest.approx(1.0, abs=0)

    def test_last_interval_padding_and_override(self):
        fam = make_identity_family()
        sched = make_index_schedule(3)  # rows 0, 1, 2
        padded = interpolate(fam, sched, "residual_interp")
        # default padding repeats the last row, so the field is flat there
        assert padded.piece([1.0])(2)(np.zeros(1), 0)[0] == pytest.approx(2.0)
        extended = interpolate(fam, sched, "residual_interp",
                               theta_end=np.array([3.0]))
        g = extended.piece([1.0, 0.5])(2)
        assert g(np.zeros(1), 0)[0] == pytest.approx(3.0)
        assert g(np.zeros(1), 1)[0] == pytest.approx(2.5)

    def test_domain_and_kind_errors(self):
        fam = make_identity_family()
        sched = make_index_schedule(2)
        with pytest.raises(ValueError):
            interpolate(fam, sched, "spline")
        with pytest.raises(ValueError):
            interpolate(fam, sched, "residual_interp", theta_end=np.zeros(2))


class TestSolveOdeOracle:
    def test_exponential(self):
        field = interpolate(make_linear_family(1), constant_schedule([1.0], 1),
                            "residual_interp")
        sol = solve_ode_oracle(field, np.ones(1), 1024)
        assert abs(sol[-1, 0] - np.e) <= 1e-8

    def test_linear_drift_quadrature(self):
        field = eval_field(lambda x, s: np.full_like(x, s),
                           depth=1, state_dim=1)
        sol = solve_ode_oracle(field, np.zeros(1), 16)
        # RK4 integrates the line s exactly: x(1) = 1/2
        assert sol[-1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_alternating_square_third(self):
        depth = 16
        field = interpolate(make_square_family(), alternating_unit_schedule(depth),
                            "weight_interp",
                            theta_end=np.array([1.0 if depth % 2 == 0 else -1.0]))
        sol = solve_ode_oracle(field, np.zeros(1), 64 * depth)
        assert sol[-1, 0] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_step_count_validation(self):
        field = interpolate(make_identity_family(), make_index_schedule(3),
                            "residual_interp")
        with pytest.raises(ValueError):
            solve_ode_oracle(field, np.zeros(1), 64)   # not a multiple of 3
        with pytest.raises(ValueError):
            solve_ode_oracle(field, np.zeros(1), 6)    # below 4x depth

    @pytest.mark.parametrize("bad", [24.0, True], ids=["float", "bool"])
    def test_step_count_must_be_an_integer(self, bad):
        field = interpolate(make_identity_family(), make_index_schedule(3),
                            "residual_interp")
        with pytest.raises(ValueError, match="fine_steps must be an integer"):
            solve_ode_oracle(field, np.zeros(1), bad)

    def test_numpy_integer_step_count_solves(self):
        field = interpolate(make_identity_family(), make_index_schedule(3),
                            "residual_interp")
        want = solve_ode_oracle(field, np.zeros(1), 24)
        assert solve_ode_oracle(field, np.zeros(1), np.int64(24)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["residual_interp", "weight_interp"])
    def test_replacing_eval_leaves_the_nodes(self, kind):
        """The benchmark tracer swaps ``VectorField.eval`` by
        dataclasses.replace (bench/tracing.py's wrap_oracle): the oracle
        never calls it, and its nodes stay the same bit for bit."""
        def raising(x, s):
            raise AssertionError("the oracle called field.eval")

        fam = make_mlp_family(3, 4)
        rng = np.random.default_rng(14)
        field = interpolate(fam, WeightSchedule(rng.standard_normal((4, fam.param_dim))), kind)
        x0 = rng.standard_normal(3)
        want = solve_ode_oracle(field, x0, 32)
        got = solve_ode_oracle(dataclasses.replace(field, eval=raising), x0, 32)
        assert got.tobytes() == want.tobytes()

    def test_self_convergence_order(self):
        """Halving the step on a smooth field gains a factor >= 2^3.5."""
        field = eval_field(lambda x, s: x * (1.0 - x),
                           depth=1, state_dim=1)
        x0 = np.array([0.2])
        ref = solve_ode_oracle(field, x0, 512)[-1, 0]
        err_coarse = abs(solve_ode_oracle(field, x0, 16)[-1, 0] - ref)
        err_fine = abs(solve_ode_oracle(field, x0, 32)[-1, 0] - ref)
        assert np.log2(err_coarse / err_fine) >= 3.5

    def test_batched_states(self):
        field = eval_field(lambda x, s: -x, depth=1, state_dim=2)
        x0 = np.array([[1.0, 2.0], [0.0, -1.0]])
        sol = solve_ode_oracle(field, x0, 32)
        assert sol.shape == (2, 2, 2)
        assert np.allclose(sol[-1], x0 * np.exp(-1.0), atol=1e-9)

    @pytest.mark.parametrize("depth", [1, 3, 8])
    def test_states_are_the_chain_nodes(self, depth):
        field = eval_field(lambda x, s: -x, depth=depth, state_dim=1)
        sol = solve_ode_oracle(field, np.ones(1), 8 * depth)
        assert sol.shape == (depth + 1, 1)
        assert np.allclose(sol[:, 0], np.exp(-np.arange(depth + 1) / depth), atol=1e-9)

    def test_divergence(self):
        field = eval_field(lambda x, s: x * x, depth=1, state_dim=1)
        with pytest.raises(DivergenceError):
            solve_ode_oracle(field, np.array([2.0]), 64)


ORACLE_FAMILIES = {
    "mlp": lambda: make_mlp_family(3, 4),
    "linear": lambda: make_linear_family(2),
    "square": make_square_family,
    "identity": make_identity_family,
}


class TestOraclePiecePath:
    """Per-interval kernels reproduce the oracle path of the same blends
    stated through the checked ``eval`` (``interpolated_field``)."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    @pytest.mark.parametrize("kind", ["residual_interp", "weight_interp"])
    @pytest.mark.parametrize("extended", [False, True])
    def test_matches_eval_path(self, name, kind, extended):
        fam = ORACLE_FAMILIES[name]()
        rng = np.random.default_rng(12)
        depth = 6
        sched = WeightSchedule(rng.standard_normal((depth, fam.param_dim)) * 0.6)
        theta_end = rng.standard_normal(fam.param_dim) * 0.6 if extended else None
        field = interpolate(fam, sched, kind, theta_end=theta_end)
        assert field.piece is not None
        x0 = rng.standard_normal(fam.state_dim)
        fused = solve_ode_oracle(field, x0, 16 * depth)
        plain = solve_ode_oracle(interpolated_field(fam, sched, kind, theta_end), x0,
                                 16 * depth)
        scale = np.max(np.abs(plain))
        assert np.max(np.abs(fused - plain)) <= 1e-13 * scale

    def test_batched_mlp_matches_eval_path(self):
        fam = make_mlp_family(3, 4)
        rng = np.random.default_rng(13)
        sched = WeightSchedule(rng.standard_normal((5, fam.param_dim)))
        field = interpolate(fam, sched, "residual_interp")
        x0 = rng.standard_normal((3, 7))
        fused = solve_ode_oracle(field, x0, 40)
        plain = solve_ode_oracle(interpolated_field(fam, sched, "residual_interp"), x0, 40)
        assert fused.shape == (6, 3, 7)
        assert np.max(np.abs(fused - plain)) <= 1e-13 * np.max(np.abs(plain))

    @pytest.mark.parametrize("kind", ["residual_interp", "weight_interp"])
    def test_divergence_layer_is_the_same(self, kind):
        sched = WeightSchedule(np.array([[30.0], [40.0], [50.0], [60.0]]))
        fam = make_linear_family(1)
        layers = []
        for f in (interpolate(fam, sched, kind), interpolated_field(fam, sched, kind)):
            with pytest.raises(DivergenceError) as info:
                solve_ode_oracle(f, np.ones(1), 64 * 4)
            layers.append(info.value.layer)
        assert layers[0] == layers[1] and 1 <= layers[0] <= 3

    def test_divergence_reports_the_layer_interval(self):
        sched = WeightSchedule(np.array([[30.0], [40.0], [50.0], [60.0]]))
        field = interpolate(make_linear_family(1), sched, "residual_interp")
        with pytest.raises(DivergenceError, match="ode oracle diverged at layer 2") as info:
            solve_ode_oracle(field, np.ones(1), 64 * 4)
        assert info.value.layer == 2
        # Interval 1 blends towards theta_2 = -1e300: its first sub-step
        # overflows to inf and then to NaN (inf - inf).  The interval's screen
        # names it, and no overflow warning escapes the solve.
        sched = WeightSchedule(np.array([[1.0], [1.0], [-1e300], [1.0]]))
        field = interpolate(make_linear_family(1), sched, "residual_interp")
        with pytest.raises(DivergenceError, match="ode oracle diverged at layer 1$") as info:
            solve_ode_oracle(field, np.ones(1), 64 * 4)
        assert info.value.layer == 1

    @pytest.mark.parametrize("per_layer", [4, 8])
    def test_piece_gets_the_stage_fractions(self, per_layer):
        depth = 5
        field = interpolate(make_identity_family(), make_index_schedule(depth),
                            "residual_interp")
        piece, seen = field.piece, []

        def recording(alphas):
            at = piece(alphas)

            def recording_at(n):
                seen.append((n, list(alphas)))
                return at(n)
            return recording_at

        solve_ode_oracle(dataclasses.replace(field, piece=recording), np.zeros(1),
                         per_layer * depth)
        fractions = [j / (2 * per_layer) for j in range(2 * per_layer + 1)]
        assert seen == [(n, fractions) for n in range(depth)]

    def test_state_dimension_checked_once_on_entry(self):
        field = interpolate(make_mlp_family(3, 4),
                            WeightSchedule(np.zeros((2, 24))), "residual_interp")
        for bad in (np.zeros(2), np.zeros((4, 5)), np.zeros((3, 2, 2))):
            with pytest.raises(ValueError, match="state_dim"):
                solve_ode_oracle(field, bad, 8)


# (depth, RK4 sub-steps per layer) rows: an 8-step row runs two cells of
# the 4-step rows' four sub-steps; with a 5-step row the cells are single
# sub-steps.  Ties in cell count and a row that outlasts all others occur.
STACKS = {
    "4_8": ((3, 8), (6, 4), (2, 4), (3, 4), (5, 8)),
    "4_5_8": ((4, 5), (2, 8), (5, 4), (1, 4), (3, 5)),
}


def _stacked_and_alone(fields, rows, x0):
    """A stack's node arrays and each row's own solve."""
    stacked = solve_ode_oracle(stack_fields(fields, [k for _, k in rows]), x0,
                               sum(n * k for n, k in rows))
    alone = [solve_ode_oracle(f, x, n * k) for f, x, (n, k) in zip(fields, x0, rows)]
    return stacked, alone


class TestStackedOracle:
    """One lockstep solve of a stack of fields gives each row's own solve
    byte for byte, whatever its rows' depths and sub-steps per layer."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.name}{f.state_dim}")
    @pytest.mark.parametrize("kind", ["residual_interp", "weight_interp"])
    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_rows_equal_their_own_solves(self, family, kind, stack):
        rng = np.random.default_rng(31)
        rows = STACKS[stack]
        fields = [interpolate(family, WeightSchedule(rng.standard_normal((n, family.param_dim))),
                              kind, rng.standard_normal(family.param_dim)
                              if kind == "weight_interp" else None) for n, _ in rows]
        x0 = rng.standard_normal((len(rows), family.state_dim))
        stacked, alone = _stacked_and_alone(fields, rows, x0)
        assert [a.shape for a in stacked] == [(n + 1, family.state_dim) for n, _ in rows]
        assert [a.tobytes() for a in stacked] == [a.tobytes() for a in alone]

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_batched_mlp_rows_equal_their_own_solves(self, stack):
        fam = make_mlp_family(3, 4)
        rng = np.random.default_rng(32)
        rows = STACKS[stack]
        fields = [interpolate(fam, WeightSchedule(rng.standard_normal((n, fam.param_dim))),
                              "residual_interp") for n, _ in rows]
        stacked, alone = _stacked_and_alone(fields, rows, rng.standard_normal((len(rows), 3, 5)))
        assert [a.tobytes() for a in stacked] == [a.tobytes() for a in alone]

    def test_mixed_fields_equal_their_own_solves(self):
        """Rows of different kinds share no fused kernel and step row by row."""
        fam = make_mlp_family(2, 3)
        rng = np.random.default_rng(33)
        sched = WeightSchedule(rng.standard_normal((4, fam.param_dim)))
        fields = [interpolate(fam, sched, "residual_interp"),
                  interpolate(fam, sched, "weight_interp"),
                  interpolated_field(fam, sched, "residual_interp")]
        rows = ((4, 8), (4, 4), (4, 4))
        stacked, alone = _stacked_and_alone(fields, rows, rng.standard_normal((3, 2)))
        assert [a.tobytes() for a in stacked] == [a.tobytes() for a in alone]

    @pytest.mark.parametrize("d,hidden", [(1, 8), (2, 3), (4, 8)])
    def test_every_stage_is_each_rows_own_kernel(self, d, hidden):
        """A tick's stacked kernel gives, at every stage of a cell, row r's
        own kernel at x[r] byte for byte: the fused stages inside a cell
        and the end stages, where the mlp keeps its single layer."""
        fam = make_mlp_family(d, hidden)
        rng = np.random.default_rng(35)
        blends = [fam._bind(rng.standard_normal((4, fam.param_dim)))[2] for _ in range(3)]
        slots, fused = fam.fuse(3, 9)
        for per_layer, cell in ((8, 4), (4, 4), (12, 4)):
            for c in range(per_layer // cell):
                alphas = _cell_fractions(per_layer, cell, c)
                kernels = [b(alphas, slot=slot)(n) for n, (b, slot) in enumerate(zip(blends, slots))]
                g = _stack_kernel(kernels, fused(3), 2 * cell)
                for x in (rng.standard_normal((3, d)), rng.standard_normal((3, d, 4))):
                    for m in range(2 * cell + 1):
                        got = g(x, m)
                        for r, kernel in enumerate(kernels):
                            assert got[r].tobytes() == kernel(x[r], m).tobytes()

    @pytest.mark.parametrize("per_layer", [4, 8])
    def test_one_row_stack_is_the_field_solve(self, per_layer):
        fam = make_mlp_family(3, 4)
        rng = np.random.default_rng(34)
        field = interpolate(fam, WeightSchedule(rng.standard_normal((5, fam.param_dim))),
                            "residual_interp")
        x0 = rng.standard_normal(3)
        [row] = solve_ode_oracle(stack_fields([field], [per_layer]), x0[None], 5 * per_layer)
        assert row.tobytes() == solve_ode_oracle(field, x0, 5 * per_layer).tobytes()

    def test_one_row_stack_keeps_the_divergence_layer_and_message(self):
        sched = WeightSchedule(np.array([[30.0], [40.0], [50.0], [60.0]]))
        field = interpolate(make_linear_family(1), sched, "residual_interp")
        for solve in (lambda: solve_ode_oracle(field, np.ones(1), 64 * 4),
                      lambda: solve_ode_oracle(stack_fields([field], [64]), np.ones((1, 1)),
                                               64 * 4)):
            with pytest.raises(DivergenceError, match="ode oracle diverged at layer 2$") as info:
                solve()
            assert info.value.layer == 2

    def test_a_diverging_row_fails_the_stack(self):
        fam = make_linear_family(1)
        fields = [interpolate(fam, WeightSchedule(np.full((4, 1), theta)), "residual_interp")
                  for theta in (1.0, 40.0)]
        with pytest.raises(DivergenceError, match="ode oracle diverged at layer 2$") as info:
            solve_ode_oracle(stack_fields(fields, [8, 4]), np.ones((2, 1)), 48)
        assert info.value.layer == 2

    def test_stack_validation(self):
        fam = make_identity_family()
        fields = [interpolate(fam, make_index_schedule(n), "residual_interp") for n in (2, 3)]
        stack = stack_fields(fields, [4, 8])
        assert (stack.depth, stack.state_dim) == (5, 1)
        with pytest.raises(ValueError, match="sub-steps"):
            solve_ode_oracle(stack, np.zeros((2, 1)), 40)     # not 2 * 4 + 3 * 8
        with pytest.raises(ValueError, match="in 2 rows"):
            solve_ode_oracle(stack, np.zeros((3, 1)), 32)
        with pytest.raises(ValueError, match="in 2 rows"):
            solve_ode_oracle(stack, np.zeros(2), 32)
        for per_layer in ([4, 3], [4, 8.0], [4, True]):
            with pytest.raises(ValueError, match="integer >= 4"):
                stack_fields(fields, per_layer)
        with pytest.raises(ValueError, match="one state_dim"):
            stack_fields([fields[0], interpolate(make_linear_family(2), WeightSchedule(
                np.zeros((2, 4))), "residual_interp")], [4, 4])
        with pytest.raises(ValueError, match="one state_dim"):
            stack_fields([], [])


ABOVE = np.nextafter(DIVERGENCE_THRESHOLD, np.inf)
BELOW = np.nextafter(DIVERGENCE_THRESHOLD, 0.0)
ADVERSARIAL_STATES = [
    np.array([np.nan, 0.0, 0.0, 0.0]),
    np.array([np.inf, 0.0, 0.0, 0.0]),
    np.array([-np.inf, 1.0, 0.0, 0.0]),
    np.array([np.inf, -np.inf, 0.0, 0.0]),
    np.full(4, 1e200),
    np.array([-1e200, 1e-300, 0.0, 0.0]),
    np.array([ABOVE, 0.0, 0.0, 0.0]),
    np.array([BELOW, 0.0, 0.0, 0.0]),
    np.array([DIVERGENCE_THRESHOLD, 0.0, 0.0, 0.0]),
    np.array([-ABOVE, 0.0]),
    np.array([6e11, 8e11 * (1.0 + 1e-15)]),
    np.zeros(4),
    np.full((4, 3), 3e11),          # every column below, the whole state above
    np.full((4, 3), 2e11),
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    np.array([[1e200, 0.0], [0.0, 1.0]]),
]


def diverged_by_finite_and_norm_rule(x) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_THRESHOLD


class TestDivergenceCheck:
    """The one-dot-product check agrees with isfinite + np.linalg.norm."""

    @pytest.mark.parametrize("x", ADVERSARIAL_STATES)
    def test_matches_finite_and_norm_rule(self, x):
        expected = diverged_by_finite_and_norm_rule(x)
        try:
            _check_divergence(x, 7, "probe sweep")
            diverged = False
        except DivergenceError as exc:
            diverged = True
            assert exc.layer == 7 and str(exc) == "probe sweep diverged at layer 7"
        assert diverged == expected


# A power of two, so N x / N is x bit for bit: a residual of +-N x plants
# the state x in one Euler step from zero, forwards or in reverse.
PLANT_DEPTH = 4 * SWEEP_BLOCK
# The first, a middle and the last layer of the chain's second block; the
# reverse sweep walks the same block from its last layer down.
PLANT_LAYERS = [SWEEP_BLOCK, SWEEP_BLOCK + SWEEP_BLOCK // 2, 2 * SWEEP_BLOCK - 1]
# Each Euler run that screens a block of states: the direction's sign, the
# context its DivergenceError names, and the run from a start state.
SCREENED_RUNS = {
    "stored_chain": (1, "forward chain", lambda fam, sched, x: _forward(EULER, fam, sched, x)),
    "chain": (1, "forward chain",
              lambda fam, sched, x: _forward(EULER, fam, sched, x, store=False)),
    "memory_free_sweep": (-1, "adjoint sweep",
                          lambda fam, sched, x: list(_sweep(EULER, fam, sched, x,
                                                            np.ones_like(x)))),
}


def planting_family(d, residuals):
    """The linear family at zero weights, except that layer n's residual
    is residuals[n](x) where one is given."""
    base = make_linear_family(d)

    def bind(rows):
        f, linearize_block, blend = base._bind(rows)

        def eval_fn(x, n, out=None):
            if n not in residuals:
                return f(x, n, out)
            value = residuals[n](x)
            if out is None:
                return value
            out[...] = value
            return out
        return eval_fn, linearize_block, blend
    return ResidualFamily("planting", d, d * d, bind)


class TestBlockScreen:
    """Chains and memory-free sweeps screen each block of states once,
    yet report the layer and message the per-state rule gives for the
    first state in step order that fails it, wherever it sits."""

    @pytest.mark.parametrize("run", SCREENED_RUNS)
    @pytest.mark.parametrize("layer", PLANT_LAYERS)
    @pytest.mark.parametrize("x", ADVERSARIAL_STATES)
    def test_planted_state_is_judged_by_the_per_state_rule(self, x, layer, run):
        sign, context, run_fn = SCREENED_RUNS[run]
        fam = planting_family(x.shape[0], {layer: lambda _: sign * PLANT_DEPTH * x})
        sched = WeightSchedule(np.zeros((PLANT_DEPTH, fam.param_dim)))
        if diverged_by_finite_and_norm_rule(x):
            with pytest.raises(DivergenceError) as exc:
                run_fn(fam, sched, np.zeros(x.shape))
            assert exc.value.layer == layer
            assert str(exc.value) == f"{context} diverged at layer {layer}"
        else:
            out = run_fn(fam, sched, np.zeros(x.shape))
            if run == "stored_chain":
                assert np.array_equal(out.nodes[layer + 1], x)

    @pytest.mark.parametrize("run", SCREENED_RUNS)
    def test_a_state_that_falls_back_is_still_reported(self, run):
        """A state just above the threshold, zeroed again by the next layer
        of the same block: the block ends clear, the layer is still named."""
        sign, context, run_fn = SCREENED_RUNS[run]
        layer, x = PLANT_LAYERS[1], np.array([ABOVE, 0.0])
        fam = planting_family(2, {layer: lambda _: sign * PLANT_DEPTH * x,
                                  layer + sign: lambda y: -sign * PLANT_DEPTH * y})
        sched = WeightSchedule(np.zeros((PLANT_DEPTH, fam.param_dim)))
        with pytest.raises(DivergenceError, match=f"{context} diverged at layer {layer}$"):
            run_fn(fam, sched, np.zeros(2))

    @pytest.mark.parametrize("run", SCREENED_RUNS)
    def test_overflow_inside_a_block_is_a_divergence(self, run):
        """Two layers that each scale the state by about 1e200, mid-block:
        the second overflows, which must not surface as a RuntimeWarning
        before the block's screen names the first."""
        sign, context, run_fn = SCREENED_RUNS[run]
        layer = PLANT_LAYERS[1]
        rows = np.zeros((PLANT_DEPTH, 1))
        rows[[layer, layer + sign]] = sign * PLANT_DEPTH * 1e200
        with pytest.raises(DivergenceError, match=f"{context} diverged at layer {layer}$"):
            run_fn(make_linear_family(1), WeightSchedule(rows), np.ones(1))


class TestApproximationError:
    def test_zero_field(self):
        fam = make_mlp_family(2, 2)
        sched = WeightSchedule(np.zeros((4, fam.param_dim)))
        x0 = np.array([1.0, -1.0])
        traj = forward_euler_chain(fam, sched, x0)
        sol = solve_ode_oracle(interpolate(fam, sched, "residual_interp"), x0, 16)
        gaps, worst = approximation_error(traj, sol)
        assert worst == 0.0 and np.all(gaps == 0.0)

    @pytest.mark.parametrize("depth", [8, 64])
    def test_linear_drift_gap_is_half_step(self, depth):
        """Chain vs flow on phi = s: gap 1/(2N), the generic tight case."""
        fam = make_identity_family()
        sched = WeightSchedule((np.arange(depth) / depth).reshape(depth, 1))
        traj = forward_euler_chain(fam, sched, np.zeros(1))
        field = interpolate(fam, sched, "residual_interp", theta_end=np.array([1.0]))
        sol = solve_ode_oracle(field, np.zeros(1), 64 * depth)
        _, worst = approximation_error(traj, sol)
        assert worst == pytest.approx(1.0 / (2 * depth), abs=1e-12)

    def test_index_schedule_constant_gap(self):
        fam = make_identity_family()
        for depth in (64, 256):
            sched = make_index_schedule(depth)
            traj = forward_euler_chain(fam, sched, np.zeros(1))
            field = interpolate(fam, sched, "residual_interp",
                                theta_end=np.array([float(depth)]))
            sol = solve_ode_oracle(field, np.zeros(1), 16 * depth)
            gaps, _ = approximation_error(traj, sol)
            # the end-state gap does not vanish with depth
            assert gaps[-1] == pytest.approx(0.5, abs=1e-9)

    def test_grid_mismatch(self):
        fam = make_identity_family()
        traj = forward_euler_chain(fam, make_index_schedule(3), np.zeros(1))
        field = interpolate(fam, make_index_schedule(4), "residual_interp")
        sol = solve_ode_oracle(field, np.zeros(1), 16)  # 5 nodes against the chain's 4
        with pytest.raises(ValueError):
            approximation_error(traj, sol)

    def test_euler_chain_equals_left_endpoint_euler_on_field(self):
        """The chain is the explicit-Euler discretization of its own field."""
        fam = make_mlp_family(2, 3)
        rng = np.random.default_rng(21)
        depth = 6
        sched = WeightSchedule(rng.standard_normal((depth, fam.param_dim)) * 0.4)
        field = interpolate(fam, sched, "residual_interp")
        x0 = rng.standard_normal(2)
        traj = forward_euler_chain(fam, sched, x0)
        x = x0.copy()
        for n in range(depth):
            x = x + field.piece([0.0])(n)(x, 0) / depth
            assert np.array_equal(x, traj.nodes[n + 1])


class TestApproximationBound:
    def test_zero_lipschitz_branch(self):
        assert approximation_bound(0.0, 1.0, 10) == pytest.approx(0.05)

    def test_continuity_at_zero(self):
        assert approximation_bound(1e-12, 1.0, 10) == pytest.approx(0.05, abs=1e-10)

    def test_generic_value(self):
        assert approximation_bound(1.0, 2.0, 100) == pytest.approx((np.e - 1) / 100)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            approximation_bound(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            approximation_bound(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            approximation_bound(1.0, 1.0, 0)

    @pytest.mark.parametrize("L, c_n", [(np.nan, 1.0), (1.0, np.nan), (np.nan, 0.0)])
    def test_rejects_nan(self, L, c_n):
        """A NaN bound compares false against every gap, so it would never flag one."""
        with pytest.raises(ValueError):
            approximation_bound(L, c_n, 10)

    @pytest.mark.parametrize("L, c_n", [(800.0, 1.0), (np.inf, 1.0), (709.0, 1e300)])
    def test_overflow_reads_inf_without_a_warning(self, L, c_n):
        """A bound past the largest float, here e^790, e^1390 and e^inf,
        is +inf; the suite's filter turns any floating-point warning into
        an error."""
        assert approximation_bound(L, c_n, 10) == np.inf

    def test_finite_past_the_exponential_overflow(self):
        """e^710 overflows, but (e^710 - 1)/(2 * 710) * 1e-10 is a float:
        1.5732357508181e295 in 30-digit decimal arithmetic."""
        assert approximation_bound(710.0, 1e-10, 1) == pytest.approx(1.5732357508181e295,
                                                                     rel=1e-12)

    @pytest.mark.parametrize("L", [800.0, np.inf])
    def test_zero_constant_reads_zero_at_any_lipschitz(self, L):
        assert approximation_bound(L, 0.0, 10) == 0.0

    def test_bounds_measured_error_with_sampled_constants(self):
        """The measured chain-vs-flow gap obeys the bound, with no slack,
        on mlp(2, 3) schedules drawn at seeds 0-7.  On interval n the field
        is phi = (1 - a) W2_n tanh(W1_n x) + a W2_{n+1} tanh(W1_{n+1} x).
        With h = 3 hidden units, |tanh| <= 1 and tanh' <= 1 give
        ||d_x phi|| <= L = max_n ||W2_n|| ||W1_n|| and
        ||phi|| <= V = max_n ||W2_n|| sqrt(h), so the flow stays within
        R = ||x0|| + V, and, with dW_n = W_{n+1} - W_n over the padded rows,
        c_n <= N max_n (||dW2_n|| sqrt(h) + ||W2_n|| ||dW1_n|| R) + L V."""
        fam = make_mlp_family(2, 3)
        root_h = np.sqrt(3.0)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            coeffs = rng.standard_normal((2, fam.param_dim)) * 0.3
            for depth in (8, 32):
                s_grid = np.arange(depth) / depth
                sched = WeightSchedule(coeffs[0] + np.outer(s_grid, coeffs[1]))
                x0 = rng.standard_normal(2) * 0.5
                traj = forward_euler_chain(fam, sched, x0)
                field = interpolate(fam, sched, "residual_interp")
                _, worst = approximation_error(traj, solve_ode_oracle(field, x0, 64 * depth))
                w1 = sched.padded[:, :6].reshape(-1, 3, 2)
                w2 = sched.padded[:, 6:].reshape(-1, 2, 3)
                norm1, norm2 = (np.linalg.norm(w, 2, axis=(1, 2)) for w in (w1, w2))
                step1, step2 = (np.linalg.norm(np.diff(w, axis=0), 2, axis=(1, 2))
                                for w in (w1, w2))
                L, speed = float(np.max(norm2 * norm1)), float(np.max(norm2)) * root_h
                radius = float(np.linalg.norm(x0)) + speed
                c_n = (depth * float(np.max(step2 * root_h + norm2[:-1] * step1 * radius))
                       + L * speed)
                assert worst <= approximation_bound(L, c_n, depth)

    def test_identity_family_gaps_meet_the_exact_bound(self):
        """On the identity family (f = theta, so L = 0) c_n is exactly
        N max_n |theta_{n+1} - theta_n|, the slope of the interpolated
        field, and the bound is c_n / (2N): linear_drift (c_n = 1) and
        index (c_n = N) meet it to rounding, and one unit jump at N/2
        (c_n = N) stays under it.
        """
        identity = make_identity_family()
        for depth in (8, 64, 1024):
            jump = (np.arange(depth) >= depth // 2).astype(float)
            for rows, end, tight in ((np.arange(depth) / depth, 1.0, True),
                                     (np.arange(depth, dtype=float), float(depth), True),
                                     (jump, 1.0, False)):
                sched = WeightSchedule(rows.reshape(depth, 1))
                traj = forward_euler_chain(identity, sched, np.zeros(1))
                field = interpolate(identity, sched, "residual_interp",
                                    theta_end=np.array([end]))
                gaps, worst = approximation_error(
                    traj, solve_ode_oracle(field, np.zeros(1), 4 * depth))
                c_n = depth * float(np.max(np.abs(np.diff(np.append(rows, end)))))
                bound = approximation_bound(0.0, c_n, depth)
                if tight:
                    assert worst == gaps[-1] == pytest.approx(bound, rel=1e-12)
                else:
                    assert worst <= bound

    def test_heun_convergence_order(self):
        """Two-stage chain reaches the flow at empirical order >= 1.8."""
        fam = make_mlp_family(2, 3)
        theta = np.random.default_rng(6).standard_normal(fam.param_dim) * 0.5
        x0 = np.array([0.4, -0.2])
        points = []
        for depth in (4, 8, 16, 32, 64):
            sched = constant_schedule(theta, depth)
            traj = forward_heun_chain(fam, sched, x0)
            field = interpolate(fam, sched, "residual_interp")
            sol = solve_ode_oracle(field, x0, 64 * depth)
            _, worst = approximation_error(traj, sol)
            points.append((depth, worst))
        fit = fit_loglog_slope(points)
        assert fit.slope <= -1.8


