import math
import tracemalloc

import numpy as np
import pytest

from odenet import linear_flow
from odenet.dynamics import DivergenceError, VectorField, solve_ode_oracle
from odenet.harness import ExperimentConfig, run_linear_flow_experiment
from odenet.linear_flow import (
    FlowSample,
    FlowState,
    FlowTrace,
    StepSizeError,
    _profile_gap,
    check_small_loss_regime,
    depth_double_compare,
    extract_limit_map,
    integrate_flow,
    loss,
    monitor_invariants,
    product_vs_ode,
    small_loss_target,
    state_from_matrices,
    state_from_profile,
    transport_product,
)
from odenet.residual_models import WeightSchedule
from oracles import bind_flow_broadcast, finite_difference_gradient, tables


def flat_state(thetas):
    return state_from_matrices(np.asarray(thetas, dtype=float))


def scalar_state(values, t=0.0):
    return FlowState(WeightSchedule(np.asarray(values, dtype=float).reshape(-1, 1)), t)


class TestBuildProblem:
    """A flow problem is its target B alone: the inputs are whitened, so the
    paper's covariance constants take their values at m = M = 1."""

    def test_identity_problem(self):
        """The loss is the covariance-weighted Tr((Pi - B) Sigma (Pi - B)^T) at
        Sigma = I, bit for bit, and the regime ceiling m / (4 sqrt(2 M e^3))."""
        rng = np.random.default_rng(1)
        for d in (1, 3, 4, 6):
            state = flat_state(rng.standard_normal((5, d, d)) * 0.3)
            b = rng.standard_normal((d, d))
            resid = transport_product(state.matrices()) - b
            assert loss(state, b) == float(np.einsum("ij,jk,ik->", resid, np.eye(d), resid))
        assert linear_flow.LOSS_THRESHOLD == 1.0 / (4.0 * math.sqrt(2.0 * 1.0 * math.e ** 3))

    @pytest.mark.parametrize("target", [np.zeros((2, 3)), np.zeros(4), np.full((2, 2), np.inf),
                                        [[0.0, np.nan], [0.0, 0.0]]],
                             ids=["not_square", "flat", "inf", "nan"])
    def test_target_is_checked_on_entry(self, target):
        """loss, integrate_flow and check_small_loss_regime take B only
        finite and of the state's (d, d) shape."""
        state = flat_state(np.zeros((3, 2, 2)))
        for call in (lambda: loss(state, target),
                     lambda: integrate_flow(state, target, 0.1, 1e-2, [0.0, 0.1]),
                     lambda: check_small_loss_regime(state, target)):
            with pytest.raises(ValueError):
                call()


class TestLoss:
    def test_identity_product_hits_identity_target(self):
        state = flat_state(np.zeros((3, 2, 2)))
        assert loss(state, np.eye(2)) == 0.0

    def test_zero_target_identity_sigma(self):
        assert loss(flat_state(np.zeros((4, 2, 2))), np.zeros((2, 2))) == pytest.approx(2.0)

    def test_scalar_value(self):
        assert loss(scalar_state([0.0]), np.array([[2.0]])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            loss(flat_state(np.zeros((2, 2, 2))), np.zeros((3, 3)))


def test_transport_product_applies_layer_one_first():
    low = np.array([[0.0, 2.0], [0.0, 0.0]])
    up = np.array([[0.0, 0.0], [2.0, 0.0]])
    prod = transport_product(np.stack([low, up]))
    assert np.array_equal(prod, np.array([[1.0, 1.0], [1.0, 2.0]]))


def _normwise_close(got, want, rtol):
    return np.all(np.linalg.norm(got - want, axis=(-2, -1))
                  <= rtol * np.linalg.norm(want, axis=(-2, -1)))


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 100])
def test_prefix_suffix_matches_sequential_products(depth, dim):
    """The blocked scan gives every partial product, at depths below, at
    and on either side of the scan's block and power-of-two edges."""
    thetas = np.random.default_rng(100 * dim + depth).standard_normal((depth, dim, dim))
    factors = np.eye(dim) + thetas / depth
    want_pre, want_suf = [np.eye(dim)], [np.eye(dim)]
    for n in range(depth):
        want_pre.append(factors[n] @ want_pre[-1])
        want_suf.append(want_suf[-1] @ factors[depth - 1 - n])
    want_suf_t = np.swapaxes(np.array(want_suf[::-1]), 1, 2)

    pre, suf_t = linear_flow._bind_flow(depth, dim)[0](thetas)
    assert pre.shape == suf_t.shape == (depth + 1, dim, dim)
    assert np.array_equal(pre[0], np.eye(dim))
    assert np.array_equal(suf_t[depth], np.eye(dim))
    assert _normwise_close(pre, np.array(want_pre), 1e-12)
    assert _normwise_close(suf_t, want_suf_t, 1e-12)
    assert _normwise_close(pre[-1], transport_product(thetas), 1e-12)
    assert _normwise_close(suf_t[0].T, transport_product(thetas), 1e-12)


def gradients(thetas, target):
    """The rescaled gradients N grad_n, the negated velocity of a freshly bound kernel."""
    return -linear_flow._bind_flow(*thetas.shape[:2])[1](thetas, target)[0]


class TestLayerGradient:
    def test_scalar_single_layer(self):
        """Quadratic loss (1 + theta - 2)^2 has derivative -2 at zero; the
        rescaled gradient carries the factor 2 so it matches finite
        differences of the loss."""
        grad = gradients(np.zeros((1, 1, 1)), np.array([[2.0]]))[0]
        assert grad[0, 0] == pytest.approx(-2.0)

    def test_zero_at_global_minimum(self):
        rng = np.random.default_rng(4)
        thetas = rng.standard_normal((3, 2, 2)) * 0.2
        b = transport_product(thetas)
        for n in (1, 2, 3):
            grad = gradients(thetas, b)[n - 1]
            assert np.max(np.abs(grad)) <= 1e-14

    @pytest.mark.parametrize("dim,depth", [(2, 1), (2, 3), (2, 4), (3, 5), (3, 9), (3, 17)])
    def test_matches_rescaled_finite_differences(self, dim, depth):
        rng = np.random.default_rng(10 * dim + depth)
        b = rng.standard_normal((dim, dim))
        thetas = rng.standard_normal((depth, dim, dim)) * 0.4
        grads = gradients(thetas, b)
        for n in range(1, depth + 1):
            def loss_of_layer(flat, n=n):
                moved = thetas.copy()
                moved[n - 1] = flat.reshape(dim, dim)
                return loss(flat_state(moved), b)

            fd = finite_difference_gradient(
                loss_of_layer, thetas[n - 1].ravel(), eps=1e-6) * depth
            exact = grads[n - 1].ravel()
            rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
            assert rel <= 1e-6


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 100])
def test_bound_gradients_keep_no_state(depth, dim):
    """One bound kernel run on A, then B, then A gives each time what a
    fresh kernel gives, bit for bit, and leaves earlier results alone;
    1000 more calls raise no floating-point error, which they would if
    the scan's identity padding were not refilled on every call."""
    rng = np.random.default_rng(100 * dim + depth)
    a, b = rng.standard_normal((2, depth, dim, dim))
    target = rng.standard_normal((dim, dim))
    kernel = linear_flow._bind_flow(depth, dim)[1]
    runs = []
    for thetas in (a, b, a):
        out = kernel(thetas, target)
        runs.append((thetas, out, [x.copy() for x in out]))
    for thetas, out, copies in runs:
        fresh = linear_flow._bind_flow(depth, dim)[1](thetas, target)
        for got, copy, want in zip(out, copies, fresh):
            assert np.array_equal(copy, want) and np.array_equal(got, copy)
    with np.errstate(all="raise"):
        for _ in range(500):
            kernel(a, target)
            kernel(b, target)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", [*range(1, 41), 63, 64, 65, 255, 256, 257, 300])
def test_gradients_match_the_broadcast_kernel_byte_for_byte(depth, dim):
    """The carry and the sandwich's left factor each run as one gemm over
    stacked rows, with the broadcast kernel's sums in its order, so the
    velocities and Pi - B keep every byte, below, on and past the scan's
    block edges; at B = Pi the gap is all zeros and each velocity entry's
    sign of zero comes from the order of its sums."""
    rng = np.random.default_rng(1000 * dim + depth)
    kernel = linear_flow._bind_flow(depth, dim)[1]
    reference = bind_flow_broadcast(depth, dim)[1]
    for scale in (0.1, 1.0):
        thetas = rng.standard_normal((depth, dim, dim)) * scale
        pi = reference(thetas, np.zeros((dim, dim)))[1]
        for target in (rng.standard_normal((dim, dim)), pi):
            for got, want in zip(kernel(thetas, target), reference(thetas, target)):
                assert got.tobytes() == want.tobytes()


def _closed_over(kernel):
    """{name: value} of the variables a bound kernel closes over."""
    return dict(zip(kernel.__code__.co_freevars,
                    (cell.cell_contents for cell in kernel.__closure__)))


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("depth", [4, 7, 64, 257])
def test_shared_operand_products_use_views_of_the_scan_buffer(depth, dim):
    """The carry's stacked rows and the sandwich's suffix rows are reshaped
    views of the scan buffer: a reshape that copied would carry into a
    stray array, or copy the suffixes on every call."""
    scan, velocity = linear_flow._bind_flow(depth, dim)
    cells = _closed_over(velocity)
    buffer, suf_rows = cells["pre"].base, cells["suf_rows"]
    carried = _closed_over(scan)["pairs"][-1][0]
    blocks = depth // linear_flow.SCAN_BLOCK + 1
    assert carried.shape == (2, blocks - 1, (linear_flow.SCAN_BLOCK - 1) * dim, dim)
    assert suf_rows.shape == (depth * dim, dim)
    assert np.shares_memory(carried, buffer) and np.shares_memory(suf_rows, buffer)


class TestSmallLossTarget:
    def test_initial_loss_hits_requested_fraction(self):
        """The initial loss is an eighth of the squared regime threshold."""
        rng = np.random.default_rng(8)
        state = flat_state(rng.standard_normal((4, 3, 3)) * 0.05)
        threshold = 1.0 / (4.0 * math.sqrt(2.0 * math.e ** 3))
        for seed in (0, 2):
            b = small_loss_target(state, seed=seed)
            assert loss(state, b) == pytest.approx(0.125 * threshold ** 2, rel=1e-12)


class TestRegimeCheck:
    def test_threshold_value_identity_sigma(self):
        """At zero loss the margin is the whole threshold m / (4 sqrt(2 M e^3)), m = M = 1."""
        rep = check_small_loss_regime(flat_state(np.zeros((2, 2, 2))), np.eye(2))
        assert rep.loss_margin == pytest.approx(0.0394443, abs=1e-6)
        assert rep.loss_margin == 1.0 / (4.0 * math.sqrt(2.0 * math.e ** 3))

    def test_loss_margin_decides(self):
        # initial loss 1e-3 sits inside the squared threshold 1.556e-3,
        # 1e-2 does not
        direction = np.eye(2) / math.sqrt(2.0)
        zero = np.zeros((2, 2, 2))
        ok = np.eye(2) + math.sqrt(1e-3) * direction
        bad = np.eye(2) + math.sqrt(1e-2) * direction
        rep_ok = check_small_loss_regime(flat_state(zero), ok)
        rep_bad = check_small_loss_regime(flat_state(zero), bad)
        assert rep_ok.passes and rep_ok.loss_margin > 0
        assert not rep_bad.passes
        assert rep_bad.loss_margin < 0 <= rep_bad.norm_margin

    def test_norm_margin_decides(self):
        thetas = np.stack([0.3 * np.eye(2), np.zeros((2, 2))])
        rep = check_small_loss_regime(flat_state(thetas), transport_product(thetas))
        assert not rep.passes
        assert rep.norm_margin == pytest.approx(-0.05)
        assert rep.loss_margin > 0  # loss is exactly zero here


class TestMaxStepSize:
    def test_cap_and_curvature_limit(self):
        """dt may reach min(1e-2, 0.1/M) at M = 1 and no further."""
        assert linear_flow.MAX_STEP_SIZE == min(1e-2, 0.1 / 1.0) == 1e-2
        b = np.array([[1.01]])
        trace = integrate_flow(scalar_state([0.0]), b, 0.02, 1e-2, [0.0, 0.02])
        assert trace.samples[-1].t == 0.02
        with pytest.raises(ValueError, match="dt must lie in"):
            integrate_flow(scalar_state([0.0]), b, 0.02, 1e-2 * (1.0 + 1e-9), [0.0, 0.02])


class TestIntegrateFlow:
    def test_scalar_closed_form(self):
        """theta' = -2(theta - 0.01) from zero: theta = 0.01(1 - e^{-2t}),
        loss = 1e-4 e^{-4t}."""
        trace = integrate_flow(scalar_state([0.0]), np.array([[1.01]]), 2.0, 1e-3,
                               np.linspace(0.0, 2.0, 9))
        for s in trace.samples:
            assert s.thetas[0, 0, 0] == pytest.approx(
                0.01 * (1.0 - math.exp(-2.0 * s.t)), abs=1e-6)
            assert s.loss_value == pytest.approx(
                1e-4 * math.exp(-4.0 * s.t), abs=1e-6)

    def test_stationary_at_global_minimum(self):
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((3, 2, 2)) * 0.1
        trace = integrate_flow(flat_state(thetas), transport_product(thetas), 1.0, 1e-2,
                               [0.0, 0.5, 1.0])
        for s in trace.samples:
            assert np.array_equal(s.thetas, trace.samples[0].thetas)

    def test_identical_symmetric_layers_stay_identical(self):
        # symmetric theta0 keeps every gradient in the commutative algebra
        # generated by theta0, so all layers receive the same update
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 2)) * 0.2
        theta0 = 0.5 * (a + a.T)
        thetas = np.tile(theta0, (4, 1, 1))
        b = transport_product(thetas) + 0.05 * np.eye(2)
        trace = integrate_flow(flat_state(thetas), b, 5.0, 1e-2,
                               np.linspace(0.0, 5.0, 6))
        for s in trace.samples:
            mats = s.thetas
            spread = np.max(np.abs(mats - mats[0]))
            assert spread <= 1e-10

    def test_sample_losses_match_their_schedules(self):
        rng = np.random.default_rng(7)
        thetas = rng.standard_normal((6, 2, 2)) * 0.1
        b = transport_product(thetas) + 0.05
        trace = integrate_flow(flat_state(thetas), b, 1.0, 1e-2,
                               np.linspace(0.0, 1.0, 5))
        for s in trace.samples:
            assert s.loss_value == pytest.approx(
                loss(state_from_matrices(s.thetas), b), rel=1e-12)

    def test_trace_keeps_its_own_target(self):
        """Reusing the caller's B buffer later cannot change which problem a
        trace is compared as."""
        b = np.array([[1.01]])
        trace = integrate_flow(scalar_state([0.0]), b, 0.01, 1e-2, [0.0, 0.01])
        b[0, 0] = 2.0
        assert trace.target[0, 0] == 1.01

    def test_rejects_bad_steps_and_snapshots(self):
        b = np.array([[1.01]])
        state = scalar_state([0.0])
        with pytest.raises(ValueError):
            integrate_flow(state, b, 1.0, 0.05, [0.0, 1.0])  # above the cap
        with pytest.raises(ValueError):
            integrate_flow(state, b, 1.0, 0.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            integrate_flow(state, b, 1.0, 1e-3, [0.5, 0.5])
        with pytest.raises(ValueError):
            integrate_flow(state, b, 1.0, 1e-3, [0.0, 2.0])
        with pytest.raises(ValueError):
            integrate_flow(FlowState(state.schedule, 3.0), b, 1.0, 1e-3, [])

    @pytest.mark.parametrize("t_end, snapshots", [(1.0, [0.5, 1.0]), (0.1, [0.0]), (0.1, [])],
                             ids=["starts_late", "stops_short", "empty"])
    def test_snapshots_must_run_from_the_start_to_t_end(self, t_end, snapshots):
        """No sample is added: the first snapshot is the start, the last is t_end."""
        with pytest.raises(ValueError, match="from state0.t to t_end"):
            integrate_flow(scalar_state([0.0]), np.array([[1.01]]), t_end, 1e-2, snapshots)

    @pytest.mark.parametrize("t0, t_end, snapshots", [
        (0.0, 0.0, [0.0]), (0.0, 0.05, [0.0, 0.05]), (0.0, 1.0, [0.0, 0.003, 0.5, 1.0]),
        (0.25, 0.5, [0.25 + 1e-13, 0.3, 0.5 - 1e-13])],
        ids=["start_only", "one_segment", "uneven", "ends_within_1e-12"])
    def test_sample_times_are_the_snapshots(self, t0, t_end, snapshots):
        """A trace's times are its snapshots, exactly, not state0.t or t_end."""
        trace = integrate_flow(scalar_state([0.0, 0.0], t0), np.array([[1.01]]), t_end, 1e-2,
                               snapshots)
        assert trace.times.tolist() == snapshots

    def test_unstable_step_raises_with_advice(self):
        b = np.zeros((1, 1))
        big = scalar_state([20.0, 20.0, 20.0, 20.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepSizeError, match="reduce dt"):
                integrate_flow(big, b, 1.0, 1e-2, [0.0, 1.0])

    def test_nan_loss_is_a_step_size_error(self):
        # Layers at 1e3 overflow the stages to inf - inf, so the loss
        # after the first step is NaN rather than inf.
        b = np.zeros((1, 1))
        big = scalar_state([1e3] * 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepSizeError, match="to nan"):
                integrate_flow(big, b, 1.0, 1e-2, [0.0, 1.0])

    def test_step_size_error_names_the_failing_step(self):
        """Four layers at 0.3 against B = 50 pass two steps and fail the
        third, t = 0.02 to 0.03: the message gives that step's start,
        not the start of its snapshot segment, in the first segment or a later one."""
        state = scalar_state([0.3] * 4)
        for snapshots in ([0.0, 1.0, 2.0], [0.0, 0.01, 2.0]):
            with pytest.raises(StepSizeError, match=r"near t=0\.02;"):
                integrate_flow(state, np.array([[50.0]]), 2.0, 1e-2, snapshots)
        trace = integrate_flow(state, np.array([[50.0]]), 0.02, 1e-2, [0.0, 0.02])
        assert trace.samples[-1].loss_value < trace.samples[0].loss_value


class TestFlowTraceValidation:
    def _sample(self, t, value):
        return FlowSample(t, value, 0.0, 0.0, np.zeros((2, 1, 1)))

    def test_times_must_increase(self):
        b = np.zeros((1, 1))
        with pytest.raises(ValueError):
            FlowTrace([self._sample(0.0, 1.0), self._sample(0.0, 1.0)], b)

    def test_loss_must_not_increase(self):
        b = np.zeros((1, 1))
        with pytest.raises(ValueError, match="increased"):
            FlowTrace([self._sample(0.0, 1.0), self._sample(1.0, 1.1)], b)

    @pytest.mark.parametrize("losses, rose", [
        ((1.0, 1.0 + 0.5e-9), False), ((1.0, 1.0 + 2e-9), True),
        ((0.0, 0.5e-18), False), ((0.0, 2e-18), True)],
        ids=["rel_inside", "rel_outside", "abs_inside", "abs_outside"])
    def test_loss_rise_tolerances(self, losses, rose):
        """A rise counts past 1e-9 of the earlier loss plus 1e-18 times
        1 + the first loss; from a loss of 0 only the second term is left."""
        b = np.zeros((1, 1))
        samples = [self._sample(0.0, losses[0]), self._sample(1.0, losses[1])]
        if rose:
            with pytest.raises(ValueError, match="increased"):
                FlowTrace(samples, b)
        else:
            FlowTrace(samples, b)

    @pytest.mark.parametrize("losses", [(1.0, math.nan), (math.nan, 1.0)],
                             ids=["nan_later", "nan_first"])
    def test_nan_loss_counts_as_a_rise(self, losses):
        """The trace applies integrate_flow's rule, under which NaN never passes."""
        b = np.zeros((1, 1))
        with pytest.raises(ValueError, match="increased"):
            FlowTrace([self._sample(0.0, losses[0]), self._sample(1.0, losses[1])], b)


class TestStateConstruction:
    def test_profile_samples_cell_midpoints(self):
        state = state_from_profile(lambda s: np.array([[s]]), 2)
        assert state.schedule.params[:, 0].tolist() == [0.25, 0.75]

    def test_validation(self):
        with pytest.raises(ValueError):
            state_from_profile(lambda s: np.array([[s]]), 0)
        with pytest.raises(ValueError):
            state_from_matrices(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            FlowState(WeightSchedule(np.zeros((2, 3))))  # rows not square
        with pytest.raises(ValueError):
            FlowState(WeightSchedule(np.zeros((2, 4))), t=-1.0)


class TestMonitors:
    def test_identical_symmetric_layers_have_zero_smoothness_stat(self):
        theta0 = np.array([[0.1, 0.05], [0.05, -0.1]])
        thetas = np.tile(theta0, (4, 1, 1))
        b = transport_product(thetas) + 0.01 * np.eye(2)
        trace = integrate_flow(flat_state(thetas), b, 2.0, 1e-2, [0.0, 1.0, 2.0])
        rep = monitor_invariants(trace)
        assert rep.max_smoothness_stat <= 1e-10

    def test_smooth_profile_run_passes_all_monitors(self):
        """Depth-32 run under a 1-Lipschitz profile over 10: weight norms
        stay below 1/2, the loss obeys its exponential envelope, and the
        depth-smoothness statistic stays near its initial size."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        a /= np.linalg.norm(a, 2)
        state = state_from_profile(lambda s: s * a / 10.0, 32)
        b = small_loss_target(state, seed=1)
        assert check_small_loss_regime(state, b).passes
        trace = integrate_flow(state, b, 10.0, linear_flow.MAX_STEP_SIZE,
                               np.linspace(0.0, 10.0, 11))
        rep = monitor_invariants(trace)
        assert rep.theta_bound_ok and rep.max_theta_norm < 0.5
        assert rep.decay_ok and rep.max_decay_ratio <= 1.0 + 1e-3
        assert rep.max_smoothness_stat <= 10.0 * trace.samples[0].smoothness_stat

    def test_violating_init_is_flagged_not_raised(self):
        thetas = np.stack([0.6 * np.eye(2), 0.6 * np.eye(2)])
        b = transport_product(thetas) + 0.01 * np.eye(2)
        trace = integrate_flow(flat_state(thetas), b, 1.0, 1e-2, [0.0, 1.0])
        rep = monitor_invariants(trace)
        assert rep.theta_bound_ok is False

    @staticmethod
    def _planted(times, losses, target=np.zeros((1, 1))):
        """A trace of the given losses: the decay monitor reads only t, the
        loss and the target's scale."""
        return FlowTrace([FlowSample(t, value, 0.0, 0.0, np.zeros((2, 1, 1)))
                          for t, value in zip(times, losses)], target)

    def test_decay_slower_than_the_envelope_rate_fails(self):
        """The envelope decays at rate 2/e: a loss decaying at 1.5/e falls
        behind it, and one decaying at 2.5/e stays under it."""
        times = np.linspace(0.0, 5.0, 6)
        assert not monitor_invariants(self._planted(times, np.exp(-1.5 / math.e * times))).decay_ok
        assert monitor_invariants(self._planted(times, np.exp(-2.5 / math.e * times))).decay_ok

    @pytest.mark.parametrize("excess, ok", [(5e-4, True), (2e-3, False)])
    def test_decay_ratio_slack_is_one_in_a_thousand(self, excess, ok):
        """A decay ratio of 1 + 5e-4 passes and one of 1 + 2e-3 fails."""
        loss = math.exp(-2.0 / math.e) * (1.0 + excess)
        rep = monitor_invariants(self._planted([0.0, 1.0], [1.0, loss]))
        assert rep.max_decay_ratio == pytest.approx(1.0 + excess, rel=1e-12)
        assert rep.decay_ok == ok

    def test_loss_at_the_rounding_floor_does_not_count_against_the_envelope(self):
        """A loss that settles at 4e-32 from t = 18 to 90 while the envelope
        keeps falling: its root, 2e-16, is below the rounding floor of a
        target with ||B||_F = 2, so those samples cannot violate the
        envelope.  Against a zero target the floor is 100 machine epsilons
        of the smallest normal number, and the same losses fail."""
        times = np.linspace(0.0, 90.0, 11)
        losses = np.maximum(1e-4 * np.exp(-5.0 * times), 4e-32)
        assert np.all(losses[2:] == 4e-32)
        rep = monitor_invariants(self._planted(times, losses, np.full((1, 1), 2.0)))
        assert rep.decay_ok and rep.max_decay_ratio == 1.0
        assert not monitor_invariants(self._planted(times, losses)).decay_ok


@pytest.fixture(scope="module")
def doubling_runs():
    """Profile-initialized flows at depths 16..128 sharing one target."""
    profile = lambda s: s * np.eye(2) / 10.0
    b = small_loss_target(state_from_profile(profile, 128), seed=3)
    snaps = np.linspace(0.0, 20.0, 11)
    traces = {}
    for depth in (16, 32, 64, 128):
        state = state_from_profile(profile, depth)
        assert check_small_loss_regime(state, b).passes
        traces[depth] = integrate_flow(state, b, 20.0, linear_flow.MAX_STEP_SIZE, snaps)
        assert traces[depth].times.tolist() == snaps.tolist()
    return profile, b, traces


class TestDepthDoubling:
    def test_identical_constant_inits_match_at_start(self):
        theta0 = 0.05 * np.eye(2)
        b = np.eye(2) + 0.01 * np.eye(2) / math.sqrt(2.0)
        tr_a = integrate_flow(flat_state(np.tile(theta0, (8, 1, 1))), b,
                              0.0, 1e-2, [0.0])
        tr_b = integrate_flow(flat_state(np.tile(theta0, (16, 1, 1))), b,
                              0.0, 1e-2, [0.0])
        assert depth_double_compare(tr_a, tr_b) == 0.0

    def test_distance_halves_as_depth_doubles(self, doubling_runs):
        _, _, traces = doubling_runs
        d16 = depth_double_compare(traces[16], traces[32])
        d32 = depth_double_compare(traces[32], traces[64])
        d64 = depth_double_compare(traces[64], traces[128])
        assert d16 > d32 > d64 > 0.0
        assert 0.35 <= d32 / d16 <= 0.7
        assert 0.35 <= d64 / d32 <= 0.7

    def test_mismatch_validation(self, doubling_runs):
        _, b, traces = doubling_runs
        with pytest.raises(ValueError):
            depth_double_compare(traces[16], traces[64])
        short = integrate_flow(
            state_from_profile(lambda s: s * np.eye(2) / 10.0, 32),
            b, 0.0, 1e-2, [0.0])
        with pytest.raises(ValueError):
            depth_double_compare(traces[16], short)


class TestLimitMap:
    def test_profiles_converge_to_deepest_run(self, doubling_runs):
        _, _, traces = doubling_runs
        report = extract_limit_map([traces[d] for d in (16, 32, 64, 128)])
        assert report.depths.tolist() == [16, 32, 64]
        assert report.sup_fit is not None and report.sup_fit.r_squared >= 0.9
        assert -1.3 <= report.sup_fit.slope <= -0.7
        # distances shrink with depth at every sampled time, 10% slack
        for ti in range(len(report.times)):
            row = report.distances[ti]
            assert all(row[k + 1] <= row[k] * 1.1 for k in range(len(row) - 1))

    def test_start_distance_equals_profile_quadrature(self, doubling_runs):
        """At t = 0 the reported gap is just the sampling gap between the
        step profiles, computable straight from the profile."""
        profile, _, traces = doubling_runs
        report = extract_limit_map([traces[d] for d in (16, 32, 64, 128)])
        s_grid = (np.arange(256) + 0.5) / 256

        def step_values(depth):
            cells = np.minimum((depth * s_grid).astype(int), depth - 1)
            return np.stack([profile((c + 0.5) / depth) for c in cells])

        ref_vals = step_values(128)
        for ni, depth in enumerate((16, 32, 64)):
            direct = math.sqrt(float(np.mean(
                np.sum((step_values(depth) - ref_vals) ** 2, axis=(1, 2)))))
            assert report.distances[0, ni] == pytest.approx(direct, rel=1e-12)

    def test_equals_cell_sampling_on_a_doubling_ladder(self):
        """With the reference at depth 256, the exact distance equals, bit
        for bit, the 256-point midpoint sampling of both step profiles."""
        rng = np.random.default_rng(7)
        depths = (16, 32, 64, 128, 256)
        stacks = {n: rng.standard_normal((2, n, 3, 3)) for n in depths}
        report = extract_limit_map([
            FlowTrace([FlowSample(t, 1.0, 0.0, 0.0, stacks[n][ti])
                       for ti, t in enumerate((0.0, 1.0))], np.eye(3))
            for n in depths])
        s_grid = (np.arange(256) + 0.5) / 256

        def sampled(thetas):
            n = thetas.shape[0]
            return thetas[np.minimum((n * s_grid).astype(int), n - 1)]
        for ti in range(2):
            ref_vals = sampled(stacks[256][ti])
            for ni, n in enumerate(depths[:-1]):
                sq = np.sum((sampled(stacks[n][ti]) - ref_vals) ** 2, axis=(1, 2))
                assert report.distances[ti, ni] == math.sqrt(float(np.mean(sq)))

    @pytest.mark.parametrize("na, nb", [(4, 9), (6, 10), (250, 257)])
    def test_matches_lcm_grid_sampling(self, na, nb):
        """Reference: both stacks repeated onto the lcm(N_a, N_b) grid,
        where the cell mean of the squared gap is its integral."""
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((na, 3, 3)), rng.standard_normal((nb, 3, 3))
        cells = math.lcm(na, nb)
        diff = np.repeat(a, cells // na, axis=0) - np.repeat(b, cells // nb, axis=0)
        lcm_gap = math.sqrt(float(np.mean(np.sum(diff ** 2, axis=(1, 2)))))
        assert _profile_gap(a, b) == pytest.approx(lcm_gap, rel=1e-14)

    def test_memory_does_not_grow_with_lcm(self):
        """Coprime depths 997 and 1009 share no cell edge but the last; the
        lcm grid would hold a million 4x4 cells."""
        a, b = np.ones((997, 4, 4)), np.zeros((1009, 4, 4))
        tracemalloc.start()
        try:
            gap = _profile_gap(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap == pytest.approx(4.0, rel=1e-14)
        assert peak < 16 * 2 ** 20

    def test_validation(self, doubling_runs):
        _, _, traces = doubling_runs
        with pytest.raises(ValueError):
            extract_limit_map([traces[16], traces[32]])
        with pytest.raises(ValueError):
            extract_limit_map([traces[16], traces[16], traces[32]])

    @pytest.mark.parametrize("target", [
        lambda k: (1.0 + 0.01 * k) * np.eye(2),
        lambda k: np.eye(2) + np.array([[0.0, 0.01 * k], [0.0, 0.0]])],
        ids=["target", "one_entry"])
    def test_rejects_traces_of_different_problems(self, target):
        """The limit map, like depth doubling, compares runs of one target only."""
        traces = [integrate_flow(state_from_profile(lambda s: s * np.eye(2) / 10.0, depth),
                                 target(k), 0.5, 1e-2, [0.0, 0.5])
                  for k, depth in enumerate((4, 8, 16))]
        with pytest.raises(ValueError, match="different problems"):
            depth_double_compare(traces[0], traces[1])
        with pytest.raises(ValueError, match="different problems"):
            extract_limit_map(traces)


class TestProductVsOde:
    def test_zero_schedule_no_gap(self):
        assert product_vs_ode(np.zeros((8, 2, 2))) == 0.0

    def test_constant_scalar_matches_exponential_gap(self):
        # |(1 + 0.4/256)^256 - e^{0.4}| with unit probes
        gap = product_vs_ode(np.full((256, 1, 1), 0.4))
        closed = abs((1.0 + 0.4 / 256) ** 256 - math.exp(0.4))
        assert gap == pytest.approx(closed, rel=1e-10)
        assert gap <= 5e-4

    def test_trained_gap_scales_inversely_with_depth(self, doubling_runs):
        _, _, traces = doubling_runs
        gap64 = product_vs_ode(traces[64].samples[-1].thetas)
        gap128 = product_vs_ode(traces[128].samples[-1].thetas)
        assert gap128 <= 1.1 * (64 * gap64) / 128

    @pytest.mark.parametrize("probes", [1, 5, 20])
    @pytest.mark.parametrize("fine", [4, 64])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n_layers", [1, 2, 12, 64])
    def test_matches_rk4_oracle_path(self, n_layers, d, fine, probes, monkeypatch):
        """The closed form is the depth-s oracle's RK4 solve of the
        left-continuous piecewise-constant field, to rounding.  The
        sub-step and probe counts are set through the module constants."""
        monkeypatch.setattr(linear_flow, "ODE_STEPS_PER_LAYER", fine)
        monkeypatch.setattr(linear_flow, "PROBES", probes)
        thetas = np.random.default_rng(8).standard_normal((n_layers, d, d)) * 0.3

        def piece(alphas):   # left-continuous: fraction 0 of layer n >= 1 applies theta_{n-1}
            def at(n):
                layers = [thetas[n - 1] if a == 0.0 and n > 0 else thetas[n] for a in alphas]
                return lambda x, m: layers[m] @ x
            return at

        field = VectorField(piece, depth=n_layers, state_dim=d)
        x0 = np.random.default_rng(0).standard_normal((d, probes))   # product_vs_ode's probes
        x0 /= np.linalg.norm(x0, axis=0)
        flow = solve_ode_oracle(field, x0, fine * n_layers)[-1]
        expected = np.max(np.linalg.norm(transport_product(thetas) @ x0 - flow, axis=0))
        assert product_vs_ode(thetas) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("thetas", [np.zeros((4, 1)), np.zeros((4, 2, 3)),
                                        np.full((4, 1, 1), np.nan), np.zeros((0, 1, 1))],
                             ids=["2d", "not_square", "nan", "empty"])
    def test_rejects_malformed_stack(self, thetas):
        with pytest.raises(ValueError):
            product_vs_ode(thetas)

    @pytest.mark.filterwarnings("error")
    def test_blowup_raises_divergence(self):
        with pytest.raises(DivergenceError, match="ode oracle") as exc:
            product_vs_ode(np.full((1, 1, 1), 1e4))
        assert exc.value.layer == 0

    @pytest.mark.xfail(strict=True, reason=(
        "the piecewise-constant field is left-continuous, so the first RK4 "
        "stage of each layer interval applies theta_{n-1}"))
    def test_matches_exact_exponential_product(self):
        thetas = np.random.default_rng(3).standard_normal((16, 2, 2)) * 0.2
        n_layers = thetas.shape[0]
        assert np.max(np.linalg.norm(thetas / n_layers, 2, axis=(1, 2))) < 0.05
        assert np.allclose(taylor_expm(np.array([[0.0, -0.3], [0.3, 0.0]])),
                           [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]],
                           rtol=0, atol=1e-15)
        flow = np.eye(2)
        for theta in thetas:
            flow = taylor_expm(theta / n_layers) @ flow
        x0 = np.random.default_rng(0).standard_normal((2, 20))   # product_vs_ode's probes
        x0 /= np.linalg.norm(x0, axis=0)
        exact = np.max(np.linalg.norm((transport_product(thetas) - flow) @ x0, axis=0))
        assert product_vs_ode(thetas) == pytest.approx(exact, rel=1e-3)


def taylor_expm(a, terms=18):
    """Matrix exponential by its Taylor series; accurate for norms well below 1."""
    out = term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


@pytest.fixture(scope="module")
def flow_csvs():
    """A small limit-map run; its trace and limit-map tables are the flow
    exports, {file name: text}, returned beside the result."""
    config = ExperimentConfig(experiment="limit_map", depths=(8, 16, 32),
                              state_dim=2, t_end=1.0, snapshot_count=3, seed=0)
    result = run_linear_flow_experiment(config)
    return tables(result), result


class TestCsvExports:
    def test_flow_trace_csv(self, flow_csvs):
        text, result = flow_csvs
        for depth in (8, 16, 32):
            lines = text[f"trace_N{depth}.csv"].strip().splitlines()
            assert lines[0] == "t,loss,max_theta_norm,smoothness_stat"
            samples = result.traces[depth].samples
            assert len(lines) == 1 + len(samples) == 1 + 3
            assert lines[1].startswith("0,")
            for line, sample in zip(lines[1:], samples):
                assert [float(v) for v in line.split(",")] == [
                    sample.t, sample.loss_value, sample.max_theta_norm,
                    sample.smoothness_stat]

    def test_limit_map_csv(self, flow_csvs):
        text, result = flow_csvs
        report = result.limit_report
        lines = text["limitmap.csv"].strip().splitlines()
        assert lines[0] == "t,N,l2_distance"
        assert len(lines) == 1 + len(report.times) * len(report.depths) == 1 + 3 * 2
        assert [line.split(",")[1] for line in lines[1:3]] == ["8", "16"]
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[2]) for r in rows] == list(report.distances.ravel())
