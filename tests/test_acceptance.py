"""End-to-end acceptance checks, one test per headline guarantee.

Each test pins the quantitative window and the runtime budget for one
advertised behavior, driving the public API the way the experiment
scripts do.  Shared sweeps are computed once in module fixtures and
timed, so every consumer can hold the wall clock against its own
budget.
"""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from odenet.adjoint import (
    adjoint_sweep_euler,
    adjoint_sweep_heun,
    backprop_exact,
    backprop_exact_heun,
    compare_gradients,
)
from odenet.dynamics import (
    EULER,
    HEUN,
    approximation_error,
    forward_euler_chain,
    forward_heun_chain,
    interpolate,
    solve_ode_oracle,
)
from odenet.harness import (
    FAMILIES,
    ExperimentConfig,
    _child_rngs,
    _make_profile,
    _scheme_functions,
    run_linear_flow_experiment,
    run_scaling_study,
)
from odenet.numerics import fit_loglog_slope
from odenet.residual_models import (
    WeightSchedule,
    make_identity_family,
    make_linear_family,
    make_mlp_family,
    make_square_family,
)
from oracles import finite_difference_gradient, tables, values


# The seeds each order law is held at.
SEEDS = range(4)


def _timed_studies(experiment: str, profile: str, profile_scale=None) -> dict:
    """{seed: (result, seconds)} of the default-depth study at each of SEEDS."""
    studies = {}
    for seed in SEEDS:
        config = ExperimentConfig(experiment=experiment, schedule_profile=profile,
                                  profile_scale=profile_scale, seed=seed)
        start = time.perf_counter()
        result = run_scaling_study(config)
        studies[seed] = result, time.perf_counter() - start
    return studies


@pytest.fixture(scope="module")
def euler_study():
    return _timed_studies("euler_adjoint", "lipschitz_profile")


@pytest.fixture(scope="module")
def heun_study():
    return _timed_studies("heun_adjoint", "lipschitz_profile")


@pytest.fixture(scope="module")
def heun_alternating_study():
    return _timed_studies("heun_adjoint", "alternating")


@pytest.fixture(scope="module")
def flow_experiment():
    config = ExperimentConfig(experiment="limit_map", seed=0)
    start = time.perf_counter()
    result = run_linear_flow_experiment(config)
    return result, time.perf_counter() - start


def _scalar_gap(family, rows, theta_end, kind) -> float:
    """|x_N - x(1)| for a scalar chain against its interpolating flow."""
    schedule = WeightSchedule(rows)
    x0 = np.zeros(1)
    traj = forward_euler_chain(family, schedule, x0)
    field = interpolate(family, schedule, kind, theta_end=theta_end)
    sol = solve_ode_oracle(field, x0, 4 * schedule.depth)
    return float(np.abs(traj.nodes[-1][0] - sol[-1][0]))


def test_smooth_linear_profile_gap_is_half_inverse_depth():
    family = make_identity_family()
    start = time.perf_counter()
    for depth in (10, 100, 1000):
        rows = (np.arange(depth, dtype=float) / depth).reshape(depth, 1)
        gap = _scalar_gap(family, rows, np.array([1.0]), "residual_interp")
        assert abs(gap - 1.0 / (2.0 * depth)) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_rough_schedule_gaps_reach_their_limits():
    depth = 1000
    start = time.perf_counter()
    index_rows = np.arange(depth, dtype=float).reshape(depth, 1)
    gap = _scalar_gap(make_identity_family(), index_rows,
                      np.array([float(depth)]), "residual_interp")
    assert abs(gap - 0.5) <= 1e-2
    alt_rows = np.where(np.arange(depth) % 2 == 0, 1.0, -1.0).reshape(depth, 1)
    gap = _scalar_gap(make_square_family(), alt_rows,
                      np.array([1.0]), "weight_interp")
    assert abs(gap - 2.0 / 3.0) <= 1e-2
    assert time.perf_counter() - start < 5.0


def test_euler_reconstruction_error_decays_at_first_order(euler_study):
    for result, elapsed in euler_study.values():
        fit = result.fits["recon_max_error"]
        assert -1.25 <= fit.slope <= -0.8
        assert fit.r_squared >= 0.95
        assert elapsed < 60.0


def test_euler_gradient_error_decays_at_second_order(euler_study):
    for result, elapsed in euler_study.values():
        fit = result.fits["grad_max_abs_error"]
        assert -2.3 <= fit.slope <= -1.7
        assert fit.r_squared >= 0.95
        assert elapsed < 90.0


def test_heun_gradient_error_rates(heun_study, heun_alternating_study):
    for seed in SEEDS:
        smooth, t_smooth = heun_study[seed]
        rough, t_rough = heun_alternating_study[seed]
        fit = smooth.fits["grad_max_abs_error"]
        assert fit.slope <= -2.5
        assert fit.r_squared >= 0.95
        # smooth reconstruction also beats second order (see the window
        # checks below for its law and the advertised range)
        assert smooth.fits["recon_max_error"].slope <= -2.5
        alt_fit = rough.fits["grad_max_abs_error"]
        assert -2.3 <= alt_fit.slope <= -1.7
        assert alt_fit.r_squared >= 0.95
        assert t_smooth + t_rough < 180.0


def test_heun_smooth_gradient_error_decays_near_fourth_order(heun_study):
    """An observed law, not a derived one: on a smooth schedule the
    two-stage scheme's gradient error decays near N^-4 at every seed."""
    for result, _ in heun_study.values():
        fit = result.fits["grad_max_abs_error"]
        assert -4.4 <= fit.slope <= -3.6
        assert fit.r_squared >= 0.95
    assert sum(elapsed for _, elapsed in heun_study.values()) < 60.0


def test_heun_smooth_reconstruction_error_decays_at_third_order(heun_study):
    """The derived law (see the adjoint module docstring): a second-order
    step and its step at -h cancel to O(h^4) per layer on a smooth
    schedule, so the reconstruction error decays as N^-3."""
    for result, elapsed in heun_study.values():
        fit = result.fits["recon_max_error"]
        assert -3.4 <= fit.slope <= -2.6
        assert fit.r_squared >= 0.95
        assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="the two-stage reverse pass cancels the constant-parameter "
           "inversion defect, so smooth-schedule reconstruction decays a "
           "full order faster than this window allows (slope near -2.9)")
def test_heun_reconstruction_error_within_second_order_window(heun_study):
    for result, _ in heun_study.values():
        fit = result.fits["recon_max_error"]
        assert -2.35 <= fit.slope <= -1.7


def test_heun_relative_gradient_error_dominated_by_euler(euler_study, heun_study):
    for seed in SEEDS:
        euler_result, t_euler = euler_study[seed]
        heun_result, t_heun = heun_study[seed]
        euler_rel = values(euler_result, "grad_max_rel_error")
        heun_rel = values(heun_result, "grad_max_rel_error")
        checked = [n for n in sorted(euler_rel) if n >= 64]
        assert checked == [64, 128, 256, 512, 1024]
        for n in checked:
            assert heun_rel[n] <= euler_rel[n]
        assert t_euler + t_heun < 60.0


def _success_depth(result, tolerance=1e-2) -> int:
    """The smallest depth from which grad_max_rel_error stays within
    ``tolerance`` at every deeper depth, or 2048 if the deepest misses;
    a diverged depth (NaN) misses."""
    series = sorted((r.depth, r.value) for r in result.records
                    if r.metric == "grad_max_rel_error")
    depth = 2048
    for n, value in reversed(series):
        if not value <= tolerance:
            break
        depth = n
    return depth


def test_heun_adjoint_succeeds_at_an_eighth_of_euler_depth_at_large_lipschitz():
    """The paper's "Heun's method needs fewer layers to succeed": at
    profile_scale 8 (a Lipschitz bound near 114 at seed 0) Heun's
    memory-free gradients reach 1e-2 relative error at no more than 1/8
    of the depth Euler's need; Euler's miss it even at N = 1024."""
    euler = _timed_studies("euler_adjoint", "lipschitz_profile", 8.0)
    heun = _timed_studies("heun_adjoint", "lipschitz_profile", 8.0)
    for seed in SEEDS:
        assert 8 * _success_depth(heun[seed][0]) <= _success_depth(euler[seed][0])
    assert sum(elapsed for study in (euler, heun) for _, elapsed in study.values()) < 5.0


def test_weight_interpolated_gap_does_not_close_on_a_rough_mlp_schedule():
    """The paper's negative result: on an alternating mlp(4, 8) schedule
    the chain's gap to the weight-interpolated ODE stays flat in depth,
    while its gap to the residual-interpolated ODE, whose consecutive
    blends cancel, still decays like 1/N.  Each kind runs at the depths
    its assertion reads."""
    family = make_mlp_family(4, 8)
    depths = (16, 32, 64, 128, 256)
    start = time.perf_counter()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((2, family.param_dim))
        rows *= 0.25 / np.max(np.abs(rows), axis=1, keepdims=True)
        x0 = rng.standard_normal(family.state_dim) / 2.0
        gaps = {}
        for kind, kind_depths in (("weight_interp", (16, 256)), ("residual_interp", depths)):
            for depth in kind_depths:
                schedule = WeightSchedule(rows[np.arange(depth) % 2])
                traj = forward_euler_chain(family, schedule, x0)
                flow = solve_ode_oracle(interpolate(family, schedule, kind), x0, 8 * depth)
                gaps[kind, depth] = approximation_error(traj, flow)[1]
        assert gaps["weight_interp", 256] / gaps["weight_interp", 16] >= 0.5
        fit = fit_loglog_slope([(n, gaps["residual_interp", n]) for n in depths])
        assert abs(fit.slope + 1.0) <= 0.1
        assert fit.r_squared >= 0.99
    assert time.perf_counter() - start < 5.0


def test_exact_gradients_match_finite_differences_for_all_families():
    families = [make_mlp_family(2, 3), make_linear_family(2),
                make_square_family(), make_identity_family()]
    start = time.perf_counter()
    worst = 0.0
    for family in families:
        for scheme in ("euler", "heun"):
            chain = forward_euler_chain if scheme == "euler" else forward_heun_chain
            backprop = backprop_exact if scheme == "euler" else backprop_exact_heun
            for depth in (1, 2, 8):
                for seed in range(20):
                    rng = np.random.default_rng(1000 * depth + seed)
                    rows = 0.3 * rng.standard_normal((depth, family.param_dim))
                    x0 = 0.5 * rng.standard_normal(family.state_dim)
                    target = rng.standard_normal(family.state_dim)
                    schedule = WeightSchedule(rows)
                    traj = chain(family, schedule, x0)
                    grads = backprop(family, schedule, traj,
                                     traj.nodes[-1] - target)

                    def loss_of(flat):
                        sched = WeightSchedule(
                            flat.reshape(depth, family.param_dim))
                        end = chain(family, sched, x0).nodes[-1]
                        return 0.5 * float(np.sum((end - target) ** 2))

                    fd = finite_difference_gradient(loss_of, rows.ravel(),
                                                    eps=1e-6)
                    rel = (np.linalg.norm(fd - grads.ravel())
                           / np.linalg.norm(fd))
                    worst = max(worst, rel)
    assert worst <= 1e-5
    assert time.perf_counter() - start < 30.0


def test_flow_monitors_hold_across_depths(flow_experiment):
    result, elapsed = flow_experiment
    stats, initial_stats = [], []
    for depth in (16, 32, 64, 128):
        mon = result.monitor_reports[depth]
        assert mon.theta_bound_ok and mon.max_theta_norm < 0.5
        assert mon.decay_ok and mon.max_decay_ratio <= 1.0 + 1e-3
        stats.append(mon.max_smoothness_stat)
        initial_stats.append(result.traces[depth].samples[0].smoothness_stat)
    # one depth-independent constant bounds the smoothness statistic
    shared_bound = 2.0 * max(initial_stats)
    assert all(stat <= shared_bound for stat in stats)
    assert elapsed < 120.0


def test_depth_doubling_distances_halve(flow_experiment):
    result, elapsed = flow_experiment
    for n in (16, 32, 64):
        ratio = result.doubling[2 * n] / result.doubling[n]
        assert 0.35 <= ratio <= 0.7
    assert elapsed < 120.0


def test_limit_profile_rate_and_product_discrepancy(flow_experiment):
    result, elapsed = flow_experiment
    report = result.limit_report
    assert report.depths.tolist() == [16, 32, 64, 128]
    for fit in report.per_time_fits:
        assert fit is not None
        assert -1.3 <= fit.slope <= -0.7
    gaps = result.product_gaps
    c = 64.0 * gaps[64]
    for n, gap in gaps.items():
        assert gap <= 1.1 * c / n
    assert elapsed < 180.0


def _avg2(thetas: np.ndarray) -> np.ndarray:
    """The mean of layers 2k and 2k + 1: a depth-2N stack at depth N's cell centres."""
    return 0.5 * (thetas[0::2] + thetas[1::2])


def _cell_centre_distances(coarse: dict, fine: dict) -> dict:
    """{N: max_k ||coarse[N]_k - avg2(fine[2N])_k||_F} for each N with a 2N."""
    return {n: float(np.max(np.linalg.norm(coarse[n] - _avg2(fine[2 * n]), axis=(1, 2))))
            for n in coarse if 2 * n in fine}


def test_trained_layers_approach_the_limit_ode_at_first_order():
    """Gradient descent keeps the linear ResNet depth-smooth at rate 1/N.
    After training to t = 2, depth N's layers lie O(1/N) from the mean of
    depth 2N's at their cell centre, with one constant N * distance for
    N = 16..64; Richardson's X_N = 2 avg2(theta^{2N}) - theta^N, the limit
    ODE's weights at N cell centres, is then exact to O(N^-2).  At t = 0
    the cell-centre distance is the profile's sampling error, O(N^-2)."""
    for seed in SEEDS:
        config = ExperimentConfig(experiment="limit_map", seed=seed, t_end=2.0,
                                  depths=(16, 32, 64, 128))
        start = time.perf_counter()
        traces = run_linear_flow_experiment(config).traces
        initial = {n: trace.samples[0].thetas for n, trace in traces.items()}
        trained = {n: trace.samples[-1].thetas for n, trace in traces.items()}
        assert all(trace.samples[-1].t == 2.0 for trace in traces.values())

        dist = _cell_centre_distances(trained, trained)
        assert abs(fit_loglog_slope(sorted(dist.items())).slope + 1.0) <= 0.1
        scaled = [n * d for n, d in dist.items()]
        assert max(scaled) <= 1.1 * min(scaled)
        limits = {n: 2.0 * _avg2(trained[2 * n]) - trained[n] for n in dist}
        remainder = _cell_centre_distances(limits, limits)
        assert abs(fit_loglog_slope(sorted(remainder.items())).slope + 2.0) <= 0.15
        sampling = _cell_centre_distances(initial, initial)
        assert abs(fit_loglog_slope(sorted(sampling.items())).slope + 2.0) <= 0.15
        assert time.perf_counter() - start < 30.0


def _sweep_peak_bytes(forward, sweep, depth: int) -> int:
    """Traced allocation peak of one memory-free backward sweep."""
    family = make_mlp_family(4, 8)
    rng = np.random.default_rng(5)
    schedule = WeightSchedule(0.25 * rng.standard_normal((depth, family.param_dim)))
    out = forward(family, schedule, np.full(4, 0.3)).nodes[-1]
    g = np.ones(4)

    def consume() -> float:
        total = 0.0
        for _, own, grads, xs in sweep(family, schedule, out, g):
            total += float(own[0, 0]) + float(grads[0, 0]) + float(xs[0, 0])
        return total

    consume()  # warm numpy internals so they do not count as live state
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    consume()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_adjoint_sweeps_use_depth_independent_memory():
    pairs = [(forward_euler_chain, adjoint_sweep_euler),
             (forward_heun_chain, adjoint_sweep_heun)]
    for forward, sweep in pairs:
        shallow = _sweep_peak_bytes(forward, sweep, 64)
        deep = _sweep_peak_bytes(forward, sweep, 1024)
        assert deep <= 1.1 * shallow


def _round_trip_over_gradient_error(config, depth, scheme) -> float:
    """||x~_0 - x_0|| / ||x_0||, x~_0 the first state of the memory-free
    sweep's last block, over the max relative error of its gradients against
    exact reverse mode over the stored chain.  The family, schedule, x_0
    and target are the study's: ``_make_profile`` and ``_child_rngs`` at
    the config's seed, with x_N - target as the output gradient."""
    profile_rng, data_rng = _child_rngs(config.seed, 2)
    make, keys = FAMILIES[config.family]
    family = make(*(getattr(config, k) for k in keys))
    schedule = WeightSchedule(_make_profile(config, family.param_dim, profile_rng)(depth))
    x0 = data_rng.standard_normal(family.state_dim) / np.sqrt(family.state_dim)
    target = data_rng.standard_normal(family.state_dim)
    forward, exact_backprop, sweep, _ = _scheme_functions(scheme)
    traj = forward(family, schedule, x0)
    out_grad = traj.nodes[-1] - target
    exact = exact_backprop(family, schedule, traj, out_grad)
    approx = np.empty_like(exact)
    for lo, own, _, xs in sweep(family, schedule, traj.nodes[-1], out_grad):
        approx[lo:lo + len(own)] = own
    # The sweep ends with the block of layer 0, so xs[0] is now x~_0.
    round_trip = np.linalg.norm(xs[0] - x0) / np.linalg.norm(x0)
    return round_trip / compare_gradients(exact, approx).max_rel


def test_memory_free_round_trip_tracks_the_gradient_error():
    """The memory-free adjoint's certificate: the relative error of the
    x_0 it rebuilds, which costs no kernel call, lies within a factor 5
    of its gradients' max relative error, both ways, on mlp(4, 8) and
    linear(3), smooth and alternating schedules at profile_scale 0.25
    and 4, N = 4..256 and both schemes.  Measured ratios: 0.79-1.19 at
    scale 0.25 and 0.24-3.03 at scale 4 over seeds 0-3."""
    start = time.perf_counter()
    ratios = []
    for family, state_dim in (("mlp", 4), ("linear", 3)):
        for profile in ("lipschitz_profile", "alternating"):
            for scale in (0.25, 4.0):
                for seed in SEEDS:
                    config = ExperimentConfig(experiment="euler_adjoint", family=family,
                                              state_dim=state_dim, schedule_profile=profile,
                                              profile_scale=scale, seed=seed)
                    ratios += [_round_trip_over_gradient_error(config, depth, scheme)
                               for depth in (4, 16, 64, 256) for scheme in (EULER, HEUN)]
    assert len(ratios) == 256
    assert 0.2 <= min(ratios) and max(ratios) <= 5.0
    assert time.perf_counter() - start < 5.0


def test_identical_seeds_reproduce_identical_study_outputs():
    blobs = []
    for _ in range(2):
        config = ExperimentConfig(experiment="euler_adjoint", depths=(16, 64), seed=0)
        text = tables(run_scaling_study(config))
        blobs.append(text["study.csv"] + text["slopes.csv"])
    assert blobs[0] == blobs[1]
