"""Experiment runner and CLI behavior, including exit codes and CSVs."""

import csv
import io
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from odenet import harness
from odenet.cli import main
from odenet.dynamics import DivergenceError, VectorField, interpolate, solve_ode_oracle
from odenet.harness import (
    AllDepthsDiverged,
    ConfigError,
    ExperimentConfig,
    RegimeAbort,
    _make_profile,
    _poly_eval,
    load_config,
    parse_config,
    run_linear_flow_experiment,
    run_scaling_study,
    run_tightness_suite,
    run_toy_training,
)
from odenet.residual_models import WeightSchedule, make_mlp_family


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_study_defaults(self):
        config = parse_config("experiment = approx_error")
        assert config.depths == (16, 32, 64, 128, 256, 512, 1024)
        assert config.family == "mlp"
        assert config.schedule_profile == "lipschitz_profile"
        assert config.profile_scale == 0.25
        assert config.seed == 0

    def test_flow_defaults(self):
        config = parse_config("experiment = limit_map")
        assert config.depths == (16, 32, 64, 128, 256)
        assert config.profile_scale == 0.1

    def test_toy_defaults(self):
        config = parse_config("experiment = toy_train")
        assert config.depths == (64, 300)
        assert config.target == "square_half"
        assert config.gradient_mode == "exact"

    def test_tightness_defaults(self):
        config = parse_config("experiment = tightness_suite")
        assert config.depths == (10, 100, 1000)
        assert config.profile_scale == 0.25

    def test_full_config_with_comments(self):
        text = """
        # depth-scaling study
        experiment = euler_adjoint
        depths = 8, 16

        family = linear
        state_dim = 2
        seed = 3
        profile_scale = 0.5
        output_dir = out/run1
        """
        config = parse_config(text)
        assert config.experiment == "euler_adjoint"
        assert config.depths == (8, 16)
        assert config.family == "linear"
        assert config.state_dim == 2
        assert config.seed == 3
        assert config.profile_scale == 0.5
        assert config.output_dir == "out/run1"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("experiment = toy_train\nlerning_rate = 0.1")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment = toy_train\nseed = 1\nseed = 2")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("experiment = toy_train\ndepths = 16,abc")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("experiment = toy_train\nstate_dim = 2.5")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("experiment = toy_train\njust some words")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("seed = 1")

    @pytest.mark.parametrize("line", [
        "experiment = warp_drive",
        "experiment = linear_flow",
        "depths = 16,8",
        "depths = 0",
        "family = tanh",
        "schedule_profile = wave",
        "profile_scale = -0.5",
        "target = cube",
        "gradient_mode = shooting",
        "learning_rate = 0",
        "iterations = 0",
        "input_low = 2",
        "snapshot_count = 1",
        "loss_fraction = 1.5",
        "slope_r2_min = 0",
        "dt = -0.1",
        "probes = 20",
    ])
    def test_rejected_settings(self, line):
        base = "experiment = toy_train\n"
        text = line if line.startswith("experiment") else base + line
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("field, value", [
        ("depths", (2.7, 5)),
        ("depths", (2.0,)),
        ("state_dim", 2.0),
        ("hidden_dim", 3.5),
        ("seed", 1.5),
        ("sigma_dim", 2.0),
        ("snapshot_count", 3.5),
        ("input_count", 8.0),
        ("iterations", 2.5),
    ])
    def test_rejects_non_integral_values(self, field, value):
        """A config built from Python must not truncate 2.7 to depth 2 or
        carry 2.5 iterations into numpy."""
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(experiment="toy_train", **{field: value})

    def test_numpy_integers_are_accepted(self):
        config = ExperimentConfig(experiment="toy_train", depths=(np.int64(3), 5),
                                  seed=np.int32(2), iterations=np.int64(4))
        assert config.depths == (3, 5)
        assert (config.seed, config.iterations) == (2, 4)

    def test_load_config_roundtrip(self, tmp_path):
        path = write_cfg(tmp_path, "experiment = tightness_suite\nseed = 9\n")
        config = load_config(path)
        assert config.experiment == "tightness_suite"
        assert config.seed == 9

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_readme_config_examples_parse(self):
        """Every indented `# <name>.cfg` block of the README is a valid config."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^    # (\w+)\.cfg\n((?:    \S.*\n)+)", readme, re.MULTILINE)
        assert {name for name, _ in blocks} == {"study", "flow", "train"}
        for _, body in blocks:
            parse_config(body)


class TestScheduleProfiles:
    def _config(self, profile, scale=0.25):
        return ExperimentConfig(experiment="euler_adjoint",
                                schedule_profile=profile, profile_scale=scale)

    def test_index_profile_counts_layers(self):
        spec = _make_profile(self._config("index"), 1, np.random.default_rng(0))
        rows = spec(5)
        assert np.array_equal(rows, np.arange(5.0).reshape(5, 1))

    def test_index_profile_needs_scalar_parameters(self):
        with pytest.raises(ConfigError):
            _make_profile(self._config("index"), 2, np.random.default_rng(0))

    def test_constant_profile_is_depth_independent(self):
        spec = _make_profile(self._config("constant"), 3, np.random.default_rng(1))
        rows = spec(6)
        assert np.max(np.abs(rows)) == pytest.approx(0.25)
        assert all(np.array_equal(rows[n], rows[0]) for n in range(6))

    def test_alternating_profile_keeps_unit_order_gaps(self):
        spec = _make_profile(self._config("alternating"), 4, np.random.default_rng(2))
        shallow = spec(8)
        deep = spec(64)
        assert all(np.array_equal(deep[n], deep[0]) for n in range(0, 64, 2))
        assert all(np.array_equal(deep[n], deep[1]) for n in range(1, 64, 2))
        # the draws are independent, so the layer gap does not shrink
        gap = deep[1] - deep[0]
        assert np.linalg.norm(gap) > 1e-3
        assert np.array_equal(shallow[1] - shallow[0], gap)

    def test_cubic_evaluation(self):
        coeffs = np.array([[1.0], [2.0], [0.0], [0.0]])
        vals = _poly_eval(coeffs, np.array([0.0, 0.25, 0.5]))
        assert vals[:, 0].tolist() == [1.0, 1.5, 2.0]

    def test_smooth_profile_gaps_shrink_with_depth(self):
        spec = _make_profile(self._config("lipschitz_profile"), 3,
                             np.random.default_rng(3))
        grid = np.linspace(0.0, 1.0, 513)
        coeffs = np.random.default_rng(3).standard_normal((4, 3))
        coeffs *= 0.25 / np.max(np.abs(_poly_eval(coeffs, grid)))
        assert np.max(np.abs(_poly_eval(coeffs, grid))) == pytest.approx(0.25, rel=1e-12)
        assert np.array_equal(spec(8), _poly_eval(coeffs, np.arange(8) / 8))
        gap8 = np.max(np.abs(np.diff(spec(8), axis=0)))
        gap64 = np.max(np.abs(np.diff(spec(64), axis=0)))
        assert gap64 <= gap8 / 4.0


class TestScalingStudy:
    def test_mlp_study_smoke(self, tmp_path):
        config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                  family="mlp", state_dim=2, hidden_dim=3,
                                  seed=1, output_dir=str(tmp_path))
        result = run_scaling_study(config)
        assert len(result.records) == 6
        assert all(r.flag == "" for r in result.records)
        assert set(result.fit_flags.values()) == {"ok"}
        recon = result.values("recon_max_error")
        assert recon[16] < recon[8]
        study_lines = (tmp_path / "study.csv").read_text().strip().splitlines()
        assert study_lines[0] == "N,metric,value"
        assert len(study_lines) == 7
        slope_lines = (tmp_path / "slopes.csv").read_text().strip().splitlines()
        assert slope_lines[0] == "metric,slope,intercept,r2,flag"
        assert len(slope_lines) == 4

    def test_heun_study_smoke(self, tmp_path):
        config = ExperimentConfig(experiment="heun_adjoint", depths=(8, 16),
                                  family="mlp", state_dim=2, hidden_dim=3,
                                  seed=1, output_dir=str(tmp_path))
        result = run_scaling_study(config)
        assert sorted(result.fit_flags) == [
            "grad_max_abs_error", "grad_max_rel_error", "recon_max_error"]

    def test_diverged_depths_are_flagged_not_fatal(self, tmp_path):
        # theta_n = n with a scalar linear field blows past the guard at
        # depth 128 but not at 16
        config = ExperimentConfig(experiment="approx_error", depths=(16, 128),
                                  family="linear", state_dim=1,
                                  schedule_profile="index", seed=0,
                                  output_dir=str(tmp_path))
        result = run_scaling_study(config)
        by_depth = {r.depth: r for r in result.records}
        assert by_depth[16].flag == ""
        assert by_depth[128].flag == "diverged"
        assert math.isnan(by_depth[128].value)
        assert list(result.values("approx_max_error")) == [16]
        assert result.fit_flags["approx_max_error"] == "insufficient"
        assert "nan" in (tmp_path / "slopes.csv").read_text()

    def test_all_depths_diverged(self, tmp_path):
        config = ExperimentConfig(experiment="approx_error", depths=(128, 256),
                                  family="linear", state_dim=1,
                                  schedule_profile="index", seed=0,
                                  output_dir=str(tmp_path))
        with pytest.raises(AllDepthsDiverged):
            run_scaling_study(config)

    def test_exact_metrics_fall_to_noise_floor(self, tmp_path):
        # a state-independent field makes reconstruction and both
        # gradient routes exact, so every metric sits at rounding level
        config = ExperimentConfig(experiment="euler_adjoint", depths=(16, 64),
                                  family="identity", schedule_profile="constant",
                                  seed=0, output_dir=str(tmp_path))
        result = run_scaling_study(config)
        assert all(r.flag == "floor" for r in result.records)
        assert result.values("recon_max_error") == {}
        assert set(result.fit_flags.values()) == {"insufficient"}

    def test_rejects_wrong_experiment(self, tmp_path):
        config = ExperimentConfig(experiment="toy_train", output_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_scaling_study(config)

    def test_reruns_are_byte_identical(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                      family="mlp", state_dim=2, hidden_dim=3,
                                      seed=5, output_dir=str(tmp_path / sub))
            run_scaling_study(config)
            outputs.append((tmp_path / sub / "study.csv").read_bytes())
        assert outputs[0] == outputs[1]
        config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                  family="mlp", state_dim=2, hidden_dim=3,
                                  seed=6, output_dir=str(tmp_path / "c"))
        run_scaling_study(config)
        assert (tmp_path / "c" / "study.csv").read_bytes() != outputs[0]


class TestTightnessSuite:
    def test_measured_gaps_match_closed_forms(self, tmp_path):
        config = ExperimentConfig(experiment="tightness_suite", depths=(4, 64),
                                  output_dir=str(tmp_path))
        records = run_tightness_suite(config)
        assert len(records) == 6
        for r in records:
            assert r.measured == pytest.approx(r.analytic, rel=1e-6)
        analytic = {(r.case, r.depth): r.analytic for r in records}
        assert analytic[("linear_drift", 4)] == 1.0 / 8.0
        assert analytic[("linear_drift", 64)] == 1.0 / 128.0
        assert analytic[("index_residual", 4)] == 0.5
        assert analytic[("alternating_square", 64)] == 2.0 / 3.0

    def test_csv_layout(self, tmp_path):
        config = ExperimentConfig(experiment="tightness_suite", depths=(4, 64),
                                  output_dir=str(tmp_path))
        run_tightness_suite(config)
        lines = (tmp_path / "tightness.csv").read_text().strip().splitlines()
        assert lines[0] == "case,N,measured,analytic"
        assert len(lines) == 7

    def test_rejects_wrong_experiment(self, tmp_path):
        out = tmp_path / "out"
        config = ExperimentConfig(experiment="limit_map", depths=(4, 8, 16),
                                  output_dir=str(out))
        with pytest.raises(ConfigError):
            run_tightness_suite(config)
        assert not out.exists()


def _mlp_field(depth, seed=3):
    family = make_mlp_family(3, 4)
    rng = np.random.default_rng(seed)
    schedule = WeightSchedule(0.3 * rng.standard_normal((depth, family.param_dim)))
    return interpolate(family, schedule, "residual_interp"), rng.standard_normal(3)


def _huge_estimate(field, x0):
    return solve_ode_oracle(field, x0, 8 * field.depth), 1.0


class TestOracle:
    @pytest.mark.parametrize("depth", [1, 5, 32])
    def test_solution_is_the_eight_step_solve(self, depth):
        field, x0 = _mlp_field(depth)
        sol, _ = harness._oracle(field, x0)
        ref = solve_ode_oracle(field, x0, 8 * depth)
        assert sol.oracle_steps == 8 * depth
        assert np.array_equal(sol.states, ref.states)

    @pytest.mark.parametrize("depth", [1, 5, 32])
    def test_estimate_is_the_largest_node_gap(self, depth):
        field, x0 = _mlp_field(depth)
        _, estimate = harness._oracle(field, x0)
        coarse = solve_ode_oracle(field, x0, 4 * depth).states
        fine = solve_ode_oracle(field, x0, 8 * depth).states
        gaps = [np.linalg.norm(coarse[n] - fine[n]) for n in range(depth + 1)]
        assert estimate == max(gaps)
        assert estimate > 0.0

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_estimate_bounds_the_true_error(self, depth):
        field = VectorField(lambda x, s: x * (1.0 - x),
                            depth=depth, state_dim=1)
        x0 = np.array([0.2])
        sol, estimate = harness._oracle(field, x0)
        ref = solve_ode_oracle(field, x0, 512).states
        true_error = np.max(np.abs(sol.states - ref))
        assert 0.0 < true_error <= estimate

    def test_default_study_matches_a_64n_oracle(self, tmp_path, monkeypatch):
        config = ExperimentConfig(experiment="approx_error", depths=(16, 32, 64),
                                  seed=0, output_dir=str(tmp_path / "fast"))
        fast = run_scaling_study(config)
        assert all(r.flag == "" for r in fast.records)
        assert sorted(fast.oracle_errors) == [16, 32, 64]

        def oracle_64n(field, x0):
            return solve_ode_oracle(field, x0, 64 * field.depth), 0.0
        monkeypatch.setattr(harness, "_oracle", oracle_64n)
        config.output_dir = str(tmp_path / "slow")
        slow = run_scaling_study(config).values("approx_max_error")
        for depth, value in fast.values("approx_max_error").items():
            assert value == pytest.approx(slow[depth], rel=1e-8, abs=0.0)


class TestOracleFlag:
    def test_large_estimate_flags_every_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_oracle", _huge_estimate)
        config = ExperimentConfig(experiment="approx_error", depths=(8, 16),
                                  state_dim=2, hidden_dim=3, seed=1,
                                  output_dir=str(tmp_path))
        result = run_scaling_study(config)
        assert [r.flag for r in result.records] == ["oracle", "oracle"]
        assert all(r.value > 0.0 for r in result.records)
        assert result.values("approx_max_error") == {}
        assert result.fit_flags["approx_max_error"] == "insufficient"
        assert result.oracle_errors == {8: 1.0, 16: 1.0}
        lines = (tmp_path / "study.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_flagged_point_leaves_the_fit(self, tmp_path, monkeypatch):
        depths = (8, 16, 32)
        base = ExperimentConfig(experiment="approx_error", depths=depths,
                                state_dim=2, hidden_dim=3, seed=1,
                                output_dir=str(tmp_path / "base"))
        clean = run_scaling_study(base).values("approx_max_error")
        real = harness._oracle

        def one_bad_depth(field, x0):
            sol, estimate = real(field, x0)
            # just above the tolerance at depth 16 only
            return sol, (2e-3 * clean[16] if field.depth == 16 else estimate)
        monkeypatch.setattr(harness, "_oracle", one_bad_depth)
        base.output_dir = str(tmp_path / "flagged")
        result = run_scaling_study(base)
        assert {r.depth: r.flag for r in result.records} == {8: "", 16: "oracle", 32: ""}
        assert result.values("approx_max_error") == {8: clean[8], 32: clean[32]}
        assert result.fits["approx_max_error"].points_used == 2

    def test_floor_check_runs_first(self, tmp_path, monkeypatch):
        # a state-independent constant field makes the chain exact
        monkeypatch.setattr(harness, "_oracle", _huge_estimate)
        config = ExperimentConfig(experiment="approx_error", depths=(16, 64),
                                  family="identity", schedule_profile="constant",
                                  seed=0, output_dir=str(tmp_path))
        result = run_scaling_study(config)
        assert [r.flag for r in result.records] == ["floor", "floor"]

    def test_adjoint_studies_carry_no_estimate(self, tmp_path):
        config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                  state_dim=2, hidden_dim=3, seed=1,
                                  output_dir=str(tmp_path))
        assert run_scaling_study(config).oracle_errors == {}

    def test_diverged_depth_has_no_estimate(self, tmp_path):
        config = ExperimentConfig(experiment="approx_error", depths=(16, 128),
                                  family="linear", state_dim=1,
                                  schedule_profile="index", seed=0,
                                  output_dir=str(tmp_path))
        result = run_scaling_study(config)
        assert list(result.oracle_errors) == [16]
        assert result.oracle_errors[16] < 1e-3 * result.values("approx_max_error")[16]

    def test_tightness_records_carry_estimate(self, tmp_path):
        config = ExperimentConfig(experiment="tightness_suite", depths=(4, 64),
                                  output_dir=str(tmp_path))
        for r in run_tightness_suite(config):
            # RK4 integrates these polynomial-in-s fields exactly
            assert 0.0 <= r.oracle_error <= 1e-12


@pytest.fixture(scope="module")
def flow_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("linflow")
    config = ExperimentConfig(experiment="limit_map", depths=(8, 16, 32),
                              sigma_dim=2, t_end=2.0, snapshot_count=3,
                              seed=0, output_dir=str(out))
    return out, run_linear_flow_experiment(config)


class TestLinearFlowExperiment:
    def test_regime_and_monitors(self, flow_result):
        _, result = flow_result
        assert all(r.passes for r in result.regime_reports.values())
        for depth in (8, 16, 32):
            mon = result.monitor_reports[depth]
            assert mon.theta_bound_ok and mon.decay_ok
            assert mon.max_theta_norm < 0.25

    def test_doubling_and_product_gaps_shrink(self, flow_result):
        _, result = flow_result
        assert sorted(result.doubling) == [8, 16]
        assert 0.0 < result.doubling[16] < result.doubling[8]
        gaps = result.product_gaps
        assert gaps[32] < gaps[16] < gaps[8]

    def test_limit_profile_report(self, flow_result):
        _, result = flow_result
        report = result.limit_report
        assert report.ref_depth == 32
        assert report.distances.shape == (3, 2)
        assert report.sup_fit.r_squared >= 0.9
        assert -1.3 <= report.sup_fit.slope <= -0.7

    def test_output_files(self, flow_result):
        out, result = flow_result
        names = sorted(p.name for p in out.iterdir())
        assert names == ["doubling.csv", "limitmap.csv", "productode.csv",
                         "trace_N16.csv", "trace_N32.csv", "trace_N8.csv"]
        assert (out / "doubling.csv").read_text().splitlines()[0] == "N,sup_distance"
        assert (out / "productode.csv").read_text().splitlines()[0] == "N,discrepancy"
        limit_lines = (out / "limitmap.csv").read_text().strip().splitlines()
        assert len(limit_lines) == 1 + 3 * 2

    def test_oversized_init_aborts(self, tmp_path):
        config = ExperimentConfig(experiment="limit_map", depths=(8, 16, 32),
                                  sigma_dim=2, t_end=1.0, snapshot_count=2,
                                  profile_scale=0.3, seed=0,
                                  output_dir=str(tmp_path))
        with pytest.raises(RegimeAbort) as exc:
            run_linear_flow_experiment(config)
        assert exc.value.depth == 8
        assert "small-loss regime" in str(exc.value)

    def test_rejects_wrong_experiment(self, tmp_path):
        config = ExperimentConfig(experiment="approx_error",
                                  output_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_linear_flow_experiment(config)


class TestToyTraining:
    def test_exact_training_smoke(self, tmp_path):
        config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                  learning_rate=0.3, iterations=30,
                                  input_count=8, hidden_dim=3, seed=0,
                                  output_dir=str(tmp_path))
        result = run_toy_training(config)
        run = result.runs[4]
        assert run.losses.size == 31
        assert run.final_loss == run.losses[-1]
        assert run.final_loss < run.losses[0]
        loss_lines = (tmp_path / "losses_N4.csv").read_text().strip().splitlines()
        assert loss_lines[0] == "iteration,loss"
        assert len(loss_lines) == 32
        traj_lines = (tmp_path / "trajectories_N4.csv").read_text().strip().splitlines()
        assert traj_lines[0] == "input_index,node_index,s,x_0"
        assert len(traj_lines) == 1 + 8 * 5

    @pytest.mark.parametrize("mode", ["adjoint_euler", "adjoint_heun"])
    def test_memory_free_modes_train(self, tmp_path, mode):
        config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                  learning_rate=0.3, iterations=10,
                                  input_count=8, hidden_dim=3, seed=0,
                                  gradient_mode=mode, output_dir=str(tmp_path))
        result = run_toy_training(config)
        run = result.runs[4]
        assert np.all(np.isfinite(run.losses))
        assert run.final_loss < run.losses[0]

    def test_shallow_chain_fits_decreasing_target(self, tmp_path):
        # with only 4 layers each Euler step is large enough to fold the
        # map, so a decreasing target is representable
        config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                  target="neg_square_half", learning_rate=0.3,
                                  iterations=100, seed=0, output_dir=str(tmp_path))
        result = run_toy_training(config)
        assert result.runs[4].final_loss <= 1e-2

    def test_deep_chain_hits_monotone_floor(self, tmp_path):
        # a deep chain approximates an ODE flow, which is monotone in the
        # scalar input; the best monotone fit of -x^2/2 on [0, 1] is a
        # constant, leaving mean squared error near var(x^2/2) = 1/45
        config = ExperimentConfig(experiment="toy_train", depths=(64,),
                                  target="neg_square_half", learning_rate=3.0,
                                  iterations=600, seed=0, output_dir=str(tmp_path))
        result = run_toy_training(config)
        final = result.runs[64].final_loss
        assert final < result.runs[64].losses[0]
        assert 0.015 <= final <= 0.2

    def test_overflowing_update_names_first_bad_layer(self, tmp_path, monkeypatch):
        """A non-finite parameter after an update raises DivergenceError at
        the first layer holding one, before the next schedule is built."""
        exact = harness.backprop_exact

        def overflowing(*args):
            grads = exact(*args)
            grads.param_grads[2:] = np.inf
            return grads
        monkeypatch.setattr(harness, "backprop_exact", overflowing)
        config = ExperimentConfig(experiment="toy_train", depths=(4,), iterations=3,
                                  input_count=8, hidden_dim=3, output_dir=str(tmp_path))
        with pytest.raises(DivergenceError) as exc:
            run_toy_training(config)
        assert exc.value.layer == 2

    def test_rejects_wrong_experiment(self, tmp_path):
        config = ExperimentConfig(experiment="limit_map",
                                  output_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_toy_training(config)

    def test_reruns_are_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                      learning_rate=0.3, iterations=15,
                                      input_count=8, hidden_dim=3, seed=2,
                                      output_dir=str(tmp_path / sub))
            run_toy_training(config)
            blobs.append((tmp_path / sub / "losses_N4.csv").read_bytes()
                         + (tmp_path / sub / "trajectories_N4.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["adjoint_euler", "adjoint_heun"])
    def test_memory_free_reruns_are_byte_identical(self, tmp_path, mode):
        """The memory-free modes too (exact: test_reruns_are_byte_identical)."""
        blobs = []
        for sub in ("a", "b"):
            config = ExperimentConfig(experiment="toy_train", depths=(3, 8),
                                      learning_rate=0.3, iterations=6,
                                      input_count=8, hidden_dim=3, seed=4,
                                      gradient_mode=mode, output_dir=str(tmp_path / sub))
            run_toy_training(config)
            blobs.append(b"".join((tmp_path / sub / f"{kind}_N{n}.csv").read_bytes()
                                  for kind in ("losses", "trajectories") for n in (3, 8)))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["exact", "adjoint_euler"])
    def test_trajectory_table_is_streamed(self, tmp_path, mode):
        """The 64 x 1001-row table is written row by row: the heap peak
        stays near the size of the node array (0.5 MB), far below the
        ~17 MB a list of all formatted rows takes."""
        config = ExperimentConfig(experiment="toy_train", depths=(1000,),
                                  iterations=1, input_count=64, gradient_mode=mode,
                                  output_dir=str(tmp_path))
        tracemalloc.start()
        try:
            run_toy_training(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert (tmp_path / "trajectories_N1000.csv").read_text().count("\n") == 1 + 64 * 1001

    @pytest.mark.parametrize("mode", ["exact", "adjoint_heun"])
    def test_trajectory_table_matches_row_list_writer(self, tmp_path, monkeypatch, mode):
        """The streamed table is byte-identical to one built as a list of
        rows, node by node, from the final forward pass's nodes."""
        finals = []
        for name in ("forward_euler_chain", "forward_heun_chain"):
            chain = getattr(harness, name)

            def recording(*args, chain=chain):
                traj = chain(*args)
                finals.append(traj.nodes)
                return traj
            monkeypatch.setattr(harness, name, recording)
        config = ExperimentConfig(experiment="toy_train", depths=(5,), iterations=4,
                                  input_count=3, hidden_dim=3, seed=1,
                                  gradient_mode=mode, output_dir=str(tmp_path))
        run_toy_training(config)
        nodes = finals[-1]
        depth = nodes.shape[0] - 1
        s_values = np.arange(depth + 1) / depth
        rows = []
        for b in range(config.input_count):
            for node in range(depth + 1):
                rows.append([b, node, f"{float(s_values[node]):.17g}",
                             f"{float(nodes[node, 0, b]):.17g}"])
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([["input_index", "node_index", "s", "x_0"], *rows])
        assert (tmp_path / "trajectories_N5.csv").read_bytes() == expected.getvalue().encode()


class TestTrainedAccuracy:
    """Deep-chain training quality with exact and memory-free gradients."""

    def test_deep_training_with_adjoint_matches_exact(self, tmp_path):
        finals = {}
        for mode in ("exact", "adjoint_euler"):
            config = ExperimentConfig(experiment="toy_train", depths=(300,),
                                      learning_rate=3.0, iterations=600, seed=0,
                                      gradient_mode=mode,
                                      output_dir=str(tmp_path / mode))
            finals[mode] = run_toy_training(config).runs[300].final_loss
        assert finals["exact"] <= 1e-3
        assert finals["adjoint_euler"] <= 2.0 * finals["exact"]

    def test_shallow_adjoint_training_underperforms(self, tmp_path):
        # at depth 4 the reconstruction error is large enough to steer
        # descent to a visibly worse optimum
        finals = {}
        for mode in ("exact", "adjoint_euler"):
            config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                      learning_rate=0.3, iterations=2000, seed=0,
                                      gradient_mode=mode,
                                      output_dir=str(tmp_path / mode))
            finals[mode] = run_toy_training(config).runs[4].final_loss
        assert finals["adjoint_euler"] >= 5.0 * finals["exact"]


class TestCli:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = toy_train\nwat = 3\n")
        assert main(["train", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_command_experiment_mismatch_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = toy_train\n")
        assert main(["study", "--config", path]) == 2
        assert "does not belong" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["study", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_bad_depths_override_exits_2(self, capsys):
        assert main(["tightness", "--depths", "4,x"]) == 2
        assert "--depths" in capsys.readouterr().err

    @pytest.mark.parametrize("command,experiment,setting", [
        ("study", "approx_error", "profile_scale = nan"),
        ("train", "toy_train", "learning_rate = nan"),
        ("linflow", "limit_map", "t_end = nan"),
        ("train", "toy_train", "input_high = inf"),
        ("linflow", "limit_map", "dt = 0.5"),  # above max_step_size
        ("study", "approx_error", "seed = -1"),
        ("linflow", "limit_map", "t_end = 0"),
    ], ids=["profile_scale", "learning_rate", "t_end", "input_high", "dt", "seed",
            "t_end_zero"])
    def test_unusable_value_exits_2(self, tmp_path, capsys, command, experiment, setting):
        path = write_cfg(tmp_path, f"experiment = {experiment}\ndepths = 8, 16\n"
                                   f"{setting}\n")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = approx_error\ndepths = 8, 16\n")
        assert main(["study", "--config", path, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_limit_map_on_depths_that_do_not_divide(self, tmp_path):
        """Depths 4, 6, 9 run; each limitmap.csv distance is the L2 gap of
        two step profiles, integrated by brute force on a fine common grid."""
        text = "experiment = limit_map\ndepths = 4, 6, 9\nt_end = 1\nsigma_dim = 2\n"
        path = write_cfg(tmp_path, text + "snapshot_count = 3\n")
        assert main(["linflow", "--config", path, "--out", str(tmp_path / "out")]) == 0
        config = load_config(path)
        config.output_dir = str(tmp_path / "again")
        traces = run_linear_flow_experiment(config).traces
        s = (np.arange(3600) + 0.5) / 3600

        def profile(thetas):
            return thetas[(len(thetas) * s).astype(int)]
        rows = (tmp_path / "out" / "limitmap.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3 * 2
        for row in rows:
            t, n, distance = row.split(",")
            ti = [sample.t for sample in traces[9].samples].index(float(t))
            diff = (profile(traces[int(n)].samples[ti].thetas)
                    - profile(traces[9].samples[ti].thetas))
            brute = math.sqrt(float(np.mean(np.sum(diff ** 2, axis=(1, 2)))))
            assert float(distance) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("command,experiment", [
        ("study", "approx_error"), ("tightness", "tightness_suite"),
        ("linflow", "limit_map"), ("train", "toy_train")])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under_file"])
    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch,
                                         command, experiment, out):
        """Every runner makes its output directory before it starts any work."""
        def no_work(*args):
            raise AssertionError("work started before the output directory was made")
        monkeypatch.setattr(harness, "_child_rngs", no_work)
        monkeypatch.setattr(harness, "_tightness_case", no_work)
        (tmp_path / "afile").write_text("")
        path = write_cfg(tmp_path, f"experiment = {experiment}\ndepths = 8, 16\n")
        assert main([command, "--config", path, "--out", str(tmp_path / out)]) == 2
        assert "config error: cannot use output_dir" in capsys.readouterr().err

    def test_tightness_runs_without_config(self, tmp_path, capsys):
        rc = main(["tightness", "--depths", "4", "--out", str(tmp_path)])
        assert rc == 0
        assert "alternating_square" in capsys.readouterr().out
        assert (tmp_path / "tightness.csv").exists()

    def test_study_command_end_to_end(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = euler_adjoint\n"
                                   "depths = 8, 16\n"
                                   "state_dim = 2\nhidden_dim = 3\n")
        rc = main(["study", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "slope" in capsys.readouterr().out
        assert (tmp_path / "out" / "study.csv").exists()
        assert (tmp_path / "out" / "slopes.csv").exists()

    def test_study_prints_oracle_estimate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = approx_error\n"
                                   "depths = 8, 16\n"
                                   "state_dim = 2\nhidden_dim = 3\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("oracle error")]
        assert len(lines) == 1
        assert re.search(r"estimate <= \S+, worst estimate/gap \S+$", lines[0])

    def test_adjoint_study_prints_no_oracle_line(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = euler_adjoint\n"
                                   "depths = 8, 16\n"
                                   "state_dim = 2\nhidden_dim = 3\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert "oracle" not in capsys.readouterr().out

    def test_tightness_prints_oracle_estimate(self, tmp_path, capsys):
        assert main(["tightness", "--depths", "4", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(re.search(r"vs analytic \S+ \(oracle error \S+\)$", line)
                   for line in lines)

    def test_seed_override_controls_outputs(self, tmp_path):
        path = write_cfg(tmp_path, "experiment = euler_adjoint\n"
                                   "depths = 8, 16\n"
                                   "state_dim = 2\nhidden_dim = 3\n")
        for sub, seed in (("a", "7"), ("b", "7"), ("c", "8")):
            rc = main(["study", "--config", path, "--seed", seed,
                       "--out", str(tmp_path / sub)])
            assert rc == 0
        a = (tmp_path / "a" / "study.csv").read_bytes()
        assert a == (tmp_path / "b" / "study.csv").read_bytes()
        assert a != (tmp_path / "c" / "study.csv").read_bytes()

    def test_scattered_fit_is_flagged_low_confidence(self, tmp_path, capsys, monkeypatch):
        """Values that scatter about every power law fit with r2 below
        SLOPE_R2_MIN; the flag reaches slopes.csv and stdout."""
        values = {8: 1.0, 16: 0.1, 32: 1.0, 64: 0.1}
        monkeypatch.setitem(harness._STUDIES, "approx_error", (
            lambda family, schedule, x0, target: ([(values[schedule.depth], 1.0)], None),
            ("approx_max_error",)))
        path = write_cfg(tmp_path, "experiment = approx_error\ndepths = 8, 16, 32, 64\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert re.search(r"^approx_max_error: slope \S+ \(r2 \S+, low_confidence\)$",
                         capsys.readouterr().out, re.M)
        lines = (tmp_path / "out" / "slopes.csv").read_text().strip().splitlines()
        metric, _, _, r2, flag = lines[1].split(",")
        assert (metric, flag) == ("approx_max_error", "low_confidence")
        assert float(r2) < harness.SLOPE_R2_MIN

    def test_training_divergence_exits_3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = toy_train\ndepths = 4\n"
                                   "learning_rate = 1e6\niterations = 10\n"
                                   "input_count = 8\nhidden_dim = 3\n")
        rc = main(["train", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        assert "diverged at layer" in capsys.readouterr().err

    def test_all_depths_diverged_exits_3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = approx_error\nfamily = linear\n"
                                   "schedule_profile = constant\n"
                                   "profile_scale = 1e5\ndepths = 8, 16\n")
        rc = main(["study", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    FAILED_RUNS = {
        "regime_abort": ("linflow", "experiment = limit_map\ndepths = 8, 16\n"
                                    "profile_scale = 1.0\n", 4, "small-loss regime"),
        "index_on_mlp": ("study", "experiment = approx_error\ndepths = 8, 16\n"
                                  "schedule_profile = index\n", 2,
                         "index profile needs a one-parameter family"),
        "all_diverged": ("study", "experiment = approx_error\nfamily = linear\n"
                                  "state_dim = 1\nschedule_profile = index\n"
                                  "depths = 128, 256\n", 3, "all depths diverged"),
        "train_diverged": ("train", "experiment = toy_train\ndepths = 4\n"
                                    "learning_rate = 1e6\niterations = 10\n"
                                    "input_count = 8\nhidden_dim = 3\n", 3,
                           "diverged at layer"),
        # The update itself overflows: params turn infinite, not the chain.
        **{f"train_overflow_{mode}": ("train", "experiment = toy_train\ndepths = 4\n"
                                               f"gradient_mode = {mode}\n"
                                               "learning_rate = 1e308\niterations = 3\n"
                                               "input_count = 8\nhidden_dim = 3\n", 3,
                                      "training update diverged at layer 0")
           for mode in ("exact", "adjoint_euler", "adjoint_heun")},
    }

    @pytest.mark.parametrize("case", sorted(FAILED_RUNS))
    def test_failed_run_removes_the_directory_it_made(self, tmp_path, capsys, case):
        command, text, code, message = self.FAILED_RUNS[case]
        out = tmp_path / "out"
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["existing", "nested"])
    def test_failed_run_keeps_directories_it_did_not_make(self, tmp_path, sub):
        """An existing empty --out survives; of a nested one made by the
        run, only the innermost directory is removed."""
        command, text, code, _ = self.FAILED_RUNS["regime_abort"]
        out = tmp_path / "out"
        out.mkdir()
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(out / sub)]) == code
        assert out.is_dir() and not list(out.iterdir())

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for command, help_text in [
            ("study", "depth-scaling error studies (approximation, adjoint gradients)"),
            ("tightness", "analytic chain-vs-flow gap cases"),
            ("linflow", "linear-flow integration and limit-profile diagnostics"),
            ("train", "toy chain training with exact or memory-free gradients"),
        ]:
            assert f"{command} {help_text}" in text

    def test_linflow_prints_product_gap_constant(self, tmp_path, capsys):
        """One line gives the range of N * product gap over the depths; the
        monitor lines the benchmark parses keep their form."""
        path = write_cfg(tmp_path, "experiment = limit_map\nsigma_dim = 2\n"
                                   "depths = 8, 16, 32\nt_end = 1\n"
                                   "snapshot_count = 2\n")
        assert main(["linflow", "--config", path, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        monitors = re.findall(r"^N=(\d+): max theta norm \S+, decay ratio \S+ \(ok\)$",
                              out, re.M)
        assert monitors == ["8", "16", "32"]
        with open(tmp_path / "out" / "productode.csv") as fh:
            scaled = [int(n) * float(gap) for n, gap in
                      (line.strip().split(",") for line in list(fh)[1:])]
        line = f"product-vs-flow N*gap {min(scaled):.4g} to {max(scaled):.4g} over all depths"
        assert line in out.splitlines()
        assert out.index("doubling sup-distance") < out.index(line)

    def test_regime_violation_exits_4(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = limit_map\nsigma_dim = 2\n"
                                   "depths = 8, 16, 32\nprofile_scale = 0.3\n"
                                   "t_end = 1\nsnapshot_count = 2\n")
        rc = main(["linflow", "--config", path, "--out", str(tmp_path)])
        assert rc == 4
        assert "small-loss regime" in capsys.readouterr().err
