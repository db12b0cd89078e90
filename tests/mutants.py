"""Planted defects the test suite must catch (mutation adequacy).

    python tests/mutants.py [NAME ...]

Each ``MUTANTS`` entry plants one defect as a ``(file, old, new)``
substitution: ``old`` occurs exactly once in ``file``, a path relative to
the checkout holding this file.  The entry's fourth field, its killer,
is the test that last killed the mutant.  For each entry, or each NAME
given, the checkout is copied to a temporary directory and the
substitution applied there.  The killer runs first; only a mutant that
survives it runs the full suite on the copy with ``-x``, less the test
that holds each ``old`` to its file.  A mutant whose suite passes
survives.  Prints each mutant's fate, the test that killed it, marked
``(new killer)`` when the full suite rather than the recorded killer
killed it, and its wall time, and exits 1 if any survived.

Stdlib only, and run by hand: a surviving mutant costs a full suite run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The test that each `old` occurs once fails on every mutant by construction.
CATALOGUE_TEST = "tests/test_exports.py::test_mutant_substitution_occurs_once"

# name -> (file, old, new, killer)
MUTANTS = {
    # The sweeps' reverse-mode algebra.
    "heun_cross_term_N_over_N_plus_1": (
        "src/odenet/dynamics.py", "stage = _eye_plus(jac_y / N)",
        "stage = _eye_plus(jac_y / (N + 1))",
        "tests/test_acceptance.py::test_exact_gradients_match_finite_differences_for_all_families"),
    "heun_carry_takes_v_for_g": (
        "src/odenet/dynamics.py", "vjp_theta_y(grads[1:]) / (2.0 * N)",
        "vjp_theta_y(cotangents) / (2.0 * N)",
        "tests/test_acceptance.py::test_exact_gradients_match_finite_differences_for_all_families"),
    "heun_stage_at_theta_n": (
        "src/odenet/dynamics.py", "linearize_block(xs + f_x / N, lo + 1)",
        "linearize_block(xs + f_x / N, lo)",
        "tests/test_acceptance.py::test_exact_gradients_match_finite_differences_for_all_families"),
    "heun_carry_on_pending_last_row": (
        "src/odenet/adjoint.py", "else pending[1][0]", "else pending[1][-1]",
        "tests/test_adjoint.py::TestBlockedSweep::test_bit_equal_to_the_layer_sweep[identity-heun-17-None-stored]"),
    "heun_step_divisor_drops_2": (
        "src/odenet/dynamics.py", "out /= 2.0 * div", "out /= div",
        "tests/test_acceptance.py::test_heun_smooth_gradient_error_decays_near_fourth_order"),
    "divergence_screen_4x_lax": (
        "src/odenet/dynamics.py", "DIVERGENCE_THRESHOLD / (2.0 * math.sqrt(states[0].size))",
        "DIVERGENCE_THRESHOLD * 2.0 / math.sqrt(states[0].size)",
        "tests/test_dynamics.py::TestBlockScreen::test_planted_state_is_judged_by_the_per_state_rule[x9-16-stored_chain]"),
    # The linear flow and its monitors.
    "flow_gradient_factor_2_001": (
        "src/odenet/linear_flow.py", "(suf_rows @ (-2.0 * gap))", "(suf_rows @ (-2.001 * gap))",
        "tests/test_linear_flow.py::TestLayerGradient::test_scalar_single_layer"),
    "flow_velocity_drops_sign": (
        "src/odenet/linear_flow.py", "(suf_rows @ (-2.0 * gap))", "(suf_rows @ (2.0 * gap))",
        "tests/test_acceptance.py::test_flow_monitors_hold_across_depths"),
    # A 2 % depth roughness: the flow still converges, but not to one limit ODE.
    "flow_odd_layers_velocity_1_02": (
        "src/odenet/linear_flow.py", "return left @ pre_t, gap",
        "v = left @ pre_t\n        v[1::2] *= 1.02\n        return v, gap",
        "tests/test_acceptance.py::test_trained_layers_approach_the_limit_ode_at_first_order"),
    "theta_norm_bound_5": (
        "src/odenet/linear_flow.py", "max_norm < 0.5,", "max_norm < 5.0,",
        "tests/test_linear_flow.py::TestMonitors::test_violating_init_is_flagged_not_raised"),
    "decay_rate_1_over_e": (
        "src/odenet/linear_flow.py", "rate = 2.0 / math.e", "rate = 1.0 / math.e",
        "tests/test_linear_flow.py::TestMonitors::test_decay_slower_than_the_envelope_rate_fails"),
    "decay_slack_1e-1": (
        "src/odenet/linear_flow.py", "DECAY_SLACK = 1e-3", "DECAY_SLACK = 1e-1",
        "tests/test_linear_flow.py::TestMonitors::test_decay_ratio_slack_is_one_in_a_thousand[0.002-False]"),
    "decay_counts_floor_losses": (
        "src/odenet/linear_flow.py", "scale = math.sqrt(_sq_norm(trace.target))", "scale = 0.0",
        "tests/test_linear_flow.py::TestMonitors::test_loss_at_the_rounding_floor_does_not_count_against_the_envelope"),
    "loss_rise_rtol_1e-3": (
        "src/odenet/linear_flow.py", "LOSS_INCREASE_RTOL = 1e-9", "LOSS_INCREASE_RTOL = 1e-3",
        "tests/test_linear_flow.py::TestFlowTraceValidation::test_loss_rise_tolerances[rel_outside]"),
    "loss_rise_atol_1e-8": (
        "src/odenet/linear_flow.py", "LOSS_INCREASE_ATOL = 1e-18", "LOSS_INCREASE_ATOL = 1e-8",
        "tests/test_linear_flow.py::TestFlowTraceValidation::test_loss_rise_tolerances[rel_outside]"),
    "regime_margin_2_5": (
        "src/odenet/linear_flow.py", "norm_margin = 0.25 - max_norm", "norm_margin = 2.5 - max_norm",
        "tests/test_exports.py::test_benchmark_tracer_installs_and_records"),
    # The RK4 stepper, one ulp off its 2 coefficient.
    "rk4_two_one_ulp_high": (
        "src/odenet/numerics.py", "h / 6.0, 2.0)", "h / 6.0, np.nextafter(2.0, 3.0))",
        "tests/test_numerics.py::TestRk4Stepper::test_increment_is_the_formula_bit_for_bit[0.3-4]"),
    # The gradient comparison and the oracle's step count.
    "rel_error_floor_1e-3": (
        "src/odenet/adjoint.py", "REL_ERROR_FLOOR = 1e-15", "REL_ERROR_FLOOR = 1e-3",
        "tests/test_adjoint.py::TestCompareGradients::test_relative_floor"),
    "oracle_steps_below_4_per_layer": (
        "src/odenet/dynamics.py", "if fine_steps < 4 * n_grid:", "if fine_steps < n_grid:",
        "tests/test_dynamics.py::TestSolveOdeOracle::test_step_count_validation"),
    # The adjoint study's errors, taken block by block.
    "recon_error_skips_block_lowest_layer": (
        "src/odenet/harness.py", "xs - traj.nodes[lo:lo + len(xs)]",
        "xs[1:] - traj.nodes[lo + 1:lo + len(xs)]",
        "tests/test_harness.py::TestScalingStudy::test_euler_adjoint_metrics_run_the_euler_pass[euler-6]"),
    "grad_error_keeps_last_block_only": (
        "src/odenet/harness.py", "max(max_abs, comp.max_abs)", "comp.max_abs",
        "tests/test_harness.py::TestScalingStudy::test_euler_adjoint_metrics_run_the_euler_pass[heun-37]"),
    # The study's flags.
    "oracle_tolerance_1e-1": (
        "src/odenet/harness.py", "ORACLE_TOLERANCE = 1e-3", "ORACLE_TOLERANCE = 1e-1",
        "tests/test_harness.py::TestOracleFlag::test_flagged_point_leaves_the_fit"),
    "slope_r2_min_0_5": (
        "src/odenet/harness.py", "SLOPE_R2_MIN = 0.9", "SLOPE_R2_MIN = 0.5",
        "tests/test_harness.py::TestScalingStudy::test_fit_confidence_threshold_is_r2_of_0_9[r2_0.72]"),
    "noise_floor_factor_10": (
        "src/odenet/numerics.py", "NOISE_FLOOR_FACTOR = 100.0", "NOISE_FLOOR_FACTOR = 10.0",
        "tests/test_numerics.py::TestAboveNoiseFloor::test_floor_is_a_hundred_epsilons_of_scale"),
    # The config keys each family and profile reads.
    "mlp_row_drops_hidden_dim": (
        "src/odenet/harness.py", '"mlp": (make_mlp_family, ("state_dim", "hidden_dim"))',
        '"mlp": (make_mlp_family, ("state_dim",))',
        "tests/test_acceptance.py::test_euler_reconstruction_error_decays_at_first_order"),
    "index_reads_profile_scale": (
        "src/odenet/harness.py", '"index": ()}', '"index": ("profile_scale",)}',
        "tests/test_harness.py::test_command_keys_are_the_keys_it_reads[study]"),
    "key_check_skips_profile_keys": (
        "src/odenet/harness.py",
        'PROFILES[config.schedule_profile] if "schedule_profile" in read else ()', "()",
        "tests/test_acceptance.py::test_heun_adjoint_succeeds_at_an_eighth_of_euler_depth_at_large_lipschitz"),
    "key_check_skips_index_rule": (
        "src/odenet/harness.py", 'config.schedule_profile == "index" and (',
        'config.schedule_profile == "no profile" and (',
        "tests/test_harness.py::TestScheduleProfiles::test_index_profile_needs_scalar_parameters"),
    # The config file and values the gate must reject or read.
    "snapshot_rule_skipped": (
        "src/odenet/harness.py", "self.snapshot_count)) > 0):", "self.snapshot_count)) >= 0):",
        "tests/test_harness.py::TestCli::test_unusable_value_exits_2[t_end_snapshot_times]"),
    "config_read_without_bom": (
        "src/odenet/harness.py", 'encoding="utf-8-sig"', 'encoding="utf-8"',
        "tests/test_harness.py::TestParseConfig::test_load_config_reads_a_byte_order_mark"),
    # The weight-interpolated ODE of the paper's negative result.
    "weight_interp_blends_at_alpha_0": (
        "src/odenet/dynamics.py", "alpha = np.asarray(alphas)[:, None]",
        "alpha = 0.0 * np.asarray(alphas)[:, None]",
        "tests/test_acceptance.py::test_rough_schedule_gaps_reach_their_limits"),
    "mlp_blend_alpha_1_keeps_layer_n": (
        "src/odenet/residual_models.py", "(m, int(a))", "(m, 0)",
        "tests/test_dynamics.py::TestInterpolate::test_grid_consistency[residual_interp]"),
}


def source(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def _run_pytest(copy, tmp, args):
    """(exit code, the first failing test's id or else the last line, seconds)
    of one ``-x`` pytest run on the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--basetemp", os.path.join(tmp, "pytest"), *args],
        cwd=copy, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    # A summary line reads "FAILED <id> - <message>"; the id holds no " - ".
    detail = failed[0].split(" ", 1)[1].split(" - ", 1)[0] if failed else lines[-1]
    return proc.returncode, detail, elapsed


def run(name):
    """(killed, whether the recorded killer killed it, the test that killed
    it or else the suite's last line, seconds)."""
    path, old, new, killer = MUTANTS[name]
    text = source(path)
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_out", "*.egg-info"))
        with open(os.path.join(copy, path), "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        code, detail, spent = _run_pytest(copy, tmp, [killer])
        # 1: the killer failed; 2: its module no longer imports.  A stale
        # id exits 4 and falls back to the suite like a survivor.
        if code in (1, 2):
            return True, True, detail, spent
        code, detail, elapsed = _run_pytest(copy, tmp, ["--deselect", CATALOGUE_TEST])
    return code != 0, False, detail, spent + elapsed


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants {unknown}; known: {sorted(MUTANTS)}")
    survivors, start = [], time.perf_counter()
    for name in names or MUTANTS:
        killed, by_killer, detail, elapsed = run(name)
        new = " (new killer)" if killed and not by_killer else ""
        print(f"{'killed' if killed else 'SURVIVED'} {name} ({elapsed:.1f} s): {detail}{new}",
              flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(survivors)} of {len(names or MUTANTS)} survived in "
          f"{time.perf_counter() - start:.1f} s: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
