"""Planted defects the test suite must catch (mutation adequacy).

    python tests/mutants.py [NAME ...]

Each ``MUTANTS`` entry plants one defect as a ``(file, old, new)``
substitution: ``old`` occurs exactly once in ``file``, a path relative to
the checkout holding this file.  For each entry, or each NAME given, the
checkout is copied to a temporary directory, the substitution applied
there, and the full suite run on the copy with ``-x``, less the test
that holds each ``old`` to its file.  A mutant whose suite passes
survives.  Prints each mutant's fate, the first failing test that
killed it and its wall time, and exits 1 if any survived.

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

# name -> (file, old, new)
MUTANTS = {
    # The sweeps' reverse-mode algebra.
    "heun_cross_term_N_over_N_plus_1": (
        "src/odenet/dynamics.py", "stage = _eye_plus(jac_y / N)",
        "stage = _eye_plus(jac_y / (N + 1))"),
    "heun_carry_takes_v_for_g": (
        "src/odenet/dynamics.py", "vjp_theta_y(grads[1:]) / (2.0 * N)",
        "vjp_theta_y(cotangents) / (2.0 * N)"),
    "heun_stage_at_theta_n": (
        "src/odenet/dynamics.py", "linearize_block(xs + f_x / N, lo + 1)",
        "linearize_block(xs + f_x / N, lo)"),
    "heun_carry_on_pending_last_row": (
        "src/odenet/adjoint.py", "else pending[1][0]", "else pending[1][-1]"),
    "heun_step_divisor_drops_2": (
        "src/odenet/dynamics.py", "out /= 2.0 * div", "out /= div"),
    "divergence_screen_4x_lax": (
        "src/odenet/dynamics.py", "DIVERGENCE_THRESHOLD / (2.0 * math.sqrt(states[0].size))",
        "DIVERGENCE_THRESHOLD * 2.0 / math.sqrt(states[0].size)"),
    # The linear flow and its monitors.
    "flow_gradient_factor_2_001": (
        "src/odenet/linear_flow.py", "(suf_rows @ (2.0 * gap))", "(suf_rows @ (2.001 * gap))"),
    "theta_norm_bound_5": (
        "src/odenet/linear_flow.py", "max_norm < 0.5,", "max_norm < 5.0,"),
    "decay_rate_1_over_e": (
        "src/odenet/linear_flow.py", "rate = 2.0 / math.e", "rate = 1.0 / math.e"),
    "decay_slack_1e-1": (
        "src/odenet/linear_flow.py", "DECAY_SLACK = 1e-3", "DECAY_SLACK = 1e-1"),
    "decay_counts_floor_losses": (
        "src/odenet/linear_flow.py", "scale = math.sqrt(_sq_norm(trace.target))", "scale = 0.0"),
    "loss_rise_rtol_1e-3": (
        "src/odenet/linear_flow.py", "LOSS_INCREASE_RTOL = 1e-9", "LOSS_INCREASE_RTOL = 1e-3"),
    "loss_rise_atol_1e-8": (
        "src/odenet/linear_flow.py", "LOSS_INCREASE_ATOL = 1e-18", "LOSS_INCREASE_ATOL = 1e-8"),
    "regime_margin_2_5": (
        "src/odenet/linear_flow.py", "norm_margin = 0.25 - max_norm", "norm_margin = 2.5 - max_norm"),
    # The gradient comparison and the oracle's step count.
    "rel_error_floor_1e-3": (
        "src/odenet/adjoint.py", "REL_ERROR_FLOOR = 1e-15", "REL_ERROR_FLOOR = 1e-3"),
    "oracle_steps_below_4_per_layer": (
        "src/odenet/dynamics.py", "if fine_steps < 4 * n_grid:", "if fine_steps < n_grid:"),
    # The study's flags.
    "oracle_tolerance_1e-1": (
        "src/odenet/harness.py", "ORACLE_TOLERANCE = 1e-3", "ORACLE_TOLERANCE = 1e-1"),
    "slope_r2_min_0_5": (
        "src/odenet/harness.py", "SLOPE_R2_MIN = 0.9", "SLOPE_R2_MIN = 0.5"),
    "noise_floor_factor_10": (
        "src/odenet/numerics.py", "NOISE_FLOOR_FACTOR = 100.0", "NOISE_FLOOR_FACTOR = 10.0"),
    # The config keys each family and profile reads.
    "mlp_row_drops_hidden_dim": (
        "src/odenet/harness.py", '"mlp": (make_mlp_family, ("state_dim", "hidden_dim"))',
        '"mlp": (make_mlp_family, ("state_dim",))'),
    "index_reads_profile_scale": (
        "src/odenet/harness.py", '"index": ()}', '"index": ("profile_scale",)}'),
    "key_check_skips_profile_keys": (
        "src/odenet/harness.py",
        'PROFILES[config.schedule_profile] if "schedule_profile" in read else ()', "()"),
    "key_check_skips_index_rule": (
        "src/odenet/harness.py", 'config.schedule_profile == "index" and (',
        'config.schedule_profile == "no profile" and ('),
    # The config file and values the gate must reject or read.
    "snapshot_rule_skipped": (
        "src/odenet/harness.py", "self.snapshot_count)) > 0):", "self.snapshot_count)) >= 0):"),
    "config_read_without_bom": (
        "src/odenet/harness.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    # The weight-interpolated ODE of the paper's negative result.
    "weight_interp_blends_at_alpha_0": (
        "src/odenet/dynamics.py", "alpha = np.asarray(alphas)[:, None]",
        "alpha = 0.0 * np.asarray(alphas)[:, None]"),
}


def source(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def run(name):
    """(killed, the first failing test or else the suite's last line, seconds)."""
    path, old, new = MUTANTS[name]
    text = source(path)
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_out", "*.egg-info"))
        with open(os.path.join(copy, path), "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--basetemp", os.path.join(tmp, "pytest"), "--deselect", CATALOGUE_TEST],
            cwd=copy, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode != 0, failed[0] if failed else lines[-1], elapsed


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants {unknown}; known: {sorted(MUTANTS)}")
    survivors, start = [], time.perf_counter()
    for name in names or MUTANTS:
        killed, detail, elapsed = run(name)
        print(f"{'killed' if killed else 'SURVIVED'} {name} ({elapsed:.1f} s): {detail}",
              flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(survivors)} of {len(names or MUTANTS)} survived in "
          f"{time.perf_counter() - start:.1f} s: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
