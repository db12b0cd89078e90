"""Experiment runner and CLI behavior, including exit codes and CSVs."""

import ast
import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from odenet import cli, harness
from odenet.adjoint import (
    adjoint_sweep_euler,
    adjoint_sweep_heun,
    backprop_exact,
    backprop_exact_heun,
    compare_gradients,
)
from odenet.cli import main
from odenet.dynamics import (
    EULER,
    HEUN,
    DivergenceError,
    forward_euler_chain,
    forward_heun_chain,
    interpolate,
    solve_ode_oracle,
)
from odenet.harness import (
    MLP_WIDTH,
    SNAPSHOT_COUNT,
    TRAIN_INPUTS,
    AllDepthsDiverged,
    ConfigError,
    ExperimentConfig,
    RegimeAbort,
    _adjoint_depth_metrics,
    _child_rngs,
    _make_profile,
    _poly_eval,
    load_config,
    parse_config,
    run_linear_flow_experiment,
    run_scaling_study,
    run_tightness_suite,
    run_toy_training,
)
from odenet.residual_models import WeightSchedule, make_linear_family, make_mlp_family
from claims import CLAIMS
from oracles import eval_field, tables, values
import reach

INDEX_ERROR = "index profile needs a one-parameter family"


def _claim_line(claim) -> str:
    """README's list item for one row of tests/claims.py, less its "- "."""
    seeds = ", ".join(map(str, claim.seeds)) or "none"
    r2 = "" if claim.r2_min is None else f", r² ≥ {claim.r2_min:g}"
    return (f"`{claim.id}` in [{claim.low:g}, {claim.high:g}]{r2}, seeds {seeds}: "
            f"{claim.statement}; `{claim.test}`.")


def _is_number(node) -> bool:
    """Whether an expression is arithmetic on number literals alone, like -1.25 or 2.0 / 3.0."""
    return all(isinstance(n, (ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator))
               or isinstance(n, ast.Constant) and type(n.value) in (int, float)
               for n in ast.walk(node))


def _literal_sides(compare) -> set:
    """The sides, "low" and "high", from which a comparison bounds an
    operand by a number literal."""
    sides = set()
    operands = [compare.left, *compare.comparators]
    for op, a, b in zip(compare.ops, operands, operands[1:]):
        if isinstance(op, (ast.Lt, ast.LtE)):
            a_side, b_side = "low", "high"
        elif isinstance(op, (ast.Gt, ast.GtE)):
            a_side, b_side = "high", "low"
        else:
            continue
        if _is_number(a):
            sides.add(a_side)
        if _is_number(b):
            sides.add(b_side)
    return sides


def _is_literal_window(node) -> bool:
    """Whether an expression writes a window or a fit's bound as a literal:
    ``a <= x <= b``, ``a <= x and y <= b``, ``abs(x - c) <= e``, or a
    fit's ``slope`` or ``r_squared`` against a number."""
    if isinstance(node, ast.BoolOp):
        compares = [value for value in node.values if isinstance(value, ast.Compare)]
        return set().union(*map(_literal_sides, compares)) == {"low", "high"}
    if not isinstance(node, ast.Compare):
        return False
    sides, operands = _literal_sides(node), [node.left, *node.comparators]
    centred = any(isinstance(o, ast.Call) and getattr(o.func, "id", None) == "abs"
                  and isinstance(o.args[0], ast.BinOp)
                  and (_is_number(o.args[0].left) or _is_number(o.args[0].right))
                  for o in operands)
    fit = any(isinstance(o, ast.Attribute) and o.attr in ("slope", "r_squared") for o in operands)
    return sides == {"low", "high"} or bool(sides) and (centred or fit)


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
        ("depths", 5),
        ("depths", (True, 2, 3)),
        ("seed", True),
        ("iterations", False),
        ("state_dim", 2.0),
        ("seed", 1.5),
        ("iterations", 2.5),
    ])
    def test_rejects_non_integral_values(self, field, value):
        """A config built from Python must not truncate 2.7 to depth 2 or
        carry 2.5 iterations into numpy."""
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(experiment="toy_train", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("t_end", "4"),
        ("learning_rate", None),
        ("profile_scale", "0.1"),
        ("t_end", True),
    ])
    def test_rejects_non_numbers_in_float_fields(self, field, value):
        """A config built from Python reports the field, not a TypeError
        from the first comparison that reads it."""
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(experiment="toy_train", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("experiment", ["x"]),
        ("family", 3),
        ("schedule_profile", b"index"),
        ("target", None),
        ("gradient_mode", ("exact",)),
        ("output_dir", 5),
        ("output_dir", None),
        ("output_dir", b"out"),
    ])
    def test_rejects_non_strings_in_string_fields(self, field, value):
        """An unhashable name is not a TypeError from the table lookup, and
        an output_dir that is no path fails here, not in os.makedirs."""
        values = {"experiment": "toy_train", field: value}
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**values)

    def test_every_field_has_a_rule_table(self):
        """A string, integer or float key joins _CHOICES, _AT_LEAST or
        _POSITIVE, so a later key cannot skip its rule."""
        kinds = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
        assert {n for n, t in kinds.items() if t == "str"} == set(harness._CHOICES) | {"output_dir"}
        assert {n for n, t in kinds.items() if t == "int"} == set(harness._AT_LEAST)
        assert {n for n, t in kinds.items() if "float" in t} == set(harness._POSITIVE)

    @pytest.mark.parametrize("field", sorted(harness._CHOICES))
    def test_each_choice_rejects_an_unknown_value(self, field):
        values = {"experiment": "toy_train", field: "warp_drive"}
        with pytest.raises(ConfigError, match=f"^unknown {field} 'warp_drive'$"):
            ExperimentConfig(**values)

    @pytest.mark.parametrize("value", [0, -0.5])
    @pytest.mark.parametrize("field", harness._POSITIVE)
    def test_each_positive_field_rejects_its_bound(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be positive$"):
            ExperimentConfig(experiment="toy_train", **{field: value})
        ExperimentConfig(experiment="toy_train", **{field: 1e-300})

    @pytest.mark.parametrize("field, low", sorted(harness._AT_LEAST.items()))
    def test_each_integer_rejects_one_below_its_bound(self, field, low):
        with pytest.raises(ConfigError, match=f"^{field} must be >= {low}$"):
            ExperimentConfig(experiment="toy_train", **{field: low - 1})
        ExperimentConfig(experiment="toy_train", **{field: low})

    @pytest.mark.parametrize("value", [
        np.float32("nan"), np.float32("inf"), -np.float32("inf"),
        np.float16("nan"), np.float16("inf"), -np.float16("inf"),
        float("nan"), 10 ** 400, -10 ** 400,
    ], ids=["f32_nan", "f32_inf", "f32_neg_inf", "f16_nan", "f16_inf", "f16_neg_inf",
            "nan", "int_past_float", "neg_int_past_float"])
    @pytest.mark.parametrize("field", ["t_end", "learning_rate", "profile_scale"])
    def test_rejects_non_finite_floats_of_any_width(self, field, value):
        """A numpy NaN or inf, or an int no float holds, names its field
        here, not in the first update or linspace that reads it."""
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
            ExperimentConfig(experiment="toy_train", **{field: value})

    @pytest.mark.parametrize("field", ["t_end", "learning_rate", "profile_scale"])
    def test_numpy_floats_are_stored_as_python_floats(self, field):
        config = ExperimentConfig(experiment="toy_train", **{field: np.float32(0.5)})
        assert type(getattr(config, field)) is float and getattr(config, field) == 0.5

    def test_output_dir_may_be_a_path(self, tmp_path):
        config = ExperimentConfig(experiment="toy_train", output_dir=tmp_path)
        assert config.output_dir == tmp_path

    def test_numpy_integers_are_accepted(self):
        config = ExperimentConfig(experiment="toy_train", depths=(np.int64(3), 5),
                                  seed=np.int32(2), iterations=np.int64(4))
        assert config.depths == (3, 5)
        assert (config.seed, config.iterations) == (2, 4)

    def test_fields_are_frozen(self):
        """A field set after construction would skip every rule; a change
        goes through dataclasses.replace, which applies them again."""
        config = ExperimentConfig(experiment="toy_train")
        for f in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))
        with pytest.raises(ConfigError, match="learning_rate"):
            dataclasses.replace(config, learning_rate=float("nan"))

    def test_load_config_roundtrip(self, tmp_path):
        path = write_cfg(tmp_path, "experiment = tightness_suite\nseed = 9\n")
        config = load_config(path)
        assert config.experiment == "tightness_suite"
        assert config.seed == 9

    def test_load_config_reads_a_byte_order_mark(self, tmp_path):
        """A UTF-8 file that starts with a byte-order mark, as some editors
        save one, parses to the same config as the file without it."""
        text = "experiment = limit_map\ndepths = 4, 8\nt_end = 0.1\n"
        (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(tmp_path / "bom.cfg") == load_config(write_cfg(tmp_path, text))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_readme_config_examples_parse(self):
        """Every indented `# <name>.cfg` block of the README is a valid config
        for the command the README runs it with."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^    # (\w+)\.cfg\n((?:    \S.*\n)+)", readme, re.MULTILINE)
        assert {name for name, _ in blocks} == {"study", "flow", "train"}
        commands = dict((name, command) for command, name in
                        re.findall(r"^    odenet (\w+) +--config (\w+)\.cfg", readme, re.MULTILINE))
        for name, body in blocks:
            assert harness.COMMAND_OF[parse_config(body).experiment] == commands[name]

    def test_readme_acceptance_windows_are_asserted(self):
        """README's acceptance section lists every row of tests/claims.py
        in the table's order, each item quoting its row's window, r² floor,
        seeds, statement and test; it writes no other `[a, b]` window."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("The headline guarantees live in one file"):
                         readme.index("## Library sketch")]
        item = r"^- (.*(?:\n  .*)*)"
        quoted = [" ".join(text.split()) for text in re.findall(item, section, re.MULTILINE)]
        assert quoted == [_claim_line(claim) for claim in CLAIMS.values()]
        assert not re.search(r"\[-?\d", re.sub(item, "", section, flags=re.MULTILINE))

    def test_acceptance_windows_read_the_claims_table(self):
        """tests/test_acceptance.py asserts no window or fit bound written
        as a literal, and each row of tests/claims.py is read, as
        `CLAIMS["<id>"]`, by the test function it names and by no other
        function; the rows one test reads share their seeds."""
        path = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"
        tree = ast.parse(path.read_text())
        literal = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Assert)
                   and any(map(_is_literal_window, ast.walk(node.test)))]
        assert not literal
        tests = {fn.name for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")}
        assert {claim.test for claim in CLAIMS.values()} <= tests
        reads = {(fn.name, ast.literal_eval(node.slice)) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                 if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "CLAIMS"}
        assert reads == {(claim.test, claim.id) for claim in CLAIMS.values()}
        for test in tests:
            assert len({claim.seeds for claim in CLAIMS.values() if claim.test == test}) <= 1

    def test_readme_library_sketch_runs(self, capsys):
        """The README's fenced `python` sketch runs and prints one number."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sketches = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        assert len(sketches) == 1
        exec(compile(sketches[0], "README.md", "exec"), {})
        assert math.isfinite(float(capsys.readouterr().out))


class TestScheduleProfiles:
    def _config(self, profile, scale=0.25):
        return ExperimentConfig(experiment="euler_adjoint",
                                schedule_profile=profile, profile_scale=scale)

    def test_index_profile_counts_layers(self):
        spec = _make_profile(self._config("index"), 1, np.random.default_rng(0))
        rows = spec(5)
        assert np.array_equal(rows, np.arange(5.0).reshape(5, 1))

    def test_index_profile_needs_scalar_parameters(self):
        """The config gate takes an index profile only on a study family of
        one parameter: `train`'s network mlp(1, MLP_WIDTH) has two or more."""
        for settings, runs in [
            (dict(experiment="euler_adjoint", family="square"), True),
            (dict(experiment="euler_adjoint", family="identity"), True),
            (dict(experiment="approx_error", family="linear", state_dim=1), True),
            (dict(experiment="approx_error", family="linear", state_dim=2), False),
            (dict(experiment="heun_adjoint", family="mlp", state_dim=1), False),
            (dict(experiment="toy_train"), False),
        ]:
            config = ExperimentConfig(schedule_profile="index", **settings)
            with contextlib.nullcontext() if runs else pytest.raises(ConfigError,
                                                                     match=f"^{INDEX_ERROR}$"):
                harness._check_keys(config, [])

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

    def test_smooth_profile_is_built_in_one_buffer(self):
        """Horner's rule runs in place: a 1024 x 64 cubic profile's heap
        peak stays within 1.5 times its rows."""
        spec = _make_profile(self._config("lipschitz_profile"), 64,
                             np.random.default_rng(0))
        spec(2)  # warm numpy
        tracemalloc.start()
        try:
            spec(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 1024 * 64 * 8

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
    @pytest.mark.parametrize("planted, r2, flag", [
        ((1.0, 0.3, 0.5, 0.1), 0.725, "low_confidence"),
        ((1.0, 0.35, 0.3, 0.1), 0.936, "ok"),
    ], ids=["r2_0.72", "r2_0.94"])
    def test_fit_confidence_threshold_is_r2_of_0_9(self, monkeypatch, planted, r2, flag):
        """A slope fit with r2 near 0.7 is low_confidence; one near 0.94 is ok."""
        by_depth = dict(zip((8, 16, 32, 64), planted))
        monkeypatch.setitem(harness._STUDIES, "approx_error", (harness._each_depth(
            lambda family, schedule, x0, target: ([(by_depth[schedule.depth], 1.0)], None)),
            ("approx_max_error",)))
        result = run_scaling_study(ExperimentConfig(experiment="approx_error",
                                                    depths=(8, 16, 32, 64)))
        assert result.fits["approx_max_error"].r_squared == pytest.approx(r2, abs=1e-3)
        assert result.fit_flags["approx_max_error"] == flag

    def test_input_has_unit_expected_squared_norm(self, monkeypatch):
        """The study's x0 is a standard normal over sqrt(d), so E||x0||^2 = 1:
        over seeds 0-199 at d = 4 the mean lies within [0.8, 1.2], four
        standard errors of sqrt(2 / d / 200) = 0.05."""
        inputs = []
        monkeypatch.setitem(harness._STUDIES, "approx_error", (harness._each_depth(
            lambda family, schedule, x0, target: inputs.append(x0) or ([(1.0, 1.0)], None)),
            ("approx_max_error",)))
        for seed in range(200):
            run_scaling_study(ExperimentConfig(experiment="approx_error", family="linear",
                                               state_dim=4, depths=(2,), seed=seed))
        assert len(inputs) == 200 and inputs[0].shape == (4,)
        assert 0.8 <= np.mean([x @ x for x in inputs]) <= 1.2

    def test_mlp_study_smoke(self):
        config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                  family="mlp", state_dim=2, seed=1)
        result = run_scaling_study(config)
        assert len(result.records) == 6
        assert all(r.flag == "" for r in result.records)
        assert set(result.fit_flags.values()) == {"ok"}
        recon = values(result, "recon_max_error")
        assert recon[16] < recon[8]
        text = tables(result)
        study_lines = text["study.csv"].strip().splitlines()
        assert study_lines[0] == "N,metric,value"
        assert len(study_lines) == 7
        slope_lines = text["slopes.csv"].strip().splitlines()
        assert slope_lines[0] == "metric,slope,intercept,r2,flag"
        assert len(slope_lines) == 4

    def test_heun_study_smoke(self):
        config = ExperimentConfig(experiment="heun_adjoint", depths=(8, 16),
                                  family="mlp", state_dim=2, seed=1)
        result = run_scaling_study(config)
        assert sorted(result.fit_flags) == [
            "grad_max_abs_error", "grad_max_rel_error", "recon_max_error"]

    @pytest.mark.parametrize("depth", [6, 37])
    @pytest.mark.parametrize("scheme", [EULER, HEUN], ids=lambda s: s.name)
    def test_euler_adjoint_metrics_run_the_euler_pass(self, scheme, depth):
        """Each adjoint measure is a hand pass of its scheme bit for bit:
        the stored chain, its exact backprop and the memory-free sweep,
        compared over whole arrays.  Depth 37 is two full sweep blocks
        and 5 layers, so Heun's carry crosses a block boundary."""
        forward, backprop, sweep = {
            EULER: (forward_euler_chain, backprop_exact, adjoint_sweep_euler),
            HEUN: (forward_heun_chain, backprop_exact_heun, adjoint_sweep_heun)}[scheme]
        family = make_mlp_family(2, 3)
        rng = np.random.default_rng(7)
        schedule = WeightSchedule(0.3 * rng.standard_normal((depth, family.param_dim)))
        x0, target = rng.standard_normal(2), rng.standard_normal(2)
        traj = forward(family, schedule, x0)
        out_grad = traj.nodes[-1] - target
        exact = backprop(family, schedule, traj, out_grad)
        approx, recon = np.empty_like(exact), 0.0
        for lo, own, _, xs in sweep(family, schedule, traj.nodes[-1], out_grad):
            approx[lo:lo + len(own)] = own
            for j, x_n in enumerate(xs):
                recon = max(recon, float(np.sqrt(np.sum((x_n - traj.nodes[lo + j]) ** 2))))
        comp = compare_gradients(exact, approx)
        metrics, oracle_error = _adjoint_depth_metrics(scheme, family, schedule, x0, target)
        assert oracle_error is None
        assert metrics == [(recon, float(np.max(np.linalg.norm(traj.nodes, axis=1)))),
                           (comp.max_abs, float(np.max(np.linalg.norm(exact, axis=1)))),
                           (comp.max_rel, 1.0)]

    def test_diverged_depths_are_flagged_not_fatal(self):
        # theta_n = n with a scalar linear field blows past the guard at
        # depth 128 but not at 16
        config = ExperimentConfig(experiment="approx_error", depths=(16, 128),
                                  family="linear", state_dim=1,
                                  schedule_profile="index", seed=0)
        result = run_scaling_study(config)
        by_depth = {r.depth: r for r in result.records}
        assert by_depth[16].flag == ""
        assert by_depth[128].flag == "diverged"
        assert math.isnan(by_depth[128].value)
        assert list(values(result, "approx_max_error")) == [16]
        assert result.fit_flags["approx_max_error"] == "insufficient"
        assert "nan" in tables(result)["slopes.csv"]

    def test_reverse_divergence_flags_one_adjoint_depth(self):
        # theta = -40 on a scalar linear field: at depth 20 a two-stage
        # step multiplies the forward state by 1 - 2 + 2 = 1 and the
        # reverse one by 1 + 2 + 2 = 5, so only the adjoint sweep
        # diverges; at depth 160 both passes stay bounded
        config = ExperimentConfig(experiment="heun_adjoint", depths=(20, 160),
                                  family="linear", state_dim=1,
                                  schedule_profile="constant", profile_scale=40.0,
                                  seed=1)
        result = run_scaling_study(config)
        diverged = [r for r in result.records if r.depth == 20]
        clean = [r for r in result.records if r.depth == 160]
        assert len(diverged) == len(clean) == 3
        assert all(r.flag == "diverged" and math.isnan(r.value) for r in diverged)
        assert all(r.flag == "" and math.isfinite(r.value) for r in clean)
        assert sorted(values(result, "recon_max_error")) == [160]
        with pytest.raises(DivergenceError, match="adjoint sweep diverged at layer 3"):
            _adjoint_depth_metrics(HEUN, make_linear_family(1),
                                   WeightSchedule(np.full((20, 1), -40.0)),
                                   np.array([2.5]), np.array([1.0]))

    def test_all_depths_diverged(self):
        config = ExperimentConfig(experiment="approx_error", depths=(128, 256),
                                  family="linear", state_dim=1,
                                  schedule_profile="index", seed=0)
        with pytest.raises(AllDepthsDiverged):
            run_scaling_study(config)

    def test_exact_metrics_fall_to_noise_floor(self):
        # a state-independent field makes reconstruction and both
        # gradient routes exact, so every metric sits at rounding level
        config = ExperimentConfig(experiment="euler_adjoint", depths=(16, 64),
                                  family="identity", schedule_profile="constant", seed=0)
        result = run_scaling_study(config)
        assert all(r.flag == "floor" for r in result.records)
        assert values(result, "recon_max_error") == {}
        assert set(result.fit_flags.values()) == {"insufficient"}

    def test_rejects_wrong_experiment(self):
        config = ExperimentConfig(experiment="toy_train")
        with pytest.raises(ConfigError):
            run_scaling_study(config)

    def test_reruns_are_byte_identical(self):
        outputs = []
        for _ in range(2):
            config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                      family="mlp", state_dim=2, seed=5)
            outputs.append(tables(run_scaling_study(config))["study.csv"])
        assert outputs[0] == outputs[1]
        config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                  family="mlp", state_dim=2, seed=6)
        assert tables(run_scaling_study(config))["study.csv"] != outputs[0]


class TestTightnessSuite:
    def test_measured_gaps_match_closed_forms(self):
        config = ExperimentConfig(experiment="tightness_suite", depths=(4, 64))
        records = run_tightness_suite(config).records
        assert len(records) == 6
        for r in records:
            assert r.measured == pytest.approx(r.analytic, rel=1e-6)
        analytic = {(r.case, r.depth): r.analytic for r in records}
        assert analytic[("linear_drift", 4)] == 1.0 / 8.0
        assert analytic[("linear_drift", 64)] == 1.0 / 128.0
        assert analytic[("index_residual", 4)] == 0.5
        assert analytic[("alternating_square", 64)] == 2.0 / 3.0

    def test_csv_layout(self):
        config = ExperimentConfig(experiment="tightness_suite", depths=(4, 64))
        lines = tables(run_tightness_suite(config))["tightness.csv"].strip().splitlines()
        assert lines[0] == "case,N,measured,analytic"
        assert len(lines) == 7

    def test_reruns_are_byte_identical(self):
        a, b = (tables(run_tightness_suite(ExperimentConfig(
            experiment="tightness_suite", depths=(4, 64)))) for _ in range(2))
        assert a == b
        assert list(a) == ["tightness.csv"]


def _mlp_field(depth, seed=3):
    family = make_mlp_family(3, 4)
    rng = np.random.default_rng(seed)
    schedule = WeightSchedule(0.3 * rng.standard_normal((depth, family.param_dim)))
    return interpolate(family, schedule, "residual_interp"), rng.standard_normal(3)


def per_field(oracle):
    """A ``harness._oracle`` stand-in from oracle(field, x0), field by field."""
    return lambda fields, x0: [oracle(field, x0) for field in fields]


def _huge_estimate(field, x0):
    return solve_ode_oracle(field, x0, 8 * field.depth), 1.0


class TestOracle:
    @pytest.mark.parametrize("depth", [1, 5, 32])
    def test_solution_is_the_eight_step_solve(self, depth):
        field, x0 = _mlp_field(depth)
        [(sol, _)] = harness._oracle([field], x0)
        ref = solve_ode_oracle(field, x0, 8 * depth)
        assert np.array_equal(sol, ref)

    @pytest.mark.parametrize("depth", [1, 5, 32])
    def test_estimate_is_the_largest_node_gap(self, depth):
        field, x0 = _mlp_field(depth)
        [(_, estimate)] = harness._oracle([field], x0)
        coarse = solve_ode_oracle(field, x0, 4 * depth)
        fine = solve_ode_oracle(field, x0, 8 * depth)
        gaps = [np.linalg.norm(coarse[n] - fine[n]) for n in range(depth + 1)]
        assert estimate == max(gaps)
        assert estimate > 0.0

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_estimate_bounds_the_true_error(self, depth):
        field = eval_field(lambda x, s: x * (1.0 - x),
                           depth=depth, state_dim=1)
        x0 = np.array([0.2])
        [(sol, estimate)] = harness._oracle([field], x0)
        ref = solve_ode_oracle(field, x0, 512)
        true_error = np.max(np.abs(sol - ref))
        assert 0.0 < true_error <= estimate

    def test_default_study_matches_a_64n_oracle(self, monkeypatch):
        config = ExperimentConfig(experiment="approx_error", depths=(16, 32, 64), seed=0)
        fast = run_scaling_study(config)
        assert all(r.flag == "" for r in fast.records)
        assert sorted(fast.oracle_errors) == [16, 32, 64]

        def oracle_64n(field, x0):
            return solve_ode_oracle(field, x0, 64 * field.depth), 0.0
        monkeypatch.setattr(harness, "_oracle", per_field(oracle_64n))
        slow = values(run_scaling_study(config), "approx_max_error")
        for depth, value in values(fast, "approx_max_error").items():
            assert value == pytest.approx(slow[depth], rel=1e-8, abs=0.0)


class TestOracleFlag:
    def test_large_estimate_flags_every_point(self, monkeypatch):
        monkeypatch.setattr(harness, "_oracle", per_field(_huge_estimate))
        config = ExperimentConfig(experiment="approx_error", depths=(8, 16),
                                  state_dim=2, seed=1)
        result = run_scaling_study(config)
        assert [r.flag for r in result.records] == ["oracle", "oracle"]
        assert all(r.value > 0.0 for r in result.records)
        assert values(result, "approx_max_error") == {}
        assert result.fit_flags["approx_max_error"] == "insufficient"
        assert result.oracle_errors == {8: 1.0, 16: 1.0}
        lines = tables(result)["study.csv"].strip().splitlines()
        assert len(lines) == 3

    def test_flagged_point_leaves_the_fit(self, monkeypatch):
        depths = (8, 16, 32)
        base = ExperimentConfig(experiment="approx_error", depths=depths,
                                state_dim=2, seed=1)
        clean = values(run_scaling_study(base), "approx_max_error")
        real = harness._oracle

        def one_bad_depth(field, x0):
            [(sol, estimate)] = real([field], x0)
            # just above the tolerance at depth 16 only
            return sol, (2e-3 * clean[16] if field.depth == 16 else estimate)
        monkeypatch.setattr(harness, "_oracle", per_field(one_bad_depth))
        result = run_scaling_study(base)
        assert {r.depth: r.flag for r in result.records} == {8: "", 16: "oracle", 32: ""}
        assert values(result, "approx_max_error") == {8: clean[8], 32: clean[32]}
        assert result.fits["approx_max_error"].points_used == 2

    def test_floor_check_runs_first(self, monkeypatch):
        # a state-independent constant field makes the chain exact
        monkeypatch.setattr(harness, "_oracle", per_field(_huge_estimate))
        config = ExperimentConfig(experiment="approx_error", depths=(16, 64),
                                  family="identity", schedule_profile="constant", seed=0)
        result = run_scaling_study(config)
        assert [r.flag for r in result.records] == ["floor", "floor"]

    def test_adjoint_studies_carry_no_estimate(self):
        config = ExperimentConfig(experiment="euler_adjoint", depths=(8, 16),
                                  state_dim=2, seed=1)
        assert run_scaling_study(config).oracle_errors == {}

    def test_diverged_depth_has_no_estimate(self):
        config = ExperimentConfig(experiment="approx_error", depths=(16, 128),
                                  family="linear", state_dim=1,
                                  schedule_profile="index", seed=0)
        result = run_scaling_study(config)
        assert list(result.oracle_errors) == [16]
        assert result.oracle_errors[16] < 1e-3 * values(result, "approx_max_error")[16]

    def test_a_depth_diverging_in_the_stack_is_solved_alone(self, monkeypatch):
        """On the index schedule at N = 64 the oracle diverges (about e^32)
        but the chain does not (about e^24.7).  The stack of every depth's
        solves raises, each depth is solved again alone, and the records,
        flags and estimates are those of one study per depth."""
        config = ExperimentConfig(experiment="approx_error", family="linear", state_dim=1,
                                  schedule_profile="index", depths=(16, 32, 48, 64), seed=0)
        forward_euler_chain(make_linear_family(1),
                            WeightSchedule(np.arange(64.0).reshape(64, 1)), np.ones(1))
        rows, real = [], harness.solve_ode_oracle

        def counting(field, x0, fine_steps):
            rows.append(len(field.rows))
            return real(field, x0, fine_steps)
        monkeypatch.setattr(harness, "solve_ode_oracle", counting)
        result = run_scaling_study(config)
        assert rows == [8, 2, 2, 2, 2]
        alone = [run_scaling_study(dataclasses.replace(config, depths=(depth,)))
                 for depth in (16, 32, 48)]
        assert result.records[:3] == [r for one in alone for r in one.records]
        assert result.oracle_errors == {n: one.oracle_errors[n]
                                        for one, n in zip(alone, (16, 32, 48))}
        [last] = result.records[3:]
        assert (last.depth, last.flag) == (64, "diverged") and math.isnan(last.value)
        with pytest.raises(harness.AllDepthsDiverged):
            run_scaling_study(dataclasses.replace(config, depths=(64,)))

    def test_tightness_records_carry_estimate(self):
        config = ExperimentConfig(experiment="tightness_suite", depths=(4, 64))
        for r in run_tightness_suite(config).records:
            # RK4 integrates these polynomial-in-s fields exactly
            assert 0.0 <= r.oracle_error <= 1e-12


FLOW_CONFIG = ExperimentConfig(experiment="limit_map", depths=(8, 16, 32), state_dim=2,
                               t_end=2.0, seed=0)


@pytest.fixture(scope="module")
def flow_result():
    """The fixture config's tables, {file name: text}, and its result."""
    result = run_linear_flow_experiment(FLOW_CONFIG)
    return tables(result), result


class TestLinearFlowExperiment:
    def test_regime_and_monitors(self, flow_result):
        _, result = flow_result
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
        assert report.depths.tolist() == [8, 16]
        assert report.distances.shape == (SNAPSHOT_COUNT, 2)
        assert report.sup_fit.r_squared >= 0.9
        assert -1.3 <= report.sup_fit.slope <= -0.7

    def test_output_files(self, flow_result):
        text, result = flow_result
        names = sorted(text)
        assert names == ["doubling.csv", "limitmap.csv", "productode.csv",
                         "trace_N16.csv", "trace_N32.csv", "trace_N8.csv"]
        assert text["doubling.csv"].splitlines()[0] == "N,sup_distance"
        assert text["productode.csv"].splitlines()[0] == "N,discrepancy"
        limit_lines = text["limitmap.csv"].strip().splitlines()
        assert len(limit_lines) == 1 + SNAPSHOT_COUNT * 2

    def test_reruns_are_byte_identical(self, flow_result):
        """A second run of the fixture's config returns every CSV byte for byte."""
        text, _ = flow_result
        assert tables(run_linear_flow_experiment(FLOW_CONFIG)) == text
        assert len(text) == 6

    def test_oversized_init_aborts(self):
        config = ExperimentConfig(experiment="limit_map", depths=(8, 16, 32),
                                  state_dim=2, t_end=1.0, profile_scale=0.3, seed=0)
        with pytest.raises(RegimeAbort) as exc:
            run_linear_flow_experiment(config)
        assert exc.value.depth == 8
        assert "small-loss regime" in str(exc.value)


class TestToyTraining:
    def test_exact_training_smoke(self):
        config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                  learning_rate=0.3, iterations=30, seed=0)
        result = run_toy_training(config)
        losses = result.losses[4]
        assert losses.size == 31
        assert losses[-1] < losses[0]
        text = tables(result)
        loss_lines = text["losses_N4.csv"].strip().splitlines()
        assert loss_lines[0] == "iteration,loss"
        assert len(loss_lines) == 32
        traj_lines = text["trajectories_N4.csv"].strip().splitlines()
        assert traj_lines[0] == "input_index,node_index,s,x_0"
        assert len(traj_lines) == 1 + TRAIN_INPUTS * 5

    @pytest.mark.parametrize("mode", ["adjoint_euler", "adjoint_heun"])
    def test_memory_free_modes_train(self, mode):
        config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                  learning_rate=0.3, iterations=10, seed=0,
                                  gradient_mode=mode)
        result = run_toy_training(config)
        losses = result.losses[4]
        assert np.all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_shallow_chain_fits_decreasing_target(self):
        # with only 4 layers each Euler step is large enough to fold the
        # map, so a decreasing target is representable
        config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                  target="neg_square_half", learning_rate=0.3,
                                  iterations=100, seed=0)
        result = run_toy_training(config)
        assert result.losses[4][-1] <= 1e-2

    def test_deep_chain_hits_monotone_floor(self):
        # a deep chain approximates an ODE flow, which is monotone in the
        # scalar input; the best monotone fit of -x^2/2 on [0, 1] is a
        # constant, leaving mean squared error near var(x^2/2) = 1/45
        config = ExperimentConfig(experiment="toy_train", depths=(64,),
                                  target="neg_square_half", learning_rate=3.0,
                                  iterations=600, seed=0)
        result = run_toy_training(config)
        final = result.losses[64][-1]
        assert final < result.losses[64][0]
        assert 0.015 <= final <= 0.2

    def test_overflowing_update_names_first_bad_layer(self, monkeypatch):
        """A non-finite parameter after an update raises DivergenceError at
        the first layer holding one, before the next schedule is built."""
        exact = harness.backprop_exact

        def overflowing(*args):
            grads = exact(*args)
            grads[2:] = np.inf
            return grads
        monkeypatch.setattr(harness, "backprop_exact", overflowing)
        config = ExperimentConfig(experiment="toy_train", depths=(4,), iterations=3)
        with pytest.raises(DivergenceError) as exc:
            run_toy_training(config)
        assert exc.value.layer == 2

    def test_exact_heun_row_trains_the_heun_chain(self, monkeypatch):
        """A gradient mode is one (scheme, stored) row: an exact-Heun row
        trains with the Heun chain and its exact backprop from iteration 0,
        and its losses are a hand loop of the two bit for bit."""
        monkeypatch.setitem(harness.GRADIENT_MODES, "exact_heun", (HEUN, True))
        config = ExperimentConfig(experiment="toy_train", depths=(4,), learning_rate=0.3,
                                  iterations=5, seed=0, gradient_mode="exact_heun")
        losses = run_toy_training(config).losses[4]
        family = make_mlp_family(1, MLP_WIDTH)
        params = _make_profile(config, family.param_dim, _child_rngs(config.seed, 1)[0])(4)
        inputs = np.linspace(0.0, 1.0, TRAIN_INPUTS).reshape(1, -1)
        targets = 0.5 * inputs * inputs
        expected = []
        for _ in range(config.iterations + 1):
            schedule = WeightSchedule(params)
            traj = forward_heun_chain(family, schedule, inputs)
            out = traj.nodes[-1]
            expected.append(float(np.mean((out - targets) ** 2)))
            out_grad = 2.0 * (out - targets) / TRAIN_INPUTS
            grads = backprop_exact_heun(family, schedule, traj, out_grad)
            params = params - config.learning_rate * 4 * grads
        assert np.array_equal(losses, expected)

    def test_rejects_wrong_experiment(self):
        config = ExperimentConfig(experiment="limit_map")
        with pytest.raises(ConfigError):
            run_toy_training(config)

    def test_reruns_are_byte_identical(self):
        blobs = []
        for _ in range(2):
            config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                      learning_rate=0.3, iterations=15, seed=2)
            text = tables(run_toy_training(config))
            blobs.append(text["losses_N4.csv"] + text["trajectories_N4.csv"])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["adjoint_euler", "adjoint_heun"])
    def test_memory_free_reruns_are_byte_identical(self, mode):
        """The memory-free modes too (exact: test_reruns_are_byte_identical)."""
        blobs = []
        for _ in range(2):
            config = ExperimentConfig(experiment="toy_train", depths=(3, 8),
                                      learning_rate=0.3, iterations=6, seed=4,
                                      gradient_mode=mode)
            text = tables(run_toy_training(config))
            blobs.append("".join(text[f"{kind}_N{n}.csv"]
                                 for kind in ("losses", "trajectories") for n in (3, 8)))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["exact", "adjoint_euler"])
    def test_trajectory_table_is_streamed(self, tmp_path, mode):
        """The 64 x 1001-row table is written row by row: the heap peak of
        the whole command stays near the size of the node array (0.5 MB),
        far below the ~17 MB a list of all formatted rows takes."""
        path = write_cfg(tmp_path, "experiment = toy_train\ndepths = 1000\niterations = 1\n"
                                   f"gradient_mode = {mode}\n")
        tracemalloc.start()
        try:
            assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        table = (tmp_path / "out" / "trajectories_N1000.csv").read_text()
        assert table.count("\n") == 1 + 64 * 1001

    @pytest.mark.parametrize("mode", ["exact", "adjoint_heun"])
    def test_trajectory_table_matches_row_list_writer(self, monkeypatch, mode):
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
                                  seed=1, gradient_mode=mode)
        table = tables(run_toy_training(config))["trajectories_N5.csv"]
        nodes = finals[-1]
        depth = nodes.shape[0] - 1
        s_values = np.arange(depth + 1) / depth
        rows = []
        for b in range(TRAIN_INPUTS):
            for node in range(depth + 1):
                rows.append([b, node, f"{float(s_values[node]):.17g}",
                             f"{float(nodes[node, 0, b]):.17g}"])
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([["input_index", "node_index", "s", "x_0"], *rows])
        assert table.encode() == expected.getvalue().encode()


class TestTrainedAccuracy:
    """Deep-chain training quality with exact and memory-free gradients."""

    def test_deep_training_with_adjoint_matches_exact(self):
        finals = {}
        for mode in ("exact", "adjoint_euler"):
            config = ExperimentConfig(experiment="toy_train", depths=(300,),
                                      learning_rate=3.0, iterations=600, seed=0,
                                      gradient_mode=mode)
            finals[mode] = run_toy_training(config).losses[300][-1]
        assert finals["exact"] <= 1e-3
        assert finals["adjoint_euler"] <= 2.0 * finals["exact"]

    def test_shallow_adjoint_training_underperforms(self):
        # at depth 4 the reconstruction error is large enough to steer
        # descent to a visibly worse optimum
        finals = {}
        for mode in ("exact", "adjoint_euler"):
            config = ExperimentConfig(experiment="toy_train", depths=(4,),
                                      learning_rate=0.3, iterations=2000, seed=0,
                                      gradient_mode=mode)
            finals[mode] = run_toy_training(config).losses[4][-1]
        assert finals["adjoint_euler"] >= 5.0 * finals["exact"]


@pytest.mark.parametrize("runner, command, experiment", [
    (run_scaling_study, "study", "toy_train"),
    (run_tightness_suite, "tightness", "approx_error"),
    (run_tightness_suite, "tightness", "limit_map"),
    (run_linear_flow_experiment, "linflow", "tightness_suite"),
    (run_linear_flow_experiment, "linflow", "approx_error"),
    (run_toy_training, "train", "limit_map"),
], ids=["study", "tightness", "tightness_on_limit_map", "linflow", "linflow_on_approx_error",
        "train"])
def test_runner_rejects_another_commands_experiment(tmp_path, monkeypatch, runner, command,
                                                   experiment):
    """Each runner, a public entry point, checks its experiment before any
    work; and no runner makes a directory or writes a file."""
    def no_work(*args):
        raise AssertionError("work started before the experiment was checked")
    monkeypatch.setattr(harness, "_child_rngs", no_work)
    monkeypatch.setattr(harness, "_tightness_case", no_work)
    out = tmp_path / "out"
    config = ExperimentConfig(experiment=experiment, depths=(2, 4), output_dir=str(out))
    with pytest.raises(ConfigError, match=f"does not belong to `{command}`"):
        runner(config)
    assert not out.exists()


SHARED_KEYS = {"experiment", *cli._FLAGS.values()}


@pytest.fixture(scope="module")
def measured_reads(tmp_path_factory):
    """[(command, config, fields read)] for each exit-0 entry of
    ``reach.CALLS``: the config its file parses to and every
    ExperimentConfig field its runner reads, by a spy on attribute
    reads; the runner builds the report lines the CLI prints, so their
    reads are among them.  The reads of ``_check_command``, which
    compares every field, are not counted."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    measured = []
    counting = []  # whether the innermost runner or check counts its reads
    read = ExperimentConfig.__getattribute__

    def spy(self, name):
        if counting and counting[-1] and name in fields:
            measured[-1][2].add(name)
        return read(self, name)

    def within(counts, function):
        def wrapped(*args):
            counting.append(counts)
            try:
                return function(*args)
            finally:
                counting.pop()
        return wrapped

    out = tmp_path_factory.mktemp("reads")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExperimentConfig, "__getattribute__", spy)
        mp.setattr(harness, "_check_command", within(False, harness._check_command))
        for command, (run, help_text) in cli._RUNNERS.items():
            mp.setitem(cli._RUNNERS, command, (within(True, run), help_text))
        for i, call in enumerate(reach.CALLS):
            command, text, code = call
            if code == 0:
                measured.append((command, parse_config(text), set()))
                (out / str(i)).mkdir()
                reach.run_calls(main, out / str(i), calls=[call])
    return measured


def accepted_keys(config):
    """The fields ``_check_keys`` lets a file or caller set for ``config``."""
    accepted = set()
    for f in dataclasses.fields(ExperimentConfig):
        with contextlib.suppress(ConfigError):
            harness._check_keys(config, [f.name])
            accepted.add(f.name)
    return accepted


@pytest.mark.parametrize("command", list(harness.COMMANDS))
def test_command_keys_are_the_keys_it_reads(measured_reads, command):
    """For each exit-0 call of reach.CALLS, the keys its runner reads,
    beyond the shared ones, are exactly the keys _check_keys accepts
    for its config: its command's row, its family's and its profile's."""
    runs = [(config, reads) for name, config, reads in measured_reads if name == command]
    assert runs
    mismatched = []
    for config, reads in runs:
        accepted = accepted_keys(config) - SHARED_KEYS
        if reads - SHARED_KEYS != accepted:
            mismatched.append((config.experiment, config.family, config.schedule_profile,
                               sorted((reads - SHARED_KEYS) ^ accepted)))
    assert mismatched == []


@pytest.mark.parametrize("command", [*harness.COMMANDS, "every command"])
def test_readme_key_lists_match_the_table(command):
    """README's key paragraph lists each command's row, then the keys its
    family and profile add with the families or profiles that read each,
    and the shared keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    if command == "every command":
        shared = re.search(r"^Every command takes (.*?)\sBeyond those", readme, re.M | re.S)[1]
        assert set(re.findall(r"`--(\w+)`", shared)) == set(cli._FLAGS)
        assert set(re.findall(r"`(\w+)`", shared)) == SHARED_KEYS
        return
    line = re.search(rf"^- `{command}`: (.*)$", readme, re.M)[1]
    row, _, added = line.partition("; then ")
    keys = harness.COMMANDS[command][3]
    assert set(re.findall(r"`(\w+)`", row)) == set(keys)
    readers = {}  # each added key -> the families or profiles that read it
    if "family" in keys:
        for family, (_, family_keys) in harness.FAMILIES.items():
            for key in family_keys:
                readers.setdefault(key, set()).add(family)
    if "schedule_profile" in keys:
        for profile, profile_keys in harness.PROFILES.items():
            for key in profile_keys:
                readers.setdefault(key, set()).add(profile)
    listed = {}
    for key, names in re.findall(r"`(\w+)` \(([^)]*)\)", added):
        every = re.fullmatch(r"every profile but (.*)", names)
        listed[key] = (set(harness.PROFILES) - set(re.findall(r"`(\w+)`", every[1]))
                       if every else set(names.split(", ")))
    assert listed == readers


@pytest.mark.parametrize("command, text, unread", [
    ("train", "experiment = toy_train\nfamily = linear\nstate_dim = 7\nt_end = 3\n"
              "depths = 4\niterations = 5\n", "['family', 'state_dim', 't_end']"),
    ("train", "experiment = toy_train\nstate_dim = 4\n", "['state_dim']"),
    ("tightness", "experiment = tightness_suite\nfamily = mlp\n", "['family']"),
    ("tightness", "experiment = tightness_suite\nprofile_scale = 0.25\n", "['profile_scale']"),
    ("linflow", "experiment = limit_map\niterations = 3\ntarget = neg_square_half\n",
     "['iterations', 'target']"),
    ("study", "experiment = approx_error\nt_end = 3\nseed = 2\n", "['t_end']"),
    ("study", "experiment = approx_error\nfamily = square\nstate_dim = 7\nlearning_rate = 9\n"
              "depths = 4, 8\n", "['learning_rate', 'state_dim']"),
    ("study", "experiment = approx_error\nfamily = identity\nschedule_profile = index\n"
              "profile_scale = 77\n", "['profile_scale']"),
], ids=["train_unread_keys", "train_default_state_dim", "tightness_family",
        "tightness_profile_scale", "linflow_two_keys", "study_t_end", "study_square_dims",
        "study_index_profile_scale"])
def test_unread_key_exits_2_naming_each(tmp_path, capsys, command, text, unread):
    """A config file that names a key its command does not read, even at
    its default, exits 2 naming every such key, and leaves no directory."""
    out = tmp_path / "out" / "run"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: keys {unread} are not read by {command}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("runner, settings, message", [
    (run_toy_training, dict(experiment="toy_train", family="linear"), "keys ['family']"),
    (run_toy_training, dict(experiment="toy_train", t_end=3.0), "keys ['t_end']"),
    (run_tightness_suite, dict(experiment="tightness_suite", profile_scale=9.0),
     "keys ['profile_scale']"),
    (run_linear_flow_experiment, dict(experiment="limit_map", gradient_mode="adjoint_heun"),
     "keys ['gradient_mode']"),
    (run_scaling_study, dict(experiment="heun_adjoint", iterations=5), "keys ['iterations']"),
    (run_scaling_study, dict(experiment="approx_error", family="square", state_dim=7),
     "keys ['state_dim']"),
    (run_scaling_study, dict(experiment="approx_error", family="identity",
                             schedule_profile="index", profile_scale=77.0),
     "keys ['profile_scale']"),
    (run_toy_training, dict(experiment="toy_train", schedule_profile="index"), INDEX_ERROR),
    (run_scaling_study, dict(experiment="approx_error", schedule_profile="index"), INDEX_ERROR),
    (run_scaling_study, dict(experiment="heun_adjoint", family="linear", state_dim=2,
                             schedule_profile="index"), INDEX_ERROR),
], ids=["train_family", "train_t_end", "tightness_profile_scale", "linflow_gradient_mode",
        "study_iterations", "study_square_state_dim", "study_index_profile_scale",
        "train_index", "study_mlp_index", "study_linear_2_index"])
def test_runner_rejects_a_key_it_does_not_read(monkeypatch, runner, settings, message):
    """An API caller's config that sets an unread key off its resolved
    default, or an index profile on any but a one-parameter study family,
    fails in the runner, before any work."""
    def no_work(*args):
        raise AssertionError("work started before the keys were checked")
    monkeypatch.setattr(harness, "_child_rngs", no_work)
    monkeypatch.setattr(harness, "_tightness_case", no_work)
    config = ExperimentConfig(**settings)
    with pytest.raises(ConfigError, match=re.escape(message)):
        runner(config)


@pytest.mark.parametrize("command, text, code", [
    ("train", "experiment = toy_train\nschedule_profile = index\ndepths = 4\n", 2),
    ("study", "experiment = approx_error\nfamily = linear\nstate_dim = 2\n"
              "schedule_profile = index\n", 2),
    ("study", "experiment = approx_error\nfamily = linear\nstate_dim = 1\n"
              "schedule_profile = index\ndepths = 4, 8\n", 0),
], ids=["train_index", "study_linear_2", "study_linear_1"])
def test_index_profile_is_decided_before_any_directory(tmp_path, capsys, monkeypatch,
                                                        command, text, code):
    """An index profile that no run can use exits 2 from the config gate:
    main makes no directory and starts no runner.  On a one-parameter
    family it runs."""
    made, started = [], []
    makedirs = os.makedirs
    monkeypatch.setattr(cli.os, "makedirs", lambda *a, **k: made.append(a[0]) or makedirs(*a, **k))
    run, help_text = cli._RUNNERS[command]
    monkeypatch.setitem(cli._RUNNERS, command,
                        (lambda c: started.append(c) or run(c), help_text))
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"config error: {INDEX_ERROR}\n"
        assert made == started == [] and not out.exists()
    else:
        assert (err, len(made), len(started)) == ("", 1, 1)
        assert (out / "study.csv").exists()


def test_replaced_shared_keys_pass_the_key_check(tmp_path):
    """A resolved config that dataclasses.replace gives another seed,
    output_dir and depths, as the CLI's flags do, still runs."""
    config = dataclasses.replace(
        parse_config("experiment = tightness_suite\n"),
        seed=5, output_dir=str(tmp_path), depths=(2, 4))
    assert [r.depth for r in run_tightness_suite(config).records] == [2, 4] * 3


class TestCli:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = toy_train\nwat = 3\n")
        assert main(["train", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    # Each removed key's line -> a command that read the key while it was one.
    REMOVED_KEYS = {"input_low = 0": "train", "input_high = 1": "train",
                    "loss_fraction = 0.125": "train", "sigma_dim = 4": "train",
                    "hidden_dim = 8": "study", "input_count = 64": "train",
                    "snapshot_count = 11": "linflow"}

    @pytest.mark.parametrize("line", REMOVED_KEYS)
    def test_removed_key_exits_2(self, tmp_path, capsys, line):
        """The inputs always span [0, 1], the flow's loss fraction is fixed,
        state_dim is the flow's d, and the mlp's width, train's input count
        and a flow's snapshot count are harness constants: none of these is
        a key any more, not even at its old default."""
        command = self.REMOVED_KEYS[line]
        path = write_cfg(tmp_path, f"experiment = {harness.COMMANDS[command][0][0]}\n{line}\n")
        assert main([command, "--config", path]) == 2
        assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err

    def test_command_experiment_mismatch_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = toy_train\n")
        assert main(["study", "--config", path]) == 2
        assert "does not belong" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["study", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        """A config that is not UTF-8 is a config error, not a traceback."""
        path = tmp_path / "run.cfg"
        path.write_bytes(bytes(range(256)))
        assert main(["study", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_depths_override_exits_2(self, capsys):
        assert main(["tightness", "--depths", "4,x"]) == 2
        assert "--depths" in capsys.readouterr().err

    def test_bad_seed_override_exits_2(self, tmp_path, capsys):
        """--seed parses as a config file's `seed` line does: a bad value is
        a config error naming the flag, not argparse's usage error."""
        path = write_cfg(tmp_path, "experiment = approx_error\ndepths = 8, 16\n")
        assert main(["study", "--config", path, "--seed", "x",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: bad --seed value: ")
        assert not (tmp_path / "out").exists()

    def test_override_flags_parse_like_file_keys(self, tmp_path):
        """Each flag's value reaches the config as its key's file line would."""
        path = write_cfg(tmp_path, "experiment = tightness_suite\n")
        flags = {"seed": " 7", "out": str(tmp_path / "out"), "depths": "2, 3"}
        args = cli._build_parser().parse_args(
            ["tightness", "--config", path] + [a for f, v in flags.items() for a in (f"--{f}", v)])
        lines = "".join(f"{cli._FLAGS[f]} = {v}\n" for f, v in flags.items())
        assert cli._load(args) == parse_config("experiment = tightness_suite\n" + lines)

    @pytest.mark.parametrize("command,experiment,setting", [
        ("study", "approx_error", "profile_scale = nan"),
        ("train", "toy_train", "learning_rate = nan"),
        ("linflow", "limit_map", "t_end = nan"),
        ("train", "toy_train", "input_high = inf"),
        ("linflow", "limit_map", "dt = 0.5"),  # not a key: flows step at MAX_STEP_SIZE
        ("study", "approx_error", "seed = -1"),
        ("linflow", "limit_map", "t_end = 0"),
        # t_end / MAX_STEP_SIZE overflows to inf: no count of steps reaches it
        ("linflow", "limit_map", "t_end = 1e308"),
        # np.linspace(0, t_end, SNAPSHOT_COUNT) collapses to fewer distinct times
        ("linflow", "limit_map", "t_end = 5e-324"),
    ], ids=["profile_scale", "learning_rate", "t_end", "input_high", "dt", "seed",
            "t_end_zero", "t_end_step_count", "t_end_snapshot_times"])
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
        text = "experiment = limit_map\ndepths = 4, 6, 9\nt_end = 1\nstate_dim = 2\n"
        path = write_cfg(tmp_path, text)
        assert main(["linflow", "--config", path, "--out", str(tmp_path / "out")]) == 0
        traces = run_linear_flow_experiment(load_config(path)).traces
        s = (np.arange(3600) + 0.5) / 3600

        def profile(thetas):
            return thetas[(len(thetas) * s).astype(int)]
        rows = (tmp_path / "out" / "limitmap.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == SNAPSHOT_COUNT * 2
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
                                   "state_dim = 2\n")
        rc = main(["study", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "slope" in capsys.readouterr().out
        assert (tmp_path / "out" / "study.csv").exists()
        assert (tmp_path / "out" / "slopes.csv").exists()

    def test_study_prints_oracle_estimate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = approx_error\n"
                                   "depths = 8, 16\n"
                                   "state_dim = 2\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("oracle error")]
        assert len(lines) == 1
        assert re.search(r"estimate <= \S+, worst estimate/gap \S+$", lines[0])

    @pytest.mark.parametrize("family", ["square", "identity"])
    def test_exact_chain_prints_ratio_zero(self, family, tmp_path, capsys):
        """A state-independent family on a constant profile runs an exact
        chain: every gap and every oracle estimate is 0, and 0/0 reads 0."""
        path = write_cfg(tmp_path, f"experiment = approx_error\nfamily = {family}\n"
                                   "schedule_profile = constant\ndepths = 4, 8\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("oracle error")]
        assert lines == ["oracle error: Richardson estimate <= 0, worst estimate/gap 0"]

    def test_positive_estimate_over_zero_gap_prints_inf(self, tmp_path, capsys, monkeypatch):
        """A zero gap at N = 4 under a positive oracle estimate reads inf."""
        gaps = {4: 0.0, 8: 1e-9}
        monkeypatch.setitem(harness._STUDIES, "approx_error", (harness._each_depth(
            lambda family, schedule, x0, target: ([(gaps[schedule.depth], 1.0)], 1e-12)),
            ("approx_max_error",)))
        path = write_cfg(tmp_path, "experiment = approx_error\ndepths = 4, 8\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("worst estimate/gap inf")

    def test_adjoint_study_prints_no_oracle_line(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = euler_adjoint\n"
                                   "depths = 8, 16\n"
                                   "state_dim = 2\n")
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
                                   "state_dim = 2\n")
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
        monkeypatch.setitem(harness._STUDIES, "approx_error", (harness._each_depth(
            lambda family, schedule, x0, target: ([(values[schedule.depth], 1.0)], None)),
            ("approx_max_error",)))
        path = write_cfg(tmp_path, "experiment = approx_error\ndepths = 8, 16, 32, 64\n")
        assert main(["study", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert re.search(r"^approx_max_error: slope \S+ \(r2 \S+, low_confidence\)$",
                         capsys.readouterr().out, re.M)
        lines = (tmp_path / "out" / "slopes.csv").read_text().strip().splitlines()
        metric, _, _, r2, flag = lines[1].split(",")
        assert (metric, flag) == ("approx_max_error", "low_confidence")
        assert float(r2) < harness.SLOPE_R2_MIN

    @pytest.mark.parametrize("mode", ["exact", "adjoint_heun"])
    def test_train_report_reads_the_last_loss_row(self, tmp_path, capsys, mode):
        """Each depth's printed final loss is the last row of its losses
        table, to the report's six significant digits."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, "experiment = toy_train\ndepths = 4, 8\niterations = 5\n"
                                   f"gradient_mode = {mode}\n")
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for depth in (4, 8):
            table = out / f"losses_N{depth}.csv"
            last = float(table.read_text().strip().splitlines()[-1].split(",")[1])
            expected = f"N={depth} ({mode}): final loss {last:.6g} -> {table}"
            assert lines.count(expected) == 1, lines

    def test_training_divergence_exits_3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = toy_train\ndepths = 4\n"
                                   "learning_rate = 1e6\niterations = 10\n")
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
                                    "learning_rate = 1e6\niterations = 10\n", 3,
                           "diverged at layer"),
        # The update itself overflows: params turn infinite, not the chain.
        **{f"train_overflow_{mode}": ("train", "experiment = toy_train\ndepths = 4\n"
                                               f"gradient_mode = {mode}\n"
                                               "learning_rate = 1e308\niterations = 3\n", 3,
                                      "training update diverged at layer 0")
           for mode in ("exact", "adjoint_euler", "adjoint_heun")},
        # The deepest initial product overflows, so no finite target exists.
        "flow_overflow": ("linflow", "experiment = limit_map\nprofile_scale = 1e5\n"
                                     "t_end = 0.1\n", 4,
                          "depth 256 init outside the small-loss regime "
                          "(loss_margin=-inf, norm_margin="),
    }

    @pytest.mark.parametrize("case", sorted(FAILED_RUNS))
    def test_failed_run_removes_the_directory_it_made(self, tmp_path, capsys, case):
        command, text, code, message = self.FAILED_RUNS[case]
        out = tmp_path / "out"
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_raising_run_removes_the_directory_it_made(self, tmp_path, monkeypatch):
        """An exception no exit code maps still leaves no directory behind,
        and reaches the caller."""
        def crash(config):
            assert Path(config.output_dir).is_dir()
            raise ValueError("crash")
        monkeypatch.setitem(cli._RUNNERS, "study", (crash, "crashes"))
        path = write_cfg(tmp_path, "experiment = approx_error\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="crash"):
            main(["study", "--config", path, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command,text,name", [
        ("linflow", "experiment = limit_map\ndepths = 8, 16, 32\nt_end = 0.1\n",
         "integrate_flow"),
        ("train", "experiment = toy_train\ndepths = 4, 8\niterations = 2\n",
         "forward_euler_chain"),
    ], ids=["linflow", "train"])
    def test_failed_run_writes_no_file(self, tmp_path, capsys, monkeypatch, command, text,
                                       name):
        """Divergence at the second depth, after the first depth finished,
        leaves no CSV of the first behind and no directory the run made."""
        real = getattr(harness, name)
        depths = []

        def diverging(*args):
            # integrate_flow's state and a chain's schedule both carry the depth
            depths.append(args[0].schedule.depth if name == "integrate_flow" else args[1].depth)
            if depths[-1] == depths[0]:
                return real(*args)
            raise DivergenceError(f"planted divergence at depth {depths[-1]}", 0)
        monkeypatch.setattr(harness, name, diverging)
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 3
        assert "planted divergence" in capsys.readouterr().err
        assert len(set(depths)) == 2
        assert not out.exists()
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("command", ["study", "tightness", "linflow", "train"])
    def test_main_writes_exactly_the_returned_tables(self, tmp_path, capsys, monkeypatch,
                                                     command):
        """On every call of ``reach.CALLS`` that succeeds, the files in
        --out are the tables the runner returned, each once and byte for
        byte, and stdout is the report lines it returned: no other code
        path writes output."""
        run, help_text = cli._RUNNERS[command]
        returned, reports = [], []

        def recording(config):
            result = run(config)
            result.tables = [(name, "".join(lines)) for name, lines in result.tables]
            returned.append(dict(result.tables))
            assert len(returned[-1]) == len(result.tables)
            reports.append("".join(f"{line}\n" for line in result.report))
            return result
        monkeypatch.setitem(cli._RUNNERS, command, (recording, help_text))
        calls = [call for call in reach.CALLS if call[0] == command and call[2] == 0]
        reach.run_calls(main, tmp_path, calls)
        assert len(returned) == len(reports) == len(calls)
        assert capsys.readouterr().out == "".join(reports)
        for i, texts in enumerate(returned):
            assert {p.name: p.read_bytes() for p in (tmp_path / str(i)).iterdir()} == {
                name: body.encode() for name, body in texts.items()}

    @pytest.mark.parametrize("sub", ["", "sub", "a/b/c"],
                             ids=["existing", "nested", "three_levels"])
    def test_failed_run_keeps_directories_it_did_not_make(self, tmp_path, sub):
        """An existing empty --out survives; of a nested one, the run
        removes every directory it made and no other."""
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
        path = write_cfg(tmp_path, "experiment = limit_map\nstate_dim = 2\n"
                                   "depths = 8, 16, 32\nt_end = 1\n")
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

    def test_linflow_writes_nothing_on_stderr(self, tmp_path, capsys):
        """A flow run reports through stdout and its files alone: no numpy
        floating-point warning, which the filter turns into an error, and
        not one byte on stderr."""
        path = write_cfg(tmp_path, "experiment = limit_map\ndepths = 4, 8, 16\nt_end = 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["linflow", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_regime_violation_exits_4(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "experiment = limit_map\nstate_dim = 2\n"
                                   "depths = 8, 16, 32\nprofile_scale = 0.3\n"
                                   "t_end = 1\n")
        rc = main(["linflow", "--config", path, "--out", str(tmp_path)])
        assert rc == 4
        assert "small-loss regime" in capsys.readouterr().err
