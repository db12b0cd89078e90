"""Experiment runner behind the command-line interface.

Four entry points: depth-scaling studies of the reconstruction and
gradient errors, the three analytic tightness cases, the linear-flow
diagnostics, and desk-scale training of a toy chain with exact or
memory-free gradients.  Every run is driven by an ExperimentConfig and
a single integer seed.  A runner opens no file: it returns its CSV
tables as (file name, lines), every number formatted with %.17g so that
identical configurations reproduce byte-identical artifacts, and beside
them the report lines the command prints.  The CLI writes the tables
once the run has succeeded, then prints the report.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adjoint import (
    adjoint_sweep_euler,
    adjoint_sweep_heun,
    backprop_adjoint_euler,
    backprop_adjoint_heun,
    backprop_exact,
    backprop_exact_heun,
    compare_gradients,
)
from .dynamics import (
    EULER,
    HEUN,
    DivergenceError,
    _forward,
    approximation_error,
    forward_euler_chain,
    forward_heun_chain,
    interpolate,
    solve_ode_oracle,
    stack_fields,
)
from .linear_flow import (
    MAX_STEP_SIZE,
    check_small_loss_regime,
    depth_double_compare,
    extract_limit_map,
    integrate_flow,
    monitor_invariants,
    product_vs_ode,
    small_loss_target,
    state_from_profile,
)
from .numerics import above_noise_floor, fit_loglog_slope, require_finite, spectral_norm
from .residual_models import (
    WeightSchedule,
    make_identity_family,
    make_linear_family,
    make_mlp_family,
    make_square_family,
)

__all__ = [
    "ConfigError",
    "AllDepthsDiverged",
    "RegimeAbort",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "StudyRecord",
    "StudyResult",
    "run_scaling_study",
    "TightnessRecord",
    "TightnessResult",
    "run_tightness_suite",
    "LinearFlowResult",
    "run_linear_flow_experiment",
    "ToyTrainResult",
    "run_toy_training",
]

# The experiments each CLI command runs, their default depths and profile_scale, and the
# keys every run reads besides `experiment`, _FLAGS' keys and its family's and profile's.
COMMANDS = {
    "study": (("approx_error", "euler_adjoint", "heun_adjoint"),
              (16, 32, 64, 128, 256, 512, 1024), 0.25, ("family", "schedule_profile")),
    "tightness": (("tightness_suite",), (10, 100, 1000), 0.25, ()),
    "linflow": (("limit_map",), (16, 32, 64, 128, 256), 0.1,
                ("state_dim", "profile_scale", "t_end")),
    "train": (("toy_train",), (64, 300), 0.25,
              ("schedule_profile", "target", "learning_rate", "iterations", "gradient_mode")),
}
# Not config keys: the mlp's hidden width, train's input count and a flow's snapshot count.
MLP_WIDTH, TRAIN_INPUTS, SNAPSHOT_COUNT = 8, 64, 11
# Each flag of every command -> the config key whose file line its value parses as.
_FLAGS = {"seed": "seed", "out": "output_dir", "depths": "depths"}
COMMAND_OF = {experiment: command for command, (experiments, *_) in COMMANDS.items()
              for experiment in experiments}
# Each schedule profile -> the config keys it reads.
PROFILES = {"constant": ("profile_scale",), "lipschitz_profile": ("profile_scale",),
            "alternating": ("profile_scale",), "index": ()}
# Each study family -> its constructor and the config keys it takes, in order.
FAMILIES = {"mlp": (functools.partial(make_mlp_family, hidden=MLP_WIDTH), ("state_dim",)),
            "linear": (make_linear_family, ("state_dim",)),
            "square": (make_square_family, ()),
            "identity": (make_identity_family, ())}
TARGETS = {"square_half": lambda x: 0.5 * x * x, "neg_square_half": lambda x: -0.5 * x * x}
# Gradient mode -> (scheme, whether the forward pass stores the trajectory).
GRADIENT_MODES = {"exact": (EULER, True), "adjoint_euler": (EULER, False),
                  "adjoint_heun": (HEUN, False)}
# ExperimentConfig's rules beyond each field's kind: the table naming each
# choice field's values, the positive fields and each integer's lower bound.
_CHOICES = {"experiment": COMMAND_OF, "family": FAMILIES, "schedule_profile": PROFILES,
            "target": TARGETS, "gradient_mode": GRADIENT_MODES}
_POSITIVE = ("profile_scale", "t_end", "learning_rate")
_AT_LEAST = {"state_dim": 1, "seed": 0, "iterations": 1}


class ConfigError(ValueError):
    """Malformed configuration file or option."""


class AllDepthsDiverged(RuntimeError):
    """Every depth in a study failed; there is nothing to fit."""


class RegimeAbort(RuntimeError):
    """Initial state violates the small-loss entry condition."""

    def __init__(self, depth: int, report):
        super().__init__(
            f"depth {depth} init outside the small-loss regime "
            f"(loss_margin={report.loss_margin:.6g}, "
            f"norm_margin={report.norm_margin:.6g})")
        self.depth = depth
        self.report = report


def _integral(name: str, value):
    """Python and numpy integers pass; 2.7 would be truncated, 2.0 fail in
    numpy, and True would silently read as 1."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """A non-bool real within the float range, stored as a Python float:
    NaN, inf of any numpy width and ints past the float range all fail."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= np.finfo(float).max):
            return float(value)
    except OverflowError:  # an int past the float range meets a numpy float
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


# Frozen, so a changed field goes through dataclasses.replace and every rule again.
@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    depths: Optional[tuple] = None
    family: str = "mlp"
    state_dim: int = 4
    schedule_profile: str = "lipschitz_profile"
    profile_scale: Optional[float] = None
    seed: int = 0
    output_dir: str = "."
    # linear-flow knobs; state_dim is the flow's matrix dimension d
    t_end: float = 20.0
    # toy-training knobs; the inputs span [0, 1]
    target: str = "square_half"
    learning_rate: float = 0.05
    iterations: int = 600
    gradient_mode: str = "exact"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            strings = (str, os.PathLike) if f.name == "output_dir" else str
            if f.type == "str" and not isinstance(value, strings):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
            if f.type == "float" or (f.type == "Optional[float]" and value is not None):
                object.__setattr__(self, f.name, _real(f.name, value))
            if f.type == "int":
                object.__setattr__(self, f.name, _integral(f.name, value))
        for name, table in _CHOICES.items():
            if getattr(self, name) not in table:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        _, depths, scale, _ = COMMANDS[COMMAND_OF[self.experiment]]
        depths = depths if self.depths is None else self.depths
        if not np.iterable(depths):
            raise ConfigError(f"depths must be a sequence of integers, got {depths!r}")
        object.__setattr__(self, "depths", tuple(_integral("depths", n) for n in depths))
        if self.profile_scale is None:
            object.__setattr__(self, "profile_scale", scale)
        if not self.depths or any(n < 1 for n in self.depths):
            raise ConfigError("depths must be positive")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ConfigError("depths must be strictly increasing")
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name, low in _AT_LEAST.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not math.isfinite(self.t_end / MAX_STEP_SIZE):
            raise ConfigError(f"t_end must take a finite count of {MAX_STEP_SIZE:g} steps")
        if not np.all(np.diff(np.linspace(0.0, self.t_end, SNAPSHOT_COUNT)) > 0):
            raise ConfigError(f"t_end must give {SNAPSHOT_COUNT} distinct snapshot times")


# Value parser of each config key, from its field's annotation.
_PARSERS = {"int": int, "float": float, "Optional[float]": float, "str": str,
            "Optional[tuple]": lambda v: tuple(int(p) for p in v.split(","))}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in dataclasses.fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat `key = value` lines; unknown keys are hard errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if "experiment" not in values:
        raise ConfigError("config must set `experiment`")
    config = ExperimentConfig(**values)
    _check_keys(config, values)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _child_rngs(seed: int, count: int):
    seqs = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(s) for s in seqs]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _table(name: str, header, rows) -> tuple:
    """(file name, lines) in csv.writer's format, for cells with no comma, quote or newline."""
    return name, [",".join(map(str, row)) + "\r\n" for row in (header, *rows)]


def _check_keys(config: ExperimentConfig, keys) -> None:
    """Reject, naming them all, the keys that a run of `config` does not read,
    then an index profile on any but a one-parameter study family."""
    command = COMMAND_OF[config.experiment]
    read = {"experiment", *_FLAGS.values(), *COMMANDS[command][3]}
    make, args = FAMILIES[config.family]
    read.update(args if "family" in read else (),
                PROFILES[config.schedule_profile] if "schedule_profile" in read else ())
    unread = sorted(set(keys) - read)
    if unread:
        raise ConfigError(f"keys {unread} are not read by {command}")
    if "schedule_profile" in read and config.schedule_profile == "index" and (
            "family" not in read or make(*(getattr(config, k) for k in args)).param_dim != 1):
        raise ConfigError("index profile needs a one-parameter family")


def _check_command(config: ExperimentConfig, command: str) -> None:
    """Reject, before any work, an experiment that another command runs
    and a key the command does not read set off its resolved default."""
    allowed = COMMANDS[command][0]
    if config.experiment not in allowed:
        raise ConfigError(f"experiment {config.experiment!r} does not belong to "
                          f"`{command}` (expected one of {', '.join(allowed)})")
    default = ExperimentConfig(experiment=config.experiment)
    _check_keys(config, [f.name for f in dataclasses.fields(config)
                         if getattr(config, f.name) != getattr(default, f.name)])


# ---------------------------------------------------------------------------
# schedule profiles

def _poly_eval(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.zeros((s.size, coeffs.shape[1]))
    for c in coeffs[::-1]:
        out *= s[:, None]
        out += c
    return out


def _make_profile(config: ExperimentConfig, param_dim: int,
                  rng) -> Callable[[int], np.ndarray]:
    """The profile's rows(depth), its randomness drawn once for every depth."""
    kind = config.schedule_profile
    if kind == "index":
        return lambda depth: np.arange(depth, dtype=float).reshape(depth, 1)

    def draw():
        row = rng.standard_normal(param_dim)
        return row * (config.profile_scale / np.max(np.abs(row)))
    if kind == "constant":
        base = draw()
        return lambda depth: np.tile(base, (depth, 1))
    if kind == "alternating":
        # Two independent draws so consecutive layers stay Theta(1)
        # apart for every family; sign flips alone can be family
        # symmetries (a tanh net is even under joint negation).
        even, odd = draw(), draw()
        return lambda depth: np.where((np.arange(depth) % 2 == 0)[:, None], even, odd)
    coeffs = rng.standard_normal((4, param_dim))
    # Rescale the whole cubic so its sup-norm over [0, 1] hits `profile_scale`;
    # left sampling g(n/N) then keeps consecutive rows O(1/N) apart.
    probe = _poly_eval(coeffs, np.linspace(0.0, 1.0, 513))
    coeffs *= config.profile_scale / np.max(np.abs(probe))
    return lambda depth: _poly_eval(coeffs, np.arange(depth) / depth)


# ---------------------------------------------------------------------------
# scaling studies

@dataclass
class StudyRecord:
    depth: int
    metric: str
    value: float
    flag: str = ""


@dataclass
class StudyResult:
    records: list
    fits: dict          # metric -> SlopeFit for metrics with >= 2 clean points
    fit_flags: dict     # metric -> "ok" | "low_confidence" | "insufficient"
    oracle_errors: dict  # depth -> Richardson estimate of the ODE oracle's error
    tables: list        # (file name, lines): study.csv and slopes.csv
    report: list        # the lines the command prints


def _scheme_functions(scheme):
    """The scheme's stored chain, exact backprop, memory-free sweep and
    memory-free backprop, looked up per call: the benchmark tracer rebinds them."""
    if scheme is HEUN:
        return forward_heun_chain, backprop_exact_heun, adjoint_sweep_heun, backprop_adjoint_heun
    return forward_euler_chain, backprop_exact, adjoint_sweep_euler, backprop_adjoint_euler


def _adjoint_depth_metrics(scheme, family, schedule, x0, target):
    """Reconstruction and gradient errors of one memory-free sweep pass, as running
    maxima over its blocks: only the exact rows and the nodes grow with the depth."""
    forward, exact_backprop, adjoint_sweep, _ = _scheme_functions(scheme)
    traj = forward(family, schedule, x0)
    out = traj.nodes[-1]
    out_grad = out - target
    exact = exact_backprop(family, schedule, traj, out_grad)
    recon_error = max_abs = max_rel = grad_scale = 0.0  # x~_N is x_N
    for lo, own, _, xs in adjoint_sweep(family, schedule, out, out_grad):
        block = exact[lo:lo + len(own)]
        comp = compare_gradients(block, require_finite(own, "param_grads"))
        max_abs, max_rel = max(max_abs, comp.max_abs), max(max_rel, comp.max_rel)
        grad_scale = max(grad_scale, float(np.max(np.linalg.norm(block, axis=1))))
        gaps = np.linalg.norm(xs - traj.nodes[lo:lo + len(xs)], axis=1)
        recon_error = max(recon_error, float(np.max(gaps)))
    state_scale = float(np.max(np.linalg.norm(traj.nodes, axis=1)))
    return [(recon_error, state_scale), (max_abs, grad_scale), (max_rel, 1.0)], None


# RK4 steps per layer of the reference solution.  It is checked by step
# doubling against half as many: the largest node gap between the two
# solves is about 15 times the finer one's error while RK4 is in its
# h^4 regime (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
ORACLE_STEPS_PER_LAYER = 8
# A measured gap whose oracle estimate exceeds this share of it is
# flagged "oracle" and left out of the slope fit.
ORACLE_TOLERANCE = 1e-3
# A slope fit with a smaller r^2 is flagged "low_confidence".
SLOPE_R2_MIN = 0.9


def _oracle(fields, x0):
    """Each field's reference solution at 8N RK4 steps and its Richardson
    error estimate, as (flow, estimate) pairs, from one stack of every
    field's 4N and 8N solves.

    The estimate is the largest gap, over the chain nodes n/N, between
    the solves at 4N and at 8N steps.
    """
    if not fields:
        return []
    steps = (ORACLE_STEPS_PER_LAYER // 2, ORACLE_STEPS_PER_LAYER)
    rows = [(field, k) for field in fields for k in steps]
    nodes = solve_ode_oracle(stack_fields(*zip(*rows)),
                             np.broadcast_to(x0, (len(rows),) + x0.shape),
                             sum(k * field.depth for field, k in rows))
    return [(flow, float(np.max(np.linalg.norm(coarse - flow, axis=1))))
            for coarse, flow in zip(nodes[::2], nodes[1::2])]


def _chain_vs_flow(family, schedule, x0, kind, theta_end):
    """The Euler chain, its node gaps to the interpolating flow, and the oracle's error."""
    traj = forward_euler_chain(family, schedule, x0)
    [(flow, oracle_error)] = _oracle([interpolate(family, schedule, kind, theta_end)], x0)
    return traj, approximation_error(traj, flow)[0], oracle_error


def _unless_diverged(fn, *args):
    """fn(*args), or None when it raises a DivergenceError."""
    try:
        return fn(*args)
    except DivergenceError:
        return None


def _approx_metrics(family, schedules, x0, target):
    """Every depth's Euler chain, then one oracle stack of the depths
    whose chain did not diverge; a stack that diverges is solved again
    one depth at a time, so a depth is None exactly when its own chain or
    oracle diverges."""
    runs = [(schedule, _unless_diverged(forward_euler_chain, family, schedule, x0))
            for schedule in schedules]
    fields = [interpolate(family, schedule, "residual_interp")
              for schedule, traj in runs if traj is not None]
    oracles = _unless_diverged(_oracle, fields, x0)
    if oracles is None:
        oracles = [(_unless_diverged(_oracle, [field], x0) or [None])[0] for field in fields]
    oracles = iter(oracles)
    for _, traj in runs:
        oracle = None if traj is None else next(oracles)
        if oracle is None:
            yield None
            continue
        flow, oracle_error = oracle
        state_scale = float(np.max(np.linalg.norm(traj.nodes, axis=1)))
        yield [(float(np.max(approximation_error(traj, flow)[0])), state_scale)], oracle_error


def _each_depth(measure):
    """A study over its schedules from measure(family, schedule, x0,
    target), one depth at a time: None for a depth that diverged.  Each
    depth's schedule is released before the next one is built."""
    def measure_all(family, schedules, x0, target):
        for schedule in schedules:
            measured = _unless_diverged(measure, family, schedule, x0, target)
            del schedule
            yield measured
    return measure_all


_ADJOINT_METRICS = ("recon_max_error", "grad_max_abs_error", "grad_max_rel_error")
# Each study's measure(family, schedules, x0, target) yields, per schedule
# of the iterable, None for a depth that diverged or else its (value,
# scale) pairs in metric-name order and the oracle's error estimate, or
# None when the study runs no oracle.
_STUDIES = {
    "approx_error": (_approx_metrics, ("approx_max_error",)),
    "euler_adjoint": (_each_depth(functools.partial(_adjoint_depth_metrics, EULER)),
                      _ADJOINT_METRICS),
    "heun_adjoint": (_each_depth(functools.partial(_adjoint_depth_metrics, HEUN)),
                     _ADJOINT_METRICS),
}


def run_scaling_study(config: ExperimentConfig) -> StudyResult:
    """Sweep depths, record error metrics, fit log-log slopes; return the
    records, fits, the study.csv and slopes.csv tables and the report."""
    _check_command(config, "study")
    profile_rng, data_rng = _child_rngs(config.seed, 2)
    make, keys = FAMILIES[config.family]
    family = make(*(getattr(config, k) for k in keys))
    profile = _make_profile(config, family.param_dim, profile_rng)
    x0 = data_rng.standard_normal(family.state_dim) / math.sqrt(family.state_dim)
    target = data_rng.standard_normal(family.state_dim)
    measure, metric_names = _STUDIES[config.experiment]

    records, oracle_errors = [], {}
    clean = {name: [] for name in metric_names}
    schedules = (WeightSchedule(profile(depth)) for depth in config.depths)
    for depth, measured in zip(config.depths, measure(family, schedules, x0, target)):
        if measured is None:
            for name in metric_names:
                records.append(StudyRecord(depth, name, math.nan, "diverged"))
            continue
        metrics, oracle_error = measured
        if oracle_error is not None:
            oracle_errors[depth] = oracle_error
        for name, (value, scale) in zip(metric_names, metrics):
            if not above_noise_floor([value], scale)[0]:
                flag = "floor"
            elif oracle_error is not None and oracle_error > ORACLE_TOLERANCE * value:
                flag = "oracle"
            else:
                flag = ""
                clean[name].append((depth, value))
            records.append(StudyRecord(depth, name, value, flag))
    if all(r.flag == "diverged" for r in records):
        raise AllDepthsDiverged(f"all depths diverged in {config.experiment}")

    out = config.output_dir
    report = [f"wrote {os.path.join(out, 'study.csv')} and {os.path.join(out, 'slopes.csv')}"]
    fits, fit_flags, slope_rows = {}, {}, []
    for name in metric_names:
        if len(clean[name]) >= 2:
            fit = fits[name] = fit_loglog_slope(clean[name])
            flag = "ok" if fit.r_squared >= SLOPE_R2_MIN else "low_confidence"
            values = (fit.slope, fit.intercept, fit.r_squared)
            report.append(f"{name}: slope {fit.slope:+.4f} (r2 {fit.r_squared:.4f}, {flag})")
        else:
            flag, values = "insufficient", (math.nan,) * 3
            report.append(f"{name}: {flag}")
        fit_flags[name] = flag
        slope_rows.append([name, *map(_fmt, values), flag])
    if oracle_errors:
        gaps = {r.depth: r.value for r in records}
        # 0 over a zero gap (an exact chain) reads 0; a positive estimate, inf.
        ratio = max(err / gaps[n] if gaps[n] > 0 else math.inf if err > 0 else 0.0
                    for n, err in oracle_errors.items())
        report.append(f"oracle error: Richardson estimate <= {max(oracle_errors.values()):.3g}, "
                      f"worst estimate/gap {ratio:.3g}")

    return StudyResult(records, fits, fit_flags, oracle_errors, [
        _table("study.csv", ["N", "metric", "value"],
               [[r.depth, r.metric, _fmt(r.value)] for r in records]),
        _table("slopes.csv", ["metric", "slope", "intercept", "r2", "flag"], slope_rows)],
        report)


# ---------------------------------------------------------------------------
# tightness suite

@dataclass
class TightnessRecord:
    case: str
    depth: int
    measured: float
    analytic: float
    oracle_error: float  # Richardson estimate of the reference solution's error


@dataclass
class TightnessResult:
    records: list        # TightnessRecord per case and depth
    tables: list         # (file name, lines): tightness.csv
    report: list         # the lines the command prints


# Each case at depth N: (family, interpolation kind, the N layer weights,
# theta_N, the closed-form end gap), its constructors looked up per call.
TIGHTNESS_CASES = {
    "linear_drift": lambda n: (make_identity_family(), "residual_interp",
                               np.arange(n) / n, 1.0, 1.0 / (2.0 * n)),
    "index_residual": lambda n: (make_identity_family(), "residual_interp",
                                 np.arange(n, dtype=float), float(n), 0.5),
    "alternating_square": lambda n: (make_square_family(), "weight_interp",
                                     np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
                                     1.0 if n % 2 == 0 else -1.0, 2.0 / 3.0),
}


def _tightness_case(case: str, depth: int) -> TightnessRecord:
    family, kind, rows, end, analytic = TIGHTNESS_CASES[case](depth)
    _, gaps, oracle_error = _chain_vs_flow(family, WeightSchedule(rows.reshape(depth, 1)),
                                           np.zeros(1), kind, np.array([end]))
    return TightnessRecord(case, depth, float(gaps[-1]), analytic, oracle_error)


def run_tightness_suite(config: ExperimentConfig) -> TightnessResult:
    """Measured chain-vs-flow gaps against their closed-form values."""
    _check_command(config, "tightness")
    records = [_tightness_case(case, depth)
               for case in TIGHTNESS_CASES for depth in config.depths]
    return TightnessResult(records, [_table(
        "tightness.csv", ["case", "N", "measured", "analytic"],
        [[r.case, r.depth, _fmt(r.measured), _fmt(r.analytic)] for r in records])],
        [f"{r.case} N={r.depth}: measured {r.measured:.10g} vs analytic {r.analytic:.10g} "
         f"(oracle error {r.oracle_error:.3g})" for r in records])


# ---------------------------------------------------------------------------
# linear flow

@dataclass
class LinearFlowResult:
    traces: dict              # depth -> FlowTrace
    monitor_reports: dict     # depth -> MonitorReport
    doubling: dict            # depth N -> sup distance to the 2N run
    limit_report: object      # LimitMapReport or None
    product_gaps: dict        # depth -> product-vs-flow discrepancy
    tables: list              # (file name, lines) of every CSV
    report: list              # the lines the command prints


def _matrix_profile(config: ExperimentConfig, rng) -> Callable[[float], np.ndarray]:
    d = config.state_dim
    terms = rng.standard_normal((3, d, d))

    def profile(s: float) -> np.ndarray:
        return terms[0] + s * terms[1] + s * s * terms[2]

    grid = np.linspace(0.0, 1.0, 101)[:, None, None]
    terms *= config.profile_scale / spectral_norm(profile(grid))
    return profile


def run_linear_flow_experiment(config: ExperimentConfig) -> LinearFlowResult:
    """Integrate the rescaled flow at every depth, at MAX_STEP_SIZE, and run the diagnostics.

    One target and one initialization profile are shared across depths
    so that depth-doubling and limit-profile comparisons are
    meaningful; the inputs are whitened, so the loss is ||Pi - B||_F^2.
    The target is built from the deepest run's initial product, keeping
    every depth inside the small-loss regime; a violation aborts before
    any integration starts.
    """
    _check_command(config, "linflow")
    profile_rng, target_rng = _child_rngs(config.seed, 2)
    profile = _matrix_profile(config, profile_rng)
    states0 = {n: state_from_profile(profile, n) for n in config.depths}
    ref_depth = config.depths[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        b_target = small_loss_target(states0[ref_depth],
                                     seed=int(target_rng.integers(2 ** 31)))
        if not np.isfinite(b_target).all():
            # The deepest initial product overflowed: its loss is infinite
            # against any target, so the zero target reports it as well.
            raise RegimeAbort(ref_depth, check_small_loss_regime(
                states0[ref_depth], np.zeros_like(b_target)))

    for depth in config.depths:
        regime = check_small_loss_regime(states0[depth], b_target)
        if not regime.passes:
            raise RegimeAbort(depth, regime)

    snapshots = np.linspace(0.0, config.t_end, SNAPSHOT_COUNT)
    traces, monitor_reports, product_gaps, tables, report = {}, {}, {}, [], []
    for depth in config.depths:
        trace = integrate_flow(states0[depth], b_target, config.t_end, MAX_STEP_SIZE,
                               snapshots)
        traces[depth] = trace
        mon = monitor_reports[depth] = monitor_invariants(trace)
        status = "ok" if (mon.theta_bound_ok and mon.decay_ok) else "VIOLATED"
        report.append(f"N={depth}: max theta norm {mon.max_theta_norm:.4f}, "
                      f"decay ratio {mon.max_decay_ratio:.4f} ({status})")
        tables.append(_table(f"trace_N{depth}.csv",
                             ["t", "loss", "max_theta_norm", "smoothness_stat"],
                             [[_fmt(r.t), _fmt(r.loss_value), _fmt(r.max_theta_norm),
                               _fmt(r.smoothness_stat)] for r in trace.samples]))
        product_gaps[depth] = product_vs_ode(trace.samples[-1].thetas)

    doubling = {n: depth_double_compare(traces[n], traces[2 * n])
                for n in config.depths if 2 * n in traces}
    if doubling:
        tables.append(_table("doubling.csv", ["N", "sup_distance"],
                             [[n, _fmt(dist)] for n, dist in doubling.items()]))
        report += [f"doubling sup-distance D_{n} = {dist:.6g}" for n, dist in doubling.items()]

    limit_report = None
    if len(config.depths) >= 3:
        limit_report = extract_limit_map([traces[n] for n in config.depths])
        tables.append(_table("limitmap.csv", ["t", "N", "l2_distance"],
                             [[_fmt(t), int(n), _fmt(limit_report.distances[ti, ni])]
                              for ti, t in enumerate(limit_report.times)
                              for ni, n in enumerate(limit_report.depths)]))

    tables.append(_table("productode.csv", ["N", "discrepancy"],
                         [[n, _fmt(product_gaps[n])] for n in config.depths]))
    scaled = [n * product_gaps[n] for n in config.depths]
    report.append(f"product-vs-flow N*gap {min(scaled):.4g} to {max(scaled):.4g} over all depths")
    if limit_report is not None and limit_report.sup_fit is not None:
        report.append(f"limit-profile sup slope {limit_report.sup_fit.slope:+.4f}")
    return LinearFlowResult(traces, monitor_reports, doubling, limit_report, product_gaps,
                            tables, report)


# ---------------------------------------------------------------------------
# toy training

@dataclass
class ToyTrainResult:
    losses: dict           # depth -> per-iteration mean squared error, length iters+1
    tables: list           # (file name, lines): each depth's losses and trajectories
    report: list           # the lines the command prints


def _trajectory_lines(nodes: np.ndarray):
    """The nodes' B·(N + 1) rows, one input's N + 1 lines per string, never held whole."""
    depth = nodes.shape[0] - 1
    template = "".join([f"%d,{node},{_fmt(node / depth)},%.17g\r\n"
                        for node in range(depth + 1)])
    cells = [0, 0.0] * (depth + 1)   # input index, x_0; one pair per line
    yield "input_index,node_index,s,x_0\r\n"
    for b in range(nodes.shape[2]):
        cells[::2] = [b] * (depth + 1)
        cells[1::2] = nodes[:, 0, b].tolist()
        yield template % tuple(cells)


def run_toy_training(config: ExperimentConfig) -> ToyTrainResult:
    """Full-batch gradient descent on a scalar chain, one run per depth.

    Updates use the depth-rescaled step theta <- theta - lr * N * grad,
    which keeps the effective output-space step size comparable across
    depths (the same rescaling the linear flow uses).
    """
    _check_command(config, "train")
    profile_rng, = _child_rngs(config.seed, 1)
    family = make_mlp_family(1, MLP_WIDTH)
    profile = _make_profile(config, family.param_dim, profile_rng)
    inputs = np.linspace(0.0, 1.0, TRAIN_INPUTS).reshape(1, -1)
    targets = TARGETS[config.target](inputs)
    scheme, stored = GRADIENT_MODES[config.gradient_mode]
    forward, exact_backprop, _, adjoint_backprop = _scheme_functions(scheme)

    all_losses, tables, report = {}, [], []
    for depth in config.depths:
        params = profile(depth)
        losses = np.empty(config.iterations + 1)
        # The last pass only measures: its loss is the final one and its
        # stored trajectory is the table written below.
        for it in range(config.iterations + 1):
            schedule = WeightSchedule(params)
            if stored or it == config.iterations:
                traj = forward(family, schedule, inputs)
                out = traj.nodes[-1]
            else:
                # No stored activations exist for the sweep to read.
                out = _forward(scheme, family, schedule, inputs, store=False)
            losses[it] = float(np.mean((out - targets) ** 2))
            if it == config.iterations:
                break
            out_grad = 2.0 * (out - targets) / TRAIN_INPUTS
            grads = (exact_backprop(family, schedule, traj, out_grad) if stored else
                     adjoint_backprop(family, schedule, out, out_grad))
            params = params - config.learning_rate * depth * grads
            bad = ~np.isfinite(params).all(axis=1)
            if bad.any():
                layer = int(np.argmax(bad))
                raise DivergenceError(f"training update diverged at layer {layer}", layer)

        name = f"losses_N{depth}.csv"
        tables += [_table(name, ["iteration", "loss"],
                          [[k, _fmt(losses[k])] for k in range(losses.size)]),
                   (f"trajectories_N{depth}.csv", _trajectory_lines(traj.nodes))]
        report.append(f"N={depth} ({config.gradient_mode}): final loss {losses[-1]:.6g} "
                      f"-> {os.path.join(config.output_dir, name)}")
        all_losses[depth] = losses
    return ToyTrainResult(all_losses, tables, report)
