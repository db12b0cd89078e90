"""Command-line front end for the experiment harness.

Exit codes: 0 success, 2 configuration error, 3 divergence that voids
the run, 4 small-loss regime violation at initialization.  Any failed run
removes its output directory when it made it and left it empty.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from typing import Optional, Sequence

from .dynamics import DivergenceError
from .harness import (
    _KEY_PARSERS,
    AllDepthsDiverged,
    ConfigError,
    ExperimentConfig,
    RegimeAbort,
    load_config,
    run_linear_flow_experiment,
    run_scaling_study,
    run_tightness_suite,
    run_toy_training,
)


# Each override flag -> the config key whose file line its value parses as.
_FLAGS = {"seed": "seed", "out": "output_dir", "depths": "depths"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odenet",
        description="Depth-scaling studies for residual chains and their flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        p.add_argument("--config", required=(name != "tightness"),
                       help="flat key = value configuration file")
        for flag, key in _FLAGS.items():
            p.add_argument(f"--{flag}", help=f"override the config's {key} (config-file syntax)")
    return parser


def _load(args) -> ExperimentConfig:
    if args.config is None:
        config = ExperimentConfig(experiment="tightness_suite")
    else:
        config = load_config(args.config)
    overrides = {}
    for flag, key in _FLAGS.items():
        if getattr(args, flag) is not None:
            try:
                overrides[key] = _KEY_PARSERS[key](getattr(args, flag))
            except ValueError as exc:
                raise ConfigError(f"bad --{flag} value: {exc}") from exc
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _run_study(config: ExperimentConfig) -> None:
    """depth-scaling error studies (approximation, adjoint gradients)"""
    result = run_scaling_study(config)
    print(f"wrote {result.study_path} and {result.slopes_path}")
    for metric, flag in result.fit_flags.items():
        if metric in result.fits:
            fit = result.fits[metric]
            print(f"{metric}: slope {fit.slope:+.4f} "
                  f"(r2 {fit.r_squared:.4f}, {flag})")
        else:
            print(f"{metric}: {flag}")
    if result.oracle_errors:
        gaps = {r.depth: r.value for r in result.records}
        # 0 over a zero gap (an exact chain) reads 0; a positive estimate, inf.
        ratio = max(err / gaps[n] if gaps[n] > 0 else math.inf if err > 0 else 0.0
                    for n, err in result.oracle_errors.items())
        print(f"oracle error: Richardson estimate <= "
              f"{max(result.oracle_errors.values()):.3g}, "
              f"worst estimate/gap {ratio:.3g}")


def _run_tightness(config: ExperimentConfig) -> None:
    """analytic chain-vs-flow gap cases"""
    records = run_tightness_suite(config)
    for r in records:
        print(f"{r.case} N={r.depth}: measured {r.measured:.10g} "
              f"vs analytic {r.analytic:.10g} (oracle error {r.oracle_error:.3g})")


def _run_linflow(config: ExperimentConfig) -> None:
    """linear-flow integration and limit-profile diagnostics"""
    result = run_linear_flow_experiment(config)
    for depth in result.depths:
        mon = result.monitor_reports[depth]
        status = "ok" if (mon.theta_bound_ok and mon.decay_ok) else "VIOLATED"
        print(f"N={depth}: max theta norm {mon.max_theta_norm:.4f}, "
              f"decay ratio {mon.max_decay_ratio:.4f} ({status})")
    for depth, dist in sorted(result.doubling.items()):
        print(f"doubling sup-distance D_{depth} = {dist:.6g}")
    scaled = [n * result.product_gaps[n] for n in result.depths]
    print(f"product-vs-flow N*gap {min(scaled):.4g} to {max(scaled):.4g} over all depths")
    if result.limit_report is not None and result.limit_report.sup_fit is not None:
        print(f"limit-profile sup slope {result.limit_report.sup_fit.slope:+.4f}")


def _run_train(config: ExperimentConfig) -> None:
    """toy chain training with exact or memory-free gradients"""
    result = run_toy_training(config)
    for depth, run in sorted(result.runs.items()):
        print(f"N={depth} ({result.gradient_mode}): "
              f"final loss {run.final_loss:.6g} -> {run.losses_path}")


# Each command's runner; its docstring is the command's help text.
_RUNNERS = {"study": _run_study, "tightness": _run_tightness,
            "linflow": _run_linflow, "train": _run_train}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    made = None  # the output directory, when this run creates it
    code = None  # stays None while an exception no clause maps propagates
    try:
        config = _load(args)
        made = None if os.path.exists(config.output_dir) else config.output_dir
        _RUNNERS[args.command](config)
        code = 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except AllDepthsDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except DivergenceError as exc:
        print(f"error: diverged at layer {exc.layer}: {exc}", file=sys.stderr)
        code = 3
    except RegimeAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 4
    finally:
        if code != 0 and made is not None:
            # rmdir removes only an empty directory; one never made is fine too.
            with contextlib.suppress(OSError):
                os.rmdir(made)
    return code


if __name__ == "__main__":
    sys.exit(main())
