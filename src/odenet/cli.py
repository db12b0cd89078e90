"""Command-line front end for the experiment harness.

Exit codes: 0 success, 2 configuration error, 3 divergence that voids
the run, 4 small-loss regime violation at initialization.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional, Sequence

from .dynamics import DivergenceError
from .harness import (
    FLOW_EXPERIMENTS,
    SCALING_EXPERIMENTS,
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

_COMMAND_EXPERIMENTS = {
    "study": SCALING_EXPERIMENTS,
    "tightness": ("tightness_suite",),
    "linflow": FLOW_EXPERIMENTS,
    "train": ("toy_train",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odenet",
        description="Depth-scaling studies for residual chains and their flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("study", "depth-scaling error studies (approximation, adjoint gradients)"),
        ("tightness", "analytic chain-vs-flow gap cases"),
        ("linflow", "linear-flow integration and limit-profile diagnostics"),
        ("train", "toy chain training with exact or memory-free gradients"),
    ]
    for name, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "tightness"),
                       help="flat key = value configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the config output directory")
        p.add_argument("--depths", default=None,
                       help="override the depth list, comma-separated")
    return parser


def _load(args) -> ExperimentConfig:
    if args.config is None:
        config = ExperimentConfig(experiment="tightness_suite")
    else:
        config = load_config(args.config)
    allowed = _COMMAND_EXPERIMENTS[args.command]
    if config.experiment not in allowed:
        raise ConfigError(
            f"experiment {config.experiment!r} does not belong to "
            f"`{args.command}` (expected one of {', '.join(allowed)})")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.depths is not None:
        try:
            overrides["depths"] = tuple(int(p) for p in args.depths.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --depths value: {exc}") from exc
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _run_study(config: ExperimentConfig) -> None:
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
        ratio = max(err / gaps[n] if gaps[n] > 0 else math.inf
                    for n, err in result.oracle_errors.items())
        print(f"oracle error: Richardson estimate <= "
              f"{max(result.oracle_errors.values()):.3g}, "
              f"worst estimate/gap {ratio:.3g}")


def _run_tightness(config: ExperimentConfig) -> None:
    records = run_tightness_suite(config)
    for r in records:
        print(f"{r.case} N={r.depth}: measured {r.measured:.10g} "
              f"vs analytic {r.analytic:.10g} (oracle error {r.oracle_error:.3g})")


def _run_linflow(config: ExperimentConfig) -> None:
    result = run_linear_flow_experiment(config)
    for depth in result.depths:
        mon = result.monitor_reports[depth]
        status = "ok" if (mon.theta_bound_ok and mon.decay_ok) else "VIOLATED"
        print(f"N={depth}: max theta norm {mon.max_theta_norm:.4f}, "
              f"decay ratio {mon.max_decay_ratio:.4f} ({status})")
    for depth, dist in sorted(result.doubling.items()):
        print(f"doubling sup-distance D_{depth} = {dist:.6g}")
    if result.limit_report is not None and result.limit_report.sup_fit is not None:
        print(f"limit-profile sup slope {result.limit_report.sup_fit.slope:+.4f}")


def _run_train(config: ExperimentConfig) -> None:
    result = run_toy_training(config)
    for depth, run in sorted(result.runs.items()):
        print(f"N={depth} ({result.gradient_mode}): "
              f"final loss {run.final_loss:.6g} -> {run.losses_path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "study":
            _run_study(config)
        elif args.command == "tightness":
            _run_tightness(config)
        elif args.command == "linflow":
            _run_linflow(config)
        else:
            _run_train(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AllDepthsDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: diverged at layer {exc.layer}: {exc}", file=sys.stderr)
        return 3
    except RegimeAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
