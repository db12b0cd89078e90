"""Command-line front end for the experiment harness: main writes every
table a runner returns, once the run has succeeded, then prints its report.

Exit codes: 0 success, 2 configuration error, 3 divergence that voids
the run, 4 small-loss regime violation at initialization.  A failed run
writes no file and removes every directory it made.
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
    _FLAGS,
    _KEY_PARSERS,
    AllDepthsDiverged,
    ConfigError,
    ExperimentConfig,
    RegimeAbort,
    _check_command,
    load_config,
    run_linear_flow_experiment,
    run_scaling_study,
    run_tightness_suite,
    run_toy_training,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odenet",
        description="Depth-scaling studies for residual chains and their flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, report) in _RUNNERS.items():
        p = sub.add_parser(name, help=report.__doc__)
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


def _report_study(config: ExperimentConfig, result) -> None:
    """depth-scaling error studies (approximation, adjoint gradients)"""
    out = config.output_dir
    print(f"wrote {os.path.join(out, 'study.csv')} and {os.path.join(out, 'slopes.csv')}")
    for metric, flag in result.fit_flags.items():
        if metric in result.fits:
            fit = result.fits[metric]
            print(f"{metric}: slope {fit.slope:+.4f} (r2 {fit.r_squared:.4f}, {flag})")
        else:
            print(f"{metric}: {flag}")
    if result.oracle_errors:
        gaps = {r.depth: r.value for r in result.records}
        # 0 over a zero gap (an exact chain) reads 0; a positive estimate, inf.
        ratio = max(err / gaps[n] if gaps[n] > 0 else math.inf if err > 0 else 0.0
                    for n, err in result.oracle_errors.items())
        print(f"oracle error: Richardson estimate <= {max(result.oracle_errors.values()):.3g}, "
              f"worst estimate/gap {ratio:.3g}")


def _report_tightness(config: ExperimentConfig, result) -> None:
    """analytic chain-vs-flow gap cases"""
    for r in result.records:
        print(f"{r.case} N={r.depth}: measured {r.measured:.10g} "
              f"vs analytic {r.analytic:.10g} (oracle error {r.oracle_error:.3g})")


def _report_linflow(config: ExperimentConfig, result) -> None:
    """linear-flow integration and limit-profile diagnostics"""
    for depth in config.depths:
        mon = result.monitor_reports[depth]
        status = "ok" if (mon.theta_bound_ok and mon.decay_ok) else "VIOLATED"
        print(f"N={depth}: max theta norm {mon.max_theta_norm:.4f}, "
              f"decay ratio {mon.max_decay_ratio:.4f} ({status})")
    for depth, dist in sorted(result.doubling.items()):
        print(f"doubling sup-distance D_{depth} = {dist:.6g}")
    scaled = [n * result.product_gaps[n] for n in config.depths]
    print(f"product-vs-flow N*gap {min(scaled):.4g} to {max(scaled):.4g} over all depths")
    if result.limit_report is not None and result.limit_report.sup_fit is not None:
        print(f"limit-profile sup slope {result.limit_report.sup_fit.slope:+.4f}")


def _report_train(config: ExperimentConfig, result) -> None:
    """toy chain training with exact or memory-free gradients"""
    for depth, losses in sorted(result.losses.items()):
        path = os.path.join(config.output_dir, f"losses_N{depth}.csv")
        print(f"N={depth} ({config.gradient_mode}): final loss {losses[-1]:.6g} -> {path}")


# Each command's runner, looked up per call as the benchmark tracer rebinds
# it, and its report, whose docstring is the command's help text.
_RUNNERS = {"study": (lambda c: run_scaling_study(c), _report_study),
            "tightness": (lambda c: run_tightness_suite(c), _report_tightness),
            "linflow": (lambda c: run_linear_flow_experiment(c), _report_linflow),
            "train": (lambda c: run_toy_training(c), _report_train)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    made = []  # the directories this run creates, innermost first
    code = None  # stays None while an exception no clause maps propagates
    try:
        config = _load(args)
        _check_command(config, args.command)
        out = head = config.output_dir
        while head and not os.path.exists(head):
            made.append(head)
            head = os.path.dirname(head)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output_dir {out!r}: {exc.strerror}") from exc
        run, report = _RUNNERS[args.command]
        result = run(config)
        for name, lines in result.tables:
            with open(os.path.join(out, name), "w", newline="") as fh:
                fh.writelines(lines)
        report(config, result)
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
        if code != 0:
            # rmdir removes only an empty directory; one never made is fine too.
            for directory in made:
                with contextlib.suppress(OSError):
                    os.rmdir(directory)
    return code


if __name__ == "__main__":
    sys.exit(main())
