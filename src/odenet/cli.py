"""Command-line front end for the experiment harness: main writes every
table a runner returns, once the run has succeeded, then prints the report
lines it returned beside them.

Exit codes: 0 success, 2 configuration error, 3 divergence that voids
the run, 4 small-loss regime violation at initialization.  A failed run
writes no file and removes every directory it made.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
    for name, (_, help_text) in _RUNNERS.items():
        p = sub.add_parser(name, help=help_text)
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


# Each command's runner, looked up per call as the benchmark tracer rebinds
# it, and its help text.
_RUNNERS = {"study": (lambda c: run_scaling_study(c),
                      "depth-scaling error studies (approximation, adjoint gradients)"),
            "tightness": (lambda c: run_tightness_suite(c), "analytic chain-vs-flow gap cases"),
            "linflow": (lambda c: run_linear_flow_experiment(c),
                        "linear-flow integration and limit-profile diagnostics"),
            "train": (lambda c: run_toy_training(c),
                      "toy chain training with exact or memory-free gradients")}


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
        run, _ = _RUNNERS[args.command]
        result = run(config)
        for name, lines in result.tables:
            with open(os.path.join(out, name), "w", newline="") as fh:
                fh.writelines(lines)
        print(*result.report, sep="\n")
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
