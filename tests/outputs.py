"""Every output byte of the reproduction's commands, as one directory tree.

    python tests/outputs.py OUT --seeds 0 1 2 3 [--root CHECKOUT]

Runs each command of ``reach.CALLS`` and each call of the benchmark's
``bench/workloads.WORKLOADS`` at every seed given, each in a fresh
interpreter (``python -m odenet.cli`` with ``OPENBLAS_NUM_THREADS=1``) on
the ``src`` of CHECKOUT, by default the checkout holding this file.  Call
NAME at seed S leaves in ``OUT/seedS/NAME/`` its config file, the CSV
tables it wrote, its ``stdout`` and ``stderr`` with OUT and CHECKOUT
replaced by fixed markers, and ``exit``, its exit code.

Run it once per checkout, into two fresh directories; ``diff -r`` of the
two trees is then the byte-identity check, empty when every CSV, output
line and exit code is the same.
"""

import argparse
import collections
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "bench")]
import reach  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def jobs():
    """(name, config text, argv(config path, seed, call directory)) of each call."""
    for i, (command, text, _) in enumerate(reach.CALLS):
        def argv(config, seed, directory, command=command):
            return [command, "--config", config, "--seed", str(seed),
                    "--out", os.path.join(directory, "tables")]
        yield f"reach{i:02d}-{command}", text, argv
    for workload, calls in WORKLOADS.items():
        for call in calls:
            yield f"{workload}-{call.tag}", call.config_text(), call.argv


def record(root, out, seed, name, text, argv) -> int:
    """Run one call in a fresh interpreter on ``root``'s src and record
    its files, its normalised streams and its exit code under ``out``."""
    root, out = os.path.abspath(root), os.path.abspath(out)
    directory = os.path.join(out, f"seed{seed}", name)
    os.makedirs(directory)
    config = os.path.join(directory, "config")
    with open(config, "w") as fh:
        fh.write(text)
    env = {**os.environ, **THREADS, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, "-m", "odenet.cli", *argv(config, seed, directory)],
                          cwd=directory, env=env, capture_output=True, text=True)
    # The longer path first, in case one root holds the other.
    marks = sorted([(out, "OUT"), (root, "CHECKOUT")], key=lambda pair: -len(pair[0]))
    for stream, content in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        for path, mark in marks:
            content = content.replace(path, mark)
        with open(os.path.join(directory, stream), "w") as fh:
            fh.write(content)
    with open(os.path.join(directory, "exit"), "w") as fh:
        fh.write(f"{proc.returncode}\n")
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory to create; it must not exist")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src runs (default: this file's)")
    args = parser.parse_args(argv)
    if os.path.exists(args.out):
        parser.error(f"{args.out} exists")
    codes = collections.Counter(record(args.root, args.out, seed, *job)
                                for seed in args.seeds for job in jobs())
    tables = sum(name.endswith(".csv") for _, _, names in os.walk(args.out) for name in names)
    print(f"{sum(codes.values())} runs, {tables} CSV files, exit codes "
          + ", ".join(f"{code} x {count}" for code, count in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
