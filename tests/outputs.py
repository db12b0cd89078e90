"""Every output byte of the reproduction's commands, as one directory tree.

    python tests/outputs.py OUT --seeds 0 1 2 3 [--root CHECKOUT]
    python tests/outputs.py --golden [--root CHECKOUT]

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

``--golden`` records seed 0 into a temporary directory instead and
rewrites ``tests/golden_outputs.txt``: the OpenBLAS core it ran on, then
one ``sha256  path`` line per CSV table, stream and exit code.  Tier-1
recomputes those digests in process and names every file that differs;
on another core the two-tree ``diff -r`` stays the check.
"""

import argparse
import collections
import contextlib
import ctypes
import glob
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "bench")]
import reach  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
GOLDEN = os.path.join(HERE, "golden_outputs.txt")
# The files of a call directory a digest covers: the config is an input.
RECORDED = ("stdout", "stderr", "exit")


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


def record(root, out, seed, name, text, argv, main=None) -> int:
    """Run one call and record its files, its normalised streams and its
    exit code under ``out``: in a fresh interpreter on ``root``'s src, or,
    when ``main`` (``odenet.cli.main``) is given, through it in this one."""
    root, out = os.path.abspath(root), os.path.abspath(out)
    directory = os.path.join(out, f"seed{seed}", name)
    os.makedirs(directory)
    config = os.path.join(directory, "config")
    with open(config, "w") as fh:
        fh.write(text)
    args = argv(config, seed, directory)
    if main is None:
        env = {**os.environ, **THREADS, "PYTHONPATH": os.path.join(root, "src")}
        proc = subprocess.run([sys.executable, "-m", "odenet.cli", *args],
                              cwd=directory, env=env, capture_output=True, text=True)
        code, streams = proc.returncode, (proc.stdout, proc.stderr)
    else:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        streams = stdout.getvalue(), stderr.getvalue()
    # The longer path first, in case one root holds the other.
    marks = sorted([(out, "OUT"), (root, "CHECKOUT")], key=lambda pair: -len(pair[0]))
    for stream, content in zip(("stdout", "stderr"), streams):
        for path, mark in marks:
            content = content.replace(path, mark)
        with open(os.path.join(directory, stream), "w") as fh:
            fh.write(content)
    with open(os.path.join(directory, "exit"), "w") as fh:
        fh.write(f"{code}\n")
    return code


def record_all(root, out, seeds, main=None) -> collections.Counter:
    """``record`` every job at every seed; the count of each exit code."""
    return collections.Counter(record(root, out, seed, *job, main=main)
                               for seed in seeds for job in jobs())


def digests(out) -> dict:
    """{path under ``out``: sha256} of every CSV table, stream and exit code."""
    found = {}
    for directory, _, names in os.walk(out):
        for name in names:
            if name.endswith(".csv") or name in RECORDED:
                path = os.path.join(directory, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def differing(expected: dict, found: dict) -> list:
    """The paths whose digests differ, or that only one side has."""
    return sorted(p for p in expected.keys() | found.keys() if expected.get(p) != found.get(p))


def openblas_core() -> str:
    """The core numpy's bundled OpenBLAS picked its kernels for, such as
    ``SkylakeX``, or ``unknown`` where that library cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def read_golden(path=GOLDEN) -> tuple:
    """(the OpenBLAS core, {path: sha256}) of a golden file."""
    with open(path) as fh:
        core, *lines = fh.read().splitlines()
    return core, dict(line.split("  ", 1)[::-1] for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="directory to create; it must not exist")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--golden", action="store_true",
                        help="rewrite tests/golden_outputs.txt from seed 0 instead")
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src runs (default: this file's)")
    args = parser.parse_args(argv)
    if args.golden:
        if args.out or args.seeds:
            parser.error("--golden takes neither OUT nor --seeds")
        with tempfile.TemporaryDirectory(prefix="golden-") as out:
            codes = record_all(args.root, out, [0])
            found = digests(out)
        core = openblas_core()
        with open(GOLDEN, "w") as fh:
            fh.write(core + "\n")
            fh.writelines(f"{found[p]}  {p}\n" for p in sorted(found))
        print(f"{sum(codes.values())} runs, {len(found)} digests, core {core}: wrote {GOLDEN}")
        return 0
    if args.out is None or args.seeds is None:
        parser.error("OUT and --seeds are required without --golden")
    if os.path.exists(args.out):
        parser.error(f"{args.out} exists")
    codes = record_all(args.root, args.out, args.seeds)
    tables = sum(name.endswith(".csv") for _, _, names in os.walk(args.out) for name in names)
    print(f"{sum(codes.values())} runs, {tables} CSV files, exit codes "
          + ", ".join(f"{code} x {count}" for code, count in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
