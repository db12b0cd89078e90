"""odenet benchmark: end-to-end timings and a traced per-module breakdown.

    python3 bench/run.py --workload {flow,train,study} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh child interpreter (``child.py``), one at a time, with
``OPENBLAS_NUM_THREADS=1``.  The reported figure of each metric is the
median over repetitions.

The inputs come from ``--seed`` and ``--seconds`` alone: a run makes
``repetition_count(workload, seconds, trace)`` repetitions, and repetition k
runs the program with seed ``--seed + k`` modulo ``INPUT_SEEDS``, the
number of seeds whose outputs ``reference.json`` records.  The count
never depends on how fast the host or the program is, so a change is
measured on the same inputs as its parent.  Each operation's outputs
are checked against the recorded values and against the paper's
windows; ``attempted``/``failed`` count operations, and ``error_rate``
is their ratio.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs an untraced and a traced repetition on input seed
``--seed`` and reports the per-layer metrics; ``trace.overhead_s`` is
the traced wall time minus the untraced one.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  If the package or a child
cannot run at all, the exit code is non-zero and no JSON is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("flow", "train", "study")
INPUT_SEEDS = 32
# Run time allotted to one repetition: a run makes --seconds //
# REPETITION_S repetitions (4 of flow, 5 of train, 2 of study at 30 s)
# whatever they take.  On the host of steadiness.json a repetition
# takes 10-15 s (flow), 4-7 s (train) and 10-14 s (study); flow gets
# the most because its cost also varies with the input seed.
REPETITION_S = {"flow": 7, "train": 6, "study": 15}
# Untraced runs take at least two repetitions; traced runs one
# untraced-traced pair.
MIN_REPETITIONS = 2
# A run that has not ended by then fails: every run must end inside 180 s.
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine_info() -> dict:
    """What the timings depend on; printed before the result line."""
    info = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "threads": dict(CHILD_ENV)}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            fields = {}
            for field in ("level", "type", "size"):
                with open(f"{base}/{index}/{field}") as fh:
                    fields[field] = fh.read().strip()
            info[f"L{fields['level']} {fields['type']} cache"] = fields["size"]
    except OSError:
        pass
    return info


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_child(workload: str, seed: int, trace: int, deadline: float) -> dict:
    out = os.path.join(OUT, workload)
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--started", repr(started),
           "--trace", str(trace), "--reference", REFERENCE]
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError(f"run passed its {DEADLINE_S:.0f} s deadline")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run passed its {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} child failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report


def repetition_count(workload: str, seconds: int, trace: bool) -> int:
    """Input seeds a run covers; a function of its arguments alone."""
    if trace:
        return 1
    return max(MIN_REPETITIONS, seconds // REPETITION_S[workload])


def repetitions(workload: str, seed: int, seconds: int, trace: bool) -> list:
    """Run the children of one run, one after another.

    Repetition k uses input seed ``seed + k`` (modulo INPUT_SEEDS): the
    flow's power iterations take 2.5x more steps on some inputs than on
    others, so a run's median covers several inputs instead of one.
    """
    deadline = time.monotonic() + DEADLINE_S
    reports = []
    for k in range(repetition_count(workload, seconds, trace)):
        input_seed = (seed + k) % INPUT_SEEDS
        for kind in ((0, 1) if trace else (0,)):
            report = run_child(workload, input_seed, kind, deadline)
            report["traced"] = kind
            report["seed"] = input_seed
            reports.append(report)
    return reports


def summarize(reports: list, trace: bool) -> tuple[dict, int, int, list]:
    attempted = failed = 0
    failures = []
    for r in reports:
        for op, reasons in r["operations"].items():
            attempted += 1
            if reasons:
                failed += 1
                failures.append(f"{op}: {'; '.join(reasons)}")
    plain = [r for r in reports if not r["traced"]]
    metrics = {}
    if not trace:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain),
                             "unit": unit}
        return metrics, attempted, failed, failures
    traced = [r for r in reports if r["traced"]]
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = {"value": statistics.median(r["layers"][name][0] for r in traced),
                         "unit": unit}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, attempted, failed, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        reports = repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, failed, failures = summarize(reports, bool(args.trace))

    machine = dict(machine_info(), **reports[0]["versions"])
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {len(reports)} children "
          f"on input seeds {sorted({r['seed'] for r in reports})}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:.6g} {m['unit']}")
    for name in ("raw_wall_s", "raw_setup_s", "calibration_s"):
        value = statistics.median(r[name] for r in reports if not r["traced"])
        print(f"  {name + ' (unscaled)':<58} {value:.6g} s")
    print(f"  {'error_rate':<58} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
