"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 bench/steadiness.py --workloads flow,train,study --seeds 0-9

Runs ``run.py`` once per seed (one run at a time), then reports for each
metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  Each run gets the ``run_seconds`` of BENCHMARK.json unless
``--seconds`` says otherwise.  With ``--write`` the per-seed figures and
spreads are stored in ``bench/steadiness.json`` under the given label.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, git_commit

RECORD = os.path.join(HERE, "steadiness.json")


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(workload: str, seeds: list, seconds: int) -> dict:
    runs, machine = [], None
    for seed in seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = json.loads(next(x for x in lines if x.startswith("machine: "))[9:])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     **{k: m["value"] for k, m in result["metrics"].items()}})
        print(workload, json.dumps(runs[-1]), flush=True)
    names = [k for k in runs[0] if k not in ("seed", "correct", "attempted", "failed")]
    summary = {}
    for name in names:
        values = [r[name] for r in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values)}
    return {"machine": machine, "runs": runs, "summary": summary}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="flow,train,study")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--write", metavar="LABEL", default=None)
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = measure(workload, _seeds(args.seeds), args.seconds)
        for name, s in results[workload]["summary"].items():
            print(f"{workload:<6} {name:<12} median {s['median']:.6g} "
                  f"spread {100 * s['spread']:.2f}%", flush=True)
    if args.write:
        record = {}
        if os.path.exists(RECORD):
            with open(RECORD) as fh:
                record = json.load(fh)
        record[args.write] = {"commit": git_commit(), "seconds": args.seconds,
                              "workloads": results}
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
