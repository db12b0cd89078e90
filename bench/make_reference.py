"""Record the reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Runs every workload once on each of the ``INPUT_SEEDS`` input seeds
that ``run.py`` cycles through, untraced, and writes the
observed values to ``bench/reference.json``.  Re-record only when a
change is meant to alter the outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from run import CHILD_ENV, HERE, INPUT_SEEDS, OUT, REFERENCE, ROOT, WORKLOADS, git_commit


def record(workload: str, seed: int) -> dict:
    out = os.path.join(OUT, "reference", workload)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--started", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=dict(os.environ, **CHILD_ENV), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failures = {op: reasons for op, reasons in result["operations"].items() if reasons}
    if failures:
        raise RuntimeError(f"{workload} seed {seed} fails its windows: {failures}")
    return result["values"]


def main() -> int:
    commit = git_commit()
    seeds = {}
    for seed in range(INPUT_SEEDS):
        seeds[str(seed)] = {w: record(w, seed) for w in WORKLOADS}
        print(f"seed {seed} recorded", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"commit": commit, "seeds": seeds}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
