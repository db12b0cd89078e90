"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
The package is imported from the checkout's ``src/``, never from an
installed copy, so the benchmark measures the tree it sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_odenet():
    sys.path.insert(0, SRC)
    import odenet
    if os.path.dirname(os.path.dirname(os.path.abspath(odenet.__file__))) != SRC:
        raise ImportError(f"odenet imported from {odenet.__file__}, not {SRC}")
    from odenet import cli
    return cli


def _versions() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "python": sys.version.split()[0]}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() of the parent just before it spawned us")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--reference", default=None,
                   help="reference values file; omit to print observed values instead")
    args = p.parse_args()

    cli = _import_odenet()
    sys.path.insert(0, HERE)
    import hostspeed
    import workloads

    calls = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    argvs = {}
    for call in calls:
        path = os.path.join(args.out, f"{call.tag}.cfg")
        with open(path, "w") as fh:
            fh.write(call.config_text())
        argvs[call.tag] = call.argv(path, args.seed, args.out)

    recorder = tracer = None
    if args.trace:
        import tracing
        recorder = tracing.SpanRecorder()
        tracer = tracing.install(recorder)
    run_call = cli.main  # the traced wrapper once install() has rebound it

    stdout, failed_calls, wall_s = {}, {}, 0.0
    setup_s = time.monotonic() - args.started
    with hostspeed.HostSpeed(workloads.CALIBRATION[args.workload]) as host:
        for call in calls:
            buf = io.StringIO()
            start, sampled = time.perf_counter(), host.spent
            try:
                with contextlib.redirect_stdout(buf):
                    code = run_call(argvs[call.tag])
            except Exception as exc:  # an operation failure, reported per operation
                failed_calls[call.tag] = f"raised {type(exc).__name__}: {exc}"
            else:
                if code != 0:
                    failed_calls[call.tag] = f"exit code {code}"
            wall_s += time.perf_counter() - start - (host.spent - sampled)
            stdout[call.tag] = buf.getvalue()
    speed = host.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if args.reference is not None:
        with open(args.reference) as fh:
            reference = json.load(fh)["seeds"].get(str(args.seed), {}).get(args.workload)
    values, extra = {}, {}
    try:
        if not failed_calls:
            values, extra = workloads.observe(args.workload, args.out, stdout)
        results = workloads.check(args.workload, values, extra, failed_calls, reference)
    except (OSError, LookupError, ValueError, ArithmeticError) as exc:
        # Missing or malformed outputs fail every operation, not the benchmark.
        results = {op: [f"outputs unreadable: {type(exc).__name__}: {exc}"]
                   for op in workloads.operations(args.workload)}
    if args.reference is None:
        print(json.dumps({"values": values, "operations": results}))
        return 0
    if reference is None:
        results = {op: reasons + [f"no reference values for seed {args.seed}"]
                   for op, reasons in results.items()}

    report = {"wall_s": wall_s * speed, "setup_s": setup_s * speed,
              "peak_rss_mb": peak_rss_mb, "raw_wall_s": wall_s, "raw_setup_s": setup_s,
              "calibration_s": statistics.fmean(host.samples),
              "operations": results, "versions": _versions()}
    if recorder:
        metrics, table = tracing.layer_metrics(recorder, tracer, host.pauses, speed)
        report["layers"] = metrics
        with open(os.path.join(args.out, "layers.json"), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
        tracing.write_spans(recorder, os.path.join(args.out, "spans.npz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
