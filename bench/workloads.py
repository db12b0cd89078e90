"""The three workloads, what each one writes, and how it is checked.

A workload is a list of ``odenet.cli.main`` calls.  Each call gets a
flat config file, the workload seed on ``--seed`` and its own output
directory.  An operation is one (experiment, depth) unit; it fails if
its call raised or returned non-zero, if it is flagged diverged, or if
its outputs leave a paper window or drift from the reference values
recorded for that seed.

Why these workloads (the default depths stay; only ``t_end`` and the
iteration count are shortened so one run fits in seconds):

* ``flow`` -- ``linflow`` / ``limit_map`` at N = 16..256.  Time goes to
  ``linear_flow.integrate_flow`` and the ``product_vs_ode`` oracle; it
  never touches ``adjoint`` or the ``residual_models`` families.
* ``train`` -- ``train`` in all three gradient modes at N = 64 and 300 on
  B = 64 batched inputs.  Time goes to batched kernels, the stored
  trajectory path and the memory-free adjoint path side by side.
* ``study`` -- ``study`` with ``approx_error``, ``euler_adjoint`` and
  ``heun_adjoint`` on the ``lipschitz_profile`` and ``alternating``
  profiles, N = 16..1024 on one unbatched state.  Time goes to the RK4
  oracle's ~1 M batch-1 kernel calls, the opposite regime to ``train``.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass

import numpy as np

FLOW_T_END = 4.0
TRAIN_ITERATIONS = 40
TRAIN_MODES = ("exact", "adjoint_euler", "adjoint_heun")
TRAIN_DEPTHS = (64, 300)
STUDY_DEPTHS = (16, 32, 64, 128, 256, 512, 1024)
FLOW_DEPTHS = (16, 32, 64, 128, 256)

# Reference agreement: a rounding-level change (a reordered sum, a
# cheaper but converged oracle) moves values by ~1e-10 relative; a wrong
# gradient, stage or oracle moves them by far more than 1e-6.
REF_RTOL = 1e-6
# Study errors that sit at the rounding floor carry no digits to
# compare; below this share of their series' largest value only the
# absolute gap counts.
REF_FLOOR_SHARE = 1e-6
# Every n-th training iteration's loss is compared, plus the last.
LOSS_STRIDE = 10
# Final-node outputs of every m-th training input are compared.
INPUT_STRIDE = 8


@dataclass(frozen=True)
class Call:
    tag: str          # output sub-directory and operation prefix
    command: str      # odenet subcommand
    config: dict

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    def argv(self, config_path: str, seed: int, out_dir: str) -> list:
        return [self.command, "--config", config_path, "--seed", str(seed),
                "--out", os.path.join(out_dir, self.tag)]


WORKLOADS = {
    "flow": (Call("limit_map", "linflow",
                  {"experiment": "limit_map", "t_end": FLOW_T_END}),),
    "train": tuple(Call(mode, "train",
                        {"experiment": "toy_train", "iterations": TRAIN_ITERATIONS,
                         "gradient_mode": mode})
                   for mode in TRAIN_MODES),
    "study": (Call("approx_error", "study", {"experiment": "approx_error"}),
              Call("euler_adjoint", "study", {"experiment": "euler_adjoint"}),
              Call("heun_adjoint", "study", {"experiment": "heun_adjoint"}),
              Call("heun_alternating", "study",
                   {"experiment": "heun_adjoint",
                    "schedule_profile": "alternating"})),
}

# Which host-speed loop (hostspeed.LOOPS) tracks each workload's mix.
CALIBRATION = {"flow": "flow", "train": "kernel", "study": "kernel"}

DEPTHS = {"flow": FLOW_DEPTHS, "train": TRAIN_DEPTHS, "study": STUDY_DEPTHS}


def operations(workload: str) -> list:
    return [f"{call.tag}/N{n}" for call in WORKLOADS[workload]
            for n in DEPTHS[workload]]


# ---------------------------------------------------------------------------
# reading outputs

def _rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_flow(out: str, stdout: str) -> tuple[dict, dict]:
    """Per-depth values, and the experiment-wide series the windows need."""
    d = os.path.join(out, "limit_map")
    values = {n: {} for n in FLOW_DEPTHS}
    for row in _rows(os.path.join(d, "productode.csv")):
        values[int(row["N"])]["product_gap"] = float(row["discrepancy"])
    for row in _rows(os.path.join(d, "doubling.csv")):
        values[int(row["N"])]["doubling"] = float(row["sup_distance"])
    limit = {}
    for row in _rows(os.path.join(d, "limitmap.csv")):
        n, t = int(row["N"]), float(row["t"])
        values[n][f"limit_l2@t={t:.6g}"] = float(row["l2_distance"])
        limit.setdefault(t, {})[n] = float(row["l2_distance"])
    traces = {}
    for n in FLOW_DEPTHS:
        rows = _rows(os.path.join(d, f"trace_N{n}.csv"))
        traces[n] = rows
        for row in rows:
            t = float(row["t"])
            for col in ("loss", "max_theta_norm", "smoothness_stat"):
                values[n][f"{col}@t={t:.6g}"] = float(row[col])
    monitors = {}
    for m in re.finditer(r"^N=(\d+): max theta norm (\S+), decay ratio (\S+) \((\w+)\)$",
                         stdout, re.M):
        monitors[int(m.group(1))] = (float(m.group(2)), float(m.group(3)), m.group(4))
    return values, {"limit": limit, "traces": traces, "monitors": monitors}


def _read_train(out: str, tag: str) -> dict:
    values = {}
    for n in TRAIN_DEPTHS:
        losses = [float(r["loss"]) for r in
                  _rows(os.path.join(out, tag, f"losses_N{n}.csv"))]
        v = {f"loss@{k}": losses[k] for k in range(0, len(losses), LOSS_STRIDE)}
        v[f"loss@{len(losses) - 1}"] = losses[-1]
        v["iterations"] = float(len(losses) - 1)
        for r in _rows(os.path.join(out, tag, f"trajectories_N{n}.csv")):
            b = int(r["input_index"])
            if int(r["node_index"]) == n and b % INPUT_STRIDE == 0:
                v[f"output@{b}"] = float(r["x_0"])
        values[n] = v
    return values


def _read_study(out: str, tag: str) -> tuple[dict, dict]:
    values = {n: {} for n in STUDY_DEPTHS}
    for row in _rows(os.path.join(out, tag, "study.csv")):
        values[int(row["N"])][row["metric"]] = float(row["value"])
    slopes = {row["metric"]: (float(row["slope"]), float(row["r2"]), row["flag"])
              for row in _rows(os.path.join(out, tag, "slopes.csv"))}
    return values, slopes


def observe(workload: str, out: str, stdout: dict) -> tuple[dict, dict]:
    """Read every call's outputs: {operation: {name: value}} plus window data."""
    values, extra = {}, {}
    if workload == "flow":
        per_depth, extra["limit_map"] = _read_flow(out, stdout["limit_map"])
        values.update({f"limit_map/N{n}": v for n, v in per_depth.items()})
    elif workload == "train":
        for call in WORKLOADS["train"]:
            for n, v in _read_train(out, call.tag).items():
                values[f"{call.tag}/N{n}"] = v
    else:
        for call in WORKLOADS["study"]:
            per_depth, extra[call.tag] = _read_study(out, call.tag)
            values.update({f"{call.tag}/N{n}": v for n, v in per_depth.items()})
    return values, extra


# ---------------------------------------------------------------------------
# paper windows

def _fit_slope(points: dict) -> float:
    ns = sorted(points)
    return float(np.polyfit(np.log(ns), np.log([points[n] for n in ns]), 1)[0])


def _slope_window(slopes, metric, low, high, r2_min) -> list:
    slope, r2, _ = slopes[metric]
    bad = []
    if not low <= slope <= high:
        bad.append(f"{metric} slope {slope:.4f} outside [{low}, {high}]")
    if not r2 >= r2_min:
        bad.append(f"{metric} r2 {r2:.4f} below {r2_min}")
    return bad


def _flow_windows(values: dict, extra: dict) -> tuple[list, dict]:
    """Windows of tests/test_acceptance.py for the flow experiment."""
    every, per_op = [], {}
    monitors, traces = extra["monitors"], extra["traces"]
    initial = max(float(traces[n][0]["smoothness_stat"]) for n in FLOW_DEPTHS)
    for n in FLOW_DEPTHS:
        bad = per_op.setdefault(f"limit_map/N{n}", [])
        if n not in monitors:
            bad.append("no monitor line printed")
            continue
        norm, ratio, status = monitors[n]
        if status != "ok" or not norm < 0.5 or not ratio <= 1.0 + 1e-3:
            bad.append(f"monitor: norm {norm}, decay ratio {ratio} ({status})")
        worst = max(float(r["smoothness_stat"]) for r in traces[n])
        if not worst <= 2.0 * initial:
            bad.append(f"smoothness {worst:.4g} above twice the initial {initial:.4g}")
    doubling = {n: values[f"limit_map/N{n}"]["doubling"] for n in FLOW_DEPTHS[:-1]}
    for n in FLOW_DEPTHS[:-2]:
        ratio = doubling[2 * n] / doubling[n]
        if not 0.35 <= ratio <= 0.7:
            every.append(f"doubling ratio D{2 * n}/D{n} = {ratio:.4f} outside [0.35, 0.7]")
    for t, dist in sorted(extra["limit"].items()):
        slope = _fit_slope(dist)
        if not -1.3 <= slope <= -0.7:
            every.append(f"limit slope {slope:.4f} at t={t:.6g} outside [-1.3, -0.7]")
    gaps = {n: values[f"limit_map/N{n}"]["product_gap"] for n in FLOW_DEPTHS}
    c = 64.0 * gaps[64]
    for n, gap in gaps.items():
        if not gap <= 1.1 * c / n:
            per_op[f"limit_map/N{n}"].append(f"product gap {gap:.4g} above 1.1 c/N")
    return every, per_op


def _train_windows(values: dict) -> dict:
    per_op = {}
    for op, v in values.items():
        bad = per_op.setdefault(op, [])
        losses = [x for k, x in v.items() if k.startswith("loss@")]
        if not all(math.isfinite(x) for x in losses):
            bad.append("non-finite loss")
        elif not v[f"loss@{TRAIN_ITERATIONS}"] < v["loss@0"]:
            bad.append("training did not lower the loss")
    exact = values[f"exact/N{TRAIN_DEPTHS[-1]}"][f"loss@{TRAIN_ITERATIONS}"]
    for mode in TRAIN_MODES[1:]:
        op = f"{mode}/N{TRAIN_DEPTHS[-1]}"
        final = values[op][f"loss@{TRAIN_ITERATIONS}"]
        if not final <= 2.0 * exact:
            per_op[op].append(f"final loss {final:.6g} above twice exact's {exact:.6g}")
    return per_op


# (metric, lowest slope, highest slope, least r2), per call.
STUDY_WINDOWS = {
    "approx_error": (("approx_max_error", -1.25, -0.8, 0.95),),
    "euler_adjoint": (("recon_max_error", -1.25, -0.8, 0.95),
                      ("grad_max_abs_error", -2.3, -1.7, 0.95)),
    "heun_adjoint": (("grad_max_abs_error", -math.inf, -2.5, 0.95),
                     ("recon_max_error", -math.inf, -2.5, 0.0)),
    "heun_alternating": (("grad_max_abs_error", -2.3, -1.7, 0.95),),
}


def _study_windows(values: dict, extra: dict) -> tuple[dict, dict]:
    per_call, per_op = {}, {}
    for tag, windows in STUDY_WINDOWS.items():
        per_call[tag] = [reason for window in windows
                         for reason in _slope_window(extra[tag], *window)]
    for n in STUDY_DEPTHS:
        for tag in STUDY_WINDOWS:
            v = values[f"{tag}/N{n}"]
            if not v or not all(math.isfinite(x) for x in v.values()):
                per_op.setdefault(f"{tag}/N{n}", []).append("diverged")
        if n >= 64:
            heun = values[f"heun_adjoint/N{n}"]["grad_max_rel_error"]
            euler = values[f"euler_adjoint/N{n}"]["grad_max_rel_error"]
            if not heun <= euler:
                per_op.setdefault(f"heun_adjoint/N{n}", []).append(
                    f"heun relative gradient error {heun:.4g} above euler's {euler:.4g}")
    return per_call, per_op


# ---------------------------------------------------------------------------
# reference values

def _reference_gaps(op_values: dict, op_ref: dict, atol: dict) -> list:
    bad = []
    for name, ref in op_ref.items():
        got = op_values.get(name)
        if got is None:
            bad.append(f"{name} missing")
            continue
        if not abs(got - ref) <= REF_RTOL * abs(ref) + atol.get(name, 0.0):
            bad.append(f"{name} = {got!r}, reference {ref!r}")
    return bad


def check(workload: str, values: dict, extra: dict, failed_calls: dict,
          reference) -> dict:
    """{operation: [reasons]}; an empty list means the operation passed.

    ``reference`` maps operations to recorded values; None checks the
    paper windows only (used while recording the reference).
    """
    results = {op: [] for op in operations(workload)}
    if failed_calls:
        for op in results:
            results[op].append(failed_calls.get(op.split("/")[0], "another call failed"))
        return results
    if workload == "flow":
        every, per_op = _flow_windows(values, extra["limit_map"])
        per_call = {"limit_map": every}
    elif workload == "train":
        per_call, per_op = {}, _train_windows(values)
    else:
        per_call, per_op = _study_windows(values, extra)
    series_max = {}
    if workload == "study":
        for op, v in values.items():
            for name, x in v.items():
                key = (op.split("/")[0], name)
                series_max[key] = max(series_max.get(key, 0.0), abs(x))
    for op in results:
        tag = op.split("/")[0]
        results[op] += per_call.get(tag, []) + per_op.get(op, [])
        if reference is not None:
            atol = {name: REF_FLOOR_SHARE * series_max.get((tag, name), 0.0)
                    for name in reference[op]}
            results[op] += _reference_gaps(values.get(op, {}), reference[op], atol)
    return results
