"""Span recorder that wraps the public functions of every odenet module.

Nothing in ``src/`` is edited: the wrappers are installed at run time.
Each span holds a name, a start, an end and the span that was open when
it started (its parent).  Spans live in flat typed arrays, so the ~1 M
kernel calls of the ``study`` workload cost 24 bytes each, and are
written out once, when the workload has finished.

Three lookup traps decide where a wrapper has to go:

* ``harness``, ``linear_flow``, ``cli`` and the package ``__init__``
  import functions by name, so every module attribute that is the
  original function object is rebound, not only the defining one;
* ``adjoint_sweep_*`` are generators: the span opens at the first
  ``next()`` and closes when the sweep is exhausted or abandoned, so it
  times the consumption, not the call that only creates the generator;
* the kernels are methods of ``ResidualFamily``, so they are patched on
  the class, which covers every family instance.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "linear_flow", "dynamics", "adjoint",
          "residual_models", "numerics")
KERNELS = ("eval", "vjp_state", "vjp_params")
FLOW_DEPTHS = (16, 32, 64, 128, 256)
SWEEPS = ("backprop_exact", "backprop_exact_heun", "reconstruct_backward_euler",
          "reconstruct_backward_heun", "backprop_adjoint_euler",
          "backprop_adjoint_heun")
KERNEL_CALL_SWEEPS = ("backprop_exact", "backprop_exact_heun",
                      "backprop_adjoint_euler", "backprop_adjoint_heun")

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.extra: dict[int, tuple] = {}   # span id -> work units of the call
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(math.nan)
        self.stack.append(span)
        self.start.append(_clock())
        return span

    def close(self, span: int) -> None:
        self.end[span] = _clock()
        stack = self.stack
        if stack[-1] == span:
            stack.pop()
        elif span in stack:
            # A generator abandoned mid-sweep is closed late; drop it and
            # anything it left open.
            del stack[stack.index(span):]

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}


def _schedule_depth(args, kwargs) -> tuple:
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return (schedule.depth,)


def _flow_steps(args, kwargs) -> tuple:
    """RK4 steps integrate_flow takes, from its documented step rule."""
    names = ("state0", "problem", "t_end", "dt", "snapshot_times")
    bound = dict(zip(names, args), **kwargs)
    state0, t_end, dt = bound["state0"], bound["t_end"], bound["dt"]
    targets = [float(t) for t in bound["snapshot_times"]]
    if not targets or targets[-1] < t_end - 1e-12:
        targets.append(t_end)
    t, steps = state0.t, 0
    if abs(targets[0] - t) <= 1e-12:
        targets = targets[1:]
    for target in targets:
        steps += max(1, math.ceil((target - t) / dt - 1e-12))
        t = target
    return (state0.schedule.depth, steps)


class _Tracer:
    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.study_flags = {"diverged": 0, "floor": 0}

    def wrap(self, fn, name: str, units=None):
        rec = self.rec
        nid = rec.name_id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = rec.open(nid)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    rec.close(span)
            return traced_gen
        if units is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = rec.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(span)
            return traced

        @functools.wraps(fn)
        def traced_units(*args, **kwargs):
            span = rec.open(nid)
            try:
                rec.extra[span] = units(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                rec.close(span)
        return traced_units

    def wrap_oracle(self, fn):
        """solve_ode_oracle, counting every evaluation of the field it integrates."""
        counts = self.rec.counts
        counts["dynamics.field_evals"] = 0

        def counted_field(field):
            inner = field.eval

            def counting(x, s):
                counts["dynamics.field_evals"] += 1
                return inner(x, s)
            return dataclasses.replace(field, eval=counting)

        def oracle_units(args, kwargs):
            field = args[0] if args else kwargs["field"]
            steps = args[2] if len(args) > 2 else kwargs["fine_steps"]
            return (max(int(field.depth), 1), int(steps))

        traced = self.wrap(fn, "dynamics.solve_ode_oracle", oracle_units)

        @functools.wraps(fn)
        def oracle(field, *args, **kwargs):
            return traced(counted_field(field), *args, **kwargs)
        return oracle

    def wrap_study(self, fn):
        """run_scaling_study, tallying the diverged and floor points it flags."""
        traced = self.wrap(fn, "harness.run_scaling_study")
        flags = self.study_flags

        @functools.wraps(fn)
        def study(*args, **kwargs):
            result = traced(*args, **kwargs)
            for record in result.records:
                if record.flag in flags:
                    flags[record.flag] += 1
            return result
        return study


def install(recorder: SpanRecorder):
    """Wrap every public function of the odenet layers; return the tracer."""
    tracer = _Tracer(recorder)
    modules = {layer: importlib.import_module(f"odenet.{layer}") for layer in LAYERS}
    units = {"integrate_flow": _flow_steps}
    units.update({fn: _schedule_depth for fn in SWEEPS + (
        "forward_euler_chain", "forward_heun_chain")})
    replacements = {}
    for layer, module in modules.items():
        public = getattr(module, "__all__", ("main",))
        for attr in public:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if (layer, attr) == ("dynamics", "solve_ode_oracle"):
                wrapped = tracer.wrap_oracle(fn)
            elif (layer, attr) == ("harness", "run_scaling_study"):
                wrapped = tracer.wrap_study(fn)
            else:
                wrapped = tracer.wrap(fn, f"{layer}.{attr}", units.get(attr))
            replacements[id(fn)] = (fn, wrapped)
    package = importlib.import_module("odenet")
    for module in [package, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                setattr(module, attr, replacements[id(value)][1])
    family_cls = modules["residual_models"].ResidualFamily
    for method in KERNELS:
        setattr(family_cls, method,
                tracer.wrap(getattr(family_cls, method), f"residual_models.{method}"))
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics

def _has_ancestor(name, parent, target: int) -> np.ndarray:
    hit = np.zeros(name.size, dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.flatnonzero(live)
        hit[idx] |= name[anc[idx]] == target
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return hit


def span_table(recorder: SpanRecorder, pauses) -> tuple[dict, dict, np.ndarray]:
    """calls, total and self seconds per span name; the raw arrays; durations.

    ``pauses`` are the (start, end) intervals of host-speed samples; they
    interrupt whatever spans are open, and are taken out of each of them,
    so no duration or self time counts them.
    """
    arr = recorder.arrays()
    name, parent = arr["name"], arr["parent"]
    start, end = arr["start"], arr["end"]
    dur = end - start
    for a, b in pauses:
        dur[(start <= a) & (end >= b)] -= b - a
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=name.size)
    self_time = dur - covered
    k = len(recorder.names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    table = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                 "self_s": float(own[i])}
             for i, n in enumerate(recorder.names)}
    return table, arr, dur


def layer_metrics(recorder: SpanRecorder, tracer: _Tracer, pauses,
                  speed: float) -> tuple[dict, dict]:
    """The per-layer metrics of BENCHMARK.json, plus the full span table.

    Host-speed sample ``pauses`` are left out; times are multiplied by
    ``speed``, the host-speed factor of the run.
    """
    table, arr, dur = span_table(recorder, pauses)
    name, parent = arr["name"], arr["parent"]
    ids = {n: i for i, n in enumerate(recorder.names)}
    out = {}

    def row(fn):
        return table.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def put(key, value, unit):
        out[key] = (float(value), unit)

    def stats(fn, keys):
        for key in keys:
            put(f"{fn}.{key}", row(fn)[key], "count" if key == "calls" else "s")

    def spans_of(fn):
        if fn not in ids:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(name == ids[fn])

    def work(fn, index=0):
        return sum(recorder.extra[int(s)][index] for s in spans_of(fn))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def under(fn):
        return (_has_ancestor(name, parent, ids[fn]) if fn in ids
                else np.zeros(name.size, dtype=bool))

    # linear_flow
    flow = "linear_flow.integrate_flow"
    stats(flow, ("calls", "total_s", "self_s"))
    flow_spans = spans_of(flow)
    for depth in FLOW_DEPTHS:
        picked = [s for s in flow_spans if recorder.extra[int(s)][0] == depth]
        layer_steps = sum(depth * recorder.extra[int(s)][1] for s in picked)
        put(f"{flow}.us_per_layer_step.N{depth}",
            per(sum(dur[s] for s in picked), layer_steps, 1e6), "us")
    stats("linear_flow.transport_product", ("calls", "total_s"))
    if "linear_flow.transport_product" in ids:
        in_flow = under(flow) & (name == ids["linear_flow.transport_product"])
        products = int(np.count_nonzero(in_flow))
    else:
        products = 0
    put("linear_flow.transport_products_per_step",
        per(products, work(flow, 1)), "calls/step")
    for fn in ("product_vs_ode", "extract_limit_map", "monitor_invariants",
               "check_small_loss_regime"):
        stats(f"linear_flow.{fn}", ("total_s",))

    # dynamics
    oracle = "dynamics.solve_ode_oracle"
    stats(oracle, ("calls", "total_s", "self_s"))
    fine = work(oracle, 1)
    put(f"{oracle}.fine_steps", fine, "count")
    put("dynamics.oracle_steps_per_layer", per(fine, work(oracle, 0)), "steps/layer")
    put("dynamics.field_evals", recorder.counts.get("dynamics.field_evals", 0), "count")
    for fn in ("dynamics.forward_euler_chain", "dynamics.forward_heun_chain") + tuple(
            f"adjoint.{s}" for s in SWEEPS):
        stats(fn, ("calls", "total_s"))
        put(f"{fn}.us_per_layer", per(row(fn)["total_s"], work(fn), 1e6), "us")
    for fn in ("adjoint.adjoint_sweep_euler", "adjoint.adjoint_sweep_heun"):
        stats(fn, ("total_s",))

    # residual_models
    kernel_ids = [ids[f"residual_models.{k}"] for k in KERNELS
                  if f"residual_models.{k}" in ids]
    is_kernel = np.isin(name, kernel_ids)
    for k in KERNELS:
        fn = f"residual_models.{k}"
        stats(fn, ("calls", "total_s"))
        put(f"{fn}.us_per_call", per(row(fn)["total_s"], row(fn)["calls"], 1e6), "us")
    for sweep in KERNEL_CALL_SWEEPS:
        fn = f"adjoint.{sweep}"
        calls = int(np.count_nonzero(is_kernel & under(fn)))
        put(f"residual_models.kernel_calls_per_layer.{sweep}",
            per(calls, work(fn)), "calls/layer")

    # numerics
    for fn in ("numerics.spectral_norm", "numerics.fit_loglog_slope"):
        stats(fn, ("calls", "total_s"))

    # harness and cli
    for fn in ("run_scaling_study", "run_linear_flow_experiment", "run_toy_training"):
        stats(f"harness.{fn}", ("total_s", "self_s"))
    put("harness.diverged_points", tracer.study_flags["diverged"], "count")
    put("harness.floor_points", tracer.study_flags["floor"], "count")
    stats("cli.main", ("total_s", "self_s"))

    put("trace.wall_s", float(np.sum(dur[parent < 0])), "s")
    put("trace.self_sum_s", sum(r["self_s"] for r in table.values()), "s")
    scaled = {k: (v * speed if unit in ("s", "us") else v, unit)
              for k, (v, unit) in out.items()}
    return scaled, table


def write_spans(recorder: SpanRecorder, path) -> None:
    """Write the raw spans (and the name of each id) as one .npz file."""
    np.savez(path, names=np.array(recorder.names), **recorder.arrays())
