"""Deep linear residual factorization trained by rescaled gradient flow.

The model is the depth-N product Pi = (I + theta_N/N) ... (I + theta_1/N)
applied in ascending layer order, fitted to a target matrix B.  The
inputs are whitened (covariance I, the setting of Bartlett, Helmbold and
Long, arXiv 1802.06093), so the loss is ||Pi - B||_F^2 and the paper's
covariance constants take their values at extreme eigenvalues
m = M = 1.  All layers evolve jointly by d theta_n / dt = -N grad_n, the
gradient rescaling that keeps per-layer motion depth-independent.

Besides the integrator this module carries the diagnostics used by the
experiments: the small-loss entry condition, loss-decay and weight-norm
monitors, depth-doubling distances, the piecewise-constant depth
profile psi_N(s, t) = theta_ceil(Ns)(t) with its L2 convergence fits,
and the end-to-end comparison of the discrete product against the flow
of the induced linear ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import _check_divergence
from .numerics import (SlopeFit, _rk4_increment, above_noise_floor, fit_loglog_slope,
                       require_finite, spectral_norm)
from .residual_models import WeightSchedule

__all__ = [
    "FlowState",
    "FlowSample",
    "FlowTrace",
    "StepSizeError",
    "small_loss_target",
    "state_from_matrices",
    "state_from_profile",
    "transport_product",
    "loss",
    "integrate_flow",
    "check_small_loss_regime",
    "monitor_invariants",
    "depth_double_compare",
    "extract_limit_map",
    "LimitMapReport",
    "product_vs_ode",
]

LOSS_INCREASE_RTOL = 1e-9
# Near convergence the loss sits at the rounding floor of the product
# evaluation and fluctuates there; the relative test alone would trip.
LOSS_INCREASE_ATOL = 1e-18
DECAY_SLACK = 1e-3
# Entries per block of _bind_flow's scan, bound once per integrate_flow call.
SCAN_BLOCK = 4
# product_vs_ode's flow: RK4 sub-steps per layer, and its probe inputs.
ODE_STEPS_PER_LAYER = 64
PROBES = 20
PROBE_SEED = 0
# Largest dt integrate_flow accepts: min(1e-2, 0.1/M) at M = 1.
MAX_STEP_SIZE = 1e-2
# The small-loss regime's ceiling on sqrt(loss(0)): m / (4 sqrt(2 M e^3)) at m = M = 1.
LOSS_THRESHOLD = 1.0 / (4.0 * math.sqrt(2.0 * math.e ** 3))
# The share of LOSS_THRESHOLD^2 small_loss_target's initial loss spends; the
# rest is room for Pi(0)'s depth dependence when depths share one target.
LOSS_FRACTION = 0.125


class StepSizeError(RuntimeError):
    """Loss went up during a flow step by more than the tolerance."""


@dataclass
class FlowState:
    """Layer matrices at one flow time, stored as a flat schedule."""

    schedule: WeightSchedule
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise ValueError("flow time must be finite and nonnegative")
        if self.dim ** 2 != self.schedule.param_dim:
            raise ValueError("schedule rows must flatten square matrices")

    @property
    def dim(self) -> int:
        return math.isqrt(self.schedule.param_dim)

    def matrices(self) -> np.ndarray:
        d = self.dim
        return self.schedule.params.reshape(self.schedule.depth, d, d).copy()


def state_from_matrices(thetas, t: float = 0.0) -> FlowState:
    arr = require_finite(thetas, "thetas")
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("expected an (N, d, d) stack of square matrices")
    n, d, _ = arr.shape
    return FlowState(WeightSchedule(arr.reshape(n, d * d)), t)


def state_from_profile(profile: Callable[[float], np.ndarray], depth: int,
                       t: float = 0.0) -> FlowState:
    """Sample layer matrices from a continuous profile at cell centers.

    Layer n (1-based) covers the depth interval ((n-1)/N, n/N], so it
    reads the profile at the center (n - 1/2)/N.  Midpoint sampling
    keeps the depth-N and depth-2N initializations O(1/N) apart, which
    the doubling and limit-profile diagnostics rely on.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rows = [np.asarray(profile((n + 0.5) / depth), dtype=float) for n in range(depth)]
    return state_from_matrices(np.stack(rows), t)


def transport_product(thetas: np.ndarray) -> np.ndarray:
    """Pi = (I + theta_N/N) ... (I + theta_1/N), layer 1 applied first."""
    n_layers, d, _ = thetas.shape
    prod = eye = np.eye(d)
    for n in range(n_layers):
        prod = (eye + thetas[n] / n_layers) @ prod
    return prod


def _bind_flow(n_layers: int, d: int):
    """The bound kernels for (N, d) layer stacks: ``scan`` and ``velocity``.

    ``scan(thetas)`` gives pre[n] = product of layers 1..n and
    suf_t[n] = (layers n+1..N)^T, n = 0..N, from one blocked scan
    (Blelloch, CMU-CS-90-190) over a stacked pair of sequences: row 0
    holds I, then the factors I + theta_n/N in layer order; row 1 holds
    I, then their transposes in reverse layer order.  A left-multiplying
    inclusive scan turns row 0 into the prefixes and row 1 into the
    transposed suffixes, so both stacks come out of the same batched
    matmul calls.  Each row is cut into blocks of SCAN_BLOCK entries, the
    tail padded with identities: SCAN_BLOCK - 1 matmuls scan inside the
    blocks, a doubling scan runs over the ceil((N + 1)/SCAN_BLOCK) block
    totals, and one matmul carries each block's predecessors into its
    other entries.  Per row that is 2.2 N to 2.8 N matrix products at
    N = 16..256 (715 at N = 256), against N log2 N - N + 1 (1793) for a
    doubling scan over all N factors.  The buffer, I and the (left,
    right) views of every matmul are built here once; a call refills the
    buffer, the padding too, since the scan writes products into it that
    would compound to overflow across calls.  Both stacks are views of
    the buffer, valid until the next call; suf_t runs backwards in it.

    ``velocity(thetas, target)`` returns the flow's velocity -N grad_n for
    every layer and Pi - B, which the loss is read from, both fresh arrays.

    The carry and the sandwich's left half suf_t[1:] @ (-2 (Pi - B)) each
    multiply a stack of d x d matrices by one shared matrix; a broadcast
    stacked matmul makes one BLAS call per matrix, so both stacks are bound
    as row-stacked views of the buffer and run as one gemm (per block and
    row for the carry).  The sums and their order are unchanged, so the
    bytes are too, on one OpenBLAS core.  The sign rides on the shared
    factor, so each product is the exact negation of the gradient's, up
    to the sign of an exact zero.
    """
    eye = np.eye(d)
    blocks = n_layers // SCAN_BLOCK + 1
    scan_buf = np.empty((2, blocks * SCAN_BLOCK, d, d))
    scan_buf[:, 0] = eye
    head, pad = scan_buf[0, 1:n_layers + 1], scan_buf[:, n_layers + 1:]
    head_t, head_t_rev = head.swapaxes(1, 2), scan_buf[1, n_layers:0:-1]
    blocked = scan_buf.reshape(2, blocks, SCAN_BLOCK, d, d)
    totals = blocked[:, :, -1]
    pairs = [(blocked[:, :, j], blocked[:, :, j - 1]) for j in range(1, SCAN_BLOCK)]
    doublings = (1 << k for k in range((blocks - 1).bit_length()))   # s = 1, 2, 4, .. < blocks
    pairs += [(totals[:, s:], totals[:, :-s]) for s in doublings]
    carried = blocked[:, 1:, :-1].reshape(2, blocks - 1, (SCAN_BLOCK - 1) * d, d)
    pairs.append((carried, totals[:, :-1]))
    pre, suf_t = scan_buf[0, :n_layers + 1], scan_buf[1, n_layers::-1]
    suf_rows = scan_buf[1, :n_layers].reshape(n_layers * d, d)   # suf_t[1:], reversed
    # numpy's matmul reads a swapped-axes view about 2.5x slower than a
    # contiguous stack (N = 256, d = 4), so the transposed prefixes are copied.
    pre_t, pre_t_view = np.empty((n_layers, d, d)), pre[:-1].swapaxes(1, 2)

    def scan(thetas):
        pad[...] = eye
        np.add(eye, thetas / n_layers, out=head)
        head_t_rev[...] = head_t
        for a, b in pairs:
            a[...] = a @ b
        return pre, suf_t

    def velocity(thetas, target):
        # Layer n sees transposed partial products on both sides; the
        # quadratic loss contributes the overall factor 2.
        scan(thetas)
        gap = pre[-1] - target
        pre_t[...] = pre_t_view
        left = (suf_rows @ (-2.0 * gap)).reshape(n_layers, d, d)[::-1]
        return left @ pre_t, gap
    return scan, velocity


def _require_target(target, state: FlowState) -> np.ndarray:
    """B as a finite (d, d) array matching the state's d."""
    b = require_finite(target, "target")
    if b.shape != (state.dim, state.dim):
        raise ValueError(f"target shape {b.shape} does not match the state's d = {state.dim}")
    return b


def _sq_norm(a: np.ndarray) -> float:
    """||a||_F^2 summed left to right in row-major order, the order the recorded
    flow outputs were computed in; at d = 4 it is faster than np.sum."""
    return sum(x * x for x in a.ravel().tolist())


def loss(state: FlowState, target) -> float:
    """||Pi - B||_F^2."""
    return _sq_norm(transport_product(state.matrices()) - _require_target(target, state))


def _loss_rose(before: float, after: float, first: float) -> bool:
    """Whether the loss rose beyond LOSS_INCREASE_RTOL and LOSS_INCREASE_ATOL,
    the latter scaled by 1 + the run's first loss.  A NaN counts as a rise."""
    return not after <= before * (1.0 + LOSS_INCREASE_RTOL) + LOSS_INCREASE_ATOL * (1.0 + first)


@dataclass
class FlowSample:
    t: float
    loss_value: float
    max_theta_norm: float
    smoothness_stat: float   # N * max_n ||theta_{n+1} - theta_n||
    thetas: np.ndarray       # (N, d, d) layer matrices


@dataclass
class FlowTrace:
    samples: list
    target: np.ndarray       # the B every sample was fitted to

    def __post_init__(self):
        ts = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("sample times must be strictly increasing")
        first = self.samples[0].loss_value
        for a, b in zip(self.samples, self.samples[1:]):
            if _loss_rose(a.loss_value, b.loss_value, first):
                raise ValueError(
                    f"loss increased between t={a.t:.6g} and t={b.t:.6g}")

    @property
    def depth(self) -> int:
        return self.samples[0].thetas.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])


def _sample(thetas: np.ndarray, t: float, loss_value: float) -> FlowSample:
    n_layers = thetas.shape[0]
    max_norm = spectral_norm(thetas)
    smooth = n_layers * spectral_norm(np.diff(thetas, axis=0)) if n_layers > 1 else 0.0
    return FlowSample(t, loss_value, max_norm, smooth, thetas)


def integrate_flow(state0: FlowState, target, t_end: float,
                   dt: float, snapshot_times: Sequence[float]) -> FlowTrace:
    """March all layers jointly with classical Runge-Kutta steps in t.

    The trace holds one sample per snapshot time, plus a final sample
    at t_end when the last snapshot falls short of it.  Segments
    between snapshots are cut into equal steps no longer than dt, so
    every snapshot is landed on exactly; dt may not exceed MAX_STEP_SIZE.
    A loss increase beyond the relative tolerance aborts with
    StepSizeError at the start time of the failing step.  Every loss,
    the starting one included, is read from the full product built by
    the velocity evaluation at the same layers, which is also the next
    step's first RK4 stage; the inner stages take no loss.
    """
    target = _require_target(target, state0).copy()   # the trace keeps it
    if not (0.0 < dt <= MAX_STEP_SIZE * (1.0 + 1e-12)):
        raise ValueError(f"dt must lie in (0, {MAX_STEP_SIZE:.6g}]")
    stops = [float(t) for t in snapshot_times]
    if any(b <= a for a, b in zip(stops, stops[1:])):
        raise ValueError("snapshot times must be strictly increasing")
    if stops and (stops[0] < state0.t - 1e-12 or stops[-1] > t_end + 1e-12):
        raise ValueError("snapshot times must lie within [state0.t, t_end]")
    if t_end < state0.t:
        raise ValueError("t_end precedes the initial time")
    if not stops or stops[-1] < t_end - 1e-12:
        stops.append(t_end)

    thetas = state0.matrices()
    t = state0.t
    velocity = _bind_flow(*thetas.shape[:2])[1]
    field = lambda th, m: velocity(th, target)[0]
    v, gap = velocity(thetas, target)
    current_loss = _sq_norm(gap)
    samples = []
    if abs(stops[0] - t) <= 1e-12:
        samples.append(_sample(thetas, t, current_loss))
        stops = stops[1:]
    first = current_loss
    for stop in stops:
        span = stop - t
        steps = max(1, math.ceil(span / dt - 1e-12))
        h = span / steps
        for k in range(steps):
            thetas = thetas + _rk4_increment(field, thetas, h, k1=v)
            v, gap = velocity(thetas, target)
            new_loss = _sq_norm(gap)
            if _loss_rose(current_loss, new_loss, first):
                raise StepSizeError(
                    f"loss rose from {current_loss:.6g} to {new_loss:.6g} "
                    f"near t={t + k * h:.6g}; reduce dt below {h:.3g}")
            current_loss = new_loss
        t = stop
        samples.append(_sample(thetas, t, current_loss))
    return FlowTrace(samples, target)


@dataclass
class RegimeReport:
    passes: bool
    loss_margin: float    # LOSS_THRESHOLD - sqrt(initial loss); pass while > 0
    norm_margin: float    # 1/4 - max spectral norm; pass while >= 0


def check_small_loss_regime(state0: FlowState, target) -> RegimeReport:
    """Entry condition for the guaranteed-decay regime.

    Requires sqrt(loss(0)) < LOSS_THRESHOLD together with every layer
    matrix having spectral norm at most 1/4.
    """
    value = loss(state0, target)
    # An overflowing product has an infinite loss, even where inf - inf made it nan.
    root_loss = math.sqrt(value) if value < math.inf else math.inf
    max_norm = spectral_norm(state0.matrices())
    loss_margin = LOSS_THRESHOLD - root_loss
    norm_margin = 0.25 - max_norm
    return RegimeReport(loss_margin > 0.0 and norm_margin >= 0.0, loss_margin, norm_margin)


@dataclass
class MonitorReport:
    max_theta_norm: float
    max_smoothness_stat: float
    max_decay_ratio: float   # worst loss(t) / (exp(-(2/e) (t - t0)) loss(t0)) off the floor
    theta_bound_ok: bool     # all sampled norms < 1/2
    decay_ok: bool           # decay ratio <= 1 + DECAY_SLACK


def monitor_invariants(trace: FlowTrace) -> MonitorReport:
    """Check the trained-weight norm bound and the loss-decay envelope."""
    t0 = trace.samples[0].t
    l0 = trace.samples[0].loss_value
    max_norm = max(s.max_theta_norm for s in trace.samples)
    max_smooth = max(s.smoothness_stat for s in trace.samples)
    rate = 2.0 / math.e
    ratios = []
    scale = math.sqrt(_sq_norm(trace.target))
    for s in trace.samples:
        envelope = math.exp(-rate * (s.t - t0)) * l0
        if not above_noise_floor(math.sqrt(s.loss_value), scale):
            ratios.append(0.0)  # at the rounding floor of ||B||_F: no decay left to resolve
        else:
            ratios.append(s.loss_value / envelope if envelope else math.inf)
    max_ratio = max(ratios)
    return MonitorReport(max_norm, max_smooth, max_ratio,
                         max_norm < 0.5, max_ratio <= 1.0 + DECAY_SLACK)


def _require_comparable(traces: Sequence[FlowTrace]) -> None:
    """Traces compared across depths share their sample times and their target."""
    for tr in traces[1:]:
        if not np.array_equal(tr.times, traces[0].times):
            raise ValueError("traces were sampled at different times")
        if not np.array_equal(tr.target, traces[0].target):
            raise ValueError("traces come from different problems")


def depth_double_compare(trace_n: FlowTrace, trace_2n: FlowTrace) -> float:
    """sup over sampled (t, n) of ||theta_n(t) - theta_{2n}(t)|| (Frobenius).

    Layer n of the depth-N run is paired with layer 2n of the depth-2N
    run; both cover the depth interval ending at n/N.
    """
    if trace_2n.depth != 2 * trace_n.depth:
        raise ValueError("second trace must have exactly twice the depth")
    _require_comparable([trace_n, trace_2n])
    return max(float(np.max(np.linalg.norm(a.thetas - b.thetas[1::2], axis=(1, 2))))
               for a, b in zip(trace_n.samples, trace_2n.samples))


@dataclass
class LimitMapReport:
    """Exact L2 gaps of each shallower step profile to the deepest run's, and their fits."""

    depths: np.ndarray           # shallower depths, ascending
    times: np.ndarray            # shared sample times
    distances: np.ndarray        # (times, depths) exact L2 gaps to the reference
    per_time_fits: list          # Optional[SlopeFit] per sample time
    sup_fit: Optional[SlopeFit]  # fit of sup_t distance against depth


def _profile_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Exact L2 distance over s in (0, 1] of the step profiles of two layer stacks.

    In units of 1/(N_a N_b) the cells of the two profiles end at the
    integers k N_b and j N_a.  Both profiles are constant between merged
    edges, so the integral is a width-weighted sum over at most
    N_a + N_b - 1 intervals.
    """
    na, nb = len(a), len(b)
    # A Python set, not np.union1d: that imports numpy.ma, 1.7 MB of peak RSS.
    edges = np.array(sorted({*range(nb, na * nb + 1, nb), *range(na, na * nb + 1, na)}))
    diff = a[(edges - 1) // nb] - b[(edges - 1) // na]
    widths = np.diff(edges, prepend=0)
    return math.sqrt(float(np.sum(widths * np.sum(diff ** 2, axis=(1, 2)))) / (na * nb))


def extract_limit_map(traces: Sequence[FlowTrace]) -> LimitMapReport:
    """L2 convergence of the depth profiles toward the deepest trace.

    At every sample time, each shallower run's step profile
    psi_N(s) = theta_ceil(N s) is compared with the reference run's by
    their exact L2 distance over s in (0, 1]; any set of distinct depths
    fitted to one target, sampled at the same times, is accepted.
    """
    ordered = sorted(traces, key=lambda tr: tr.depth)
    depths = [tr.depth for tr in ordered]
    if len(depths) < 3:
        raise ValueError("need at least two depths plus a reference trace")
    if len(set(depths)) != len(depths):
        raise ValueError("traces must have distinct depths")
    _require_comparable(ordered)
    ref = ordered[-1]
    rest = ordered[:-1]
    times = ref.times

    distances = np.array([[_profile_gap(tr.samples[ti].thetas, ref.samples[ti].thetas)
                           for tr in rest] for ti in range(len(times))])

    rest_depths = np.array(depths[:-1], dtype=float)

    def fit(row):
        """A row's slope, or None when a distance is zero and has no log."""
        return fit_loglog_slope(list(zip(rest_depths, row))) if np.all(row > 0.0) else None
    return LimitMapReport(rest_depths, times, distances,
                          [fit(row) for row in distances], fit(distances.max(axis=0)))


def product_vs_ode(thetas) -> float:
    """Worst end-state gap between the layer product and the ODE flow.

    The (N, d, d) layer stack induces the piecewise-constant linear field
    dx/ds = psi(s) x; the discrete product applies (I + theta_n/N) where
    the flow applies the exponential of theta_n/N, so the gap shrinks
    like 1/N.  Measured over PROBES unit-norm probe inputs drawn from
    PROBE_SEED.

    In closed form, the flow is the RK4 oracle's with K = ODE_STEPS_PER_LAYER
    sub-steps per layer: layer n is (I + E_n)^(K-1) (I + F_n), accumulated
    one sub-step at a time in increment form (I + A)(I + B) = I + (A + B + AB),
    so the O(1/(KN)) increments never round against I.  The field is left-
    continuous: stage 0 of F_n applies theta_{n-1} (theta_0 for layer 1).
    """
    thetas = require_finite(thetas, "thetas")
    if thetas.ndim != 3 or not len(thetas) or thetas.shape[1] != thetas.shape[2]:
        raise ValueError("expected an (N, d, d) stack of square matrices, N >= 1")
    n_layers, d, _ = thetas.shape

    h = 1.0 / (ODE_STEPS_PER_LAYER * n_layers)
    eye = np.broadcast_to(np.eye(d), thetas.shape)
    prev = np.concatenate([thetas[:1], thetas[:-1]])
    x0 = np.random.default_rng(PROBE_SEED).standard_normal((d, PROBES))
    x0 /= np.linalg.norm(x0, axis=0)
    x = x0
    # An overflowing layer turns x non-finite, which the check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        layers = _rk4_increment(lambda y, m: (prev if m == 0 else thetas) @ y, eye, h)
        step = _rk4_increment(lambda y, m: thetas @ y, eye, h)
        for _ in range(ODE_STEPS_PER_LAYER - 1):
            layers = layers + step + step @ layers
        for n, inc in enumerate(layers):
            x = x + inc @ x
            _check_divergence(x, n, "ode oracle")
    gaps = np.linalg.norm(transport_product(thetas) @ x0 - x, axis=0)
    return float(np.max(gaps))


def small_loss_target(state0: FlowState, seed: int = 0) -> np.ndarray:
    """Target matrix placing the initial loss inside the regime threshold.

    B = Pi(0) + eps * E with E of unit Frobenius norm, so the initial
    loss is exactly eps^2 = LOSS_FRACTION * LOSS_THRESHOLD^2.
    """
    rng = np.random.default_rng(seed)
    d = state0.dim
    direction = rng.standard_normal((d, d))
    direction /= math.sqrt(_sq_norm(direction))
    eps = LOSS_THRESHOLD * math.sqrt(LOSS_FRACTION)
    return transport_product(state0.matrices()) + eps * direction
