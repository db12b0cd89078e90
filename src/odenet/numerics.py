"""Dense linear algebra, the RK4 stepper, and slope fitting.

All data is plain float64 numpy: vectors are 1-D arrays, matrices 2-D
arrays in row-major semantic order.  Every routine here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SlopeFit",
    "spectral_norm",
    "fit_loglog_slope",
    "above_noise_floor",
    "require_finite",
]

# Points closer to the rounding floor than this multiple of machine
# epsilon (relative to the trajectory scale) carry no rate information.
NOISE_FLOOR_FACTOR = 100.0


def require_finite(arr, label: str = "array") -> np.ndarray:
    """Return ``arr`` as a float64 ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(arr, dtype=float)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{label} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares of log(error) against log(N)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared outside [0, 1]: {self.r_squared}")
        if self.points_used < 2:
            raise ValueError("a slope fit needs at least two points")


def spectral_norm(m) -> float:
    """Largest singular value of a dense matrix, or of any in a stack.

    ``m`` is one matrix or a stack of shape (..., rows, cols).  The value
    is taken from the singular values LAPACK computes, so no input can
    hide its top singular direction from a start vector, and repeated
    calls on the same input return the same value.
    """
    a = require_finite(m, "matrix")
    if a.ndim < 2 or a.size == 0:
        raise ValueError("spectral_norm expects a non-empty matrix or stack of matrices")
    return float(np.max(np.linalg.norm(a, 2, axis=(-2, -1))))


def _rk4_stepper(h, shape):
    """The increment one classical Runge-Kutta step of x' = g(x, stage)
    with step h adds to a state of ``shape``, bound once per step size:
    increment(g, x, m=0, k1=None) returns (h/6)(k1 + 2 k2 + 2 k3 + k4) as
    a fresh array.

    The four stages evaluate g at stages m, m + 1, m + 1 and m + 2, so a
    caller indexing half-steps gets the start, midpoint and end of the
    step.  ``k1`` is g(x, m) when the caller already has it.  g must
    return a fresh array: its input may be a scratch buffer.

    The coefficients 0.5h, h, h/6 and 2 are bound as 0-d arrays and
    every stage point and partial sum is written into two scratch buffers
    of ``shape``: on a 4-entry state numpy's fixed per-call cost
    dominates, and a 0-d array times it into a buffer costs about two
    thirds of a Python float times it.  Each product and sum rounds as
    the formula does.
    """
    half, full, sixth, two = (np.array(c) for c in (0.5 * h, h, h / 6.0, 2.0))
    point, total = np.empty(shape), np.empty(shape)
    add, mul = np.add, np.multiply

    def increment(g, x, m=0, k1=None):
        k1 = g(x, m) if k1 is None else k1
        k2 = g(add(x, mul(half, k1, point), point), m + 1)
        add(k1, mul(two, k2, total), total)
        k3 = g(add(x, mul(half, k2, point), point), m + 1)
        add(total, mul(two, k3, point), total)
        k4 = g(add(x, mul(full, k3, point), point), m + 2)
        return mul(sixth, add(total, k4, total))
    return increment


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Fit log(error) = slope*log(N) + intercept by least squares.

    ``points`` is a sequence of (N, error) pairs with N >= 1 strictly
    increasing and error > 0.  Callers must drop numerical-floor points
    first (see :func:`above_noise_floor`).
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    ns = np.array([float(p[0]) for p in pts])
    errs = np.array([float(p[1]) for p in pts])
    if np.any(errs <= 0.0):
        raise ValueError("all errors must be positive; filter floor points first")
    if np.any(ns < 1.0):
        raise ValueError("all N must be >= 1")
    if np.any(np.diff(ns) <= 0.0):
        raise ValueError("N values must be strictly increasing")

    x = np.log(ns)
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    return SlopeFit(float(slope), float(intercept), r2, len(pts))


def above_noise_floor(errors, scale: float) -> np.ndarray:
    """Mask of error values that sit above the rounding floor.

    The floor is NOISE_FLOOR_FACTOR * machine epsilon relative to the
    magnitude ``scale`` of the quantity the errors were measured on.
    """
    errs = np.asarray(errors, dtype=float)
    floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps * max(abs(scale), np.finfo(float).tiny)
    return errs >= floor
