"""Host-speed sampling, so timings on a drifting shared host compare.

On a shared VM the speed of the same code drifts by up to 2x over
minutes, in phases that outlast a whole run.  A fixed loop shaped like a
workload's hot path slows down with that workload: on a 2-core x86-64
VM, dividing 25 s window medians of a training workload by the kernel
loop's time cut their quartile spread from 21 % to 5 %.  The loop is
sampled on a wall-clock timer *while* the workload runs, because
calibrating only between CLI calls misses the phases inside an 11 s call.

The loops never call odenet.  That a change to the package cannot move
them is an assumption, not a guarantee: they run in the workload's own
process and share its caches, allocator and interpreter.  The check in
steadiness.json ("known extra work") adds a fixed amount of work to each
workload's hot path and compares how raw and corrected wall time move.
Each sample's time is taken out of the workload's wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
# Reported times are seconds on a host where one sample takes this long.
NOMINAL_S = 0.005


def _kernel_loop() -> None:
    """Batch-1 residual updates: numpy dispatch cost, like the kernels."""
    x = np.ones(4)
    w1 = np.full((8, 4), 0.1)
    w2 = np.full((4, 8), 0.1)
    for _ in range(1_500):
        x = x + w2 @ np.tanh(w1 @ x) * 1e-3


def _flow_loop() -> None:
    """A 4x4 prefix-product scan and a 3-operand einsum, like the flow RHS."""
    thetas = np.full((32, 4, 4), 0.01)
    pre = np.empty((33, 4, 4))
    for _ in range(25):
        factors = np.eye(4)[None] + thetas / 32
        pre[0] = np.eye(4)
        for n in range(32):
            pre[n + 1] = factors[n] @ pre[n]
        thetas = thetas + 1e-6 * np.einsum("nji,jk,nlk->nil", pre[1:], np.eye(4), pre[:-1])


# The two workload mixes respond differently to a busy host (a Python-
# dispatch loop and an arithmetic loop do not slow alike), so each
# workload is sampled with the loop shaped like its own hot path.  Over
# the same flow runs on seeds 0-9 (2 repetitions a run), wall_s had a
# quartile spread of 11.0 % uncorrected, 13.6 % corrected by the kernel
# loop and 8.2 % by the flow loop ("calibration loops on flow" in
# steadiness.json).
LOOPS = {"kernel": _kernel_loop, "flow": _flow_loop}


def calibrate(kind: str) -> float:
    """Seconds for one fixed calibration loop of the given kind."""
    loop = LOOPS[kind]
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


class HostSpeed:
    """Runs ``calibrate(kind)`` every PERIOD_S of wall time inside a ``with`` block.

    Each sample's ``time.perf_counter`` interval is kept in ``pauses``, so
    a span recorder's durations can leave the samples out.  The handler
    touches nothing else: it may interrupt the recorder mid-update.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self.spent = 0.0      # wall seconds taken by sampling, timer included

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate(self.kind))
        end = time.perf_counter()
        self.pauses.append((start, end))
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self) -> float:
        """Multiply a measured time by this to get nominal-host seconds."""
        if not self.samples:
            self.samples.append(calibrate(self.kind))
        return NOMINAL_S / statistics.fmean(self.samples)
