"""Calibration kernel and the scaling of CPU times to a reference speed.

The host a benchmark runs on may change speed as a whole, with load from
outside the machine.  A workload process therefore times a fixed kernel that
does not call ``sqzmet`` (interpreted Python, small dense linear algebra and
a streaming array pass, about a third of its time each) before its first
operation and then between operations at least every ``CAL_INTERVAL_S``, and
every CPU time it reports is scaled by ``CAL_REF_S`` over the kernel's time
around it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_INTERVAL_S = 0.25
CAL_SETUP_PASSES = 5
CAL_REF_S = 0.007  # calibration pass at reference speed (a quiet Xeon core)
CAL_SMOOTH = 5  # each latency is scaled by the median of this many nearby passes
CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
CAL_STREAM = np.ones(1_000_000)


def calibration_pass() -> float:
    """CPU seconds one pass of the fixed calibration kernel takes."""
    started = time.process_time()
    total = 0
    for i in range(30_000):
        total += i * i
    a = CAL_MATRIX
    for _ in range(4):
        a = a @ a
        a /= np.linalg.norm(a)
        np.linalg.eigh(a + a.T)
    CAL_STREAM * 1.0001
    return time.process_time() - started


def speed_factors(count: int, calibration) -> list[float]:
    """Per operation, ``CAL_REF_S`` over the median of the ``CAL_SMOOTH``
    calibration passes nearest to it; ``calibration`` holds (index of the
    next operation, seconds) pairs in order."""
    factors, k, half = [], 0, CAL_SMOOTH // 2
    for i in range(count):
        while k + 1 < len(calibration) and calibration[k + 1][0] <= i:
            k += 1
        near = calibration[max(0, k - half):k + half + 1]
        factors.append(CAL_REF_S / statistics.median(s for _, s in near))
    return factors
