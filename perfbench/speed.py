"""Scaling of measured times to a reference machine speed.

The speed of a shared 2-vCPU VM swings by up to 2x within minutes, for the
program and for any fixed code alike.  So the benchmark times a fixed
calibration kernel, which does not touch relaysel, next to every timed span
in the same process, and multiplies the span by REFERENCE_CAL_S over the
kernel's time: the result reads as seconds on a machine where the kernel
takes REFERENCE_CAL_S.
"""

import math
import time

import numpy as np
from scipy import special

REFERENCE_CAL_S = 0.005
_X = np.linspace(0.1, 50.0, 20000)


def calibrate() -> float:
    """Seconds one run of the kernel takes: a Python loop over math.lgamma
    and a few numpy/scipy array operations, the mix of the workloads' own
    inner loops."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        acc += math.lgamma(i + 1.5)
    special.gammainc(3.5, _X).sum()
    np.exp(-_X).cumsum()
    return time.perf_counter() - t


def scale(*cal_s: float) -> float:
    """Factor from seconds measured while the kernel took `cal_s` (their
    mean) to reference seconds."""
    return REFERENCE_CAL_S * len(cal_s) / sum(cal_s)
