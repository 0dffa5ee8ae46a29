"""Machine-speed calibration for the timings.

On a small shared machine the speed of a core drifts by 20-30 % over
seconds to minutes, for interpreted Python and BLAS work alike, and the
drift is the same whatever the program does.  The benchmark therefore times
a fixed calibration kernel next to every measured interval (before and
after it) and scales the interval to the speed at which the kernel takes
``REFERENCE_S``.  Times it reports are wall seconds at that reference speed;
a faster program still reads proportionally faster.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds the calibration kernel takes at the reference speed.
REFERENCE_S = 0.0025

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def _kernel() -> float:
    """Interpreted loop, matrix products and one eigendecomposition, as the suites mix them."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(8):
        _MATRIX @ _MATRIX
    np.linalg.eigh(_MATRIX + _MATRIX.T)
    return time.perf_counter() - started


#: Kernel timings per sample.  The kernel's own time moves by 20-30 % from
#: one tenth of a second to the next, so a sample spans about 40 ms, and the
#: median keeps a single descheduled timing out of it.
SAMPLE_KERNELS = 15


def sample() -> float:
    """The local speed: median of ``SAMPLE_KERNELS`` kernel timings, in seconds."""
    return statistics.median(_kernel() for _ in range(SAMPLE_KERNELS))


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale an interval timed between two samples to the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
