"""Wall time corrected for the momentary speed of a shared host.

On a shared machine the same single-threaded work runs up to twice as
slowly from one stretch of a few seconds to the next, while other tenants
contend for the physical core, and no in-run median removes that.  So
:func:`timed` samples the host's speed *while* the measured call runs:
every :data:`INTERVAL_S` a timer signal runs a fixed ~1 ms pure-Python
kernel.  The kernels' own time is subtracted from the call's wall time,
and what is left is divided by the mean kernel time over
:data:`REFERENCE_KERNEL_S`.  The result is in *reference seconds*: seconds
on a host where the kernel takes :data:`REFERENCE_KERNEL_S`, which is
about a quiet 2-CPU Xeon host running CPython 3.11.  Per-layer times of
traced runs are left uncorrected; they are compared only within one run.
"""

import signal
import statistics
import time

#: kernel time on the reference host, in seconds
REFERENCE_KERNEL_S = 0.001
#: seconds between two speed samples
INTERVAL_S = 0.05
_KERNEL_STEPS = 6000


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel.

    Dict reads and writes, float arithmetic and list growth: the
    interpreter work the serving simulator and the model loop are made of.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    items: list[float] = []
    for i in range(_KERNEL_STEPS):
        key = i & 255
        value = table.get(key, 0.0) + i * 0.5
        table[key] = value
        items.append(value)
        if len(items) > 64:
            items.clear()
    return time.perf_counter() - t0


def slowdown(samples: int = 20) -> float:
    """How many times slower than the reference host this one runs now."""
    return statistics.median(
        kernel_s() for _ in range(samples)
    ) / REFERENCE_KERNEL_S


def timed(fn, *args):
    """Run ``fn(*args)`` on the main thread, sampling the host's speed.

    Returns the result and the call's duration in reference seconds.
    """
    samples: list[float] = []

    def sample(signum, frame):
        samples.append(kernel_s())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    work = wall - sum(samples)
    if not samples:  # shorter than one interval: sample right after
        samples.append(kernel_s())
    return result, work * REFERENCE_KERNEL_S / statistics.fmean(samples)
