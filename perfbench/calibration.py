"""Machine-speed calibration for timings taken on a shared host.

On a small shared host the speed of the same code drifts by up to 2x, over
seconds and within a second, as neighbours come and go.  The benchmark
therefore times a fixed pure-Python float kernel just before and just after
each op it measures, and scales the op's wall time by NOMINAL_NS / (mean of
those two kernel times).  A reported time is the wall time the op would take
on a machine where the kernel takes NOMINAL_NS, which is about the fast state
of a 2-vCPU x86_64 host at 2.0 GHz running CPython 3.11.  The library is
scalar Python code like the kernel, so the ratio op/kernel moves far less
than either does: on that host a few percent, against 2x for raw wall time.
Scaling by the median kernel time over three ops on each side instead
tripled the run-to-run spread of the 90th-percentile latency there.

The raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

NOMINAL_NS = 100_000


def kernel_ns() -> int:
    """Wall time of one run of the fixed kernel (about 0.1 ms)."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(1, 300):
        x = i * 0.01
        acc += math.sqrt(x) * math.atan(x) + cmath.sqrt(complex(-x, 0.5)).real
    return time.perf_counter_ns() - t0


def scale(samples: list[int]) -> float:
    """Factor that turns wall time taken while `samples` were measured into
    nominal time."""
    return NOMINAL_NS / statistics.median(samples)


def local_scales(samples: list[int], n_ops: int) -> list[float]:
    """Per-op factors; samples[i] was taken just before op i and
    samples[n_ops] just after the last op."""
    if len(samples) != n_ops + 1:
        raise ValueError("need one kernel sample before each op and one after the last")
    return [scale(samples[i:i + 2]) for i in range(n_ops)]
