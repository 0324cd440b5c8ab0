"""Machine-speed normalisation of job times.

The benchmark runs on shared hosts whose speed drifts by up to 2x, both
from second to second and over minutes. The guest reports no steal time,
and process CPU time tracks wall time, so the slowdown is contention on
the host. Medians within one run cannot remove a slow phase that lasts the
whole run: over ten seeds, the quartile spread of raw sim-ensemble median
job times was 27 %.

A fixed kernel that does not use skagree is therefore timed right before
every job and after the last one. It mixes entropy-style Python loops with
``math.fsum``, small numpy reductions and ``kron``, and one masked argmax,
the same kinds of work as the package's hot paths. Each job time is then
reported in reference-speed seconds (unit ``ref_s``): the time the job
would take at the speed at which the kernel takes ``REF_S`` seconds.

    normalised = measured * REF_S / mean(kernel time before, kernel time after)

The kernel's code does not depend on skagree, so a change to skagree moves
normalised times as it moves raw ones, unless it changes what the process
leaves behind for the kernel (threads still running, a grown heap, evicted
caches). Raw job times and the kernel times are kept in the result file.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REF_S = 0.04  # kernel time that defines the reference speed
_ROWS = np.random.default_rng(12345).random((64, 8))
_CELLS = np.random.default_rng(54321).random((256, 512))


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = perf_counter()
    for _ in range(10):
        for row in _ROWS:
            p = row / row.sum()
            math.fsum(x * math.log2(x) for x in p.tolist())
            np.power(p, 0.7).sum()
            np.kron(p[:4], p[4:]).sum()
        np.where(_CELLS > 0.5, _CELLS, -1.0).argmax(axis=0)
    return perf_counter() - t0


def normalise(times: list, kernels: list) -> list:
    """Scale times[i] by the kernel times measured just before and after it
    (kernels has one more entry than times)."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel time before each sample and one after the last")
    return [t * REF_S / ((kernels[i] + kernels[i + 1]) / 2.0)
            for i, t in enumerate(times)]
