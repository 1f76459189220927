"""Machine-speed yardstick: fixed work, independent of nullcode, timed
between ops so that op times can be scaled to a reference speed.

On a shared host the speed of one vCPU can change by 1.6x within minutes
(another tenant on the same physical core), and interpreter-bound code
slows more than large vectorised numpy work.  Raw wall-clock times then
spread by 10-20% between runs of identical inputs, which hides the changes
the benchmark exists to show.  After every timed op the worker runs one
pass of the kernels below; each op's latency is multiplied by

    reference time of the workload's kernels / their measured time,

with the measured time a running median over nearby passes.  The scaled
value is what the op would take on a host where one pass of the kernels
takes ``REFERENCE_S``.  Raw times are recorded next to the scaled ones.

Each workload uses the kernels that track it (``MIX``), chosen from the
ratio of op time to kernel time over 20-45 s windows while the host's speed
swung: the partition op is dominated by bincounts over arrays of megabytes
and follows the two bincount kernels (a host slowdown that stretched
interpreter code by 1.6x stretched the partition op by about 1.1x;
``numpy_32k`` alone over-corrected two runs in ten); the other three are
interpreter-bound with many small numpy calls and follow the sum of the
``python``, ``numpy_8`` and ``numpy_4k`` kernels.

The yardstick runs in the benchmark process, so work that nullcode leaves
running between ops (a thread, say) would slow it and flatter the scaled
times; compare ``yardstick_ms`` between two commits before trusting a
scaled gain.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_ARRAYS = {n: np.arange(n, dtype=np.int64) for n in (8, 4096, 32768)}


def _python() -> int:
    d: dict = {}
    acc = 0
    for i in range(4000):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + i
        acc ^= (i * i) & 0xFFFF
    return acc


def _numpy_8() -> int:
    a = _ARRAYS[8]
    acc = 0
    for i in range(400):
        x = a ^ (i & 7)
        acc += int(np.nonzero(x)[0].size) + int(x[a[::-1]].sum())
    return acc


def _numpy_4k() -> int:
    acc = 0
    for j in range(25):
        x = (_ARRAYS[4096] * (j + 3)) % 4093
        acc += int(np.bincount(x & 1023, minlength=1024).argmax())
    return acc


def _numpy_32k() -> int:
    acc = 0
    for j in range(4):
        x = (_ARRAYS[32768] * (j + 3)) % 65521
        acc += int(np.bincount(x & 4095, minlength=4096).argmax())
    return acc


KERNELS = {
    "python": _python,
    "numpy_8": _numpy_8,
    "numpy_4k": _numpy_4k,
    "numpy_32k": _numpy_32k,
}

# seconds per kernel on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) when
# no other tenant shares its cores; they only fix the unit of scaled times
REFERENCE_S = {"python": 1.0e-3, "numpy_8": 1.6e-3, "numpy_4k": 0.75e-3, "numpy_32k": 0.75e-3}

_INTERPRETER = ("python", "numpy_8", "numpy_4k")
MIX = {
    "referee": _INTERPRETER,
    "partition": ("numpy_4k", "numpy_32k"),
    "transform": _INTERPRETER,
    "algebra": _INTERPRETER,
}

# Passes on each side of an op in the running median.  The host's speed can
# change within a second; a wider window (8) left single runs with a slowed
# tail of ops unscaled, doubling op_p90_ms's spread between seeds on algebra.
WINDOW = 2


def one_pass() -> list[float]:
    """Seconds taken by each kernel, in ``KERNELS`` order."""
    out = []
    for fn in KERNELS.values():
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def _mix_times(passes: list[list[float]], workload: str) -> list[float]:
    cols = [list(KERNELS).index(k) for k in MIX[workload]]
    return [sum(p[c] for c in cols) for p in passes]


def scale_factors(passes: list[list[float]], workload: str) -> list[float]:
    """Per pass: reference time of the workload's mix over its running
    median measured time."""
    ref = sum(REFERENCE_S[k] for k in MIX[workload])
    t = _mix_times(passes, workload)
    return [
        ref / statistics.median(t[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(t))
    ]


def mix_ms(passes: list[list[float]], workload: str) -> float:
    """Median measured time of the workload's mix, in ms."""
    return 1e3 * statistics.median(_mix_times(passes, workload))
