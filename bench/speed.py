"""Fixed calibration kernels that measure how fast the machine runs right now.

On a shared host the same operation can take up to twice as long from one
second to the next, because of other tenants. A run that lands in a slow
phase then reads slow throughout, whatever the program does. So the
benchmark times a fixed kernel between every two operations, and scales
each operation's time by the ratio of the kernel's reference time to the
mean of the kernel times taken around it (``run.py`` says which). The
kernels use no cayleyiso code, so a change to the program cannot move
them.

Each workload uses the kernel that does its kind of work, because the slow
phases do not slow every kind of work alike:

* ``python``: a breadth-first search over tuples in a set, the inner loop
  of the generic set calculus in ``groups`` and ``isoperimetry``.
* ``numpy``: shifted boolean ORs and a cumulative-minimum scan over a
  fixed grid, the operations of the ``_grid`` bitmap kernels.
* ``spawn``: a fresh interpreter that imports numpy, the start-up that
  every CLI run pays.

``REFERENCE_S`` holds each kernel's time on a 2-vCPU Xeon VM, so a scaled
time reads as seconds on that machine.
"""

from __future__ import annotations

import subprocess
import sys
import time


def python_kernel() -> int:
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while len(seen) < 6000:
        grown = []
        for x, y in frontier:
            for v in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if v not in seen:
                    seen.add(v)
                    grown.append(v)
        frontier = grown
    return len(seen)


_GRID = None


def numpy_kernel() -> int:
    global _GRID
    import numpy as np

    if _GRID is None:
        _GRID = np.zeros((1024, 1024), dtype=bool)
        _GRID[1:-1:3, 1:-1:2] = True
    mask = _GRID
    out = np.zeros_like(mask)
    out[:-1, :] |= mask[1:, :]
    out[1:, :] |= mask[:-1, :]
    out[:, :-1] |= mask[:, 1:]
    out[:, 1:] |= mask[:, :-1]
    out &= ~mask
    d = np.where(out, np.int32(0), np.int32(2049))
    d = np.minimum.accumulate(d, axis=0)
    return int(d.sum())


def spawn_kernel(env=None) -> int:
    return subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                          check=True).returncode


KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "spawn": spawn_kernel}
REFERENCE_S = {"python": 0.0055, "numpy": 0.025, "spawn": 0.18}


def timed(kernel: str, **kwargs) -> float:
    """Seconds one run of ``kernel`` takes now."""
    start = time.perf_counter()
    KERNELS[kernel](**kwargs)
    return time.perf_counter() - start


def scaled(seconds: float, kernel: str, kernel_s: float) -> float:
    """``seconds`` at the reference speed, given the kernel's time then."""
    return seconds * REFERENCE_S[kernel] / kernel_s
