"""Machine-speed calibration kernel and the rescaler built on it.

The benchmark runs on small shared virtual machines whose speed drifts by
tens of percent over a few seconds.  A fixed kernel, timed between work
units, measures that drift: every raw duration is multiplied by
``REFERENCE_S / kernel_seconds`` so that it reads as seconds on the
reference machine (the one on which the kernel took ``REFERENCE_S``).

The kernel mixes what the measured program spends its time on: pure
Python dict and float work (annealing bookkeeping), object construction
with stamping into small matrices (netlist building and MNA assembly)
and many small dense LU solves.  It deliberately imports
nothing from ``repro`` so that no change to the program can change the
yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel wall time on the reference machine (a 2-vCPU x86-64 VM with
#: numpy/OpenBLAS single-threaded).  Changing it rescales every reported
#: timing, so it is part of the benchmark definition and is recorded with
#: each result.
REFERENCE_S = 0.0160
#: Elasticity of the workloads' time with respect to the kernel's time as
#: the machine's speed drifts: the slope of log(work seconds) against
#: log(kernel seconds) over windows of ten sizing runs was 0.82, i.e. the
#: kernel speeds up and slows down a little more than the program does.
#: Rescaling by (REFERENCE_S / kernel)**ALPHA instead of the plain ratio
#: halved the run-to-run spread of csa_sizing's solve_s.
ALPHA = 0.8

_N = 30
_SOLVES = 300
_PY_ITERS = 12000


def _system() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((_N, _N)) + _N * np.eye(_N)
    b = rng.standard_normal(_N)
    return a, b


_A, _B = _system()


class _Device:
    __slots__ = ("name", "a", "b", "value")

    def __init__(self, name: str, a: int, b: int, value: float) -> None:
        self.name = name
        self.a = a
        self.b = b
        self.value = value


def _stamp_and_solve(rep: int) -> float:
    devices = [_Device(f"r{i}", i % 20, (i * 7 + 1) % 20, 1.0 + 0.01 * i + rep)
               for i in range(60)]
    nodes: dict[int, int] = {}
    for dev in devices:
        nodes.setdefault(dev.a, len(nodes))
        nodes.setdefault(dev.b, len(nodes))
    n = len(nodes)
    g_mat = np.zeros((n, n))
    for dev in devices:
        i, j, g = nodes[dev.a], nodes[dev.b], 1.0 / dev.value
        g_mat[i, i] += g
        g_mat[j, j] += g
        g_mat[i, j] -= g
        g_mat[j, i] -= g
    g_mat += np.eye(n) * 1e-3
    acc = 0.0
    for it in range(6):
        acc += float(np.linalg.solve(g_mat + np.eye(n) * 0.01 * it,
                                     np.ones(n))[0])
    return acc


def kernel() -> float:
    """Run the kernel once; returns a checksum so the work cannot vanish."""
    acc = 0.0
    table: dict[str, float] = {}
    for i in range(_PY_ITERS):
        key = f"n{i % 64}"
        value = table.get(key, 1.0) * 0.999 + (i % 7) * 1e-3
        table[key] = value
        acc += value
    a = _A.copy()
    for k in range(_SOLVES):
        a[k % _N, k % _N] += 1e-3
        acc += float(np.linalg.solve(a, _B)[0])
    for rep in range(12):
        acc += _stamp_and_solve(rep)
    return acc


def sample() -> float:
    """Time one kernel run (seconds)."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken during one run, in the order they were taken.

    ``take(n)`` appends ``n`` samples and returns their indices;
    ``factor(indices)`` is the rescaling factor for work done next to
    those samples: ``(REFERENCE_S / mean) ** ALPHA``.  The mean, not the
    median, because a burst of lost CPU time lands in the work and in
    the kernel in proportion to their wall time, and the ratio of sums
    cancels it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take(self, n: int = 1) -> list[int]:
        start = len(self.samples)
        for _ in range(n):
            self.samples.append(sample())
        return list(range(start, len(self.samples)))

    def factor(self, indices) -> float:
        mean = statistics.fmean(self.samples[i] for i in indices)
        return (REFERENCE_S / mean) ** ALPHA

    def record(self) -> dict:
        return {"reference_s": REFERENCE_S, "alpha": ALPHA,
                "samples_s": list(self.samples),
                "mean_s": statistics.fmean(self.samples)
                if self.samples else None}
