"""Host speed probe: fixed bench-owned kernels timed during a pass.

The benchmark runs on a few cores of a shared host whose speed wanders:
the same code runs up to 1.5 times slower for stretches of seconds to
minutes, and CPU time slows with wall time (the slowdown is not stolen
time that a CPU clock would leave out).  A wall time alone therefore
measures the host as much as the program.

``SpeedProbe`` interrupts the pass every ``INTERVAL_S`` seconds (with
``SIGALRM``, so it needs no second thread or process) and times
``kernel``: an interpreter loop and a LAPACK eigensolve on a fixed
matrix, the two kinds of work the package does.  The kernels use only
the standard library and numpy, never the package, so a change to the
package cannot change them.  ``normalize`` turns the pass's wall time,
less the probes' own time, into seconds at reference speed: each
stretch of work between two probes is scaled by the reference kernel
time over the kernel time measured around it.

The two kinds of work do not slow alike: in the same slow stretch the
interpreted lattice count lost 1.5x and the figure-1 sweep, mostly
LAPACK, 1.15x.  So a workload is scaled by the kernel of the kind of
work that dominates it (``spec.Workload.speed``).  Over six runs each,
this cut the spread (interquartile range over median) from 0.14 to 0.03
on lattice queries, scaled by the loop, from 0.13 to 0.04 on the
figure-1 sweep and from 0.11 to 0.02 on the trajectories, both scaled
by the eigensolve.  Scaling by the other kernel left 0.06 to 0.08, and
by the sum of both 0.04 to 0.06.
"""

from __future__ import annotations

import signal
import time
from statistics import median

import numpy as np

#: Seconds between two probes.
INTERVAL_S = 0.25

#: Kernel times that define "reference speed", per kind of work: about
#: their medians on a 2-vCPU Xeon host with one BLAS thread (the loop
#: took 2.1-3.4 ms and the eigensolve 1.9-2.6 ms as the speed wandered).
REFERENCE_S = {"loop": 0.0025, "lapack": 0.0022}

_LOOP = 30000
_ORDER = 200
_rng = np.random.default_rng(20190125)
_MATRIX = _rng.standard_normal((_ORDER, _ORDER))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> tuple[float, float]:
    """Time one run of each kernel: (loop seconds, LAPACK seconds)."""
    start = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s = (s + i * i) % 1000003
    mid = time.perf_counter()
    np.linalg.eigvalsh(_MATRIX)
    return mid - start, time.perf_counter() - mid


class SpeedProbe:
    """Context manager that runs ``kernel`` every ``interval`` s.

    ``samples`` holds ``(start, end, loop_s, lapack_s)`` per probe, one
    of them on entry and one on exit.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float, float]] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        loop_s, lapack_s = kernel()
        self.samples.append((start, time.perf_counter(), loop_s, lapack_s))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe(None, None)


def normalize(samples: list[tuple[float, float, float, float]],
              kind: str) -> dict[str, float]:
    """Work time between the first and the last probe, at reference speed.

    ``kind`` ("loop" or "lapack") picks the kernel that scales the
    work.  Each kernel time is replaced by the median of it and its two
    neighbours, so that one disturbed probe does not rescale a stretch.
    Returns the scaled seconds, the raw work seconds (probes left out)
    and the median kernel time.
    """
    took = [s[2] if kind == "loop" else s[3] for s in samples]
    smooth = [median(took[max(0, i - 1):i + 2]) for i in range(len(took))]
    raw = norm = 0.0
    for (_, end, *_), (start, *_), before, after in zip(
            samples, samples[1:], smooth, smooth[1:]):
        work = start - end
        raw += work
        norm += work * REFERENCE_S[kind] / ((before + after) / 2)
    return {"norm_s": norm, "raw_s": raw, "kernel_s": median(took)}
