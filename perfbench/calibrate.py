"""Host-speed calibration for the benchmark's timings.

The benchmark runs on small virtual machines that share their host with
other tenants.  There the same deterministic work takes up to twice as
long from one minute to the next, and CPU time grows with wall time (the guest
sees no steal), so no clock of the benchmark process alone can tell a slow
program from a slow host.

A Calibrator pins the benchmark process to one CPU and forks a child onto
the same CPU at the lowest priority (nice 19).  The child repeats a fixed
unit of reference work that does not use rghw (small integer matrix
products mod p and Python integer arithmetic, the mix of the rghw kernels)
and publishes how many units it finished and the CPU seconds they took.
The scheduler runs it for about 1.5% of the CPU, in slices interleaved with
the benchmark's, so its CPU cost per unit over a window is the speed of
the host during that same window.  A time t measured in the window is
reported as t * NOMINAL_UNIT_S / (cost per unit): the time the work would
take on a host on which one unit costs NOMINAL_UNIT_S.  The constant only
sets the scale; a change to the program that does not touch the host
speed scales both commits alike.

Everything the benchmark starts inherits the pin (set-up interpreters,
process-pool workers), so all of it runs on the calibrated CPU.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

# About the CPU seconds of one reference unit on an uncontended 2-vCPU
# x86-64 VM (Python 3.11, numpy 2.4); the scale of every calibrated time.
NOMINAL_UNIT_S = 120e-6
# About the wall seconds of a fresh interpreter that imports numpy, on the
# same VM.  Set-up times (interpreter start, imports, page faults) follow the
# host's speed less closely than the reference unit does, so each set-up
# sample is rescaled by the reference interpreter run just before it instead.
NOMINAL_START_S = 0.12
# A window is closed only once the child has finished this many units in it
# (at about 1.5% of one CPU, about a second).
MIN_UNITS = 100
_RECORD = struct.Struct("dq")  # CPU seconds, units finished


def unit_factor(start: tuple[float, int], end: tuple[float, int]) -> float:
    """NOMINAL_UNIT_S / CPU cost of one unit between two marks."""
    return NOMINAL_UNIT_S * (end[1] - start[1]) / (end[0] - start[0])


def local_factors(windows: list, fallback: float) -> list[float]:
    """A factor for each of consecutive windows [(start mark, end mark)].

    A window with fewer than MIN_UNITS units is widened over its
    neighbours, one on each side at a time, until it has them; if all of
    them together do not, the window gets `fallback`.
    """
    out = []
    last = len(windows) - 1
    for i in range(len(windows)):
        lo = hi = i
        while (windows[hi][1][1] - windows[lo][0][1] < MIN_UNITS
               and (lo > 0 or hi < last)):
            lo, hi = max(lo - 1, 0), min(hi + 1, last)
        start, end = windows[lo][0], windows[hi][1]
        out.append(unit_factor(start, end) if end[1] - start[1] >= MIN_UNITS else fallback)
    return out


def reference_unit(mats, vecs) -> int:
    """One unit of reference work; the same every time it is called."""
    acc = 0
    for mat in mats:
        prod = (mat @ vecs) % 5
        acc += int((prod.any(axis=0)).sum())
        for x in mat[0].tolist():
            acc = (acc * 31 + pow(x + 2, 7, 101)) % 1000003
    return acc


def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(2024)
    mats = [rng.integers(0, 5, size=(3, 12), dtype=np.int64) for _ in range(8)]
    vecs = rng.integers(0, 5, size=(12, 40), dtype=np.int64)
    return mats, vecs


def _child(buf: mmap.mmap, parent: int) -> None:
    os.nice(19)
    mats, vecs = _reference_inputs()
    units = 0
    while os.getppid() == parent:
        reference_unit(mats, vecs)
        units += 1
        _RECORD.pack_into(buf, 0, time.process_time(), units)


class Calibrator:
    """Pins this process to one CPU and runs the reference child beside it.

    Use as a context manager, before anything has started threads: the
    child is made with fork.  Leaving the context stops the child, waits
    for it, and restores the CPU affinity.
    """

    def __init__(self) -> None:
        self.cpus = os.sched_getaffinity(0)
        self.cpu = max(self.cpus)
        self.pid = 0
        self._buf = mmap.mmap(-1, _RECORD.size)

    def __enter__(self) -> "Calibrator":
        os.sched_setaffinity(0, {self.cpu})
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            try:
                _child(self._buf, parent)
            finally:
                os._exit(0)
        self.pid = pid
        self._wait_for_units((0.0, 0), 1)  # past the child's own set-up
        return self

    def __exit__(self, *exc) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        os.sched_setaffinity(0, self.cpus)
        self._buf.close()

    def mark(self) -> tuple[float, int]:
        """The child's (CPU seconds, units finished) so far."""
        return _RECORD.unpack_from(self._buf, 0)

    def factor(self, since: tuple[float, int]) -> float:
        """NOMINAL_UNIT_S / CPU cost of one unit since the mark `since`.

        If the window holds fewer than MIN_UNITS units, it is extended
        (this process sleeps, so the child runs) until it does.
        """
        return unit_factor(since, self._wait_for_units(since, MIN_UNITS))

    def _wait_for_units(self, since: tuple[float, int], count: int) -> tuple[float, int]:
        cpu, units = self.mark()
        while units - since[1] < count:
            if os.waitpid(self.pid, os.WNOHANG) != (0, 0):
                self.pid = 0
                raise RuntimeError("the calibration child has ended")
            time.sleep(0.001)
            cpu, units = self.mark()
        return cpu, units
