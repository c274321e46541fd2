"""Machine speed measured while a pass runs, to steady timings on a shared host.

On a VM that shares cores with other tenants the same pass can take up to
twice as long from one minute to the next, and CPU time tracks wall time,
so neither is steady.  ``SpeedSampler`` runs a thread that, every 10 ms,
times a fixed loop of about 100 us (small numpy vector ops and Python
objects, like the program's inner loops) on the same CPU as the pass (the
process is pinned to one CPU).  The pass time multiplied by
``factor()`` = ``REFERENCE_SPIN_S / mean(loop time)`` is the time the pass
would take on a host where the loop takes ``REFERENCE_SPIN_S``: it keeps a
change to the program and cancels a change of host speed.

The loop holds the interpreter lock for its 100 us, so the thread takes
about 1% of the pass, the same on every commit.  A pure-Python loop
tracked the pass worse: the program slows more than an L1-resident loop
when neighbours load the host.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

# Typical loop time while a pass runs on a 2-core Intel Xeon VM (CPython 3.11,
# numpy 2.4), so that the factor is near 1 there.
REFERENCE_SPIN_S = 110e-6
PERIOD_S = 0.01
MIN_SAMPLES = 5


def pin_to_current_cpu() -> None:
    """Pin this process (and its children) to the CPU it is running on, so
    the sampler measures the CPU the pass runs on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # unpinned: the sampler may then measure the other CPU


class SpeedSampler:
    """Context manager that samples the loop time while its body runs."""

    def __init__(self):
        import numpy as np  # here, so that importing this module leaves BLAS unloaded
        self._np = np
        self._vecs = [np.array([math.cos(k), math.sin(k), 0.5 * k - 1.0]) for k in range(8)]
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        for _ in range(MIN_SAMPLES):   # first calls pay numpy's lazy set-up
            self.spin()

    def spin(self) -> float:
        """Time one run of the fixed loop: small vector ops and Python
        objects, the same mix of work as the program's inner loops."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(8):
            a, b = self._vecs[i], self._vecs[(i + 3) % 8]
            c = a - 2.0 * float(a @ b) * b
            acc += float(self._np.linalg.norm(c))
            acc += len(str({"k": i, "v": [x * 1.5 for x in range(8)]}))
        return time.perf_counter() - t0

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(self.spin())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        while len(self.samples) < MIN_SAMPLES:   # body shorter than a few periods
            self.samples.append(self.spin())

    def factor(self) -> float:
        """Reference loop time over the mean loop time, slowest tenth dropped.

        The mean, not the median, because the pass time integrates the speed
        over the pass; the slowest tenth goes because a loop that the OS
        preempted says nothing about the speed of the pass.
        """
        kept = sorted(self.samples)[:max(1, len(self.samples) * 9 // 10)]
        return REFERENCE_SPIN_S / statistics.fmean(kept)
