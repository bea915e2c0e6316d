"""Host-speed reference: a fixed computation timed between items.

The benchmark runs on a few cores of a shared host, where the same code
runs up to 2x slower for stretches of a second to minutes. Raw times then
move from run to run by more than any useful regression bound. So the
worker times this reference at intervals during the timed phase and right
after set-up, and divides each time it reports by the host's slowdown at
that moment.

There are four small kernels: a pure-Python integer and dict loop, numpy
arithmetic and a sort on a 4096-element vector, numpy arithmetic over a
2 MiB array, and Fraction sums. Each workload names the kernels that a
sample times for it (`Workload.host_kernels`): different code slows by
different amounts, and in traces on the 2-vCPU x86_64 VM the benchmark was
tuned on, the named kernels' mean followed the workload's items most
closely. The sample's slowdown is that mean of each kernel's time divided
by its nominal time below (its median on that VM). A normalised time therefore
reads as the time on that VM at its typical speed. None of the kernels
calls ldpclab, so a change to the program does not move them.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

_rng = np.random.default_rng(12345)
_VEC = _rng.integers(0, 3, size=4096)
_BIG = _rng.integers(0, 3, size=1 << 18)

# seconds between samples during the timed loop, at least
EVERY_S = 0.1
# nearest samples whose median gives an item's local slowdown
WINDOW = 15


def _py() -> None:
    counts: dict[int, int] = {}
    s = 0
    for i in range(1500):
        s = (s * 31 + i) % 1000003
        counts[s & 255] = counts.get(s & 255, 0) + 1


def _vec() -> None:
    for _ in range(10):
        np.sort((_VEC * 7 + 3) % 5)


def _big() -> None:
    int(((_BIG * 7 + 3) % 5).sum())


def _frac() -> None:
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(1, k * k)


# name: (kernel, nominal seconds)
KERNELS = {"py": (_py, 0.27e-3), "vec": (_vec, 0.30e-3),
           "big": (_big, 2.9e-3), "frac": (_frac, 0.14e-3)}


def sample(kernels) -> float:
    """The host's slowdown now over the named kernels: 1.0 at nominal
    speed, 2.0 at half speed."""
    clock = time.perf_counter
    total = 0.0
    for name in kernels:
        kernel, nominal = KERNELS[name]
        t = clock()
        kernel()
        total += (clock() - t) / nominal
    return total / len(kernels)


def slowdown(kernels, samples: int) -> float:
    """Median slowdown over `samples` back-to-back samples."""
    return statistics.median(sample(kernels) for _ in range(samples))


class Sampler:
    """Samples taken during a timed loop, at least EVERY_S apart."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.times: list[float] = []
        self.values: list[float] = []
        self._last = -float("inf")

    def maybe(self) -> None:
        now = time.perf_counter()
        if now - self._last >= EVERY_S:
            value = sample(self.kernels)
            self._last = time.perf_counter()
            self.times.append((now + self._last) / 2)
            self.values.append(value)

    def local(self, at: float) -> float:
        """Median slowdown of the WINDOW samples nearest to time `at`."""
        n = len(self.values)
        j = bisect.bisect_left(self.times, at)
        lo = max(0, min(j - WINDOW // 2, n - WINDOW))
        return statistics.median(self.values[lo:lo + WINDOW])
