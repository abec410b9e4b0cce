"""Host-speed reference: fixed kernels timed between ops.

The host this benchmark was built on switches between fast and slow
states that last from seconds to minutes; the same code runs up to 1.6
times faster in one than in the other, so raw times of runs minutes apart
differ by more than a useful regression bound.  The reference kernels
never call the package, so their times track only the host.  A run samples
them between ops and reports its times scaled to the kernels' reference
speed:

    reported = measured * REF_S / mean(samples just before and after the op)

The host's state changes within a run, often within seconds, so each op
is scaled by the samples that bracket it; a median over a wider window, or
one factor for the whole run, follows those changes less closely.

One reference sample is the geometric mean of three kernels, each relative
to its time on a 2-CPU Xeon: a pure-Python loop, small numpy array
arithmetic, and LAPACK eigenvalues of a 40 x 40 matrix, the three kinds of
work the package's calls are made of.  Together they track the package's
speed about as well as the best of them alone, without resting on one kind
of work.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

# Median pure-Python loop time on a 2-CPU Xeon.  Any constant works: only
# ratios between runs are compared.
REF_S = 3.0e-3
# Median times of the numpy and LAPACK kernels on the same host.
NUMPY_REF_S = 1.2e-3
LAPACK_REF_S = 1.7e-3
# Reference samples at least this far apart while ops run.
SPACING_S = 0.5


def loop() -> float:
    """Pure-Python loop; needs nothing but the standard library, so it can
    time the host before the package (and numpy) is imported."""
    t0 = time.perf_counter()
    s = 0
    for j in range(60000):
        s += j * j
    return time.perf_counter() - t0


class Monitor:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.normal(size=41) + 1j * rng.normal(size=41)
        self._y = self._x[::-1].copy()
        self._m = rng.normal(size=(40, 40))
        self.samples: list[float] = []
        self.times: list[float] = []
        self.sample()

    def _numpy(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        a = self._x
        for _ in range(300):
            a = a * self._y + self._x
            a = a / np.abs(a).max()
        return time.perf_counter() - t0

    def _lapack(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(6):
            np.linalg.eigvals(self._m)
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        rel = (loop() / REF_S, self._numpy() / NUMPY_REF_S, self._lapack() / LAPACK_REF_S)
        self.samples.append(REF_S * math.prod(rel) ** (1.0 / 3.0))
        self._last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= SPACING_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """Factor turning the wall time of an op started at t (perf_counter)
        into reference-speed time: the last sample before t and the first
        after it."""
        i = bisect.bisect_right(self.times, t)
        return REF_S / statistics.fmean(self.samples[max(i - 1, 0):i + 1])
