"""Host-speed reference: timings scaled to a fixed reference kernel.

The shared 2-core host this benchmark was defined on drifts in speed by
up to +-25% over tens of seconds, because other tenants share its cores;
a whole run can land in a slow stretch. So each timed interval is
bracketed by a fixed reference kernel, numpy and plain-Python work that
does not touch the package, and scaled by REF_MS over the mean of the two
reference times. The result is the interval's length on a host where the
reference takes REF_MS: a slower stretch slows both alike and cancels.
Raw wall times are kept next to the scaled ones in the result file.
"""

import time

import numpy as np

REF_MS = 25.0  # the reference kernel's time on the unloaded 2-core host


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random(300_000)
        self._k = rng.integers(0, 5000, 300_000)
        self.ref_samples_ms = []

    def reference_ms(self) -> float:
        t0 = time.perf_counter()
        np.sort(self._x)
        np.unique(self._k, return_inverse=True)
        np.bincount(self._k, weights=self._x)
        acc = {}
        for i in range(30_000):
            acc[i % 997] = acc.get(i % 997, 0) + i
        ms = (time.perf_counter() - t0) * 1e3
        self.ref_samples_ms.append(ms)
        return ms

    def time(self, fn, *args):
        """(fn's result, raw seconds, scaled seconds) of one call."""
        before = self.reference_ms()
        t0 = time.perf_counter()
        res = fn(*args)
        raw = time.perf_counter() - t0
        after = self.reference_ms()
        return res, raw, raw * 2.0 * REF_MS / (before + after)
