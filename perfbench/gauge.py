"""A fixed reference kernel, timed between the ops, that gauges how fast
the host runs around each op.

On a shared 2-core virtual machine the same deterministic op ran up to
twice as slow for minutes at a time, with nothing else busy in the
machine (no steal time, the other core idle): the host's other tenants
slow it. Time alone then compares hosts, not code. The gated times are
therefore rescaled call by call: a call's time in reference seconds is
its time on a host where this kernel takes ``REF_KERNEL_S``, judged by
the kernel's mean time just before and just after the call. The kernel
calls nothing of g2d, so a change to g2d moves the rescaled time as it
moves the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel time that defines one reference second, about the kernel's
# time on a quiet host
REF_KERNEL_S = 5e-4

# share of the op time that the kernel gets, at least one call per op
SHARE = 0.05


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(12345)
        # small matrices, like the solver's: its time is mostly the
        # overhead of numpy calls and Python objects, which the host
        # slows more than plain Python arithmetic or BLAS work
        self._mats = [rng.random((int(rng.integers(3, 9)), int(rng.integers(3, 12)))) for _ in range(12)]
        # kernel times taken after each op call, one list per call
        self.after: list[list[float]] = []

    def _kernel(self) -> list:
        out = []
        for a in self._mats:
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            w = np.maximum(a.sum(axis=1), 1e-12)
            w = w / w.sum()
            out.append({"s": float(s[0]), "u": [float(x) for x in 2.0 * u[:, 0]], "b": np.sqrt(w)[:, None] * a})
        return out

    def sample(self, busy_s: float) -> None:
        """Time the kernel after an op call of ``busy_s`` seconds, once
        and then again until it has had SHARE of that time."""
        times: list[float] = []
        while not times or sum(times) < SHARE * busy_s:
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        self.after.append(times)

    def ref_seconds(self, k: int, dt: float) -> float:
        """Call k's time ``dt`` in reference seconds."""
        around = self.after[k - 1] + self.after[k] if k else self.after[0]
        return dt * REF_KERNEL_S / statistics.fmean(around)

    def mean_s(self) -> float:
        return statistics.fmean(t for times in self.after for t in times)
