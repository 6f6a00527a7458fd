"""A fixed reference kernel that measures how fast the machine runs now.

The CPUs of a shared virtual machine change speed by up to a third over
tens of seconds, because other tenants load the same cores.  A whole run
can fall into a slow spell, so even the fastest unit of a run is not
steady.  The runner therefore times this kernel between operations and reports each
operation's time at the reference speed:

    t_ref = t_measured * REFERENCE_S / mean kernel time around the operation

where the mean is over the `WINDOW` kernel runs before and after it.

The kernel mixes what uavcast spends its time on: adaptive `quad` over a
numpy integrand called per point, and a Python loop of small numpy and RNG
calls with dict bookkeeping.  It does not call uavcast, so a change to the
program cannot move it.  Keep it unchanged: every reported time depends on
it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

# Scale of reported times: about the kernel's median time on a 2-CPU Intel
# Xeon at 2.1 GHz (Python 3.11.7, numpy 2.4.6, scipy 1.17.1), so that there
# reported times read close to wall times.
REFERENCE_S = 0.15
# Kernel runs on each side of an operation that set its speed estimate.
# One, the nearest: the machine's speed drifts within tens of seconds, and a
# wider window reaches further from the operation (README.md has spreads).
WINDOW = 1


def kernel_seconds() -> float:
    """Run the reference kernel once and return its wall time."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(8):
        value, _ = integrate.quad(
            lambda x: float(np.exp(-0.05 * np.asarray(x)) * np.cos(x + k)),
            0.0, 80.0, limit=200, epsabs=1e-12, epsrel=1e-12)
        total += value
    rng = np.random.default_rng(7)
    tally: dict[int, int] = {}
    for i in range(24_000):
        a = rng.random(12)
        total += float(np.hypot(a[:6], a[6:]).sum())
        slot = int(rng.integers(0, 16))
        tally[slot] = tally.get(slot, 0) + 1
    if not math.isfinite(total) or sum(tally.values()) != 24_000:
        raise RuntimeError("reference kernel produced a wrong result")
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel times taken before the first and after every operation."""

    def __init__(self):
        kernel_seconds()                        # warm-up, not kept
        self.kernel_s = [kernel_seconds()]

    def after_op(self) -> None:
        self.kernel_s.append(kernel_seconds())

    def scale(self, op_s: list[float]) -> list[float]:
        """Operation times, in the order they ran, at the reference speed."""
        if len(op_s) != len(self.kernel_s) - 1:
            raise ValueError("need one kernel run after every operation")
        out = []
        for i, t in enumerate(op_s):
            around = self.kernel_s[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
            out.append(t * REFERENCE_S * len(around) / sum(around))
        return out
