"""Host speed: a fixed reference kernel timed next to every timed step.

On a shared virtual machine the same code runs up to 1.7 times slower from
one minute to the next, and process CPU time slows with it, so raw wall
times of identical code spread more between runs than a regression bound
can allow.  The kernel below does not depend on casimirlab: pure-Python
integer and dict work, numpy on small arrays and numpy on a 1.6 MB array,
the three kinds of work the package does.  Timed between the steps of a
run, it tells how fast the host ran around each step, and

    normalized seconds = wall seconds * REFERENCE_S / kernel seconds around it

is the time the step would take on a host where the kernel takes
REFERENCE_S.  A change to the program moves the normalized time exactly as
it moves the wall time; a slow spell of the host moves the kernel too and
largely cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's time on a 2-core Intel Xeon virtual machine with
# Python 3.11 and numpy 2.4 in a fast spell; any fixed value would do.
REFERENCE_S = 0.075

_LARGE = np.random.default_rng(0).standard_normal(200_000)
_SMALL = np.linspace(0.1, 5.0, 150)


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(100_000):
        s += i * i % 7
        d[i & 1023] = s
    acc = 0.0
    for k in range(2_500):
        acc += float(np.sum(np.log1p(-np.exp(-2.0 * _SMALL * (1.0 + k * 1e-4))) * _SMALL))
    for _ in range(4):
        y = np.exp(-np.abs(_LARGE)) * np.sin(_LARGE)
        y.sort()
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel passes between consecutive timed steps: pass i runs right
    before step i and pass i + 1 right after it."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def step_done(self) -> None:
        """Run the pass that follows a step; call it right after the step."""
        self.samples.append(kernel_seconds())

    def factors(self) -> list[float]:
        """Per step, REFERENCE_S over the median of the two passes before
        and the two after it.  Four passes span a few seconds, short enough
        to follow the host's swings and enough to damp a single pass's own
        jitter."""
        k = self.samples
        return [REFERENCE_S / statistics.median(k[max(0, i - 1):i + 3]) for i in range(len(k) - 1)]
