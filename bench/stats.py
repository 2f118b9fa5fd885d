"""Summary statistics and operation accounting for the benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise one slow operation would decide the figure.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank q-th percentile of n samples."""
    return n - math.ceil(q * n / 100.0)


def tail_percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(samples)[math.ceil(q * n / 100.0) - 1]


@dataclass
class OpLog:
    """Per-operation durations and failures.

    A failure found after the operation (a correctness check on its output)
    is charged to that operation with fail(); the operation then no longer
    contributes to the latency figures.
    """

    seconds: list[float] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)

    def record(self, seconds: float, error: str | None = None) -> int:
        self.seconds.append(seconds)
        self.errors.append(error)
        return len(self.seconds) - 1

    def fail(self, op: int, message: str) -> None:
        if self.errors[op] is None:
            self.errors[op] = message

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def group_means(self, size: int, seconds: list[float]) -> list[float]:
        """Mean of ``seconds`` (one duration per operation, say normalized
        ones) over the successful operations in each consecutive group of
        ``size``; groups without a success are left out."""
        means = []
        for g in range(0, self.attempted, size):
            ok = [s for s, e in zip(seconds[g:g + size], self.errors[g:g + size]) if e is None]
            if ok:
                means.append(sum(ok) / len(ok))
        return means

    def first_errors(self) -> list[str]:
        return [e for e in self.errors if e is not None][:3]
