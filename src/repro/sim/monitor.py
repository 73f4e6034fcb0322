"""Measurement primitives for simulated experiments.

These are deliberately simple, allocation-light accumulators: experiments
in this library run hundreds of thousands of simulated events and probes
are on the hot path.

* :class:`Counter` — named monotonic counters.
* :class:`Summary` — streaming min/max/mean/stddev plus full sample
  retention for exact quantiles (experiments are small enough to afford
  keeping samples; this keeps percentile math exact and honest).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

__all__ = ["Counter", "Summary"]


class Counter:
    """A bag of named monotonic counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters (a copy)."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"


class Summary:
    """Streaming summary statistics with exact quantiles.

    Keeps all samples (sorted lazily) so quantiles are exact rather than
    sketch-approximate; experiment sample counts in this library are in the
    tens of thousands at most.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0
        # Welford running moments for the variance: the naive
        # sum-of-squares formula catastrophically cancels for
        # large-magnitude samples (e.g. wall-clock timestamps),
        # collapsing the variance to 0.  The plain sum stays the source
        # of truth for ``mean`` (bit-identical to the seed fixtures).
        self._mean = 0.0
        self._m2 = 0.0

    def observe(self, sample: float) -> None:
        """Record one sample."""
        sample = float(sample)
        self._samples.append(sample)
        self._sorted = False
        self._sum += sample
        delta = sample - self._mean
        self._mean += delta / len(self._samples)
        self._m2 += delta * (sample - self._mean)

    def extend(self, samples: Sequence[float]) -> None:
        """Record a batch of samples."""
        for sample in samples:
            self.observe(sample)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return self._sum / len(self._samples)

    @property
    def stddev(self) -> float:
        n = len(self._samples)
        if n < 2:
            return 0.0
        return math.sqrt(max(0.0, self._m2 / n))

    @property
    def minimum(self) -> float:
        self._ensure_sorted()
        return self._samples[0]

    @property
    def maximum(self) -> float:
        self._ensure_sorted()
        return self._samples[-1]

    def quantile(self, q: float) -> float:
        """Exact quantile by linear interpolation, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            raise ValueError("no samples")
        self._ensure_sorted()
        pos = q * (len(self._samples) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return self._samples[lo]
        frac = pos - lo
        return self._samples[lo] * (1 - frac) + self._samples[hi] * frac

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def _ensure_sorted(self) -> None:
        if not self._samples:
            raise ValueError("no samples")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._samples:
            return "Summary(empty)"
        return (
            f"Summary(n={self.count} mean={self.mean:.6g} "
            f"min={self.minimum:.6g} max={self.maximum:.6g})"
        )

