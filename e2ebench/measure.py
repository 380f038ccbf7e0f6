"""Pure statistics helpers shared by the runner and its tests.

Nothing here imports ``repro``: the helpers are unit-tested on their own
(``test_e2ebench.py``) and used by every workload the same way.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank percentile."""
    return n - math.ceil(pct / 100.0 * n)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def slices(completions: Sequence[tuple[float, float]], size: int) -> list[tuple[float, float]]:
    """Per-slice (throughput, p99) of ``size`` consecutive completions.

    ``completions`` are (completion time since the window opened, latency)
    pairs.  In completion order they are cut into whole slices of ``size``
    (a trailing partial slice is dropped); each slice spans from the previous
    slice's last completion to its own, so the slices tile the window.
    Each slice must leave ten samples beyond its p99.
    """
    if samples_beyond(size, 99.0) < MIN_SAMPLES_BEYOND:
        raise ValueError(f"{size} samples leave fewer than ten beyond p99")
    ordered = sorted(completions)
    out = []
    opened = 0.0
    for first in range(0, len(ordered) - size + 1, size):
        chunk = ordered[first : first + size]
        closed = chunk[-1][0]
        out.append((size / (closed - opened), percentile([lat for _, lat in chunk], 99.0)))
        opened = closed
    return out
