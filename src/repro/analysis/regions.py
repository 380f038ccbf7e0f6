"""Monochromatic and almost monochromatic regions.

The paper's central observable is the *monochromatic region* of an agent
``u``: the largest-radius neighbourhood (square window) around ``u`` that
contains agents of a single type in the terminated configuration, and whose
size ``M`` Theorem 1 brackets between ``2^{aN}`` and ``2^{bN}``.  Theorem 2
replaces "single type" with "almost monochromatic": the ratio of minority to
majority agents inside the window is at most ``e^{-eps N}``.

Everything here operates on plain ±1 spin arrays so that it can be applied to
snapshots, final states or planted configurations alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.neighborhood import (
    neighborhood_size,
    window_sums,
    wrapped_summed_area_table,
    wrapped_summed_area_table_batch,
)
from repro.errors import AnalysisError
from repro.utils.validation import require_spin_array


def _max_usable_radius(shape: tuple[int, int], max_radius: Optional[int]) -> int:
    """Largest window radius that still fits on the torus."""
    limit = (min(shape) - 1) // 2
    if max_radius is None:
        return limit
    if max_radius < 0:
        raise AnalysisError(f"max_radius must be non-negative, got {max_radius}")
    return min(max_radius, limit)


def region_scan_table(spins: np.ndarray, max_radius: Optional[int] = None) -> np.ndarray:
    """Shared summed-area table for the region scans of one configuration.

    Both :func:`monochromatic_radius_map` and
    :func:`almost_monochromatic_radius_map` resolve window counts from a
    limit-padded :func:`~repro.core.neighborhood.wrapped_summed_area_table`
    of the plus indicator.  Building the table once and passing it to both
    scans (as :func:`repro.analysis.segregation.segregation_metrics` does)
    halves the table-construction cost without changing a single bit of the
    results.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    return wrapped_summed_area_table(spins == 1, max(limit, 0))


def region_scan_table_batch(
    spins_stack: np.ndarray, max_radius: Optional[int] = None
) -> np.ndarray:
    """Scan tables for a whole ``(R, n, m)`` replica stack, built in one pass.

    Slice ``r`` is bitwise identical to ``region_scan_table(spins_stack[r],
    max_radius)`` — exact integer summed-area tables — but the torus padding
    and the two cumulative sums run once over the stack instead of once per
    replica, which is how
    :func:`repro.analysis.segregation.segregation_metrics_batch` shares one
    table build across an ensemble batch's equal-shape replicas.
    """
    stack = np.asarray(spins_stack)
    if stack.ndim != 3:
        raise AnalysisError(
            f"spins_stack must be a (R, n, m) array, got shape {stack.shape}"
        )
    for replica in stack:
        require_spin_array(replica)
    limit = _max_usable_radius(stack.shape[1:], max_radius)
    return wrapped_summed_area_table_batch(stack == 1, max(limit, 0))


def _resolve_scan_table(
    spins: np.ndarray, limit: int, table: Optional[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Build or validate the scan table for one radius map; returns (table, pad).

    A caller-supplied table must be a ``wrapped_summed_area_table`` of the
    configuration's plus indicator with padding at least ``limit`` so that
    every window of every usable radius lies inside it; ``None`` builds a
    fresh ``limit``-padded one.
    """
    if table is None:
        return wrapped_summed_area_table(spins == 1, limit), limit
    n_rows, n_cols = spins.shape
    pad = (table.shape[0] - 1 - n_rows) // 2
    expected = (n_rows + 2 * pad + 1, n_cols + 2 * pad + 1)
    if pad < limit or table.shape != expected:
        raise AnalysisError(
            f"scan table of shape {table.shape} does not cover grid "
            f"{spins.shape} up to radius {limit}"
        )
    return table, pad


def monochromatic_radius_map(
    spins: np.ndarray,
    max_radius: Optional[int] = None,
    *,
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-agent radius of the largest monochromatic window centred at the agent.

    Entry ``(i, j)`` is the largest ``rho`` such that every agent within
    l-infinity distance ``rho`` of ``(i, j)`` has the same type as the agent
    at ``(i, j)`` (0 when even the 3x3 window is mixed... i.e. when only the
    agent itself qualifies).  The scan stops at ``max_radius`` or at the
    largest radius that fits on the torus, whichever is smaller;
    ``max_radius=None`` scans uncapped, up to the torus limit.  The sweep
    pipeline caps its scans with
    :func:`~repro.analysis.segregation.default_region_radius` instead.

    Window monochromaticity is monotone in the radius (a sub-window of a
    uniform window is uniform), so instead of the linear per-radius
    ``window_sums`` scan — a full O(grid) pass per radius, O(limit) passes
    total — the search builds *one* summed-area table padded by ``limit``
    (window sums at any per-site radius are then four table gathers) and runs
    a doubling/bisection schedule over radius levels on the alive set:
    doubling probes ``1, 2, 4, ...`` bracket each surviving site's radius,
    and a per-site parallel bisection pins it exactly.  Total work is
    O(grid * log limit) gathers plus the O((grid side + 2 limit)^2) table
    build, versus O(grid * limit) for the scan.  Bitwise identical to the
    linear per-radius scan (the reference in ``tests/oracles.py``), which
    the equivalence tests assert.

    ``table`` optionally supplies a precomputed :func:`region_scan_table` so
    several scans of the same configuration share one build.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    n_rows, n_cols = spins.shape
    radii = np.zeros(spins.shape, dtype=np.int64)
    if limit < 1:
        return radii

    # One summed-area table over the torus-padded indicator; the window of
    # any radius <= limit around any site lies inside it, so per-site counts
    # are four gathers instead of a grid pass.
    table, pad = _resolve_scan_table(spins, limit, table)

    all_rows, all_cols = np.divmod(np.arange(n_rows * n_cols), n_cols)

    def is_mono(sites: np.ndarray, radius) -> np.ndarray:
        """Whether each site's window of its ``radius`` (scalar or per-site)
        is single-type: the plus count is 0 or the full window population."""
        top = all_rows[sites] - radius + pad
        bottom = all_rows[sites] + radius + pad + 1
        left = all_cols[sites] - radius + pad
        right = all_cols[sites] + radius + pad + 1
        counts = (
            table[bottom, right]
            - table[top, right]
            - table[bottom, left]
            + table[top, left]
        )
        return (counts == (2 * radius + 1) ** 2) | (counts == 0)

    # Doubling phase on the alive set: lo holds the largest probed radius
    # each site is known to satisfy, hi the smallest it is known to fail
    # (sentinel limit + 1 = "never failed"); only sites alive at the previous
    # level are probed again.
    lo = np.zeros(n_rows * n_cols, dtype=np.int64)
    hi = np.full(n_rows * n_cols, limit + 1, dtype=np.int64)
    alive = np.arange(n_rows * n_cols)
    radius = 1
    while alive.size and radius <= limit:
        mono = is_mono(alive, radius)
        lo[alive[mono]] = radius
        hi[alive[~mono]] = radius
        alive = alive[mono]
        radius *= 2

    # Per-site parallel bisection: every unresolved bracket halves per round,
    # each site probing its own midpoint in the same vectorized gather.
    unresolved = np.flatnonzero(hi - lo > 1)
    while unresolved.size:
        mid = (lo[unresolved] + hi[unresolved]) // 2
        mono = is_mono(unresolved, mid)
        lo[unresolved[mono]] = mid[mono]
        hi[unresolved[~mono]] = mid[~mono]
        unresolved = unresolved[hi[unresolved] - lo[unresolved] > 1]
    radii[...] = lo.reshape(n_rows, n_cols)
    return radii


def monochromatic_radius(
    spins: np.ndarray, site: tuple[int, int], max_radius: Optional[int] = None
) -> int:
    """Radius of the monochromatic region of a single agent.

    Window monochromaticity is monotone in the radius, so instead of scanning
    every radius the search doubles the candidate until a window fails (or
    the limit is reached) and then binary-searches the bracket: O(log rho)
    window checks, each dominated by the largest O(rho^2) window — versus the
    O(rho^3) total work of the linear scan this replaces.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    n_rows, n_cols = spins.shape
    row, col = site[0] % n_rows, site[1] % n_cols
    center_type = spins[row, col]

    def window_is_monochromatic(radius: int) -> bool:
        rows = np.arange(row - radius, row + radius + 1) % n_rows
        cols = np.arange(col - radius, col + radius + 1) % n_cols
        return bool(np.all(spins[np.ix_(rows, cols)] == center_type))

    if limit < 1 or not window_is_monochromatic(1):
        return 0
    largest_good = 1
    first_bad = 2
    while first_bad <= limit and window_is_monochromatic(first_bad):
        largest_good = first_bad
        first_bad *= 2
    if first_bad > limit:
        first_bad = limit + 1
    while first_bad - largest_good > 1:
        mid = (largest_good + first_bad) // 2
        if window_is_monochromatic(mid):
            largest_good = mid
        else:
            first_bad = mid
    return largest_good


def minority_ratio_map(spins: np.ndarray, radius: int) -> np.ndarray:
    """Per-agent ratio of minority to majority counts in the radius-``radius`` window.

    The ratio is 0 for a monochromatic window and approaches 1 for a perfectly
    mixed one; it is exactly the quantity bounded by ``e^{-eps N}`` in the
    paper's definition of an almost monochromatic region.
    """
    spins = require_spin_array(spins)
    plus = window_sums((spins == 1).astype(np.int64), radius)
    total = neighborhood_size(radius)
    minus = total - plus
    minority = np.minimum(plus, minus).astype(float)
    majority = np.maximum(plus, minus).astype(float)
    return minority / majority


def almost_monochromatic_radius_map(
    spins: np.ndarray,
    ratio_threshold: float,
    max_radius: Optional[int] = None,
    *,
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-agent radius of the largest window with minority ratio below threshold.

    Unlike the strictly monochromatic case the property is not monotone in the
    radius (a window can re-qualify after a mixed intermediate shell), so the
    doubling/bisection bracket of :func:`monochromatic_radius_map` does not
    apply.  The *largest-qualifying-radius* formulation does: the answer for a
    site is the largest level of a top-down sweep at which its window
    qualifies, so the scan walks the radius levels from ``limit`` down to 1
    with an active set from which each site leaves at its first (largest)
    qualifying radius.  Window counts come from per-site four-corner gathers
    on one limit-padded summed-area table instead of the full
    ``minority_ratio_map`` grid pass (table build included) the reference
    performs per level, and sites in segregated patches — where all the
    Theorem 2 signal lives — leave the active set near ``limit``, so the
    sweep touches a rapidly shrinking population.  Bitwise identical to the
    linear per-radius scan (the reference in ``tests/oracles.py``), which
    the equivalence tests assert.

    ``max_radius=None`` scans uncapped, from the largest radius that fits on
    the torus down, and the cost grows with that radius.  The sweep
    pipeline caps its scans with
    :func:`~repro.analysis.segregation.default_region_radius` instead.

    ``table`` optionally supplies a precomputed :func:`region_scan_table` so
    several scans of the same configuration share one build.
    """
    if not 0.0 <= ratio_threshold <= 1.0:
        raise AnalysisError(
            f"ratio_threshold must lie in [0, 1], got {ratio_threshold}"
        )
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    n_rows, n_cols = spins.shape
    radii = np.zeros(spins.shape, dtype=np.int64)
    if limit < 1:
        return radii

    table, pad = _resolve_scan_table(spins, limit, table)

    # Flat view of the table plus a per-site base index: at a fixed radius
    # level every window corner sits at one scalar offset from the base, so
    # each level costs four flat gathers on the active set — no per-site
    # index arithmetic beyond a single add.
    flat_table = table.ravel()
    width = table.shape[1]
    flat_radii = radii.ravel()
    all_rows, all_cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    base = (all_rows + pad) * width + (all_cols + pad)
    active = np.arange(n_rows * n_cols)
    for radius in range(limit, 0, -1):
        below = (radius + 1) * width
        above = radius * width
        plus = (
            flat_table.take(base + (below + radius + 1))
            - flat_table.take(base - (above - radius - 1))
            - flat_table.take(base + (below - radius))
            + flat_table.take(base - (above + radius))
        )
        minus = neighborhood_size(radius) - plus
        # The exact float expression of minority_ratio_map, applied to the
        # active sites only: identical integer counts, identical IEEE
        # division, hence bitwise-identical qualification decisions.
        minority = np.minimum(plus, minus).astype(float)
        majority = np.maximum(plus, minus).astype(float)
        qualifies = minority / majority <= ratio_threshold
        flat_radii[active[qualifies]] = radius
        keep = ~qualifies
        active = active[keep]
        if not active.size:
            break
        base = base[keep]
    return radii


def paper_ratio_threshold(neighborhood_agents: int, epsilon: float = 0.05) -> float:
    """The paper's almost-monochromatic threshold ``e^{-eps N}``.

    At simulable neighbourhood sizes this is already extremely small (for
    ``N = 49`` and ``eps = 0.05`` it is about ``0.086``), so the default
    ``eps`` keeps the threshold meaningfully away from both 0 and 1.
    """
    if epsilon <= 0:
        raise AnalysisError(f"epsilon must be positive, got {epsilon}")
    return float(math.exp(-epsilon * neighborhood_agents))


def region_sizes_from_radii(radii: np.ndarray) -> np.ndarray:
    """Convert a radius map into region sizes ``(2 rho + 1)^2``."""
    radii = np.asarray(radii)
    return (2 * radii + 1) ** 2


@dataclass(frozen=True)
class RegionStatistics:
    """Summary of region radii/sizes over all agents of a configuration."""

    mean_radius: float
    max_radius: int
    mean_size: float
    max_size: int
    #: Fraction of agents whose region radius is at least the model horizon —
    #: i.e. agents sitting strictly inside a segregated patch at least as
    #: large as their own neighbourhood.
    fraction_at_least_horizon: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for result tables."""
        return {
            "mean_radius": self.mean_radius,
            "max_radius": float(self.max_radius),
            "mean_size": self.mean_size,
            "max_size": float(self.max_size),
            "fraction_at_least_horizon": self.fraction_at_least_horizon,
        }


def summarize_regions(radii: np.ndarray, horizon: int) -> RegionStatistics:
    """Aggregate a radius map into :class:`RegionStatistics`."""
    radii = np.asarray(radii)
    if radii.size == 0:
        raise AnalysisError("cannot summarise an empty radius map")
    sizes = region_sizes_from_radii(radii)
    return RegionStatistics(
        mean_radius=float(radii.mean()),
        max_radius=int(radii.max()),
        mean_size=float(sizes.mean()),
        max_size=int(sizes.max()),
        fraction_at_least_horizon=float(np.mean(radii >= horizon)),
    )


def expected_region_size(
    spins: np.ndarray, max_radius: Optional[int] = None
) -> float:
    """Monte-Carlo analogue of the paper's ``E[M]`` for one configuration.

    The expectation over "an arbitrary agent" is the average of the
    monochromatic region size over all agents of the configuration; averaging
    this quantity over seeds estimates ``E[M]``.
    """
    radii = monochromatic_radius_map(spins, max_radius=max_radius)
    return float(region_sizes_from_radii(radii).mean())


def expected_almost_region_size(
    spins: np.ndarray, ratio_threshold: float, max_radius: Optional[int] = None
) -> float:
    """Monte-Carlo analogue of ``E[M']`` for one configuration."""
    radii = almost_monochromatic_radius_map(
        spins, ratio_threshold, max_radius=max_radius
    )
    return float(region_sizes_from_radii(radii).mean())
