"""Workload definitions: the sweeps and the seeded query mix.

The workload seed changes cell seeds and the query stream only — never grid
sizes, tau lists, replicate counts or mix shares — so every seed asks for
the same amount of work (see README.md, "Noise").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SWEEP_WORKLOADS = ("sweep-large-grid", "sweep-many-small")
SERVE_WORKLOADS = ("serve-mixed",)
WORKLOADS = SWEEP_WORKLOADS + SERVE_WORKLOADS

#: Pool workers per sweep and client threads of the query load: the 2-CPU
#: host the benchmark was sized on.
WORKERS = 2
CLIENTS = 2

#: Query kinds and their shares of the stream, as whole requests per block:
#: 50% hot, 30% exact grid points, 10% off-grid nearest, 10% off-grid
#: interpolated.  Every block of ``MIX_BLOCK`` requests holds exactly these
#: counts in a seeded order, so any window of whole blocks has the stated
#: shares.
MIX_COUNTS = {"hot": 10, "exact": 6, "nearest": 2, "interp": 2}
MIX_BLOCK = sum(MIX_COUNTS.values())
HOT_POINTS = 16


@dataclass(frozen=True)
class SweepShape:
    """Everything about a sweep workload that the seed must not change."""

    side: int
    horizons: tuple[int, ...]
    taus: tuple[float, ...]
    densities: tuple[float, ...]
    n_replicates: int
    ensemble_size: int

    @property
    def n_cells(self) -> int:
        return len(self.horizons) * len(self.taus) * len(self.densities)


#: Cells run in sweep order, so both sweeps list the heavier cells first
#: (larger w, then larger tau), as a user wanting the sweep done soonest
#: would.  In the opposite order the costliest cell starts last, one worker
#: idles behind it, and the sweep's wall time depends on which worker picks
#: it up: per-sweep spread 4.9% against 1.9% on sweep-large-grid.
SHAPES = {
    # Per-site work dominates: flip loop and region-scan measurement.
    "sweep-large-grid": SweepShape(
        side=256,
        horizons=(4, 2),
        taus=(0.48, 0.44, 0.40, 0.36),
        densities=(0.5,),
        n_replicates=8,
        ensemble_size=8,
    ),
    # Fixed per-cell costs dominate; also the store serve-mixed reads.
    "sweep-many-small": SweepShape(
        side=32,
        horizons=(2, 1),
        taus=tuple(round(0.50 - 0.01 * i, 2) for i in range(21)),
        densities=tuple(round(0.40 + 0.05 * j, 2) for j in range(5)),
        n_replicates=4,
        ensemble_size=4,
    ),
}

#: serve-mixed answers from a store of exactly sweep-many-small's shape.
STORE_SHAPE = SHAPES["sweep-many-small"]


def sweep_shape(workload: str) -> SweepShape:
    """The sweep a workload runs (serve-mixed: the sweep that builds its store)."""
    return SHAPES.get(workload, STORE_SHAPE)


def make_sweep(shape: SweepShape, seed: int):
    """The :class:`repro.experiments.SweepSpec` for ``shape`` under ``seed``."""
    from repro.core.config import ModelConfig
    from repro.experiments import SweepSpec

    return SweepSpec(
        name="e2ebench",
        base_config=ModelConfig.square(
            side=shape.side,
            horizon=shape.horizons[0],
            tau=shape.taus[0],
            density=shape.densities[0],
        ),
        taus=shape.taus,
        horizons=shape.horizons,
        densities=shape.densities,
        n_replicates=shape.n_replicates,
        seed=seed,
    )


@dataclass(frozen=True)
class Query:
    """One request of the mix: its kind, point and URL path."""

    kind: str
    tau: float
    rho: float
    w: int

    @property
    def path(self) -> str:
        path = f"/query?tau={self.tau!r}&rho={self.rho!r}&w={self.w}"
        if self.kind == "interp":
            path += "&interpolate=1"
        return path

    @property
    def on_grid(self) -> bool:
        return self.kind in ("hot", "exact")


def grid_points(shape: SweepShape) -> list[tuple[float, float, int]]:
    """Every (tau, rho, w) cell of the store."""
    return [
        (tau, rho, w)
        for w in shape.horizons
        for tau in shape.taus
        for rho in shape.densities
    ]


def query_mix(seed: int, n_blocks: int, shape: SweepShape = STORE_SHAPE) -> list[Query]:
    """``n_blocks * MIX_BLOCK`` requests of the seeded mix, deterministic in ``seed``.

    Hot requests cycle over ``HOT_POINTS`` grid points drawn once per seed;
    exact requests are uniform over all cells; off-grid points fall strictly
    between grid lines (20-80% of the way), so they never match a cell and
    always lie inside the grid for interpolation.
    """
    rng = np.random.default_rng([seed, 0x5E7E])
    grid = grid_points(shape)
    hot = [grid[i] for i in rng.choice(len(grid), HOT_POINTS, replace=False)]
    kinds = np.array([k for k, c in MIX_COUNTS.items() for _ in range(c)])
    taus, rhos = np.array(shape.taus), np.array(shape.densities)
    queries: list[Query] = []
    for _ in range(n_blocks):
        for kind in rng.permutation(kinds):
            kind = str(kind)
            if kind == "hot":
                tau, rho, w = hot[int(rng.integers(HOT_POINTS))]
            elif kind == "exact":
                tau, rho, w = grid[int(rng.integers(len(grid)))]
            else:
                i = int(rng.integers(len(taus) - 1))
                j = int(rng.integers(len(rhos) - 1))
                u, v = rng.uniform(0.2, 0.8, size=2)
                tau = round(float(taus[i] + u * (taus[i + 1] - taus[i])), 6)
                rho = round(float(rhos[j] + v * (rhos[j + 1] - rhos[j])), 6)
                w = int(rng.choice(shape.horizons))
            queries.append(Query(kind, float(tau), float(rho), int(w)))
    return queries
