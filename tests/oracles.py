"""Test and benchmark oracles: the retained reference implementations.

Each fast path in :mod:`repro` was introduced against a slower, simpler
implementation of the same semantics.  Those references live here, outside
the installed package, because only the equivalence tests and the speedup
benches use them:

* :class:`ReferenceEnsembleDynamics` — the pre-fusion ensemble engine
  (Python-loop rounds, list-backed :class:`_ReplicaIndexSet` samplers,
  per-flip ``Generator`` calls), the oracle of the fused engine and the
  baseline of ``benchmarks/bench_flip_loop.py`` and
  ``benchmarks/bench_ensemble_throughput.py``;
* :func:`_label_clusters_reference` and
  :func:`_estimate_radius_tail_reference` — the scalar union/find labelling
  loop and the per-trial radius-tail loop of :mod:`repro.percolation.cluster`
  (``benchmarks/bench_cluster_labeling.py`` baseline);
* :func:`_monochromatic_radius_map_reference` and
  :func:`_almost_monochromatic_radius_map_reference` — the linear per-radius
  scans of :mod:`repro.analysis.regions`
  (``benchmarks/bench_region_scan.py`` baseline).

Tests import this module as ``oracles`` (pytest puts ``tests/`` on
``sys.path``); ``benchmarks/conftest.py`` adds ``tests/`` for the benches.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.regions import _max_usable_radius, minority_ratio_map
from repro.core.backends.base import FlipLoopBackend
from repro.core.ensemble import EnsembleDynamics
from repro.core.neighborhood import neighborhood_size, window_sums
from repro.errors import AnalysisError, PercolationError
from repro.percolation.cluster import (
    RadiusTailEstimate,
    cluster_radius,
    label_clusters,
)
from repro.percolation.union_find import UnionFind
from repro.rng import SeedLike, make_rng
from repro.types import FlipRule, SchedulerKind
from repro.utils.validation import require_spin_array

# --------------------------------------------------------------------------
# Ensemble engine
# --------------------------------------------------------------------------


class _ReplicaIndexSet:
    """List-backed randomised set — the retained scalar-loop reference.

    The pre-fusion engine (:class:`ReferenceEnsembleDynamics`) keeps one of
    these per replica per kind; the fused engine replaced them with a single
    :class:`~repro.utils.indexset.BatchedIndexSet`, whose layout-equivalence
    hypothesis suite uses this class as the oracle.  The swap-remove
    algorithm (and therefore the member ordering, which the RNG-draw
    equivalence relies on) is exactly ``IndexSampler``'s, kept in plain
    Python lists; ``sample`` consumes the generator identically too: one
    ``rng.integers(0, size)`` call per draw.
    """

    __slots__ = ("_members", "_positions", "_size")

    def __init__(self, capacity: int) -> None:
        self._members = [0] * capacity
        self._positions = [-1] * capacity
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, index: int) -> None:
        """Insert ``index``; inserting an existing element is a no-op."""
        if self._positions[index] >= 0:
            return
        self._members[self._size] = index
        self._positions[index] = self._size
        self._size += 1

    def remove(self, index: int) -> None:
        """Remove ``index``; removing a missing element is a no-op."""
        pos = self._positions[index]
        if pos < 0:
            return
        self._size -= 1
        last = self._members[self._size]
        self._members[pos] = last
        self._positions[last] = pos
        self._positions[index] = -1

    def update_membership(self, index: int, member: bool) -> None:
        """Add or remove ``index`` according to the boolean ``member``."""
        if member:
            self.add(index)
        else:
            self.remove(index)

    def sample(self, rng: np.random.Generator) -> int:
        """Uniformly random member via one ``rng.integers(0, size)`` draw."""
        if self._size == 0:
            raise IndexError("cannot sample from an empty _ReplicaIndexSet")
        pos = int(rng.integers(0, self._size))
        return self._members[pos]

    def clear(self) -> None:
        """Remove every element."""
        for index in self._members[: self._size]:
            self._positions[index] = -1
        self._size = 0

    def to_array(self) -> np.ndarray:
        """Sorted copy of the current members."""
        return np.sort(np.asarray(self._members[: self._size], dtype=np.int64))


class _ReferenceRoundLoop(FlipLoopBackend):
    """Adapter running the reference engine's own rounds in the host loop.

    The reference engine shares ``run`` with the fused engine; this gives
    it the base class's host round loop over its retained pre-fusion
    ``step_all``, with no backend code on its hot path.
    """

    name = "reference"

    def step_round(self, candidates: np.ndarray) -> np.ndarray:
        return self.engine.step_all(candidates)


class ReferenceEnsembleDynamics(EnsembleDynamics):
    """The pre-fusion ensemble engine, retained as oracle and baseline.

    Semantically identical to :class:`EnsembleDynamics` — both are bitwise
    equivalent to per-replica scalar runs — but executes a round the way the
    engine did before the fused flip loop landed: a Python loop over replicas
    with one ``Generator.exponential``/``integers`` call each, list-backed
    :class:`_ReplicaIndexSet` samplers updated element by element, and
    per-index insertion loops at rebuild time.  The equivalence property
    tests pit the fused engine against this one, and
    ``benchmarks/bench_flip_loop.py`` / ``bench_ensemble_throughput.py``
    report the fused engine's speedup over it.
    """

    def _init_backend(self, backend: Optional[str]) -> None:
        """The reference engine is its own hot path; no backend attaches.

        The retained pre-fusion structures (list-backed samplers, per-flip
        ``Generator`` calls) are not backend-shaped, and the point of this
        engine is to *not* share code with what it verifies; only the host
        round loop is shared, through :class:`_ReferenceRoundLoop`.
        """
        self._backend = _ReferenceRoundLoop()
        self._backend.attach(self)
        self.backend_name = "reference"

    def _build_runtime(self, rng_block_words: int) -> None:
        """Allocate the retained scalar-loop structures (no RNG blocks)."""
        config = self.config
        r = self.n_replicas
        n_rows, n_cols = config.shape
        self._plus_counts = np.empty((r, n_rows, n_cols), dtype=np.int64)
        self._happy_mask = np.empty((r, n_rows, n_cols), dtype=bool)
        self._flippable_mask = np.empty((r, n_rows, n_cols), dtype=bool)
        self._unhappy = [_ReplicaIndexSet(config.n_sites) for _ in range(r)]
        self._flippable = [_ReplicaIndexSet(config.n_sites) for _ in range(r)]
        # Per-replica clocks/counters in plain lists: they are touched once
        # per replica per round and Python-list access is cheaper than numpy
        # scalar indexing on that path.
        self._times = [0.0] * r
        self._n_steps = [0] * r
        self._offsets = np.arange(-config.horizon, config.horizon + 1)
        # The reference engine always tracks its counters incrementally; the
        # flags exist so the shared accessors (and run()) stay inherited.
        self._track_counters = True
        self._counters_stale = False

    def recompute_all(self) -> None:
        """Rebuild counts, masks and samplers the pre-fusion way."""
        w = self.config.horizon
        total = self.config.neighborhood_agents
        for r in range(self.n_replicas):
            self._plus_counts[r] = window_sums(
                (self._spins[r] == 1).astype(np.int64), w
            )
        same = np.where(self._spins == 1, self._plus_counts, total - self._plus_counts)
        self._energies = same.sum(axis=(1, 2), dtype=np.int64)
        self._n_plus = np.count_nonzero(self._spins == 1, axis=(1, 2)).astype(np.int64)
        self._happy_mask, self._flippable_mask = self._classify(self._spins, same)
        for r in range(self.n_replicas):
            self._unhappy[r].clear()
            self._flippable[r].clear()
            # Same insertion order as ModelState.recompute_all so that the
            # samplers' internal layouts (and hence RNG-draw outcomes) match.
            for index in np.flatnonzero(~self._happy_mask[r].ravel()):
                self._unhappy[r].add(int(index))
            for index in np.flatnonzero(self._flippable_mask[r].ravel()):
                self._flippable[r].add(int(index))

    # ------------------------------------------------------------- inspection

    def unhappy_counts(self) -> np.ndarray:
        """``(R,)`` current number of unhappy agents per replica."""
        return np.array([len(s) for s in self._unhappy], dtype=np.int64)

    def flippable_counts(self) -> np.ndarray:
        """``(R,)`` current number of flippable agents per replica."""
        return np.array([len(s) for s in self._flippable], dtype=np.int64)

    def happy_mask(self, replica: int) -> np.ndarray:
        """Boolean happy mask of one replica (copy)."""
        return self._happy_mask[replica].copy()

    def flippable_mask(self, replica: int) -> np.ndarray:
        """Boolean flippable mask of one replica (copy)."""
        return self._flippable_mask[replica].copy()

    def unhappy_indices(self, replica: int) -> np.ndarray:
        """Sorted flat indices of one replica's unhappy agents."""
        return self._unhappy[replica].to_array()

    def flippable_indices(self, replica: int) -> np.ndarray:
        """Sorted flat indices of one replica's flippable agents."""
        return self._flippable[replica].to_array()

    def _energies_full(self) -> np.ndarray:
        """``(R,)`` energies recomputed from the window counts."""
        total = self.config.neighborhood_agents
        same = np.where(self._spins == 1, self._plus_counts, total - self._plus_counts)
        return same.sum(axis=(1, 2), dtype=np.int64)

    def _termination_counts(self) -> np.ndarray:
        """``(R,)`` sizes of the sets whose emptiness means termination."""
        sets = (
            self._flippable
            if self.flip_rule is FlipRule.ONLY_IF_HAPPY
            else self._unhappy
        )
        return np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))

    # ------------------------------------------------------------------ steps

    def step_all(self, active: Optional[Sequence[int]] = None) -> np.ndarray:
        """Advance every active replica by one step — the pre-fusion loop."""
        if active is None:
            candidates = range(self.n_replicas)
        else:
            candidates = active
        only_if_happy = self.flip_rule is FlipRule.ONLY_IF_HAPPY
        continuous = self.scheduler is SchedulerKind.CONTINUOUS
        termination_sets = self._flippable if only_if_happy else self._unhappy
        samplers = (
            self._flippable if only_if_happy and continuous else self._unhappy
        )
        times = self._times
        steps = self._n_steps
        rngs = self._rngs
        reps: list[int] = []
        flats: list[int] = []
        for r in candidates:
            r = int(r)
            if len(termination_sets[r]) == 0:
                continue
            sampler = samplers[r]
            if len(sampler) == 0:
                continue
            rng = rngs[r]
            # Same draw order as GlauberDynamics.step: waiting time first
            # (continuous scheduler only), then the candidate index.
            if continuous:
                times[r] += float(rng.exponential(1.0 / len(sampler)))
            else:
                times[r] += 1.0
            steps[r] += 1
            reps.append(r)
            flats.append(sampler.sample(rng))
        if not reps:
            return np.empty(0, dtype=np.int64)

        n_rows, n_cols = self.config.shape
        rep_arr = np.asarray(reps, dtype=np.int64)
        flat_arr = np.asarray(flats, dtype=np.int64)
        rows = flat_arr // n_cols
        cols = flat_arr % n_cols
        if only_if_happy and not continuous:
            do_flip = self._flippable_mask[rep_arr, rows, cols]
            rep_arr = rep_arr[do_flip]
            rows = rows[do_flip]
            cols = cols[do_flip]
            if rep_arr.size == 0:
                return rep_arr
        self._apply_flips(rep_arr, rows, cols)
        self._n_flips[rep_arr] += 1
        return rep_arr

    def _apply_flips(
        self, reps: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> None:
        """Flip one site per listed replica — the pre-fusion window update."""
        config = self.config
        n_rows, n_cols = config.shape
        total = config.neighborhood_agents

        new_values = -self._spins[reps, rows, cols]
        self._spins[reps, rows, cols] = new_values
        delta = new_values.astype(np.int64)

        offsets = self._offsets
        window_rows = (rows[:, None] + offsets[None, :]) % n_rows
        window_cols = (cols[:, None] + offsets[None, :]) % n_cols
        rep_index = reps[:, None, None]
        row_index = window_rows[:, :, None]
        col_index = window_cols[:, None, :]

        sub_plus = self._plus_counts[rep_index, row_index, col_index]
        center = config.horizon
        old_plus_center = sub_plus[:, center, center].astype(np.int64)
        old_spin = -delta
        old_same_center = np.where(
            old_spin == 1, old_plus_center, total - old_plus_center
        )
        new_plus_center = old_plus_center + delta
        new_same_center = np.where(
            delta == 1, new_plus_center, total - new_plus_center
        )
        self._energies[reps] += (
            delta * (2 * old_plus_center - total - old_spin)
            + new_same_center
            - old_same_center
        )
        self._n_plus[reps] += delta
        sub_plus += delta[:, None, None]
        self._plus_counts[rep_index, row_index, col_index] = sub_plus
        sub_spins = self._spins[rep_index, row_index, col_index]
        sub_same = np.where(sub_spins == 1, sub_plus, total - sub_plus)
        sub_happy, sub_flippable = self._classify(sub_spins, sub_same)

        old_happy = self._happy_mask[rep_index, row_index, col_index]
        old_flippable = self._flippable_mask[rep_index, row_index, col_index]
        changed = (sub_happy != old_happy) | (sub_flippable != old_flippable)
        self._happy_mask[rep_index, row_index, col_index] = sub_happy
        self._flippable_mask[rep_index, row_index, col_index] = sub_flippable
        if not changed.any():
            return

        flat = window_rows[:, :, None] * n_cols + window_cols[:, None, :]
        changed_reps = np.broadcast_to(rep_index, changed.shape)[changed].tolist()
        changed_flats = flat[changed].tolist()
        changed_happy = sub_happy[changed].tolist()
        changed_flippable = sub_flippable[changed].tolist()
        unhappy_sets = self._unhappy
        flippable_sets = self._flippable
        for replica, index, happy, flippable in zip(
            changed_reps, changed_flats, changed_happy, changed_flippable
        ):
            unhappy_sets[replica].update_membership(index, not happy)
            flippable_sets[replica].update_membership(index, flippable)


# --------------------------------------------------------------------------
# Percolation
# --------------------------------------------------------------------------


def _label_clusters_reference(mask: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Scalar reference implementation of :func:`label_clusters`.

    One Python-level union per open edge and one find per open site.  Kept as
    the equivalence oracle for the property tests and the labelling benchmark;
    production code should always call :func:`label_clusters`.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise PercolationError(f"mask must be 2-D, got shape {mask.shape}")
    n_rows, n_cols = mask.shape
    uf = UnionFind(mask.size)
    flat = mask.ravel()

    def merge(a_rows, a_cols, b_rows, b_cols) -> None:
        a_idx = (a_rows * n_cols + a_cols).ravel()
        b_idx = (b_rows * n_cols + b_cols).ravel()
        both = flat[a_idx] & flat[b_idx]
        for a, b in zip(a_idx[both], b_idx[both]):
            uf.union(int(a), int(b))

    rows = np.arange(n_rows)
    cols = np.arange(n_cols)
    grid_rows, grid_cols = np.meshgrid(rows, cols, indexing="ij")
    # Horizontal edges.
    merge(grid_rows[:, :-1], grid_cols[:, :-1], grid_rows[:, 1:], grid_cols[:, 1:])
    # Vertical edges.
    merge(grid_rows[:-1, :], grid_cols[:-1, :], grid_rows[1:, :], grid_cols[1:, :])
    if periodic:
        merge(grid_rows[:, -1:], grid_cols[:, -1:], grid_rows[:, :1], grid_cols[:, :1])
        merge(grid_rows[-1:, :], grid_cols[-1:, :], grid_rows[:1, :], grid_cols[:1, :])

    labels = np.full(mask.shape, -1, dtype=np.int64)
    next_label = 0
    root_to_label: dict[int, int] = {}
    open_indices = np.flatnonzero(flat)
    for index in open_indices:
        root = uf.find(int(index))
        if root not in root_to_label:
            root_to_label[root] = next_label
            next_label += 1
        labels.ravel()[index] = root_to_label[root]
    return labels


def _estimate_radius_tail_reference(
    p_open: float,
    radii: list[int],
    box_radius: int,
    n_trials: int,
    seed: SeedLike = None,
) -> RadiusTailEstimate:
    """Per-trial loop — the reference for :func:`estimate_radius_tail`.

    One mask draw, labelling pass and origin :func:`cluster_radius` query per
    trial.  Retained as the equivalence oracle for the property tests;
    production code should always call the batched estimator.
    """
    if not 0.0 <= p_open <= 1.0:
        raise PercolationError(f"p_open must lie in [0, 1], got {p_open}")
    if any(k > box_radius for k in radii):
        raise PercolationError("requested radii exceed the simulation box radius")
    rng = make_rng(seed)
    side = 2 * box_radius + 1
    origin = (box_radius, box_radius)
    radii_arr = np.asarray(sorted(radii), dtype=int)
    hits = np.zeros(radii_arr.size, dtype=np.int64)
    for _ in range(n_trials):
        mask = rng.random((side, side)) < p_open
        mask[origin] = True  # condition on the origin being open
        labels = label_clusters(mask)
        radius = cluster_radius(labels, origin)
        hits += radius >= radii_arr
    return RadiusTailEstimate(
        p_open=p_open,
        radii=radii_arr,
        probabilities=hits / max(n_trials, 1),
        n_trials=max(n_trials, 0),
    )


# --------------------------------------------------------------------------
# Region scans
# --------------------------------------------------------------------------


def _monochromatic_radius_map_reference(
    spins: np.ndarray, max_radius: Optional[int] = None
) -> np.ndarray:
    """Linear per-radius scan — the reference :func:`monochromatic_radius_map`.

    Retained for the equivalence tests (and as the easiest statement of the
    semantics): one ``window_sums`` pass per radius over the whole grid,
    stopping once no site is alive.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    radii = np.zeros(spins.shape, dtype=np.int64)
    plus_indicator = (spins == 1).astype(np.int64)
    alive = np.ones(spins.shape, dtype=bool)
    for radius in range(1, limit + 1):
        counts = window_sums(plus_indicator, radius)
        total = neighborhood_size(radius)
        mono = (counts == total) | (counts == 0)
        alive &= mono
        if not alive.any():
            break
        radii[alive] = radius
    return radii


def _almost_monochromatic_radius_map_reference(
    spins: np.ndarray,
    ratio_threshold: float,
    max_radius: Optional[int] = None,
) -> np.ndarray:
    """Linear per-radius scan — the reference for
    :func:`almost_monochromatic_radius_map`.

    One full :func:`minority_ratio_map` grid pass per radius, recording the
    largest qualifying radius per site.  Retained as the equivalence oracle
    for the property tests and the region-scan benchmark; production code
    should always call :func:`almost_monochromatic_radius_map`.
    """
    if not 0.0 <= ratio_threshold <= 1.0:
        raise AnalysisError(
            f"ratio_threshold must lie in [0, 1], got {ratio_threshold}"
        )
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    radii = np.zeros(spins.shape, dtype=np.int64)
    for radius in range(1, limit + 1):
        ratios = minority_ratio_map(spins, radius)
        qualifies = ratios <= ratio_threshold
        radii[qualifies] = radius
    return radii
