"""Parameter-point queries against one or many sweep artifact stores.

A store holds aggregates at its sweep's grid points; consumers ask for
arbitrary ``(rho, tau, w)`` points.  :class:`QueryEngine` resolves a query in
a fixed priority order over the answerable cells of every store it serves
(a phase diagram rarely lives in one sweep: different runs cover different
regions, at different resolutions):

1. **Exact match** — a summary cell whose parameters equal the query point
   bit-for-bit returns its stored aggregates unchanged.
2. **Bilinear interpolation** (opt-in) — for a point inside the convex hull
   of the ``(rho, tau)`` grid at an exactly-matching horizon ``w``, the four
   bracketing corner cells are blended with the standard bilinear weights.
   Every interpolated metric is a convex combination of the corner values,
   so it is bounded by the corners' extremes (the property the differential
   test suite asserts).
3. **Nearest cell** — the cell minimising the *normalized Euclidean
   distance* ``d(q, c) = sqrt(sum_a ((q_a - c_a) / s_a)^2)`` over the axes
   ``a in (rho, tau, w)``, where the scale ``s_a`` is the range
   (``max - min``) of axis ``a`` over all answerable cells, or 1.0
   for a degenerate axis.  Normalizing by range makes the axes commensurate
   (a horizon step of 1 is not drowned out by a density step of 0.05) and
   depends only on the *set* of cells, so the lookup is deterministic under
   any shuffling of store rows; ties break lexicographically on the cell's
   ``(params, spec_hash, store)``, never on storage or store order.
   ``max_distance`` can bound how far an answer may be from the query.
4. **Miss policy** — with no answer within bounds, ``on_miss="error"``
   raises :class:`~repro.errors.QueryMiss`; ``on_miss="compute"`` schedules
   a fresh simulation of the point (deterministically seeded from the
   sweep of the store owning the nearest cell) and answers from its
   aggregates.

Resolved answers flow through a bounded thread-safe **single-flight** LRU
cache (:mod:`repro.serving.cache`) keyed on the resolved point and the
store-snapshot generation, so a service under repeated traffic answers from
memory and N concurrent misses on the same point run exactly one
computation; hit/miss/eviction/coalesce counters are exposed via
:meth:`QueryEngine.stats` and the HTTP ``/stats`` endpoint.

Under load, compute-on-miss admission is bounded by an optional
:class:`~repro.serving.lifecycle.ComputeGate`.  A saturated gate triggers
the **degradation ladder**: the request is answered from the nearest stored
cell flagged ``degraded`` (with a
:class:`~repro.errors.ServingDegradationWarning`, mirroring the sweep
supervisor's pattern); when the store has no cells at all to fall back on,
the request fails with :class:`~repro.errors.ServiceOverload`, which the
HTTP layer maps to ``429`` with ``Retry-After``.  Degraded answers are
never cached — they are a capacity artifact, not the point's true answer.
"""

from __future__ import annotations

import math
import threading
import warnings
from typing import Mapping, Optional, Sequence, Union

from repro.errors import (
    DeadlineExceeded,
    QueryMiss,
    ServiceOverload,
    ServingDegradationWarning,
    ServingError,
)
from repro.serving.cache import LRUCache, cache_key, make_query_cache
from repro.serving.lifecycle import ComputeGate
from repro.serving.store import ArtifactStore, PathLike, query_spec_for_point

#: Canonical query axes, in documentation order.
AXES = ("rho", "tau", "w")

#: Accepted spellings for each axis (the sweep rows call them
#: ``density``/``tau``/``horizon``; the paper's figures use ``p``/``tau``/``w``).
AXIS_ALIASES = {
    "rho": "rho",
    "density": "rho",
    "p": "rho",
    "tau": "tau",
    "w": "w",
    "horizon": "w",
}

#: Valid values of the engine's miss policy.
ON_MISS_POLICIES = ("error", "compute")


def parse_query(query: Union[str, Mapping[str, object]]) -> dict[str, float]:
    """Parse ``"rho=0.4,tau=0.55,w=2"`` or an axis mapping into a point.

    Accepts the aliases in :data:`AXIS_ALIASES`, rejects unknown axes,
    duplicates and non-numeric values.  Axes may be omitted — the engine
    fills an omitted axis when the store pins it to a single value.
    """
    if isinstance(query, str):
        terms = []
        for part in query.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            if not sep:
                raise ServingError(
                    f"query term {part!r} is not of the form axis=value"
                )
            terms.append((name.strip().lower(), raw.strip()))
    else:
        terms = [(str(name).lower(), value) for name, value in query.items()]
    point: dict[str, float] = {}
    for name, value in terms:
        axis = AXIS_ALIASES.get(name)
        if axis is None:
            known = ", ".join(sorted(AXIS_ALIASES))
            raise ServingError(
                f"unknown query axis {name!r} (known: {known})"
            )
        if axis in point:
            raise ServingError(f"query names axis {axis!r} more than once")
        try:
            point[axis] = float(value)
        except (TypeError, ValueError):
            raise ServingError(
                f"query value {value!r} for axis {axis!r} is not a number"
            ) from None
    if not point:
        raise ServingError("empty query — name at least one axis=value term")
    return point


def axis_scales(cells: list[dict]) -> dict[str, float]:
    """Per-axis normalization scales over the answerable cells.

    ``s_a = max_a - min_a`` over the cells' parameter points, with 1.0 for a
    degenerate axis (single value) so a division never blows up.  A pure
    function of the cell *set* — invariant under storage order, and over
    several stores computed on the union of their cells so the metric is
    commensurate across stores.
    """
    scales: dict[str, float] = {}
    for axis in AXES:
        values = [float(cell["params"][axis]) for cell in cells]
        span = max(values) - min(values) if values else 0.0
        scales[axis] = span if span > 0.0 else 1.0
    return scales


def normalized_distance(
    point: dict[str, float], params: dict, scales: dict[str, float]
) -> float:
    """Normalized Euclidean distance between a query point and a cell."""
    return math.sqrt(
        sum(
            ((point[axis] - float(params[axis])) / scales[axis]) ** 2
            for axis in AXES
        )
    )


def _cell_point(cell: dict) -> tuple[float, float, float]:
    """A cell's parameter point as a ``(rho, tau, w)`` key."""
    params = cell["params"]
    return tuple(float(params[axis]) for axis in AXES)


def _cell_rank(cell: dict) -> tuple:
    """Deterministic tie-break rank: parameter point, spec hash, then store.

    The trailing store tag (set over several stores, empty for one) makes
    ties deterministic even when two stores hold cells with identical
    parameters and hashes.
    """
    return _cell_point(cell) + (
        str(cell.get("spec_hash", "")),
        str(cell.get("store", "")),
    )


def _answer_cell_entry(cell: dict, weight: float) -> dict:
    """One contributing-cell entry of an answer payload."""
    entry = {
        "index": cell.get("index"),
        "name": cell.get("name"),
        "spec_hash": cell.get("spec_hash"),
        "params": cell.get("params"),
        "weight": weight,
    }
    if cell.get("store") is not None:
        entry["store"] = cell["store"]
    return entry


def _single_cell_answer(
    point: dict[str, float], source: str, cell: dict, distance: float
) -> dict:
    """The answer payload of an exact or nearest single-cell match."""
    return {
        "point": point,
        "source": source,
        "distance": distance,
        "metrics": cell["metrics"],
        "cells": [_answer_cell_entry(cell, 1.0)],
    }


def _blend(corners: list[tuple[float, dict]]) -> dict[str, dict[str, float]]:
    """Convex combination of corner metrics.

    Blends only the metric columns (and per-column stat fields) present in
    *every* contributing corner, so a ragged store cannot produce a value
    that silently mixes populations.
    """
    metric_names = set(corners[0][1]["metrics"])
    for _, cell in corners[1:]:
        metric_names &= set(cell["metrics"])
    blended: dict[str, dict[str, float]] = {}
    for name in sorted(metric_names):
        fields = set(corners[0][1]["metrics"][name])
        for _, cell in corners[1:]:
            fields &= set(cell["metrics"][name])
        blended[name] = {
            field: sum(
                weight * float(cell["metrics"][name][field])
                for weight, cell in corners
            )
            for field in sorted(fields)
        }
    return blended


def bilinear_answer(
    cells: list[dict], point: dict[str, float]
) -> Optional[dict]:
    """Bilinear interpolation over ``(rho, tau)`` at an exact horizon.

    Returns ``None`` unless the store has, at the query's exact ``w``, the
    four grid corners bracketing the query in both ``rho`` and ``tau`` (a
    bracket may be degenerate when the query lies exactly on a grid line).
    The result's metrics are convex combinations of the corner metrics with
    the standard bilinear weights, hence bounded by the corner extremes.
    """
    at_w = {}
    for cell in cells:
        params = cell["params"]
        if float(params["w"]) != point["w"]:
            continue
        key = (float(params["tau"]), float(params["rho"]))
        best = at_w.get(key)
        if best is None or _cell_rank(cell) < _cell_rank(best):
            at_w[key] = cell
    if not at_w:
        return None
    taus = sorted({key[0] for key in at_w})
    rhos = sorted({key[1] for key in at_w})
    tau_lo = max((t for t in taus if t <= point["tau"]), default=None)
    tau_hi = min((t for t in taus if t >= point["tau"]), default=None)
    rho_lo = max((r for r in rhos if r <= point["rho"]), default=None)
    rho_hi = min((r for r in rhos if r >= point["rho"]), default=None)
    if None in (tau_lo, tau_hi, rho_lo, rho_hi):
        return None  # outside the grid's convex hull
    weight_tau = (
        0.0
        if tau_hi == tau_lo
        else (point["tau"] - tau_lo) / (tau_hi - tau_lo)
    )
    weight_rho = (
        0.0
        if rho_hi == rho_lo
        else (point["rho"] - rho_lo) / (rho_hi - rho_lo)
    )
    # Accumulated, not a dict literal: with a degenerate bracket
    # (lo == hi) two corner labels collapse onto one grid point, and their
    # weights must add up rather than overwrite each other.
    corner_weights: dict[tuple[float, float], float] = {}
    for key, weight in (
        ((tau_lo, rho_lo), (1.0 - weight_tau) * (1.0 - weight_rho)),
        ((tau_hi, rho_lo), weight_tau * (1.0 - weight_rho)),
        ((tau_lo, rho_hi), (1.0 - weight_tau) * weight_rho),
        ((tau_hi, rho_hi), weight_tau * weight_rho),
    ):
        corner_weights[key] = corner_weights.get(key, 0.0) + weight
    corners: list[tuple[float, dict]] = []
    for key, weight in corner_weights.items():
        if weight <= 0.0:
            continue
        cell = at_w.get(key)
        if cell is None:
            return None  # ragged grid: a needed corner was never swept
        corners.append((weight, cell))
    if not corners:
        return None
    return {
        "source": "interpolated",
        "metrics": _blend(corners),
        "cells": [
            _answer_cell_entry(cell, weight) for weight, cell in corners
        ],
    }


class QueryEngine:
    """Cached parameter-point lookups against one or many artifact stores.

    ``stores`` is one store (directory or :class:`ArtifactStore`) or a
    sequence of them; at least one is required and duplicate directories are
    rejected (a store listed twice would only double its weight in
    tie-breaks — almost certainly a typo).  Over several stores every rule
    resolves against the *union* of their answerable cells: an exact match
    anywhere wins, interpolation corners and the nearest cell come from the
    union with union-wide distance scales, and each union cell (so each
    answer cell) is tagged with its store's directory.  A single store's
    cells stay untagged — there is nothing to disambiguate.  Compute-on-miss
    inherits its methodology from the store owning the query's region (see
    :meth:`_sweep_for_compute`).

    Thread-safe: resolution state is read-only after :meth:`load` and the
    answer cache takes its own lock, so one engine instance backs the
    threaded HTTP server directly.  An engine is a *snapshot*: it answers
    from the store state it first loaded.  The refresh poller
    (:class:`~repro.serving.lifecycle.StoreWatcher`) replaces the whole
    engine with a successor of the next ``generation`` rather than mutating
    one in place; ``generation`` is folded into every cache key so a shared
    cache never serves a superseded snapshot's answer.
    """

    def __init__(
        self,
        stores: Union[ArtifactStore, PathLike, Sequence],
        cache: Optional[LRUCache] = None,
        interpolate: bool = False,
        on_miss: str = "error",
        max_distance: Optional[float] = None,
        gate: Optional[ComputeGate] = None,
        generation: int = 0,
    ) -> None:
        if on_miss not in ON_MISS_POLICIES:
            raise ServingError(
                f"on_miss must be one of {ON_MISS_POLICIES}, got {on_miss!r}"
            )
        if isinstance(stores, (ArtifactStore, str)) or hasattr(
            stores, "__fspath__"
        ):
            stores = [stores]
        self.stores = [
            store if isinstance(store, ArtifactStore) else ArtifactStore(store)
            for store in stores
        ]
        if not self.stores:
            raise ServingError(
                "no store directories given — a query engine needs at least "
                "one store"
            )
        directories = [str(store.directory) for store in self.stores]
        if len(set(directories)) != len(directories):
            raise ServingError(f"duplicate store directories: {directories}")
        self.cache = cache if cache is not None else make_query_cache()
        self.interpolate = bool(interpolate)
        self.on_miss = on_miss
        self.max_distance = max_distance
        self.gate = gate
        self.generation = int(generation)
        #: The snapshot's tables, built once by :meth:`load`: the answerable
        #: cells in rank order (store-tagged over several stores), the
        #: first-ranked cell per exact parameter point, and the union's
        #: distance scales.
        self._cells: Optional[list[dict]] = None
        self._load_lock = threading.Lock()
        self._exact: dict[tuple[float, float, float], dict] = {}
        self._scales: dict[str, float] = {}

    def load(self) -> "QueryEngine":
        """Read the stores and build the snapshot's tables, once.

        Every lookup goes through here, so an engine never touches disk
        after its first load.  The refresh poller builds successors with
        this before swapping them in: the (possibly mid-append) disk read
        happens in the poller thread, and requests only ever see fully
        loaded snapshots.
        """
        if self._cells is not None:
            return self
        with self._load_lock:
            if self._cells is None:
                tagged = len(self.stores) > 1
                cells = [
                    dict(cell, store=str(store.directory)) if tagged else cell
                    for store in self.stores
                    for cell in store.answerable_cells()
                ]
                cells.sort(key=_cell_rank)
                exact: dict[tuple[float, float, float], dict] = {}
                for cell in cells:
                    exact.setdefault(_cell_point(cell), cell)
                self._exact = exact
                self._scales = axis_scales(cells)
                self._cells = cells  # last: a set ``_cells`` means loaded
        return self

    def answer_cells(self) -> list[dict]:
        """The answerable cells this snapshot resolves against, by rank."""
        return list(self.load()._cells)

    # ------------------------------------------------------------ resolution

    def resolve_point(
        self, query: Union[str, Mapping[str, object]]
    ) -> dict[str, float]:
        """Normalize a query into a full ``{rho, tau, w}`` point.

        The query goes through :func:`parse_query`.  An omitted axis is
        filled from the store when the answerable cells pin it to a single
        value, and is an error (the query is ambiguous) otherwise.
        """
        partial = parse_query(query)
        point: dict[str, float] = {}
        for axis in AXES:
            if axis in partial:
                point[axis] = partial[axis]
                continue
            pinned = {
                float(cell["params"][axis]) for cell in self.load()._cells
            }
            if len(pinned) == 1:
                point[axis] = pinned.pop()
            else:
                raise ServingError(
                    f"query omits axis {axis!r} and the store does not pin "
                    f"it to a single value ({len(pinned)} distinct values) "
                    "— specify it explicitly"
                )
        return point

    def _nearest(self, point: dict[str, float]) -> tuple[dict, float]:
        """The nearest cell and its normalized distance.

        The cells are in rank order and ``min`` keeps the first of equal
        keys, so ties break on the rank, never on storage order.
        """
        scales = self._scales
        return min(
            (
                (cell, normalized_distance(point, cell["params"], scales))
                for cell in self._cells
            ),
            key=lambda entry: entry[1],
        )

    def _lookup(self, point: dict[str, float], interpolate: bool) -> dict:
        """Resolve one full point against the snapshot (uncached)."""
        cells = self.load()._cells
        if not cells:
            return self._miss(point, "the store has no answerable cells")
        cell = self._exact.get(tuple(point[axis] for axis in AXES))
        if cell is not None:
            return _single_cell_answer(point, "exact", cell, 0.0)
        if interpolate:
            answer = bilinear_answer(cells, point)
            if answer is not None:
                answer["point"] = point
                answer["distance"] = None
                return answer
        cell, distance = self._nearest(point)
        if self.max_distance is not None and distance > self.max_distance:
            return self._miss(
                point,
                f"nearest cell is at normalized distance {distance:.4f}, "
                f"beyond the allowed {self.max_distance}",
            )
        return _single_cell_answer(point, "nearest", cell, distance)

    def _miss(self, point: dict[str, float], reason: str) -> dict:
        """Apply the miss policy: raise, or compute the point fresh."""
        if self.on_miss != "compute":
            raise QueryMiss(
                f"no stored answer for {point} ({reason}); rerun with "
                "on_miss='compute' to simulate the point"
            )
        return self._compute(point)

    def _compute(self, point: dict[str, float]) -> dict:
        """Simulate the queried point, bounded by the compute gate."""
        if self.gate is None:
            return self._compute_ungated(point)
        if not self.gate.admit():
            # Not yet counted: answer() classifies the overload as exactly
            # one degraded fallback or one rejection.
            raise ServiceOverload(
                f"compute capacity exhausted ({self.gate.limit} concurrent "
                f"simulation(s) already running) for {point}",
                retry_after=self.gate.retry_after,
            )
        try:
            return self._compute_ungated(point)
        finally:
            self.gate.release()

    def _sweep_for_compute(self, point: dict[str, float]):
        """The sweep spec a computed answer inherits its parameters from.

        A single store's sweep, its error included, is used as is.  Over
        several stores the one holding the nearest answerable cell goes
        first, then the others in order; a store whose manifest cannot
        rebuild a sweep is skipped, and the error names every failure.
        """
        if len(self.stores) == 1:
            return self.stores[0].sweep()
        ordered = list(self.stores)
        if self.load()._cells:
            owner = self._nearest(point)[0]["store"]
            ordered.sort(key=lambda store: str(store.directory) != owner)
        errors: list[str] = []
        for store in ordered:
            try:
                return store.sweep()
            except ServingError as exc:
                errors.append(f"{store.directory}: {exc}")
        raise ServingError(
            f"no store can rebuild a sweep to compute {point} from: "
            + "; ".join(errors)
        )

    def _compute_ungated(self, point: dict[str, float]) -> dict:
        """Simulate the queried point and answer from fresh aggregates."""
        from repro.experiments.checkpoint import VOLATILE_ROW_COLUMNS
        from repro.experiments.results import ResultTable
        from repro.experiments.runner import run_experiment

        sweep = self._sweep_for_compute(point)
        w = point["w"]
        if w != int(w):
            raise ServingError(
                f"cannot compute a non-integer horizon w={w!r}"
            )
        spec = query_spec_for_point(
            sweep, tau=point["tau"], rho=point["rho"], w=int(w)
        )
        # Wall-clock columns are stripped so a computed answer is a pure
        # function of (store, point) — rerunning the query reproduces it.
        table = ResultTable(
            [
                {
                    key: value
                    for key, value in row.items()
                    if key not in VOLATILE_ROW_COLUMNS
                }
                for row in run_experiment(spec).rows
            ]
        )
        return {
            "point": point,
            "source": "computed",
            "distance": None,
            "metrics": table.numeric_summary(),
            "cells": [
                {
                    "index": None,
                    "name": spec.name,
                    "spec_hash": None,
                    "params": dict(point),
                    "weight": 1.0,
                }
            ],
        }

    def _degrade(self, point: dict[str, float]) -> Optional[dict]:
        """The overload fallback: nearest stored cell, flagged ``degraded``.

        Ignores ``max_distance`` on purpose — under overload a far answer
        honestly flagged beats a 429 — and is never cached.  Returns
        ``None`` when the store holds nothing to fall back on.
        """
        if not self.load()._cells:
            return None
        cell, distance = self._nearest(point)
        answer = _single_cell_answer(point, "nearest", cell, distance)
        answer["degraded"] = True
        return answer

    # ---------------------------------------------------------------- public

    def answer(
        self,
        query: Union[str, dict[str, float]],
        interpolate: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Answer a query through the single-flight cache.

        Returns the answer payload (point, source, contributing cells,
        metrics) plus a ``cached`` flag for this call.  Concurrent misses on
        the same resolved point share one computation; ``deadline`` bounds
        (in seconds) how long this request may wait on another request's
        in-flight computation, raising
        :class:`~repro.errors.DeadlineExceeded` on expiry.  Misses under
        ``on_miss="error"`` raise :class:`~repro.errors.QueryMiss` and are
        never cached; computed answers are cached like any other.  When the
        compute gate is saturated the degradation ladder applies (see the
        module docstring).
        """
        use_interpolation = (
            self.interpolate if interpolate is None else bool(interpolate)
        )
        point = self.resolve_point(query)
        key = cache_key(point, use_interpolation, self.generation)
        try:
            value, outcome = self.cache.get_or_compute(
                key,
                lambda: self._lookup(point, use_interpolation),
                timeout=deadline,
            )
        except ServiceOverload:
            fallback = self._degrade(point)
            if fallback is None:
                if self.gate is not None:
                    self.gate.note_rejected()
                raise
            if self.gate is not None:
                self.gate.note_degraded()
            warnings.warn(
                ServingDegradationWarning(
                    f"compute gate saturated: answered {point} from the "
                    "nearest stored cell (flagged degraded) instead of "
                    "simulating it"
                ),
                stacklevel=2,
            )
            fallback["cached"] = False
            return fallback
        except DeadlineExceeded:
            if self.gate is not None:
                self.gate.note_timeout()
            raise
        answer = dict(value)
        answer["cached"] = outcome == "hit"
        return answer

    def stats(self) -> dict:
        """Cache counters plus store and policy descriptors (for ``/stats``).

        The ``store`` section describes one store by its directory and
        counts; several stores by their totals plus one entry per store.
        """
        members = [
            {
                "directory": str(store.directory),
                "n_cells": len(store.cells()),
                "n_answerable": len(store.answerable_cells()),
            }
            for store in self.stores
        ]
        if len(members) == 1:
            store_stats = dict(members[0], generation=self.generation)
        else:
            store_stats = {
                "federated": True,
                "n_stores": len(members),
                "n_cells": sum(entry["n_cells"] for entry in members),
                "n_answerable": sum(
                    entry["n_answerable"] for entry in members
                ),
                "generation": self.generation,
                "stores": members,
            }
        stats = {
            "cache": self.cache.stats(),
            "store": store_stats,
            "policy": {
                "interpolate": self.interpolate,
                "on_miss": self.on_miss,
                "max_distance": self.max_distance,
            },
        }
        if self.gate is not None:
            stats["compute"] = self.gate.stats()
        return stats
