"""Traced replay: per-layer spans and counts, run as a child process.

The replay runs a workload's sweep serially in this one process with spans
around each layer's public call, which it wraps from outside (the program is
not edited):

=======================  =====================================================
span                     wrapped call
=======================  =====================================================
``experiments.sweep``    ``run_sweep_parallel(workers=1)`` (supervisor self time)
``experiments.cell``     ``runner.run_experiment`` (self time = row building)
``core.init``            ``VariantSpec.make_ensemble``
``core.flip_loop``       ``EnsembleDynamics.run``
``analysis.measure``     ``runner.segregation_metrics_batch``
``experiments.record``   ``SweepCheckpoint.record``
``experiments.summary``  ``SweepCheckpoint.write_summary``
``experiments.transfer`` ``shm.encode_chunk`` + ``shm.decode_chunk`` of the rows,
                         chunked as the pool chunks them
``serving.*``            ``verify_store``, ``ArtifactStore`` + ``QueryEngine.load``,
                         ``QueryEngine.answer``
=======================  =====================================================

A span is (name, start, end, parent); self time is a span minus its
children.  The spans stay in memory and are written to ``--spans`` at the
end.  The same sweep also runs untraced, serially and on the pool, which
gives the tracing overhead and the pool efficiency.  The last stdout line is
a JSON report.

    python3 e2ebench/tracing.py --workload sweep-many-small --seed 1 \
        --workdir DIR --spans OUT.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from sweeps import check_store
from workloads import SERVE_WORKLOADS, WORKERS, make_sweep, query_mix, sweep_shape

#: Requests replayed in-process and over HTTP on serve-mixed.
REPLAY_BLOCKS = 100


class Tracer:
    """Nested spans of one thread, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; yields the span's index."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Replace ``owner.attribute`` by a traced call; ``after(result, args)`` counts."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attribute, traced)

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (children of one thread never overlap)."""
        child_time = defaultdict(float)
        for index, (_name, _start, _end, parent) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += self.duration(index)
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span[0]] += self.duration(index) - child_time[index]
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def instrument(tracer: Tracer) -> list[tuple]:
    """Wrap the sweep layers' public calls; return the record log it fills."""
    from repro.core.ensemble import EnsembleDynamics
    from repro.core.variants import VariantSpec
    from repro.experiments import checkpoint, runner

    records: list[tuple] = []

    def count_run(result, _args):
        tracer.counts["flips"] += int(result.n_flips.sum())
        tracer.counts["steps"] += int(result.n_steps.sum())

    def count_measure(_result, _args):
        tracer.counts["measure_calls"] += 1

    def log_record(_result, args):
        records.append(args)  # (checkpoint, index, cell, rows)

    tracer.wrap(runner, "run_experiment", "experiments.cell")
    tracer.wrap(VariantSpec, "make_ensemble", "core.init")
    tracer.wrap(EnsembleDynamics, "run", "core.flip_loop", count_run)
    tracer.wrap(runner, "segregation_metrics_batch", "analysis.measure", count_measure)
    tracer.wrap(checkpoint.SweepCheckpoint, "record", "experiments.record", log_record)
    tracer.wrap(checkpoint.SweepCheckpoint, "write_summary", "experiments.summary")
    return records


def replay_transfer(tracer: Tracer, table, n_cells: int) -> None:
    """Ship the sweep's rows through shared memory as the pool's chunks would."""
    from repro.experiments.parallel import default_chunk_size, pack_rows
    from repro.experiments.shm import decode_chunk, encode_chunk, shm_available

    if not shm_available():
        return
    by_cell = defaultdict(list)
    names = []
    for row in table.rows:
        if row["experiment"] not in by_cell:
            names.append(row["experiment"])
        by_cell[row["experiment"]].append(row)
    chunk = default_chunk_size(n_cells, WORKERS)
    with tracer.span("experiments.transfer"):
        for first in range(0, len(names), chunk):
            batch = [(i, pack_rows(by_cell[names[i]])) for i in range(first, min(first + chunk, len(names)))]
            decode_chunk(*encode_chunk(batch))


def trace_sweep(workload: str, seed: int, workdir: Path, tracer: Tracer) -> tuple[dict, list[str], int]:
    """Untraced pool and serial runs, then the traced serial replay."""
    from repro.experiments import run_sweep_parallel
    from repro.serving.store import comparable_rows

    shape = sweep_shape(workload)
    sweep = make_sweep(shape, seed)

    def timed(workers: int, store: Path):
        start = time.perf_counter()
        table = run_sweep_parallel(
            sweep, workers=workers, ensemble_size=shape.ensemble_size, checkpoint_dir=store
        )
        return time.perf_counter() - start, table

    pool_s, _ = timed(WORKERS, workdir / "pool")
    serial_s, serial_table = timed(1, workdir / "serial")
    records = instrument(tracer)
    with tracer.span("replay") as root:
        with tracer.span("experiments.sweep") as traced_sweep:
            table = run_sweep_parallel(
                sweep, workers=1, ensemble_size=shape.ensemble_size, checkpoint_dir=workdir / "traced"
            )
        replay_transfer(tracer, table, shape.n_cells)
    self_s = tracer.self_times()
    layer_self = sum(v for k, v in self_s.items() if k != "replay")

    record_bytes = 0
    for store, index, cell, rows in records:
        pinned = [dict(row, wall_clock_seconds=0.0) for row in rows]
        record_bytes += len(store.encoded_record(index, cell, pinned))
    _, problems = check_store(workdir / "traced", shape)
    if comparable_rows(table.rows) != comparable_rows(serial_table.rows):
        problems.append("traced replay rows differ from the untraced serial run")
    counts = tracer.counts
    flip_s = self_s["core.flip_loop"]
    measure_s = self_s["analysis.measure"]
    metrics = {
        "core.init_s": self_s["core.init"],
        "core.flip_loop_s": flip_s,
        "core.flips": counts["flips"],
        "core.steps": counts["steps"],
        "core.flip_yield": counts["flips"] / counts["steps"],
        "core.flips_per_s": counts["flips"] / flip_s,
        "analysis.measure_s": measure_s,
        "analysis.measure_calls": counts["measure_calls"],
        "analysis.measure_ms_per_call": 1e3 * measure_s / counts["measure_calls"],
        "experiments.sweep_self_s": self_s["experiments.sweep"],
        "experiments.cell_self_s": self_s["experiments.cell"],
        "experiments.pool_efficiency": serial_s / (WORKERS * pool_s),
        "experiments.pool_idle_s": WORKERS * pool_s - serial_s,
        "experiments.transfer_s": self_s["experiments.transfer"],
        "experiments.record_s": self_s["experiments.record"],
        "experiments.record_bytes": record_bytes / shape.n_cells,
        "experiments.summary_s": self_s["experiments.summary"],
        "experiments.cells_failed": float(len(table.failures)),
        "trace.coverage": layer_self / tracer.duration(root),
        "trace.overhead_frac": tracer.duration(traced_sweep) / serial_s - 1.0,
    }
    return metrics, problems, shape.n_cells


def trace_serving(seed: int, store: Path, workdir: Path, tracer: Tracer, env: dict) -> tuple[dict, list[str], int]:
    """In-process resolution per query kind, then the same stream over HTTP."""
    from repro.experiments import verify_store
    from repro.serving import ArtifactStore, QueryEngine

    from serve import answer_problem, load_summary_cells, start_server

    queries = query_mix(seed, REPLAY_BLOCKS)
    by_point, by_index = load_summary_cells(store)
    problems: list[str] = []
    with tracer.span("serving.verify"):
        if not verify_store(store)["ok"]:
            problems.append("verify_store reported problems")
    with tracer.span("serving.load"):
        engine = QueryEngine(ArtifactStore(store)).load()
    latency = defaultdict(list)
    for query in queries:
        params = {"tau": query.tau, "rho": query.rho, "w": query.w}
        with tracer.span("serving.answer"):
            start = time.perf_counter()
            answer = engine.answer(params, interpolate=query.kind == "interp")
            latency[query.kind].append(time.perf_counter() - start)
        problem = answer_problem(query, json.loads(json.dumps(answer)), by_point, by_index)
        if problem:
            problems.append(problem)

    server = start_server(store, env, Path.cwd(), workdir / "serve.log")
    try:
        http_latency = []
        for query in queries:
            start = time.perf_counter()
            status, body = server.get(query.path)
            http_latency.append(time.perf_counter() - start)
            if status != 200:
                problems.append(f"{query.path}: status {status}")
            elif problem := answer_problem(query, json.loads(body), by_point, by_index):
                problems.append(problem)
        stats = server.stats()
    finally:
        server.stop()
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"] + cache["coalesced"]
    if lookups != len(queries):
        problems.append(f"/stats counted {lookups} lookups for {len(queries)} queries")
    in_process = [s for kind in latency.values() for s in kind]
    metrics = {
        f"serving.answer_{kind}_ms": 1e3 * median(latency[kind])
        for kind in ("hot", "exact", "nearest", "interp")
    }
    self_s = tracer.self_times()
    metrics.update(
        {
            "serving.verify_s": self_s["serving.verify"],
            "serving.load_s": self_s["serving.load"],
            "serving.cache_hit_ratio": cache["hits"] / lookups,
            "serving.cache_evictions": float(cache["evictions"]),
            "serving.http_overhead_ms": 1e3 * (median(http_latency) - median(in_process)),
            "serving.rejected": float(stats["compute"]["rejected"]),
            "serving.degraded": float(stats["compute"]["degraded"]),
        }
    )
    return metrics, problems, 2 * len(queries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    metrics, problems, attempted = trace_sweep(args.workload, args.seed, args.workdir, tracer)
    if args.workload in SERVE_WORKLOADS:
        served, found, queried = trace_serving(
            args.seed, args.workdir / "pool", args.workdir, tracer, dict(os.environ)
        )
        metrics.update(served)
        problems += found
        attempted += queried
    tracer.write(args.spans)
    print(json.dumps({"metrics": metrics, "problems": problems, "attempted": attempted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
