"""Throughput benchmarks for the vectorized ensemble and parallel runners.

Three headline numbers back the execution-engine claims:

* **flips/sec, fused vs pre-fusion ensemble** — the fused flip loop
  (blocked RNG, batched index sets, fused window kernel) must deliver at
  least 2x the flip throughput of the retained pre-fusion
  ``ReferenceEnsembleDynamics`` (``tests/oracles.py``) at ``R = 8`` on a
  128x128 torus.  Both engines are bitwise equivalent to the same scalar
  runs, so the comparison is work-for-work by construction.
* **flips/sec, ensemble vs scalar** — the fused engine against 8 sequential
  scalar runs of the *same seeds* (flip counts asserted equal).
* **cells/sec, serial vs parallel** — ``run_sweep_parallel`` must produce a
  row-for-row identical table to the serial runner; the cells/sec of both
  paths is recorded so pool overheads stay visible in the report.

``REPRO_BENCH_QUICK=1`` caps the per-replica flip budget (same grid, same
assertions) so the file finishes well under 30 seconds.  Every emitted table
also lands as a machine-readable ``BENCH_*.json`` record (see
``benchmarks/_record.py``).
"""

from __future__ import annotations

import time
from typing import Optional

import pytest

from oracles import ReferenceEnsembleDynamics
from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics
from repro.core.simulation import Simulation
from repro.experiments.parallel import default_worker_count, run_sweep_parallel
from repro.experiments.results import ResultTable
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SweepSpec
from repro.experiments.workloads import bench_quick_mode as quick_mode
from repro.rng import ziggurat_exponential_tables

#: Acceptance floor for the fused engine over the retained pre-fusion
#: engine (flips/sec ratio at R = 8) — the PR 5 tentpole claim.
MIN_FUSED_SPEEDUP = 2.0
#: Acceptance floor for the fused engine over sequential scalar runs.
MIN_ENSEMBLE_SPEEDUP = 3.0
#: Conservative floor for the process-pool sweep over the serial runner at
#: >= 2 effective workers (pool start-up and result transfer included).
MIN_PARALLEL_SPEEDUP = 1.1


def throughput_parameters() -> dict[str, Optional[int]]:
    """Benchmark parameters, honouring ``REPRO_BENCH_QUICK``.

    The grid (128x128, w=3, ``R = 8``) never shrinks — the acceptance claim
    is about that size — only the flip budget is capped in quick mode.
    """
    return {
        "side": 128,
        "horizon": 3,
        "n_replicas": 8,
        "max_flips": 4000 if quick_mode() else None,
    }


def _engine_rate(engine_cls, config, n_replicas, max_flips, seed=7):
    """Best-of-3 flips/sec of one engine class (and its total flip count).

    A short throwaway run warms caches and lazy one-time setup (RNG blocks,
    lookup tables) before anything is timed; the quick-mode best-of-3 then
    absorbs scheduler noise on shared CI machines.
    """
    engine_cls(config, n_replicas=n_replicas, seed=seed).run(max_flips=200)
    best = 0.0
    flips = None
    for _ in range(3 if quick_mode() else 1):
        engine = engine_cls(config, n_replicas=n_replicas, seed=seed)
        start = time.perf_counter()
        result = engine.run(max_flips=max_flips)
        elapsed = time.perf_counter() - start
        if flips is None:
            flips = result.total_flips
        assert flips == result.total_flips
        best = max(best, result.total_flips / elapsed)
    return best, flips


def bench_fused_vs_reference_flips_per_second(benchmark, emit):
    """Fused flip loop vs the retained pre-fusion engine, same seeds."""
    params = throughput_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    n_replicas = params["n_replicas"]
    max_flips = params["max_flips"]
    ziggurat_exponential_tables()  # one-time calibration outside the timing

    def run() -> ResultTable:
        reference_rate, reference_flips = _engine_rate(
            ReferenceEnsembleDynamics, config, n_replicas, max_flips
        )
        fused_rate, fused_flips = _engine_rate(
            EnsembleDynamics, config, n_replicas, max_flips
        )
        assert reference_flips == fused_flips, "engines disagree on total flips"
        table = ResultTable()
        table.add_row(
            engine="reference R=8",
            flips=reference_flips,
            flips_per_second=reference_rate,
        )
        table.add_row(
            engine="fused R=8", flips=fused_flips, flips_per_second=fused_rate
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = table.numeric_column("flips_per_second")
    speedup = rates[1] / rates[0]
    benchmark.extra_info["fused_speedup"] = float(speedup)
    benchmark.extra_info["quick_mode"] = quick_mode()
    benchmark.extra_info["n_replicas"] = throughput_parameters()["n_replicas"]
    emit("PERF_fused_flip_loop", table, benchmark)
    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"fused speedup {speedup:.2f}x below the {MIN_FUSED_SPEEDUP}x floor"
    )


def bench_ensemble_vs_scalar_flips_per_second(benchmark, emit):
    """R = 8 lockstep replicas vs 8 sequential scalar runs, same seeds."""
    params = throughput_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    n_replicas = params["n_replicas"]
    max_flips = params["max_flips"]
    ziggurat_exponential_tables()

    def run() -> ResultTable:
        ensemble = EnsembleDynamics(config, n_replicas=n_replicas, seed=7)
        start = time.perf_counter()
        result = ensemble.run(max_flips=max_flips)
        ensemble_seconds = time.perf_counter() - start
        ensemble_flips = result.total_flips

        start = time.perf_counter()
        scalar_flips = 0
        for seed in ensemble.replica_seeds:
            scalar_flips += Simulation(config, seed=seed).run(
                max_flips=max_flips
            ).n_flips
        scalar_seconds = time.perf_counter() - start

        table = ResultTable()
        table.add_row(
            engine="scalar x8",
            flips=scalar_flips,
            seconds=scalar_seconds,
            flips_per_second=scalar_flips / scalar_seconds,
        )
        table.add_row(
            engine="ensemble R=8",
            flips=ensemble_flips,
            seconds=ensemble_seconds,
            flips_per_second=ensemble_flips / ensemble_seconds,
        )
        assert scalar_flips == ensemble_flips, "engines disagree on total flips"
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = table.numeric_column("flips_per_second")
    speedup = rates[1] / rates[0]
    benchmark.extra_info["speedup"] = float(speedup)
    benchmark.extra_info["quick_mode"] = quick_mode()
    emit("PERF_ensemble_throughput", table, benchmark)
    assert speedup >= MIN_ENSEMBLE_SPEEDUP, (
        f"ensemble speedup {speedup:.2f}x below the {MIN_ENSEMBLE_SPEEDUP}x floor"
    )


def bench_parallel_vs_serial_cells_per_second(benchmark, emit):
    """Process-pool sweep vs serial sweep: identical rows, measured rates.

    Refuses to run — and therefore to emit a ``PERF_parallel_sweep_throughput``
    record — when fewer than two workers are effectively available: a
    one-worker "parallel" run exercises the inline serial path, and recording
    it as parallel is how an unmeasured scaling claim once slipped into the
    repo's benchmark records.
    """
    effective = default_worker_count()
    if effective < 2:
        pytest.skip(
            f"only {effective} effective CPU(s) (affinity-aware): a "
            "single-worker run measures the serial path, refusing to record "
            "it as parallel"
        )
    base = ModelConfig.square(side=24 if quick_mode() else 40, horizon=1, tau=0.4)
    sweep = SweepSpec(
        name="throughput",
        base_config=base,
        taus=[0.35, 0.4, 0.45],
        densities=[0.45, 0.55],
        n_replicates=2,
        seed=5,
    )
    workers = min(4, effective)
    n_cells = sweep.n_cells()

    def run() -> ResultTable:
        start = time.perf_counter()
        serial = run_sweep(sweep)
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        parallel = run_sweep_parallel(sweep, workers=workers)
        parallel_seconds = time.perf_counter() - start

        strip = lambda table: [
            {k: v for k, v in row.items() if k != "wall_clock_seconds"}
            for row in table.rows
        ]
        assert strip(serial) == strip(parallel), "parallel rows diverge from serial"

        table = ResultTable()
        table.add_row(
            runner="serial",
            cells=n_cells,
            seconds=serial_seconds,
            cells_per_second=n_cells / serial_seconds,
        )
        table.add_row(
            runner=f"parallel x{workers}",
            cells=n_cells,
            seconds=parallel_seconds,
            cells_per_second=n_cells / parallel_seconds,
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = table.numeric_column("cells_per_second")
    speedup = float(rates[1] / rates[0])
    benchmark.extra_info["parallel_speedup"] = speedup
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["effective_cpus"] = effective
    emit("PERF_parallel_sweep_throughput", table, benchmark)
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"parallel sweep speedup {speedup:.2f}x at {workers} workers is below "
        f"the {MIN_PARALLEL_SPEEDUP}x floor"
    )
