"""Flip-loop microbenchmarks: the fused round and the backends' round loop.

Where ``bench_ensemble_throughput.py`` measures end-to-end rates including
engine construction, this file times the flip loop alone.
``bench_flip_loop_rounds_per_second`` times single rounds — repeated
``step_all`` calls — for the fused
:class:`~repro.core.ensemble.EnsembleDynamics` against the retained
pre-fusion ``ReferenceEnsembleDynamics`` (``tests/oracles.py``), across
several replica counts: regressions in the blocked-RNG draws, the batched
index-set updates or the fused window kernel show up there first.
``bench_flip_loop_backends`` times ``EnsembleDynamics.run`` under a flip
budget, which is where the backends run their whole round loop.

Every engine and backend advances bitwise-identical dynamics (asserted by
the test suite), so rates are work-for-work comparisons.  Quick mode trims
the round/flip budgets only; results land in ``PERF_flip_loop*.csv`` and
the machine-readable ``BENCH_PERF_flip_loop*.json``.
"""

from __future__ import annotations

import statistics
import time

from oracles import ReferenceEnsembleDynamics
from repro.core.backends.registry import available_backends
from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics
from repro.experiments.results import ResultTable
from repro.experiments.workloads import bench_quick_mode as quick_mode
from repro.rng import ziggurat_exponential_tables

#: Microbench floor for the fused step loop at R = 8 (kept a notch below the
#: end-to-end 2x acceptance floor to absorb per-round timing noise).
MIN_STEP_SPEEDUP = 1.6

#: Replica counts to profile; the R = 8 row carries the assertion.
REPLICA_COUNTS = (4, 8, 16)

#: Flips/sec floor a compiled flip-loop backend (numba or cffi) must clear
#: over the numpy backend at R = 8 on the 128x128 grid.  Asserted whenever a
#: compiled backend is available — including in quick mode, where the round
#: budget is trimmed but the ratio is stable.
MIN_COMPILED_STEP_SPEEDUP = 3.0

#: Backends whose kernels are compiled (vs interpreted); the ``python``
#: backend is excluded from the bench outright — it exists as numba's
#: oracle, not as an execution engine anyone would time.
COMPILED_BACKENDS = ("numba", "cffi")


def flip_loop_parameters() -> dict[str, int]:
    """Grid/budget parameters, honouring ``REPRO_BENCH_QUICK``."""
    return {
        "side": 128,
        "horizon": 3,
        "rounds": 400 if quick_mode() else 4000,
        "flips": 2000 if quick_mode() else 8000,
    }


def _rounds_per_second(engine, rounds: int) -> float:
    """Time ``rounds`` consecutive ``step_all`` calls on a fresh engine."""
    start = time.perf_counter()
    for _ in range(rounds):
        engine.step_all()
    return rounds / (time.perf_counter() - start)


def bench_flip_loop_rounds_per_second(benchmark, emit):
    """step_all rounds/sec, fused vs reference, across replica counts."""
    params = flip_loop_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    rounds = params["rounds"]
    ziggurat_exponential_tables()  # one-time calibration outside the timing

    def run() -> ResultTable:
        table = ResultTable()
        for n_replicas in REPLICA_COUNTS:
            rates = {}
            for label, engine_cls in (
                ("reference", ReferenceEnsembleDynamics),
                ("fused", EnsembleDynamics),
            ):
                best = 0.0
                for _ in range(3 if quick_mode() else 1):
                    engine = engine_cls(config, n_replicas=n_replicas, seed=11)
                    best = max(best, _rounds_per_second(engine, rounds))
                rates[label] = best
                table.add_row(
                    engine=label,
                    n_replicas=n_replicas,
                    rounds=rounds,
                    rounds_per_second=best,
                    flips_per_second=best * n_replicas,
                )
            table.add_row(
                engine="speedup",
                n_replicas=n_replicas,
                rounds=rounds,
                rounds_per_second=rates["fused"] / rates["reference"],
                flips_per_second=rates["fused"] / rates["reference"],
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    speedups = {
        row["n_replicas"]: row["rounds_per_second"]
        for row in table.rows
        if row["engine"] == "speedup"
    }
    benchmark.extra_info["quick_mode"] = quick_mode()
    for n_replicas, speedup in speedups.items():
        benchmark.extra_info[f"speedup_r{n_replicas}"] = float(speedup)
    emit("PERF_flip_loop", table, benchmark)
    assert speedups[8] >= MIN_STEP_SPEEDUP, (
        f"fused step loop {speedups[8]:.2f}x below the {MIN_STEP_SPEEDUP}x floor"
    )


#: Replica counts of the cffi rows: 32/33 straddle the size at which the
#: engine used to hand rounds to a separate array regime (a 2x flips/s
#: cliff), 64 is past it.
CFFI_REPLICA_COUNTS = (8, 32, 33, 64)

#: The no-cliff gate: cffi flips/s at R = 33 over R = 32 must stay above this.
MIN_CLIFF_RATIO = 0.8

#: Timed repeats per row; rows report the median.
REPEATS = 3


def _run_flips_per_second(config, n_replicas: int, backend: str, flips: int) -> float:
    """flips/s of one ``run(max_flips=flips)`` on a fresh, warmed engine."""
    engine = EnsembleDynamics(config, n_replicas=n_replicas, seed=11, backend=backend)
    engine.run(max_flips=1)  # warm-up: JIT/compile + capture
    start = time.perf_counter()
    result = engine.run(max_flips=flips)
    return result.total_flips / (time.perf_counter() - start)


def bench_flip_loop_backends(benchmark, emit):
    """flips/sec of ``run()`` per flip-loop backend; compiled floor asserted.

    Times ``EnsembleDynamics.run(max_flips=...)`` — the round loop as each
    backend runs it — on one grid (128x128, w=3): every available backend at
    R = 8, plus cffi at R in :data:`CFFI_REPLICA_COUNTS`, each row the
    median of :data:`REPEATS` runs.  Whenever a compiled backend (numba or
    cffi) is available, its R = 8 speedup over the numpy backend must clear
    :data:`MIN_COMPILED_STEP_SPEEDUP`; with cffi, its R = 33 rate must stay
    within :data:`MIN_CLIFF_RATIO` of its R = 32 rate.  On numpy-only hosts
    the bench records the numpy rate and asserts nothing.
    """
    params = flip_loop_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    flips = params["flips"]
    ziggurat_exponential_tables()  # one-time calibration outside the timing
    backends = [name for name in available_backends() if name != "python"]
    rows = [(name, 8) for name in backends]
    if "cffi" in backends:
        rows += [("cffi", r) for r in CFFI_REPLICA_COUNTS if r != 8]

    def run() -> ResultTable:
        # Repeats are interleaved across rows, so host drift during the
        # bench lands on every row alike instead of on whichever row ran
        # while it lasted (the R=33 / R=32 gate compares two rows).
        samples: dict[tuple[str, int], list[float]] = {row: [] for row in rows}
        for _ in range(REPEATS):
            for name, n_replicas in rows:
                samples[name, n_replicas].append(
                    _run_flips_per_second(config, n_replicas, name, flips)
                )
        table = ResultTable()
        for (name, n_replicas), rates in samples.items():
            table.add_row(
                engine=name,
                n_replicas=n_replicas,
                max_flips=flips,
                flips_per_second=statistics.median(rates),
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = {
        (row["engine"], row["n_replicas"]): row["flips_per_second"]
        for row in table.rows
    }
    benchmark.extra_info["quick_mode"] = quick_mode()
    benchmark.extra_info["backends"] = ",".join(backends)
    for (name, n_replicas), rate in rates.items():
        benchmark.extra_info[f"flips_per_second_{name}_r{n_replicas}"] = float(rate)
        if name != "numpy" and n_replicas == 8:
            benchmark.extra_info[f"speedup_{name}"] = float(
                rate / rates["numpy", 8]
            )
    if "cffi" in backends:
        benchmark.extra_info["cffi_r33_over_r32"] = float(
            rates["cffi", 33] / rates["cffi", 32]
        )
    emit("PERF_flip_loop_backends", table, benchmark)
    compiled = [name for name in backends if name in COMPILED_BACKENDS]
    for name in compiled:
        speedup = rates[name, 8] / rates["numpy", 8]
        assert speedup >= MIN_COMPILED_STEP_SPEEDUP, (
            f"{name} backend {speedup:.2f}x below the "
            f"{MIN_COMPILED_STEP_SPEEDUP}x flips/sec floor over numpy"
        )
    if "cffi" in backends:
        ratio = rates["cffi", 33] / rates["cffi", 32]
        assert ratio >= MIN_CLIFF_RATIO, (
            f"cffi flips/s at R=33 is {ratio:.2f}x its R=32 rate, below the "
            f"{MIN_CLIFF_RATIO}x no-cliff floor"
        )
