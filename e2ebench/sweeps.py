"""Timed whole sweeps for the sweep workloads, run as a child process.

``run.py`` starts this script in a fresh interpreter so that the peak RSS it
reports covers exactly the sweep harness and its pool workers.  It runs the
workload's checkpointed sweep to completion (``summary.json`` included) as
many times as fit in ``--seconds``, then checks every store and re-runs one
seeded replicate through the scalar oracle.  The last stdout line is a JSON
report.

    python3 e2ebench/sweeps.py --workload sweep-many-small --seed 1 \
        --seconds 20 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKERS, SweepShape, make_sweep, sweep_shape


def check_store(store: Path, shape: SweepShape) -> tuple[int, list[str]]:
    """Cells of a finished store whose rows pass the checks, plus problems found.

    A cell passes when its record holds ``n_replicates`` rows and every
    (base-variant) replicate terminated.
    """
    from repro.experiments import verify_store
    from repro.experiments.checkpoint import scan_records

    problems = []
    report = verify_store(store)
    if not report["ok"]:
        problems.append(f"{store.name}: verify_store found {report['problems'][:3]}")
    if not (store / "summary.json").is_file():
        problems.append(f"{store.name}: no summary.json")
    records = {r.get("cell_index"): r for r in scan_records(store).values()}
    cells_ok = 0
    for index in range(shape.n_cells):
        rows = (records.get(index) or {}).get("rows") or []
        if len(rows) == shape.n_replicates and all(r["terminated"] for r in rows):
            cells_ok += 1
        else:
            problems.append(f"{store.name}: cell {index} has bad rows")
    return cells_ok, problems


def oracle_check(store: Path, sweep, shape: SweepShape, seed: int) -> list[str]:
    """Re-run one seeded replicate serially and compare it with the store."""
    from repro.experiments import run_replicate
    from repro.experiments.checkpoint import scan_records
    from repro.rng import replicate_seeds
    from repro.serving.store import comparable_rows

    cells = list(sweep.cells())
    index = seed % len(cells)
    replicate = (seed // len(cells)) % shape.n_replicates
    cell = cells[index]
    records = {r.get("cell_index"): r for r in scan_records(store).values()}
    stored = (records.get(index) or {}).get("rows") or []
    if len(stored) <= replicate:
        return [f"oracle: cell {index} has no replicate {replicate}"]
    fresh = run_replicate(
        cell, replicate, replicate_seeds(cell.seed, cell.n_replicates)[replicate]
    )
    if comparable_rows([fresh]) != comparable_rows([stored[replicate]]):
        return [f"oracle: cell {index} replicate {replicate} differs from the store"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    from repro.experiments import run_sweep_parallel

    shape = sweep_shape(args.workload)
    sweep = make_sweep(shape, args.seed)
    walls: list[float] = []
    row_counts: list[int] = []
    window_start = time.perf_counter()
    # Whole sweeps only: start another while it is expected to end in the window.
    while not walls or (
        time.perf_counter() - window_start + statistics.mean(walls) <= args.seconds
    ):
        store = args.workdir / f"store{len(walls)}"
        start = time.perf_counter()
        table = run_sweep_parallel(
            sweep,
            workers=WORKERS,
            ensemble_size=shape.ensemble_size,
            checkpoint_dir=store,
        )
        walls.append(time.perf_counter() - start)
        row_counts.append(len(table.rows))
    # ru_maxrss is in KiB on Linux; children are the pool workers (and the
    # shared-memory resource tracker) of the sweeps above.
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    problems: list[str] = []
    cells_ok = 0
    for k, rows in enumerate(row_counts):
        if rows != shape.n_cells * shape.n_replicates:
            problems.append(f"store{k}: {rows} rows")
        ok, found = check_store(args.workdir / f"store{k}", shape)
        cells_ok += ok
        problems += found
    problems += oracle_check(
        args.workdir / f"store{len(walls) - 1}", sweep, shape, args.seed
    )
    report = {
        "sweep_walls_s": walls,
        "cells_attempted": shape.n_cells * len(walls),
        "cells_ok": cells_ok,
        "peak_rss_mb": peak_kib / 1024.0,
        "problems": problems,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
