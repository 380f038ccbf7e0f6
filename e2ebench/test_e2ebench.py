"""Tests for the benchmark's own helpers (no simulation, no server).

    python -m pytest e2ebench/test_e2ebench.py -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from measure import percentile, samples_beyond, slices  # noqa: E402
from run import END_TO_END, PER_LAYER, SLICE_REQUESTS  # noqa: E402
from workloads import (  # noqa: E402
    MIX_BLOCK,
    MIX_COUNTS,
    SHAPES,
    STORE_SHAPE,
    WORKLOADS,
    grid_points,
    query_mix,
)


@pytest.mark.parametrize("n, beyond", [(999, 9), (1000, 10), (2000, 20), (100, 1)])
def test_samples_beyond_p99(n, beyond):
    assert samples_beyond(n, 99.0) == beyond
    values = list(range(n))
    assert sum(v > percentile(values, 99.0) for v in values) == beyond


def test_nearest_rank_percentile():
    assert percentile(list(range(1, 1001)), 99.0) == 990
    assert percentile([3.0, 1.0, 2.0], 99.0) == 3.0  # n < 100: the slowest
    assert percentile([2.0, 1.0], 50.0) == 1.0


def test_slices_keep_ten_samples_beyond_p99():
    assert samples_beyond(SLICE_REQUESTS, 99.0) >= 10
    with pytest.raises(ValueError):
        slices([(0.001 * i, 0.001) for i in range(5000)], 999)
    assert len(slices([(0.001 * i, 0.001) for i in range(5000)], 1000)) == 5


def test_slices_tile_the_window():
    # 3000 completions, one per ms, latency 1 ms except one slow request
    # per slice: the p99 of 1000 ignores the ten slowest, so it stays 1 ms.
    completions = [(0.001 * (i + 1), 0.5 if i % 1000 == 0 else 0.001) for i in range(3000)]
    per_slice = slices(completions, 1000)
    assert [round(rate) for rate, _ in per_slice] == [1000, 1000, 1000]
    assert [p99 for _, p99 in per_slice] == [0.001, 0.001, 0.001]
    assert len(slices(completions[:2500], 1000)) == 2  # partial slice dropped


def test_query_mix_is_deterministic_in_the_seed():
    assert query_mix(7, 50) == query_mix(7, 50)
    assert query_mix(7, 50) != query_mix(8, 50)


def test_query_mix_has_the_stated_shares_in_every_block():
    queries = query_mix(3, 40)
    assert len(queries) == 40 * MIX_BLOCK
    for start in range(0, len(queries), MIX_BLOCK):
        assert Counter(q.kind for q in queries[start : start + MIX_BLOCK]) == MIX_COUNTS
    assert MIX_COUNTS["hot"] / MIX_BLOCK == 0.5
    assert MIX_COUNTS["exact"] / MIX_BLOCK == 0.3
    assert MIX_COUNTS["nearest"] == MIX_COUNTS["interp"]


def test_query_points_are_on_or_strictly_off_the_grid():
    grid = set(grid_points(STORE_SHAPE))
    queries = query_mix(5, 100)
    hot = {(q.tau, q.rho, q.w) for q in queries if q.kind == "hot"}
    assert len(hot) == 16 and hot <= grid
    for q in queries:
        on_grid = (q.tau, q.rho, q.w) in grid
        assert on_grid == q.on_grid
        assert min(STORE_SHAPE.taus) < q.tau < max(STORE_SHAPE.taus) or q.on_grid
        assert ("interpolate=1" in q.path) == (q.kind == "interp")


def test_seed_never_changes_the_amount_of_work():
    assert len(grid_points(STORE_SHAPE)) == 210
    assert SHAPES["sweep-large-grid"].n_cells == 8


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"][1] == "e2ebench/run.py"
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
