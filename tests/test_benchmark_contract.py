"""The program surface the end-to-end benchmark (``e2ebench/``) relies on.

The benchmark runs from its own scripts against the checked-out sources: it
imports ``repro`` names, wraps a few methods to time each layer, runs
``repro serve`` and answers queries in-process.  A rename in ``src/`` that
breaks any of that would only show when the benchmark runs; these tests make
it fail the unit suite instead.  The imported names are read from the
benchmark's sources, so a new import there is covered without editing this
file.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.serving import ArtifactStore, QueryEngine, make_server

ROOT = Path(__file__).resolve().parent.parent
BENCH_SOURCES = sorted((ROOT / "e2ebench").glob("*.py"))
FIXTURE_STORE = Path(__file__).resolve().parent / "data" / "sweep_fixture_store"

#: Attributes the benchmark reaches through an imported name: the tracer's
#: wrapped methods, the record encoder and the cold-start entry points.
ATTRIBUTE_USES = (
    "repro.EnsembleDynamics",
    "repro.ModelConfig.square",
    "repro.core.ensemble.EnsembleDynamics.run",
    "repro.core.variants.VariantSpec.make_ensemble",
    "repro.experiments.runner.run_experiment",
    "repro.experiments.runner.segregation_metrics_batch",
    "repro.experiments.checkpoint.SweepCheckpoint.record",
    "repro.experiments.checkpoint.SweepCheckpoint.write_summary",
    "repro.experiments.checkpoint.SweepCheckpoint.encoded_record",
)


def _imported_names():
    """Every ``(module, name)`` the benchmark's sources import from repro."""
    names = set()
    for path in BENCH_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    names.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                names.update(
                    (a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "repro"
                )
    return sorted(names, key=lambda item: (item[0], item[1] or ""))


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def test_the_benchmark_sources_import_from_repro():
    assert BENCH_SOURCES
    assert ("repro.serving", "QueryEngine") in _imported_names()


@pytest.mark.parametrize(
    "module, name", _imported_names(), ids=lambda value: value or ""
)
def test_imported_name_exists(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        # ``from package import submodule`` binds a submodule attribute.
        assert hasattr(imported, name) or importlib.import_module(
            f"{module}.{name}"
        )


@pytest.mark.parametrize("dotted", ATTRIBUTE_USES)
def test_attribute_use_exists(dotted):
    assert callable(_resolve(dotted))


def test_serve_command_line_parses():
    args = build_parser().parse_args(
        ["serve", "--store", str(FIXTURE_STORE), "--port", "0"]
    )
    assert args.store == [str(FIXTURE_STORE)] and args.port == 0


def test_in_process_query_over_the_fixture_store():
    engine = QueryEngine(ArtifactStore(FIXTURE_STORE)).load()
    answer = engine.answer({"tau": 0.375, "rho": 0.5, "w": 1}, interpolate=True)
    assert answer["source"] == "interpolated"
    assert len(answer["cells"]) == 4
    assert {"hits", "misses", "coalesced"} <= set(engine.stats()["cache"])


def test_served_stats_carry_the_counters_the_benchmark_reads():
    server = make_server(FIXTURE_STORE, port=0)
    try:
        stats = server.engine.stats()
    finally:
        server.server_close()
    assert {"hits", "misses", "coalesced"} <= set(stats["cache"])
    assert {"rejected", "degraded"} <= set(stats["compute"])
