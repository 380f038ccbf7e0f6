"""Repository benchmark: whole sweeps and the query service, measured from outside.

    python3 e2ebench/run.py --workload sweep-many-small --seed 1 --seconds 18 --trace 0

Run from the root of a repository checkout.  Prints one provenance line, then
as its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a serial traced replay with ``--trace 1``.  Everything it
writes stays under the build directory (``$CARGO_TARGET_DIR``, default
``.bench_build``).  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from measure import percentile, slices  # noqa: E402
from workloads import CLIENTS, SWEEP_WORKLOADS, WORKLOADS, query_mix  # noqa: E402

#: Fresh-interpreter starts per run; ``setup_s`` is their median.
COLD_STARTS = 5

#: Requests generated for the query stream (wrapped if a run sends more).
STREAM_BLOCKS = 8192

#: Requests per slice of the query window: throughput and p99 are medians
#: over slices, so a dip of a second or two on the shared host moves one
#: slice, not the run's figure.  2000 requests leave 20 beyond p99.
SLICE_REQUESTS = 2000

CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics and units (``--trace 0``).  On the sweeps the unit of
#: work is a cell and the latency is that of a whole sweep; on serve-mixed
#: they are a request and its latency.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and units (``--trace 1``).  A layer a workload does
#: not exercise reports 0.
PER_LAYER = {
    "setup.import_s": "s",
    "core.backends.load_s": "s",
    "core.init_s": "s",
    "core.flip_loop_s": "s",
    "core.flips": "count",
    "core.steps": "count",
    "core.flip_yield": "ratio",
    "core.flips_per_s": "1/s",
    "analysis.measure_s": "s",
    "analysis.measure_calls": "count",
    "analysis.measure_ms_per_call": "ms",
    "experiments.sweep_self_s": "s",
    "experiments.cell_self_s": "s",
    "experiments.pool_efficiency": "ratio",
    "experiments.pool_idle_s": "s",
    "experiments.transfer_s": "s",
    "experiments.record_s": "s",
    "experiments.record_bytes": "bytes",
    "experiments.summary_s": "s",
    "experiments.cells_failed": "count",
    "serving.verify_s": "s",
    "serving.load_s": "s",
    "serving.answer_hot_ms": "ms",
    "serving.answer_exact_ms": "ms",
    "serving.answer_nearest_ms": "ms",
    "serving.answer_interp_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_evictions": "count",
    "serving.http_overhead_ms": "ms",
    "serving.rejected": "count",
    "serving.degraded": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env(build: Path) -> dict[str, str]:
    """Environment of every child: the checkout's sources, caches under ``build``.

    ``TMPDIR`` holds the compiled cffi library and the ziggurat table cache
    (both keyed by source/numpy version, so they stay warm across runs).
    Bytecode is cached too, as a default interpreter would, but under
    ``PYTHONPYCACHEPREFIX`` rather than in the source tree.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(build / "tmp")
    env["PYTHONPYCACHEPREFIX"] = str(build / "pycache")
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_child(script: str, args: list[str], env: dict) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last-line JSON."""
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def cold_start(env: dict) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter to its "ready" line, plus the line."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "coldstart.py")],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    process.stdout.close()
    if process.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line:
        raise RuntimeError("cold-start probe failed")
    return elapsed, json.loads(line)


def sweep_run(args, env: dict, workdir: Path) -> Outcome:
    setup = [cold_start(env)[0] for _ in range(COLD_STARTS)]
    report = run_child(
        "sweeps.py",
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--workdir", str(workdir)],
        env,
    )
    walls = report["sweep_walls_s"]
    cells = report["cells_attempted"]
    return Outcome(
        {
            "setup_s": median(setup),
            # Cells of one sweep over the median whole-sweep wall time.
            "throughput_per_s": cells / len(walls) / median(walls),
            "latency_p50_ms": 1e3 * median(walls),
            # A run holds 6-16 whole sweeps, far too few for a tail
            # percentile with ten samples beyond it (p99 needs 1000), and
            # the slowest sweep alone moved by 25% (IQR of 5 runs): the tail
            # repeats the median.
            "latency_p99_ms": 1e3 * median(walls),
            "ok_frac": report["cells_ok"] / cells,
            "peak_rss_mb": report["peak_rss_mb"],
        },
        attempted=cells,
        failed=cells - report["cells_ok"],
        problems=report["problems"],
    )


def serve_run(args, env: dict, workdir: Path) -> Outcome:
    from serve import REQUEST_TIMEOUT_S, check_load, run_load, start_server

    # The store is built (and checked, oracle included) before any timing.
    built = run_child(
        "sweeps.py",
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--workdir", str(workdir)],
        env,
    )
    store = workdir / "store0"
    queries = query_mix(args.seed, STREAM_BLOCKS)
    problems = list(built["problems"])
    setup, peak_rss, completions, per_slice = [], [], [], []
    sent = failed = 0
    # Each cold-started server answers one segment of the window, so the
    # run's figures do not rest on one server process.
    for _ in range(COLD_STARTS):
        server = start_server(store, env, ROOT, workdir / "serve.log")
        try:
            setup.append(server.ready_s)
            load = run_load(server, queries, args.seconds / COLD_STARTS, CLIENTS, first=sent)
            stats = server.stats()
            peak_rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        passed, found = check_load(load, queries, store)
        problems += found
        cache = stats["cache"]
        if cache["hits"] + cache["misses"] + cache["coalesced"] != len(load.samples):
            problems.append(f"/stats lookups do not add up to the {len(load.samples)} queries sent")
        # A failed request counts as slower than any limit: the client timeout.
        segment = [
            (sample[4], sample[2] if ok else REQUEST_TIMEOUT_S)
            for sample, ok in zip(load.samples, passed)
        ]
        completions += segment
        per_slice += slices(segment, SLICE_REQUESTS)
        sent += len(load.samples)
        failed += passed.count(False)
    if not per_slice:
        problems.append(f"{sent} requests, but no server answered a whole slice of {SLICE_REQUESTS}")
        per_slice = [(0.0, percentile([c[1] for c in completions], 99.0))]
    return Outcome(
        {
            "setup_s": median(setup),
            "throughput_per_s": median([rate for rate, _ in per_slice]),
            "latency_p50_ms": 1e3 * median([latency for _, latency in completions]),
            "latency_p99_ms": 1e3 * median([p99 for _, p99 in per_slice]),
            "ok_frac": (sent - failed) / sent,
            "peak_rss_mb": max(peak_rss),
        },
        attempted=sent,
        failed=failed,
        problems=problems,
    )


def traced_run(args, env: dict, workdir: Path) -> Outcome:
    probes = [cold_start(env)[1] for _ in range(COLD_STARTS)]
    spans = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    report = run_child(
        "tracing.py",
        ["--workload", args.workload, "--seed", str(args.seed),
         "--workdir", str(workdir), "--spans", str(spans)],
        env,
    )
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(report["metrics"])
    metrics["setup.import_s"] = median([p["import_s"] for p in probes])
    metrics["core.backends.load_s"] = median([p["load_s"] for p in probes])
    problems = report["problems"]
    return Outcome(metrics, report["attempted"], len(problems), problems)


# ------------------------------------------------------------- hygiene


def become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers, trackers) so they can be awaited."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _children() -> list[int]:
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry))
    return found


def reap_children(grace_s: float = 10.0) -> list[int]:
    """Wait for every remaining child; kill (and report) those still alive after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = []
        for pid in _children():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    alive.append(pid)
            except ChildProcessError:
                pass
        if not alive:
            return []
        if time.monotonic() > deadline:
            for pid in alive:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            return alive
        time.sleep(0.05)


# ---------------------------------------------------------- provenance


def provenance(args, backend: str, load_start: tuple) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a checkout without .git is identified by source_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    versions = {}
    for package in ("numpy", "scipy", "cffi"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        **versions,
        "backend": backend,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    build = build_dir()
    env = child_env(build)
    workdir = build / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    become_subreaper()
    load_start = os.getloadavg()
    try:
        # Warms the compile-once caches (cffi library, ziggurat tables,
        # bytecode) outside every timed window; users pay them once.
        backend = cold_start(env)[1]["backend"]
        if args.trace:
            outcome = traced_run(args, env, workdir)
        elif args.workload in SWEEP_WORKLOADS:
            outcome = sweep_run(args, env, workdir)
        else:
            outcome = serve_run(args, env, workdir)
    finally:
        strays = reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if strays:
        outcome.problems.append(f"processes {strays} outlived the run and were killed")
    print("provenance " + json.dumps(provenance(args, backend, load_start)))
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
