"""The ``repro serve`` side of the benchmark: server processes, load, checks.

The server always runs as its own ``python -m repro serve`` process over a
finished store; the load comes from client threads in the calling process,
each sending its next request only after the previous answer arrived
(closed loop), one connection per request.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Query

READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
_URL = re.compile(rb"http://([0-9.]+):([0-9]+)")


@dataclass
class Server:
    """A running ``repro serve`` process and the time it took to get ready."""

    process: subprocess.Popen
    host: str
    port: int
    ready_s: float

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a fresh connection: (status, body)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it will not end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _read_line(process: subprocess.Popen, deadline: float) -> bytes:
    """The first stdout line of ``process``, or b"" on exit or timeout."""
    fd = process.stdout.fileno()
    data = b""
    while b"\n" not in data:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            return b""
        chunk = os.read(fd, 4096)
        if not chunk:
            return b""
        data += chunk
    return data


def start_server(store: Path, env: dict, cwd: Path, log: Path) -> Server:
    """Spawn ``repro serve --port 0`` and wait until ``/readyz`` answers 200."""
    start = time.perf_counter()
    deadline = start + READY_TIMEOUT_S
    with open(log, "ab") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            cwd=cwd,
        )
    match = _URL.search(_read_line(process, deadline))
    server = Server(process, "", 0, 0.0)
    if match is None:
        server.stop()
        raise RuntimeError(f"repro serve did not report its address (see {log})")
    server.host, server.port = match.group(1).decode(), int(match.group(2))
    while time.perf_counter() < deadline:
        try:
            if server.get("/readyz")[0] == 200:
                server.ready_s = time.perf_counter() - start
                return server
        except OSError:
            pass
        time.sleep(0.002)
    server.stop()
    raise RuntimeError("repro serve never became ready")


@dataclass
class LoadResult:
    """What a closed-loop load sent and got back, by query index."""

    # (query index, status or None on a transport error, latency s, body id,
    # completion time s since the window opened)
    samples: list[tuple[int, int | None, float, int, float]]
    bodies: list[bytes]


def run_load(
    server: Server, queries: list[Query], seconds: float, clients: int, first: int = 0
) -> LoadResult:
    """``clients`` closed-loop threads sending the mix for ``seconds``.

    Request ``i`` (counting from ``first``) is ``queries[i % len(queries)]``.
    Answer bodies are interned (identical bodies stored once) and checked
    after the window.
    """
    counter = itertools.count(first)
    body_ids: dict[bytes, int] = {}
    lock = threading.Lock()
    per_client: list[list] = [[] for _ in range(clients)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(out: list) -> None:
        while time.perf_counter() < deadline:
            i = next(counter)
            path = queries[i % len(queries)].path
            sent = time.perf_counter()
            try:
                status, body = server.get(path)
            except OSError:
                status, body = None, b""
            done = time.perf_counter()
            with lock:
                body_id = body_ids.setdefault(body, len(body_ids))
            out.append((i, status, done - sent, body_id, done - start))

    threads = [threading.Thread(target=client, args=(out,)) for out in per_client]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    bodies = [b""] * len(body_ids)
    for body, body_id in body_ids.items():
        bodies[body_id] = body
    return LoadResult(sorted(s for out in per_client for s in out), bodies)


def load_summary_cells(store: Path) -> tuple[dict, dict]:
    """summary.json cells keyed by (tau, rho, w) and by index."""
    cells = json.loads((store / "summary.json").read_text())["cells"]
    by_point = {
        (c["params"]["tau"], c["params"]["rho"], int(c["params"]["w"])): c for c in cells
    }
    return by_point, {c["index"]: c for c in cells}


def answer_problem(query: Query, answer: dict, by_point: dict, by_index: dict) -> str | None:
    """Why ``answer`` is wrong for ``query``, or ``None`` when it checks out.

    On-grid answers must be the exact cell with metrics equal (bitwise, after
    the JSON round trip both sides took) to the store's summary.json.
    """
    source = answer.get("source")
    if query.on_grid:
        cell = by_point.get((query.tau, query.rho, query.w))
        if cell is None or source != "exact" or answer.get("metrics") != cell["metrics"]:
            return f"{query.path}: exact answer differs from summary.json"
    elif query.kind == "nearest":
        named = answer.get("cells") or [{}]
        cell = by_index.get(named[0].get("index"))
        if source != "nearest" or cell is None or answer.get("metrics") != cell["metrics"]:
            return f"{query.path}: nearest answer differs from its named cell"
    elif source != "interpolated" or not answer.get("cells"):
        return f"{query.path}: expected an interpolated answer, got {source!r}"
    return None


def check_load(load: LoadResult, queries: list[Query], store: Path) -> tuple[list[bool], list[str]]:
    """Per request: did it pass?  Plus the distinct problems found."""
    by_point, by_index = load_summary_cells(store)
    parsed: dict[int, dict] = {}
    ok: list[bool] = []
    problems: set[str] = set()
    for i, status, _latency, body_id, _done in load.samples:
        query = queries[i % len(queries)]
        if status != 200:
            problems.add(f"{query.path}: status {status}")
            ok.append(False)
            continue
        if body_id not in parsed:
            parsed[body_id] = json.loads(load.bodies[body_id])
        problem = answer_problem(query, parsed[body_id], by_point, by_index)
        if problem:
            problems.add(problem)
        ok.append(problem is None)
    return ok, sorted(problems)
