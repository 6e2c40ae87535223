"""E-serve — the async coalescing query server vs the in-process engine.

Two experiments on the 56×56 grid oracle (the E-par workload), both
appended to ``benchmarks/results/BENCH_server.json``:

* **coalescing** — 32 concurrent single-source clients hammer the server
  through one unix socket; the coalescing tick must merge them (coalesce
  factor > 1), turning 32 tiny requests into a few sharded engine batches.
* **latency overhead** — the same 32-source batch is served (a) directly
  by :meth:`QueryEngine.query` in process and (b) through the socket
  (connect once, repeat requests); the server-path p50 must stay within
  2× of direct — i.e. framing the reply (a JSON header plus the raw
  float64 rows) + event loop + thread hop must not dominate the §3.2
  relaxation.  p50/p99 of both paths are recorded.

Both experiments run the serial executor on both sides so the comparison
isolates the *serving* overhead, not pool scheduling noise.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.separators.grid import decompose_grid
from repro.server import OracleClient, OracleServer, ServerConfig
from repro.workloads.generators import grid_digraph

N_CLIENTS = 32          # concurrent single-source clients (ISSUE target)
REQUESTS_EACH = 4       # sequential requests per client
BATCH_SOURCES = 32      # batch size for the latency comparison
LATENCY_REPEATS = 9


def _record_json(results_dir, key: str, record: dict) -> None:
    """Merge one experiment record into ``BENCH_server.json`` (atomic
    temp+rename — a crashed run must not truncate accumulated results)."""
    path = results_dir / "BENCH_server.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


@pytest.fixture(scope="module")
def oracle():
    rng = np.random.default_rng(0)
    shape = (56, 56)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    return ShortestPathOracle.build(g, tree)


class _ServerThread:
    """The server on a background event loop (the test-side harness shape
    every consumer of :mod:`repro.server` uses)."""

    def __init__(self, oracle, sock_path: str, **server_kw) -> None:
        self.server = OracleServer(
            oracle,
            OracleConfig(executor="serial"),
            ServerConfig(path=sock_path, **server_kw),
        )
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        await self.server.start()
        self._started.set()
        await self.server.serve_forever()

    def __enter__(self) -> "OracleServer":
        self._thread.start()
        assert self._started.wait(30)
        return self.server

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(30)


def _percentile(samples: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(samples), p))


def test_eserve_coalescing_under_concurrency(
    benchmark, oracle, report, results_dir, tmp_path
):
    """32 concurrent single-source clients must coalesce into shared
    batches: coalesce factor > 1 and far fewer engine batches than
    requests."""
    sock = str(tmp_path / "bench.sock")
    latencies: list[float] = []
    lat_lock = threading.Lock()
    with _ServerThread(oracle, sock, max_wait_us=20_000) as server:
        barrier = threading.Barrier(N_CLIENTS)

        def client_worker(cid: int) -> None:
            rng = np.random.default_rng(cid)
            with OracleClient(sock) as c:
                barrier.wait()
                for _ in range(REQUESTS_EACH):
                    src = int(rng.integers(oracle.graph.n))
                    t0 = time.perf_counter()
                    c.distances([src])
                    dt = time.perf_counter() - t0
                    with lat_lock:
                        latencies.append(dt)

        threads = [
            threading.Thread(target=client_worker, args=(i,)) for i in range(N_CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        wall = time.perf_counter() - t0
        snap = server.metrics.snapshot()
    n_requests = N_CLIENTS * REQUESTS_EACH
    rows = [
        ["requests (single-source)", n_requests],
        ["engine batches", snap["batches_total"]],
        ["coalesce factor", round(snap["coalesce_factor"], 2)],
        ["max coalesce", snap["max_coalesce"]],
        ["queue wait p50 ms", round(snap["queue_wait_s"]["p50"] * 1e3, 2)],
        ["client p50 ms", round(_percentile(latencies, 50) * 1e3, 2)],
        ["client p99 ms", round(_percentile(latencies, 99) * 1e3, 2)],
        ["total wall s", round(wall, 3)],
    ]
    table = render_table(
        ["metric", "value"], rows,
        title=f"E-serve: {N_CLIENTS} concurrent clients, 56x56 grid, unix socket",
    )
    report(
        "E-serve-coalescing",
        table
        + "\n\nFinding: the coalescing tick turns per-client single-source "
        "requests into shared engine batches — the serve-side analogue of "
        "the paper's multi-source batching (§3.2's per-source cost only "
        "pays off when sources share one relaxation pass).",
    )
    _record_json(
        results_dir,
        "coalesce_32_clients",
        {
            "workload": f"{N_CLIENTS} clients x {REQUESTS_EACH} single-source requests",
            "requests_total": n_requests,
            "batches_total": snap["batches_total"],
            "coalesce_factor": snap["coalesce_factor"],
            "max_coalesce": snap["max_coalesce"],
            "queue_wait_p50_s": snap["queue_wait_s"]["p50"],
            "client_latency_p50_s": _percentile(latencies, 50),
            "client_latency_p99_s": _percentile(latencies, 99),
            "wall_s": wall,
        },
    )
    assert snap["coalesce_factor"] > 1.0, snap
    assert snap["batches_total"] < n_requests, snap
    benchmark(lambda: _percentile(latencies, 99))


def _latency_finding(direct_s: float, served_s: float, batch_s: float) -> str:
    """The E-serve-latency finding, read off the measured p50s: the
    server's own batch wall and what the served path spends outside it."""
    ratio = served_s / direct_s
    outside = served_s - batch_s
    verdict = "within" if ratio <= 2.0 else "outside"
    cause = (
        "the relaxation dominates the served path"
        if batch_s >= outside
        else "serving overhead dominates the served path, not the relaxation"
    )
    return (
        f"Finding: the served p50 is {ratio:.2f}× the direct engine's "
        f"({served_s * 1e3:.2f} against {direct_s * 1e3:.2f} ms), {verdict} "
        f"the 2× bound.  The server's batch wall is {batch_s * 1e3:.2f} ms of "
        f"it; the other {outside * 1e3:.2f} ms ({outside / served_s:.0%}) go "
        f"to the request line, the {BATCH_SOURCES}-row reply's raw float64 "
        f"frame through the socket, the event loop and the thread hop, so "
        f"{cause}."
    )


def test_eserve_latency_within_2x_of_direct(
    benchmark, oracle, report, results_dir, tmp_path
):
    """Server-path p50 for a 32-source batch within 2× of the in-process
    engine — the acceptance bound on serving overhead."""
    rng = np.random.default_rng(7)
    srcs = rng.integers(0, oracle.graph.n, size=BATCH_SOURCES)
    direct_s: list[float] = []
    with oracle.query_engine(OracleConfig(executor="serial")) as eng:
        want = eng.query(srcs)  # warm
        for _ in range(LATENCY_REPEATS):
            t0 = time.perf_counter()
            eng.query(srcs)
            direct_s.append(time.perf_counter() - t0)
    sock = str(tmp_path / "bench2.sock")
    served_s: list[float] = []
    with _ServerThread(oracle, sock, max_wait_us=0) as server:
        with OracleClient(sock) as c:
            got = c.distances(srcs.tolist())  # warm
            for _ in range(LATENCY_REPEATS):
                t0 = time.perf_counter()
                c.distances(srcs.tolist())
                served_s.append(time.perf_counter() - t0)
            srv_snap = c.stats()["server"]
    assert np.array_equal(got, want)
    d50, d99 = _percentile(direct_s, 50), _percentile(direct_s, 99)
    s50, s99 = _percentile(served_s, 50), _percentile(served_s, 99)
    ratio = s50 / d50
    rows = [
        ["direct QueryEngine.query", round(d50 * 1e3, 2), round(d99 * 1e3, 2)],
        ["via server (unix socket)", round(s50 * 1e3, 2), round(s99 * 1e3, 2)],
    ]
    table = render_table(
        ["path", "p50 ms", "p99 ms"], rows,
        title=(
            f"E-serve: {BATCH_SOURCES}-source batch latency, 56x56 grid "
            f"(server/direct p50 ratio {ratio:.2f}x, bound 2x)"
        ),
    )
    report(
        "E-serve-latency",
        table + "\n\n" + _latency_finding(d50, s50, srv_snap["batch_wall_s"]["p50"]),
    )
    _record_json(
        results_dir,
        "server_vs_direct_56x56",
        {
            "workload": f"{BATCH_SOURCES}-source batch, 56x56 grid, serial executor",
            "direct_p50_s": d50,
            "direct_p99_s": d99,
            "server_p50_s": s50,
            "server_p99_s": s99,
            "p50_ratio": ratio,
            "within_2x": ratio <= 2.0,
            "server_batch_wall_p50_s": srv_snap["batch_wall_s"]["p50"],
        },
    )
    assert ratio <= 2.0, f"server p50 {s50:.4f}s > 2x direct p50 {d50:.4f}s"
    with oracle.query_engine(OracleConfig(executor="serial")) as eng:
        eng.query(srcs)
        benchmark(lambda: eng.query(srcs))
