"""E-serve — the async coalescing query server vs the in-process engine.

Two experiments on the 56×56 grid oracle (the E-par workload), both
appended to ``benchmarks/results/BENCH_server.json``:

* **coalescing** — 32 concurrent single-source clients hammer the server
  through one unix socket; the coalescing tick must merge them (coalesce
  factor > 1), turning 32 tiny requests into a few sharded engine batches.
* **latency overhead** — the same 32-source batch is served (a) directly
  by :meth:`QueryEngine.query` in process and (b) through the socket
  (connect once, repeat requests), in rotating rounds; the median
  per-round served/direct ratio must stay within 2× — i.e. framing the
  reply (a JSON header plus the raw float64 rows) + event loop + thread
  hop must not dominate the §3.2 relaxation.  Medians and quartiles of
  both paths are recorded.

Both experiments run the serial executor on both sides so the comparison
isolates the *serving* overhead, not pool scheduling noise.
"""

from __future__ import annotations

import asyncio
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
LATENCY_ROUNDS = 10     # rotating rounds of direct vs served


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


def test_eserve_coalescing_under_concurrency(oracle, report, record_json, tmp_path):
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
    p50, p99 = (float(p) for p in np.percentile(latencies, [50, 99]))
    rows = [
        ["requests (single-source)", n_requests],
        ["engine batches", snap["batches_total"]],
        ["coalesce factor", round(snap["coalesce_factor"], 2)],
        ["max coalesce", snap["max_coalesce"]],
        ["queue wait p50 ms", round(snap["queue_wait_s"]["p50"] * 1e3, 2)],
        ["client p50 ms", round(p50 * 1e3, 2)],
        ["client p99 ms", round(p99 * 1e3, 2)],
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
    record_json("BENCH_server.json", "coalesce_32_clients", {
        "workload": f"{N_CLIENTS} clients x {REQUESTS_EACH} single-source requests",
        "requests_total": n_requests,
        "batches_total": snap["batches_total"],
        "coalesce_factor": snap["coalesce_factor"],
        "max_coalesce": snap["max_coalesce"],
        "queue_wait_p50_s": snap["queue_wait_s"]["p50"],
        "client_latency_p50_s": p50,
        "client_latency_p99_s": p99,
        "wall_s": wall,
    })
    assert snap["coalesce_factor"] > 1.0, snap
    assert snap["batches_total"] < n_requests, snap


def _latency_finding(ratio: float, direct_s: float, served_s: float, batch_s: float) -> str:
    """The E-serve-latency finding, read off the median per-round ratio and
    the measured medians: the server's own batch wall and what the served
    path spends outside it."""
    outside = served_s - batch_s
    verdict = "within" if ratio <= 2.0 else "outside"
    cause = (
        "the relaxation dominates the served path"
        if batch_s >= outside
        else "serving overhead dominates the served path, not the relaxation"
    )
    return (
        f"Finding: the served path takes {ratio:.2f}× the direct engine's wall "
        f"(median per-round ratio; medians {served_s * 1e3:.2f} against "
        f"{direct_s * 1e3:.2f} ms), {verdict} the 2× bound.  The server's batch wall is {batch_s * 1e3:.2f} ms of "
        f"it; the other {outside * 1e3:.2f} ms ({outside / served_s:.0%}) go "
        f"to the request line, the {BATCH_SOURCES}-row reply's raw float64 "
        f"frame through the socket, the event loop and the thread hop, so "
        f"{cause}."
    )


def test_eserve_latency_within_2x_of_direct(timed, oracle, report, record_json, tmp_path):
    """Server-path p50 for a 32-source batch within 2× of the in-process
    engine — the acceptance bound on serving overhead."""
    rng = np.random.default_rng(7)
    srcs = rng.integers(0, oracle.graph.n, size=BATCH_SOURCES)
    sock = str(tmp_path / "bench2.sock")
    with oracle.query_engine(OracleConfig(executor="serial")) as eng, \
            _ServerThread(oracle, sock, max_wait_us=0), OracleClient(sock) as c:
        res = timed({
            "direct": lambda: eng.query(srcs),
            "served": lambda: c.distances(srcs.tolist()),
        }, LATENCY_ROUNDS)
        srv_snap = c.stats()["server"]
    assert np.array_equal(res.outputs["served"], res.outputs["direct"])
    d50, s50 = res.median("direct"), res.median("served")
    ratio = res.ratio_quartiles("served", "direct")
    rows = [
        ["direct QueryEngine.query", res.span(res.quartiles("direct", 1e3))],
        ["via server (unix socket)", res.span(res.quartiles("served", 1e3))],
        ["server / direct (per-round ratio)", res.span(ratio)],
    ]
    table = render_table(
        ["path", "ms, median [quartiles]"], rows,
        title=(
            f"E-serve: {BATCH_SOURCES}-source batch latency, 56x56 grid, "
            f"{LATENCY_ROUNDS} rotating rounds (server/direct ratio "
            f"{ratio[1]:.2f}x, bound 2x)"
        ),
    )
    report(
        "E-serve-latency",
        table + "\n\n" + _latency_finding(ratio[1], d50, s50, srv_snap["batch_wall_s"]["p50"]),
    )
    record_json("BENCH_server.json", "server_vs_direct_56x56", {
        "workload": f"{BATCH_SOURCES}-source batch, 56x56 grid, serial executor",
        "direct_p50_s": d50,
        "server_p50_s": s50,
        "p50_ratio": ratio[1],
        "ratio_quartiles": ratio,
        "timings_s": res.record(),
        "within_2x": ratio[1] <= 2.0,
        "server_batch_wall_p50_s": srv_snap["batch_wall_s"]["p50"],
    })
    assert ratio[1] <= 2.0, f"server p50 {s50:.4f}s > 2x direct p50 {d50:.4f}s"
