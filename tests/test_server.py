"""Integration tests of the async batched query server (:mod:`repro.server`):
correctness against the in-process oracle, coalescing, backpressure (shed),
timeouts, graceful shutdown without shm leaks, and the save/load → serve
round trip.

The server runs its event loop in a background thread; tests talk to it
through the blocking :class:`~repro.server.OracleClient` over a unix socket
in ``tmp_path`` — exactly the deployment shape of ``repro-spsp serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import OracleConfig, QueryEngine, ShortestPathOracle
from repro.core.digraph import WeightedDigraph
from repro.core.protocols import SERVING_STATS_KEYS, ServingBackend, serving_stats
from repro.pram.shm import orphaned_segments
from repro.separators.grid import decompose_grid
from repro.server import OracleClient, OracleServer, ServerConfig, ServerError
from repro.server.protocol import encode
from repro.workloads.generators import grid_digraph

SERIAL = OracleConfig(executor="serial")


@pytest.fixture
def oracle(grid6_negative):
    g, tree = grid6_negative
    return ShortestPathOracle.build(g, tree)


class _SlowEngine:
    """A minimal :class:`ServingBackend`: one serialized worker with a
    fixed per-row cost.  Overload behavior built on it is reproducible on
    any machine — the real engine is too fast on a 36-vertex graph to
    congest a queue deterministically."""

    def __init__(self, n: int, row_s: float = 0.02) -> None:
        self.n = int(n)
        self.row_s = float(row_s)
        self.weights_epoch = 0
        self._lock = threading.Lock()

    def submit(self, sources):
        rows = int(np.asarray(sources).shape[0])
        with self._lock:
            time.sleep(self.row_s * rows)
        return np.zeros((rows, self.n)), {
            "rows": rows, "shards": 1, "wall_s": self.row_s * rows,
        }

    def query(self, sources):
        return self.submit(sources)[0]

    def stats(self):
        return serving_stats(
            backend="slow-fake", workers=1, queue_depth=0, weights_epoch=0,
            queries_served=0, rows_served=0,
        )

    def reweight(self, *args, **kwargs):  # pragma: no cover - never called
        raise NotImplementedError

    def close(self):
        pass


class _RecordingEngine(QueryEngine):
    """A serial engine that logs each ``submit`` and ``reweight``: its
    thread, its start and end, and for a submit the sources and the
    weights epoch that answered them.  Submit number ``hold_at`` signals
    ``entered`` and waits for ``release``, so a test can send a reweight
    while that batch is in flight."""

    def __init__(self, aug, config=None, hold_at: int = 5) -> None:
        super().__init__(aug, config)
        self.threads = {threading.current_thread()}
        self.calls: list[tuple] = []
        self.hold_at = hold_at
        self.entered = threading.Event()
        self.release = threading.Event()
        self._submits = 0

    def _record(self, kind, t0, extra=None) -> None:
        self.threads.add(threading.current_thread())
        self.calls.append((kind, threading.get_ident(), t0, time.perf_counter(), extra))

    def submit(self, sources):
        t0 = time.perf_counter()
        self._submits += 1
        if self._submits == self.hold_at:
            self.entered.set()
            assert self.release.wait(20)
        dist, info = super().submit(sources)
        self._record("submit", t0, (np.asarray(sources).tolist(), self.weights_epoch))
        return dist, info

    def reweight(self, aug) -> None:
        t0 = time.perf_counter()
        super().reweight(aug)
        self._record("reweight", t0)

    def close(self) -> None:
        self.threads.add(threading.current_thread())
        super().close()


@contextlib.contextmanager
def serving(oracle, tmp_path, engine_cfg=SERIAL, engine_factory=None, **server_kw):
    """Run an :class:`OracleServer` on a background event loop; yield
    ``(socket path, server)``; always drain + stop on exit."""
    sock = str(tmp_path / "oracle.sock")
    server = OracleServer(
        oracle, engine_cfg, ServerConfig(path=sock, **server_kw),
        engine_factory=engine_factory,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def main():
        await server.start()
        started.set()
        await server.serve_forever()

    def run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(20), "server failed to start"
    try:
        yield sock, server
    finally:
        loop.call_soon_threadsafe(server.request_shutdown)
        thread.join(20)
        assert not thread.is_alive(), "server failed to stop"


class TestCorrectness:
    def test_distances_match_inprocess(self, oracle, tmp_path):
        srcs = [0, 7, 35]
        want = oracle.distances(srcs)
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                got = c.distances(srcs)
                single = c.distances(7)
        assert np.array_equal(got, want)
        assert np.array_equal(single, want[1])

    def test_nearest_source_and_path_match_oracle(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                assigned, dist = c.nearest_source([0, 20])
                path, d = c.path_with_distance(0, 35)
        want_assigned, want_dist = oracle.nearest_source([0, 20])
        assert np.array_equal(assigned, want_assigned)
        assert np.allclose(dist, want_dist)
        assert path == oracle.path(0, 35)
        assert d == pytest.approx(oracle.distance(0, 35))

    def test_save_load_serve_round_trip(self, oracle, tmp_path):
        """Persist → load → serve must answer exactly like the original."""
        npz = tmp_path / "oracle.npz"
        oracle.save(npz)
        loaded = ShortestPathOracle.load(npz)
        want = oracle.distances([0, 13])
        with serving(loaded, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                got = c.distances([0, 13])
        assert np.array_equal(got, want)

    def test_bad_requests_get_400(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c.distances([10**6])  # out of range
                assert err.value.code == 400
                with pytest.raises(ServerError) as err:
                    c._call("teleport")
                assert err.value.code == 400
                assert c.ping()  # connection survives rejected requests

    @pytest.mark.parametrize(
        "op,fields",
        [
            ("distances", {"sources": [1.5]}),
            ("distances", {"sources": [True]}),
            ("nearest_source", {"sources": [0, 2.0]}),
            ("path", {"source": 1.5, "target": 3}),
            ("path", {"source": True, "target": 3}),
            ("path", {"source": 0, "target": True}),
            ("path", {"source": 0, "target": 3.0}),
            ("reweight", {"delta": {"edges": [2.9], "weights": [1.0]}}),
            ("reweight", {"delta": {"edges": [False], "weights": [1.0]}}),
        ],
    )
    def test_non_integer_ids_get_400(self, oracle, tmp_path, op, fields):
        """An id must be a JSON integer: a float or a bool is refused, not
        truncated to the vertex or edge it would cast to."""
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c._call(op, **fields)
                assert err.value.code == 400
                assert c.stats()["engine"]["weights_epoch"] == 0

    @pytest.mark.parametrize("timeout_ms", ["soon", None, 0, -5, float("nan"), True])
    def test_malformed_timeout_gets_400(self, oracle, tmp_path, timeout_ms):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c._call("distances", sources=[0], timeout_ms=timeout_ms)
                assert err.value.code == 400
                assert np.array_equal(c.distances([0]), oracle.distances([0]))

    def test_malformed_line_is_answered_not_fatal(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(sock)
            s.settimeout(10)
            f = s.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["ok"] is False and resp["code"] == 400
            s.close()


def _one_way_grid(side: int, seed: int = 3):
    """A side×side grid keeping only the edges from a lower to a higher
    vertex id: every vertex is unreachable from those after it (+inf)."""
    g = grid_digraph((side, side), np.random.default_rng(seed))
    keep = g.src < g.dst
    g = WeightedDigraph(g.n, g.src[keep], g.dst[keep], g.weight[keep])
    return g, decompose_grid(g, (side, side), leaf_size=4)


class TestWireFrame:
    """Rows travel as raw array bytes after a JSON header: served rows must
    be bit-identical to the in-process oracle's."""

    def test_rows_bitwise_with_unreachable_and_large_reply(self, tmp_path):
        g, tree = _one_way_grid(16)
        oracle = ShortestPathOracle.build(g, tree)
        srcs = list(range(g.n))  # 256 rows: a 512 KiB payload
        depots = srcs[20::29]
        want = oracle.distances(srcs)
        want_assigned, want_dist = oracle.nearest_source(depots)
        assert np.isinf(want).any() and np.isinf(want_dist).any()
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                buffered = sum(c._sock.getsockopt(socket.SOL_SOCKET, opt)
                               for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF))
                assert want.nbytes > buffered
                got = c.distances(srcs)
                assigned, dist = c.nearest_source(depots)
        assert got.shape == want.shape == (256, 256)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert assigned.dtype == np.int64
        assert np.array_equal(assigned, want_assigned)
        assert np.array_equal(dist.view(np.uint64), want_dist.view(np.uint64))

    def test_non_min_plus_semiring_rows(self, tmp_path):
        g, tree = _one_way_grid(6)
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(semiring="boolean"))
        srcs = [0, 14, 35]
        want = np.asarray(oracle.distances(srcs), dtype=np.float64)
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                got = c.distances(srcs)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rows_are_writable_contiguous_float64(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                rows = c.distances([0, 7])
                single = c.distances(7)
                assigned, dist = c.nearest_source([0, 7])
        for arr in (rows, single, assigned, dist):
            assert arr.flags.writeable and arr.flags.c_contiguous
        assert rows.dtype == single.dtype == dist.dtype == np.float64
        assert rows.shape == (2, oracle.graph.n) and single.shape == (oracle.graph.n,)
        rows[0, 0] = -1.0  # a view the caller owns


class TestCoalescing:
    def test_concurrent_requests_share_a_batch(self, oracle, tmp_path):
        """≥2 of 4 simultaneous single-source requests must land in one
        engine batch when they arrive within the coalescing window."""
        n_clients = 4
        with serving(oracle, tmp_path, max_wait_us=300_000) as (sock, server):
            clients = [OracleClient(sock) for _ in range(n_clients)]
            barrier = threading.Barrier(n_clients)
            results = [None] * n_clients

            def worker(i):
                barrier.wait()
                results[i] = clients[i].distances([i])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(20)
            for c in clients:
                c.close()
            snap = server.metrics.snapshot()
        want = oracle.distances(list(range(n_clients)))
        for i in range(n_clients):
            assert np.array_equal(results[i][0], want[i])
        assert snap["max_coalesce"] >= 2, snap
        assert snap["batches_total"] < n_clients, snap
        assert snap["coalesce_factor"] > 1.0, snap

    def test_zero_wait_disables_coalescing(self, oracle, tmp_path):
        with serving(oracle, tmp_path, max_wait_us=0) as (sock, server):
            with OracleClient(sock) as c:
                c.distances([0])
                c.distances([1])
            snap = server.metrics.snapshot()
        assert snap["batches_total"] == 2
        assert snap["coalesce_factor"] == 1.0

    def test_stats_expose_batch_shape(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                c.distances([0, 1, 2])
                stats = c.stats()
        assert stats["engine"]["last_batch"]["rows"] == 3
        for key in ("coalesce_factor", "shard_fanout", "queue_wait_s",
                    "batch_wall_s", "request_latency_s"):
            assert key in stats["server"]
        assert stats["server"]["request_latency_s"]["p99"] >= 0

    def test_stats_carry_canonical_serving_schema(self, oracle, tmp_path):
        """Satellite: one stats schema across tiers.  The served engine's
        block carries every :data:`SERVING_STATS_KEYS` key, the old keys
        survive as deprecated aliases, and the admission block is
        published alongside."""
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                c.distances([0, 1])
                stats = c.stats()
        eng = stats["engine"]
        for key in SERVING_STATS_KEYS:
            assert key in eng, key
        assert eng["backend"] == "serial"
        assert eng["weights_epoch"] == 0
        assert {"p50", "p99"} <= set(eng["queue_wait_ms"])
        assert eng["rows_served"] == 2
        # deprecated aliases kept for one release
        assert "engine" in eng and "phases" in eng
        adm = stats["admission"]
        assert set(adm) == {
            "queue_limit", "pending_rows", "ema_row_ms", "shed_early_total",
        }
        assert adm["queue_limit"] >= 1
        assert adm["ema_row_ms"] > 0.0  # EMA primed by the first batch
        assert adm["shed_early_total"] == 0


class TestEngineThread:
    """Every engine call runs on one engine thread: a reweight runs between
    two batches, never beside one, and the thread is gone after stop."""

    def test_reweight_runs_between_batches_on_one_thread(self, oracle, tmp_path):
        engines = []

        def factory():
            engines.append(_RecordingEngine(oracle.augmentation, SERIAL))
            return engines[0]

        n = oracle.graph.n
        edges = np.array([2, 9, 20])
        values = oracle.graph.weight[edges] + 7.0
        want = {
            0: oracle.distances(np.arange(n)),
            1: oracle.with_new_weights(weight_delta=(edges, values)).distances(
                np.arange(n)
            ),
        }
        streamed: list[tuple[int, np.ndarray]] = []
        rows_seen = threading.Semaphore(0)
        stop = threading.Event()

        def stream(sock) -> None:
            with OracleClient(sock) as c:
                i = 0
                while not stop.is_set():
                    s = (7 * i) % n
                    streamed.append((s, c.distances([s])[0]))
                    rows_seen.release()
                    i += 1

        def reweight(sock, out) -> None:
            with OracleClient(sock) as c:
                out.append(c.reweight(delta=dict(zip(edges.tolist(), values.tolist()))))

        acked: list[dict] = []
        with serving(oracle, tmp_path, engine_factory=factory) as (sock, server):
            t = threading.Thread(target=stream, args=(sock,))
            t.start()
            try:
                assert engines and engines[0].entered.wait(20)
                r = threading.Thread(target=reweight, args=(sock, acked))
                r.start()
                # The reweight arrives while batch ``hold_at`` is in flight;
                # it must wait for that batch, not run beside it.
                for _ in range(400):
                    if server.metrics.requests_by_op.get("reweight"):
                        break
                    time.sleep(0.005)
                time.sleep(0.05)
                engines[0].release.set()
                r.join(20)
                assert not r.is_alive()
                for _ in range(5):
                    assert rows_seen.acquire(timeout=20)
            finally:
                engines[0].release.set()
                stop.set()
                t.join(20)
            assert not t.is_alive()
        assert acked and acked[0]["weights_epoch"] == 1
        eng = engines[0]
        assert len(eng.threads) == 1, eng.threads
        assert not next(iter(eng.threads)).is_alive()  # joined by stop()
        calls = sorted(eng.calls, key=lambda c: c[2])
        assert len({c[1] for c in calls}) == 1
        for a, b in zip(calls, calls[1:]):
            assert a[3] <= b[2], f"{a[0]} overlaps {b[0]}"
        kinds = [c[0] for c in calls]
        assert kinds.count("reweight") == 1
        assert 0 < kinds.index("reweight") < len(kinds) - 1  # mid-stream
        # The streamer is the only row client and sends one row at a time,
        # so its k-th request is the k-th submit.
        submits = [c[4] for c in calls if c[0] == "submit"]
        assert len(submits) == len(streamed)
        for (src, epoch), (s, row) in zip(submits, streamed):
            assert src == [s]
            assert np.array_equal(row, want[epoch][s])
        assert {epoch for _, epoch in submits} == {0, 1}

    def test_failed_start_closes_engine_and_thread(self, oracle, tmp_path):
        """A start whose bind fails closes the engine it built (which
        would otherwise hold its pool and arena) and joins the thread."""
        engines = []

        def factory():
            engines.append(_RecordingEngine(oracle.augmentation, SERIAL))
            return engines[0]

        taken = tmp_path / "taken"
        taken.mkdir()  # a directory: binding a socket there fails
        server = OracleServer(
            oracle, SERIAL, ServerConfig(path=str(taken)), engine_factory=factory
        )
        with pytest.raises(OSError):
            asyncio.run(server.start())
        assert engines[0]._closed
        assert len(engines[0].threads) == 1
        assert not next(iter(engines[0].threads)).is_alive()

    def test_unstarted_server_owns_no_thread(self, oracle, tmp_path):
        before = set(threading.enumerate())
        server = OracleServer(oracle, SERIAL, ServerConfig(path=str(tmp_path / "x.sock")))
        asyncio.run(server.stop())
        assert set(threading.enumerate()) == before
        assert server._engine_thread is None


class TestTickClose:
    """A coalescing tick closes once no open connection is idle; only an
    idle connection, which could still add a row, holds the window."""

    def test_tick_closes_once_every_connection_waits(self, oracle, tmp_path):
        want = oracle.distances([0, 1])
        with serving(oracle, tmp_path, max_wait_us=5_000_000) as (sock, server):
            a, b = OracleClient(sock), OracleClient(sock)
            barrier = threading.Barrier(2)
            got = [None, None]

            def ask(i, c):
                barrier.wait()
                got[i] = c.distances([i])[0]

            t0 = time.perf_counter()
            threads = [threading.Thread(target=ask, args=(i, c))
                       for i, c in enumerate((a, b))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(20)
            assert not any(t.is_alive() for t in threads)
            together_s = time.perf_counter() - t0
            snap = server.metrics.snapshot()
            # A non-row request that makes the last idle connection busy
            # closes the tick too.
            t0 = time.perf_counter()
            th = threading.Thread(target=lambda: a.distances([0]))
            th.start()
            for _ in range(400):
                if server._pending >= 1:
                    break
                time.sleep(0.005)
            assert server._pending == 1
            b.stats()
            th.join(20)
            assert not th.is_alive()
            stats_close_s = time.perf_counter() - t0
            # A lone connection closes its tick at once.
            b.close()
            t0 = time.perf_counter()
            a.distances([1])
            lone_s = time.perf_counter() - t0
            a.close()
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert snap["batches_total"] == 1 and snap["max_coalesce"] == 2, snap
        assert together_s < 2.0, together_s
        assert stats_close_s < 2.0, stats_close_s
        assert lone_s < 2.0, lone_s

    def test_idle_connection_holds_the_window(self, oracle, tmp_path):
        window_s = 0.25
        with serving(
            oracle, tmp_path, max_wait_us=int(window_s * 1e6)
        ) as (sock, server):
            with OracleClient(sock) as idle, OracleClient(sock) as c:
                assert idle.ping()
                t0 = time.perf_counter()
                c.distances([0])
                waited_s = time.perf_counter() - t0
        assert waited_s >= window_s, waited_s


class TestDegradation:
    def test_timeout_answers_504(self, oracle, tmp_path):
        """A request whose deadline is shorter than the coalescing window
        gets a timeout response (the batch still completes server-side).
        An idle second connection keeps the window open: it could still
        add a row."""
        with serving(oracle, tmp_path, max_wait_us=500_000) as (sock, server):
            with OracleClient(sock) as idle, OracleClient(sock) as c:
                assert idle.ping()
                c.timeout = 0.02  # timeout_ms sent with the request
                with pytest.raises(ServerError) as err:
                    c.distances([0])
                assert err.value.code == 504
            snap = server.metrics.snapshot()
        assert snap["timeout_total"] == 1

    def test_overload_sheds_429(self, oracle, tmp_path):
        """Beyond queue_limit admitted requests, new ones are shed.  An idle
        connection holds the first request's window open until the second
        one is sent."""
        with serving(
            oracle, tmp_path, max_wait_us=500_000, queue_limit=1
        ) as (sock, server):
            idle = OracleClient(sock)
            assert idle.ping()
            admitted = OracleClient(sock)
            t = threading.Thread(target=lambda: admitted.distances([0]))
            t.start()
            # Wait until the first request is admitted into the window.
            for _ in range(200):
                if server._pending >= 1:
                    break
                threading.Event().wait(0.005)
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c.distances([1])
            assert err.value.code == 429
            t.join(20)
            assert not t.is_alive()
            admitted.close()
            idle.close()
            snap = server.metrics.snapshot()
        assert snap["shed_total"] == 1
        assert snap["requests_total"] >= 2


class TestAdmission:
    """Admission control (tentpole): the server sheds 429 *early* — before
    a request can occupy a queue slot it cannot convert into an on-deadline
    answer — and served latency stays flat under overload."""

    def test_engine_factory_must_satisfy_protocol(self, oracle, tmp_path):
        """Satellite: startup type-checks the engine and names the missing
        methods, instead of a mid-request AttributeError."""

        class NotAnEngine:
            def submit(self, sources):  # pragma: no cover - never called
                raise NotImplementedError

            def stats(self):  # pragma: no cover - never called
                return {}

            def close(self):  # pragma: no cover - never called
                pass

        server = OracleServer(
            oracle, SERIAL, ServerConfig(path=str(tmp_path / "bad.sock")),
            engine_factory=NotAnEngine,
        )
        with pytest.raises(TypeError) as err:
            asyncio.run(server.start())
        msg = str(err.value)
        assert "engine_factory result" in msg and "NotAnEngine" in msg
        for missing in ("query", "reweight", "weights_epoch"):
            assert missing in msg

    @staticmethod
    def _closed_loop(sock, n_clients, reqs_each):
        """``n_clients`` blocking clients, ``reqs_each`` two-row requests
        each; returns (served latencies [s], shed count)."""
        latencies, sheds, errors = [], [], []
        lock = threading.Lock()

        def worker():
            try:
                with OracleClient(sock, timeout=30.0, retries=0) as c:
                    for _ in range(reqs_each):
                        t0 = time.perf_counter()
                        try:
                            c.distances([0, 1])
                        except ServerError as err:
                            assert err.code == 429, err
                            with lock:
                                sheds.append(1)
                        else:
                            with lock:
                                latencies.append(time.perf_counter() - t0)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not errors, errors
        return latencies, len(sheds)

    def test_overload_sheds_429_and_served_p99_stays_flat(self, oracle, tmp_path):
        """Acceptance: at ~4x capacity with ``ServerConfig.queue_limit`` set,
        requests are shed with 429 and the p99 of *served* requests stays
        within 1.5x the uncontended p99 (the queue never grows past what
        fits inside a deadline)."""
        factory = lambda: _SlowEngine(oracle.graph.n, row_s=0.02)  # noqa: E731
        assert isinstance(factory(), ServingBackend)
        # Uncontended baseline: as many clients as queue slots.
        with serving(
            oracle, tmp_path, engine_factory=factory, max_wait_us=0
        ) as (sock, server):
            base_lat, base_sheds = self._closed_loop(sock, n_clients=4, reqs_each=3)
        assert base_sheds == 0 and len(base_lat) == 12
        base_p99 = float(np.percentile(base_lat, 99))
        # Overload: 4x the clients, queue capped at 4 admitted requests.
        with serving(
            oracle, tmp_path, engine_factory=factory, max_wait_us=0, queue_limit=4
        ) as (sock, server):
            over_lat, over_sheds = self._closed_loop(sock, n_clients=16, reqs_each=3)
            snap = server.metrics.snapshot()
        assert over_sheds > 0, "overload never shed"
        assert snap["shed_total"] == over_sheds
        assert over_lat, "overload served nothing"
        over_p99 = float(np.percentile(over_lat, 99))
        assert over_p99 <= 1.5 * base_p99, (
            f"served p99 degraded under overload: {over_p99:.3f}s vs "
            f"uncontended {base_p99:.3f}s"
        )

    def test_predictive_shed_beats_the_deadline(self, oracle, tmp_path):
        """A request whose *predicted* queue wait exceeds its own deadline
        is refused immediately (429, counted as shed_early) instead of
        being admitted only to time out (504) after burning a slot."""
        factory = lambda: _SlowEngine(oracle.graph.n, row_s=0.05)  # noqa: E731
        with serving(
            oracle, tmp_path, engine_factory=factory, max_wait_us=0
        ) as (sock, server):
            with OracleClient(sock, timeout=30.0) as c:
                c.distances([0])  # primes the per-row EMA at ~50 ms/row
            backlog = OracleClient(sock, timeout=30.0)
            t = threading.Thread(target=lambda: backlog.distances(list(range(6))))
            t.start()
            for _ in range(400):  # wait until the 6-row backlog is admitted
                if server._pending_rows >= 6:
                    break
                time.sleep(0.005)
            assert server._pending_rows >= 6
            t_shed = time.perf_counter()
            with OracleClient(sock, timeout=0.05) as c:  # 50 ms deadline
                with pytest.raises(ServerError) as err:
                    c.distances([1])
            shed_s = time.perf_counter() - t_shed
            assert err.value.code == 429
            assert "admission control" in str(err.value)
            assert shed_s < 0.05, f"shed took {shed_s:.3f}s — not early"
            t.join(30)
            backlog.close()
            snap = server.metrics.snapshot()
        assert snap["shed_early_total"] >= 1
        assert snap["shed_total"] >= snap["shed_early_total"]
        assert snap["timeout_total"] == 0


class TestShutdown:
    def test_clean_shutdown_no_shm_leak_serial(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                c.distances([0])
        assert orphaned_segments() == []

    @pytest.mark.multiproc
    def test_clean_shutdown_no_shm_leak_shm_backend(self, oracle, tmp_path):
        """The heavy path: shm pool + published arena; shutdown must drain
        and unlink every segment (tools/check_shm_leaks.py invariant)."""
        cfg = OracleConfig(executor="shm:2")
        want = oracle.distances(np.arange(8))
        with serving(oracle, tmp_path, engine_cfg=cfg) as (sock, server):
            with OracleClient(sock) as c:
                got = c.distances(list(range(8)))
            assert server.engine.stats()["backend"] == "shm"
        assert np.array_equal(got, want)
        assert orphaned_segments() == []

    def test_shm_cache_hit_allocates_no_segment(self, grid6_negative, tmp_path):
        """A cache hit destined for the shm backend loads into private
        memory: ``/dev/shm`` is empty right after ``build``, and serving it
        (then stopping) leaves it empty."""
        g, tree = grid6_negative
        store = str(tmp_path / "store")
        # build #1 populates the store; build #2 is a hit
        ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=store)
        )
        oracle = ShortestPathOracle.build(
            g, tree,
            config=OracleConfig(cache="read", cache_dir=store, executor="shm:2"),
        )
        assert oracle.cache_info["status"] == "hit"
        assert orphaned_segments() == []
        want = oracle.distances([0, 7])
        with serving(oracle, tmp_path) as (sock, _):  # serial engine
            with OracleClient(sock) as c:
                got = c.distances([0, 7])
        assert np.array_equal(got, want)
        assert orphaned_segments() == []

    def test_stats_report_tree_entry_hit(self, tmp_path):
        """A restart that restored its tree from the store says so in the
        ``stats`` RPC's build record, beside the E⁺ entry's status."""
        from repro.workloads.generators import expander_digraph

        g = expander_digraph(48, np.random.default_rng(2), degree=8)
        store = str(tmp_path / "store")
        ShortestPathOracle.build(
            g, config=OracleConfig(mode="auto", cache="readwrite", cache_dir=store)
        )
        oracle = ShortestPathOracle.build(
            g, config=OracleConfig(mode="auto", cache="read", cache_dir=store)
        )
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                build = c.stats()["cache"]["build"]
        assert (build["tree"], build["status"]) == ("hit", "hit")
        assert build["tree_load_s"] >= 0.0

    def test_requests_after_drain_rejected(self, oracle, tmp_path):
        with serving(oracle, tmp_path) as (sock, server):
            with OracleClient(sock) as c:
                c.distances([0])
            server._draining = True  # simulate shutdown having begun
            with OracleClient(sock) as c:
                with pytest.raises(ServerError) as err:
                    c.distances([1])
                assert err.value.code == 503
            server._draining = False  # let the context manager stop cleanly


class TestReweightRPC:
    """The zero-downtime ``reweight`` op: served distances flip to the new
    weights epoch, stats surface the epoch counters, malformed payloads
    get 400s, and path reconstruction follows the *current* weights."""

    def test_dense_then_delta(self, grid6_negative, tmp_path):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        srcs = [0, 7, 35]
        w2 = np.abs(g.weight) + 1.0
        want2 = ShortestPathOracle.build(
            type(g)(g.n, g.src, g.dst, w2), tree
        ).distances(srcs)
        w3 = w2.copy()
        w3[[2, 9]] = [40.0, 0.25]
        want3 = ShortestPathOracle.build(
            type(g)(g.n, g.src, g.dst, w3), tree
        ).distances(srcs)
        cfg = SERIAL.replace(row_cache=16)
        with serving(oracle, tmp_path, engine_cfg=cfg) as (sock, server):
            with OracleClient(sock) as c:
                c.distances(srcs)  # warm the row LRU on epoch 0
                res = c.reweight(w2)
                assert res["weights_epoch"] == 1 and res["mode"] == "engine"
                assert np.array_equal(c.distances(srcs), want2)
                res = c.reweight(delta={2: 40.0, 9: 0.25})
                assert res["weights_epoch"] == 2
                assert np.array_equal(c.distances(srcs), want3)
                st = c.stats()
                assert st["engine"]["weights_epoch"] == 2
                assert st["engine"]["reweights"] == 2
                assert st["engine"]["row_cache"]["epoch_invalidations"] == 2
                # Path reconstruction must walk the *reweighted* graph.
                path, dist = c.path_with_distance(0, 35)
                assert path is not None and dist == want3[0][35]

    def test_bad_payloads_get_400(self, grid6_negative, tmp_path):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        with serving(oracle, tmp_path) as (sock, _):
            with OracleClient(sock) as c:
                for bad in (
                    dict(weight=[1.0, 2.0]),                      # wrong length
                    dict(weight=list(g.weight), delta={"edges": [0], "weights": [1]}),
                    dict(delta={"edges": [0, 1], "weights": [1.0]}),  # ragged
                    dict(delta={"edges": [g.m + 5], "weights": [1.0]}),  # range
                    dict(),                                       # neither
                ):
                    with pytest.raises(ServerError) as err:
                        c._call("reweight", **bad)
                    assert err.value.code == 400
                # ... and the server still serves afterwards.
                assert c.ping()


class TestServedShardRoute:
    """The three-leg route behind the server: :class:`OracleServer` over
    ``oracle.shard_fleet(2)`` serves rows, stats and a served delta
    reweight (the server's shard branch), bitwise against the engine and
    a cold build on integer weights."""

    def test_rows_stats_and_delta_reweight(self, tmp_path):
        from repro.shard import ShardRouter

        rng = np.random.default_rng(4)
        g = grid_digraph((10, 10), rng)
        g = WeightedDigraph(g.n, g.src, g.dst, np.round(g.weight * 8.0))
        tree = decompose_grid(g, (10, 10), leaf_size=4)
        oracle = ShortestPathOracle.build(g, tree)
        srcs = [0, 9, 55, 90]
        edges = rng.choice(g.m, size=12, replace=False)
        values = rng.integers(1, 40, size=edges.size).astype(np.float64)
        w2 = g.weight.copy()
        w2[edges] = values
        want2 = ShortestPathOracle.build(
            WeightedDigraph(g.n, g.src, g.dst, w2), tree
        ).distances(srcs)
        assert not np.array_equal(want2, oracle.distances(srcs))
        with serving(oracle, tmp_path, engine_cfg=OracleConfig(shards=2),
                     engine_factory=lambda: oracle.shard_fleet(2)) as (sock, server):
            assert isinstance(server.engine, ShardRouter)
            with OracleClient(sock) as c:
                assert np.array_equal(c.distances(srcs), oracle.distances(srcs))
                st = c.stats()["engine"]
                assert st["engine"] == "sharded" and st["workers"] == 2
                assert len(st["per_shard"]) == 2
                assert st["last_batch"]["rows"] == len(srcs)
                res = c.reweight(delta=dict(zip(edges.tolist(), values.tolist())))
                assert res == {**res, "weights_epoch": 1, "mode": "fleet"}
                assert np.array_equal(c.distances(srcs), want2)
                st = c.stats()["engine"]
                assert st["weights_epoch"] == 1 and st["reweights"] == 1
                assert all(s["weights_epoch"] == 1 for s in st["per_shard"])
                # Path reconstruction walks the reweighted graph.
                path, dist = c.path_with_distance(0, 90)
                assert path is not None and dist == want2[0][90]
        assert orphaned_segments() == []


class TestSmoke:
    def test_50_mixed_requests_smoke(self, oracle, tmp_path):
        """CI fast-lane smoke: 50 mixed requests from 5 concurrent clients
        over a unix socket, every answer well-formed, clean shutdown."""
        n = oracle.graph.n
        rng = np.random.default_rng(0)
        errors = []

        def worker(seed):
            r = np.random.default_rng(seed)
            try:
                with OracleClient(sock) as c:
                    for i in range(10):
                        kind = i % 5
                        if kind == 0:
                            assert c.ping()
                        elif kind == 1:
                            d = c.distances([int(r.integers(n))])
                            assert d.shape == (1, n)
                        elif kind == 2:
                            srcs = r.integers(0, n, size=3).tolist()
                            a, d = c.nearest_source(srcs)
                            assert a.shape == (n,) and d.shape == (n,)
                        elif kind == 3:
                            c.path(int(r.integers(n)), int(r.integers(n)))
                        else:
                            s = c.stats()
                            assert s["server"]["requests_total"] >= 1
            except Exception as exc:  # surface worker failures to the test
                errors.append(exc)

        with serving(oracle, tmp_path, max_wait_us=5_000) as (sock, server):
            threads = [
                threading.Thread(target=worker, args=(int(s),))
                for s in rng.integers(0, 2**31, size=5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            snap = server.metrics.snapshot()
        assert not errors, errors
        assert snap["requests_total"] == 50
        assert snap["error_total"] == 0 and snap["shed_total"] == 0
        assert snap["batches_total"] >= 1
        assert orphaned_segments() == []


class TestClientRetry:
    """The idempotent-retry policy of :class:`OracleClient` against a
    deliberately flaky fake server (scripted per-connection behaviors)."""

    @staticmethod
    def _flaky_server(sock_path: str, behaviors: list[str]) -> list[dict]:
        """Serve one scripted connection per behavior; returns the (live)
        list of requests received so far."""
        received: list[dict] = []
        srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        srv.bind(sock_path)
        srv.listen(8)

        def loop():
            for mode in behaviors:
                conn, _ = srv.accept()
                f = conn.makefile("rb")
                line = f.readline()
                if line:
                    received.append(json.loads(line))
                req_id = received[-1]["id"] if received else None

                def ok(rows):
                    return {"id": req_id, "ok": True,
                            "result": {"sources": received[-1]["sources"], "distances": rows}}

                if mode == "drop":
                    pass  # close without answering → ConnectionError
                elif mode == "unavailable":
                    resp = {"id": req_id, "ok": False, "code": 503,
                            "error": "server is shutting down"}
                    conn.sendall((json.dumps(resp) + "\n").encode())
                elif mode == "bad":
                    resp = {"id": req_id, "ok": False, "code": 400,
                            "error": "no such thing"}
                    conn.sendall((json.dumps(resp) + "\n").encode())
                elif mode == "short":
                    # The header promises 16 payload bytes; 8 arrive.
                    conn.sendall(encode(ok(np.array([[0.0, 1.0]])))[:-8])
                elif mode == "mismatch":
                    # 8 payload bytes against a declared (1, 2) float64.
                    head = {**ok({"dtype": "<f8", "shape": [1, 2]}), "payload": 8}
                    conn.sendall((json.dumps(head) + "\n").encode() + bytes(8))
                else:  # "ok"
                    conn.sendall(encode(ok(np.array([[0.0, 1.0]]))))
                f.close()
                conn.close()
            srv.close()

        threading.Thread(target=loop, daemon=True).start()
        return received

    def test_retries_once_after_connection_drop(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["drop", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            got = c.distances([0])
        assert np.array_equal(got, [[0.0, 1.0]])
        assert len(received) == 2  # original + one resend

    def test_retries_once_after_503_drain(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["unavailable", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            got = c.distances([0])
        assert np.array_equal(got, [[0.0, 1.0]])
        assert len(received) == 2

    def test_second_failure_propagates(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        self._flaky_server(sock, ["drop", "drop"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            with pytest.raises(ConnectionError):
                c.distances([0])

    def test_retry_disabled(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["drop", "ok"])
        with OracleClient(sock, retries=0) as c:
            with pytest.raises(ConnectionError):
                c.distances([0])
        assert len(received) == 1  # no resend

    def test_client_errors_not_retried(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["bad", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            with pytest.raises(ServerError) as err:
                c.distances([0])
        assert err.value.code == 400
        assert len(received) == 1  # 400 is the caller's problem, no retry

    def test_truncated_payload_is_retried_once(self, tmp_path):
        """EOF inside the payload is a dropped connection: one resend."""
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["short", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            got = c.distances([0])
        assert np.array_equal(got, [[0.0, 1.0]])
        assert len(received) == 2

    def test_payload_shape_mismatch_is_500_not_retried(self, tmp_path):
        sock = str(tmp_path / "flaky.sock")
        received = self._flaky_server(sock, ["mismatch", "ok"])
        with OracleClient(sock, retry_backoff_s=0.01) as c:
            with pytest.raises(ServerError) as err:
                c.distances([0])
        assert err.value.code == 500
        assert len(received) == 1
