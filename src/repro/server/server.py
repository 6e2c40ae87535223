"""Async batched query server: :class:`OracleServer`.

The paper's economics (§3.2) make *batches* cheap — one augmentation pass,
then every source row is an independent O(ℓ|E| + |E⁺|) relaxation — but
network clients arrive one small request at a time.  This server closes
that gap with **request coalescing**: concurrent ``distances`` /
``nearest_source`` / ``path`` requests are admitted into a queue, and a
single batcher task gathers everything that arrives within one *coalesce
tick* (``max_wait_us``, capped at ``max_batch_rows`` source rows) into one
:meth:`~repro.core.query.QueryEngine.submit` call.  A tick closes early
once no open connection is idle — every connection already waits for the
answer to a row, ``reweight`` or ``stats`` request, so none can add a row
to it.  The engine shards that one batch row-wise across its warm pool
(shm backend: zero-copy), so 32 single-source clients cost one sharded
batch, not 32 engine round trips.

Operational behavior:

* **backpressure + admission control** — at most ``queue_limit`` row
  requests may be admitted and unfinished; beyond that the server sheds with a 429-style
  error instead of queueing unboundedly.  Admission control additionally
  sheds a request *early* when its predicted queue wait — backlogged rows
  priced at the recent per-row batch wall — already exceeds its deadline,
  so sustained overload degrades into fast 429s, not a convoy of 504s;
* **timeouts** — each request waits at most ``request_timeout_ms`` (or its
  own ``timeout_ms`` field) for its batch; a late batch still completes,
  the response is a 504;
* **zero-downtime reweight** — the ``reweight`` op hot-swaps the serving
  stack to new edge weights (full vector or sparse delta) without dropping
  queries: weights replay through the retained E⁺ provenance
  (:meth:`~repro.core.api.ShortestPathOracle.with_new_weights`) on the
  engine thread between two batches, so the batch before it is answered
  entirely at the old weights epoch and every later batch at the new one —
  the single engine flips its arena generation, a shard router flips
  shard by shard behind its per-leg epoch guard;
* **graceful shutdown** — :meth:`stop` first stops accepting connections,
  then lets the batcher *drain* every admitted request, and only then
  closes the engine (which unlinks the shm arena), joins the engine
  thread and closes the remaining connections.  Ordering matters: the
  arena must outlive the last batch that references it (see DESIGN.md §6).

The event loop never runs the relaxation itself.  Every engine call — the
engine factory, each batch's :meth:`QueryEngine.submit`, a reweight's
replay and flip, and ``close`` — runs on the server's one *engine thread*,
which :meth:`start` creates and :meth:`stop` joins after the drain.  On a
sequential host a second engine thread buys no work, only waits for the
interpreter lock (EXPERIMENTS "E-served-replay"), and one thread also
serializes reweights without a lock of their own.  ``stats`` runs on the
loop's default executor: ``QueryEngine.stats`` is thread-safe (engine
lock), which lets ``stats`` requests stream back while a batch is in
flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.api import ShortestPathOracle
from ..core.config import OracleConfig
from ..core.paths import reconstruct_path, shortest_path_tree
from ..core.protocols import ensure_serving_backend
from .metrics import ServerMetrics
from .protocol import (
    BAD_REQUEST,
    INTERNAL,
    OVERLOADED,
    ROW_OPS,
    TIMEOUT,
    UNAVAILABLE,
    ServerError,
    decode,
    encode,
    error_response,
    ok_response,
)

__all__ = ["ServerConfig", "OracleServer"]

_log = logging.getLogger(__name__)

#: The request reader's line limit: a request listing thousands of sources,
#: or a full-vector ``reweight``, far exceeds asyncio's 64 KiB default.
#: Responses are written, not read here, so it does not bound them.
_STREAM_LIMIT = 16 << 20


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs of one :class:`OracleServer`.

    Attributes
    ----------
    path:
        Unix-socket path; when set, TCP ``host``/``port`` are ignored
        (local serving should prefer this — no TCP stack in the latency).
    host, port:
        TCP address; ``port=0`` binds an ephemeral port (read it back from
        :attr:`OracleServer.address`).
    max_batch_rows:
        Coalescing cap — a batch closes early once this many source rows
        are gathered.
    max_wait_us:
        Coalescing window in microseconds — the longest the batcher holds
        the first request of a tick open for companions.  The tick closes
        sooner once no open connection is idle (each waits for an answer,
        so none can add a row).  0 disables coalescing (every request is
        its own batch).
    queue_limit:
        Maximum admitted-but-unfinished row requests; beyond it the server
        sheds with :data:`~repro.server.protocol.OVERLOADED` (429).
    request_timeout_ms:
        Default per-request wait for its batch result; a request may lower
        or raise its own via a ``timeout_ms`` field.
    """

    path: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    max_batch_rows: int = 256
    max_wait_us: int = 2000
    queue_limit: int = 1024
    request_timeout_ms: float = 30_000.0


class _Conn:
    """One open connection: how many of its row, ``reweight`` and
    ``stats`` requests are unanswered."""

    __slots__ = ("unanswered", "open")

    def __init__(self) -> None:
        self.unanswered = 0
        self.open = True


@dataclass
class _Pending:
    """One admitted row request waiting for its coalesced batch."""

    sources: np.ndarray
    fut: asyncio.Future
    t_enqueue: float
    #: The asking connection until the request is answered, then ``None``.
    conn: _Conn | None
    rows: int = field(init=False)

    def __post_init__(self) -> None:
        self.rows = int(self.sources.shape[0])


#: What :meth:`OracleServer._window_get` returns when the tick closes.
_CLOSE = object()


def _is_int(x) -> bool:
    """A JSON integer: ``json`` decodes ``1.0`` to a float and ``true`` to
    a bool, and neither names a vertex or an edge."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_ids(raw, what: str) -> np.ndarray:
    """A flat list of JSON integers as ``int64``; 400 on anything else,
    instead of a cast that would quietly truncate ``1.5`` or ``true``."""
    if not isinstance(raw, (list, tuple)):
        raise ServerError(BAD_REQUEST, f"{what} ids must be a list of ints")
    for x in raw:
        if not _is_int(x):
            raise ServerError(BAD_REQUEST, f"non-integer {what} id {x!r}")
    try:
        return np.asarray(raw, dtype=np.int64)
    except OverflowError as exc:
        raise ServerError(BAD_REQUEST, f"{what} id out of range: {exc}") from exc


def _timeout_ms(req: dict, default: float) -> float:
    """The request's ``timeout_ms``: a finite positive number, else 400."""
    raw = req.get("timeout_ms", default)
    if _is_int(raw) or isinstance(raw, float):
        with contextlib.suppress(OverflowError):  # an int past float range
            ms = float(raw)
            if math.isfinite(ms) and ms > 0:
                return ms
    raise ServerError(
        BAD_REQUEST, f"'timeout_ms' must be a finite positive number, got {raw!r}"
    )


class OracleServer:
    """Asyncio TCP/Unix-socket front end over a warm
    :class:`~repro.core.query.QueryEngine`.

    Parameters
    ----------
    oracle:
        The built (or loaded) oracle to serve.
    config:
        :class:`~repro.core.config.OracleConfig` for the serving engine —
        its ``executor`` and ``row_cache`` fields select the
        backend exactly as in :meth:`ShortestPathOracle.query_engine`
        (default: serial; the ``repro-spsp serve`` CLI passes its
        ``--backend``).
    server:
        :class:`ServerConfig` with the socket address and the coalescing /
        backpressure / timeout knobs.
    engine_factory:
        Optional zero-argument callable building the serving engine; it
        replaces the default ``oracle.query_engine(config)`` and may
        return anything satisfying
        :class:`~repro.core.protocols.ServingBackend` (checked at
        :meth:`start`, which raises a :class:`TypeError` naming any
        missing method) — in particular a
        :class:`~repro.shard.ShardRouter` to serve the three-leg route behind
        the same coalescing front end.
    """

    def __init__(
        self,
        oracle: ShortestPathOracle,
        config: OracleConfig | None = None,
        server: ServerConfig | None = None,
        *,
        engine_factory: Callable[[], Any] | None = None,
    ) -> None:
        self.oracle = oracle
        self.engine_config = config
        self.engine_factory = engine_factory
        self.server_config = server if server is not None else ServerConfig()
        self.metrics = ServerMetrics()
        self.engine = None
        # The graph whose weights are *currently served* — tracks every
        # accepted ``reweight`` (``self.oracle.graph`` would go stale on
        # the shard path, where the router reweights but the build oracle
        # is not re-derived).  Source validation and path reconstruction
        # must read this one.
        self._graph = oracle.graph
        #: The one thread every engine call runs on; made by :meth:`start`.
        self._engine_thread: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        #: Open connections with no unanswered request.  A tick closes
        #: once it reaches 0: nobody is left who could add a row.
        self._idle = 0
        #: ``_idle`` was 0 at some moment since the tick took its first
        #: request — also when an answered ``stats`` made it 1 again
        #: before the batcher looked.
        self._none_idle = False
        #: Set on every admitted row and whenever ``_idle`` drops to 0;
        #: the batcher waits on it inside a tick's window.
        self._wake: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._pending = 0
        #: Source rows admitted and not yet answered — the work backlog
        #: that admission control prices against each request's deadline.
        self._pending_rows = 0
        #: EMA of per-row batch wall time (seconds); 0 until the first
        #: batch completes, which disables prediction-based shedding.
        self._ema_row_s = 0.0
        self._draining = False
        self._stopped = False
        self._started = False
        self._stop_event: asyncio.Event | None = None
        self._t_start = 0.0

    # ------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------ #

    @property
    def address(self) -> str | tuple[str, int]:
        """Where the server listens: the unix path, or ``(host, port)``
        with the actually-bound port (useful with ``port=0``)."""
        cfg = self.server_config
        if cfg.path is not None:
            return cfg.path
        if self._server is not None and self._server.sockets:
            host, port = self._server.sockets[0].getsockname()[:2]
            return (host, port)
        return (cfg.host, cfg.port)

    async def start(self) -> None:
        """Bind the socket, build the serving engine, start the batcher."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        loop = asyncio.get_running_loop()
        self._t_start = loop.time()
        self._queue = asyncio.Queue()
        self._wake = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._engine_thread = ThreadPoolExecutor(1, thread_name_prefix="oracle-engine")
        # Engine construction compiles/publishes the phase arrays (or
        # builds every shard engine) — keep the loop responsive by
        # doing it on the engine thread.
        factory = self.engine_factory or (
            lambda: self.oracle.query_engine(self.engine_config)
        )
        cfg = self.server_config
        try:
            self.engine = await self._on_engine(factory)
            # Fail at startup, naming the missing method, instead of with
            # a mid-request AttributeError on the first batch.
            ensure_serving_backend(
                self.engine,
                context="engine_factory result" if self.engine_factory else "engine",
            )
            if cfg.path is not None:
                self._server = await asyncio.start_unix_server(
                    self._handle_conn, path=cfg.path, limit=_STREAM_LIMIT
                )
            else:
                self._server = await asyncio.start_server(
                    self._handle_conn, cfg.host, cfg.port, limit=_STREAM_LIMIT
                )
        except BaseException:
            self._stopped = True  # nothing to drain; stop() has no work
            if self.engine is not None:  # e.g. the bind failed: free its pool
                try:
                    await self._on_engine(self.engine.close)
                except Exception:
                    _log.exception("server: closing the engine of a failed start")
            self._engine_thread.shutdown()
            raise
        self._batcher = asyncio.create_task(self._batch_loop())
        _log.info(
            "server: listening on %s (engine %s, coalesce %dus/%d rows)",
            self.address,
            type(self.engine).__name__,
            cfg.max_wait_us,
            cfg.max_batch_rows,
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then close the engine.

        Ordering is load-bearing: (1) the listener closes so no new work
        arrives; (2) already-admitted requests drain through the batcher —
        their responses still go out; (3) only then does the engine close,
        unlinking the serving-pool arena the drained batches were still
        reading, and the engine thread exit; (4) remaining connections are
        closed.  Idempotent.
        """
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        self._draining = True  # new row ops answer 503 from here on
        _log.info("server: draining (%d pending row requests)", self._pending)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._enqueue(None)  # sentinel: batcher drains, then exits
        if self._batcher is not None:
            await self._batcher
        try:
            if self.engine is not None:
                await self._on_engine(self.engine.close)
        finally:
            # Idle by now: the close above was its last call.
            self._engine_thread.shutdown()
        for writer in list(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        if self._stop_event is not None:
            self._stop_event.set()
        _log.info("server: stopped")

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger for :meth:`serve_forever`."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until :meth:`request_shutdown` (or
        cancellation), then stop gracefully."""
        if not self._started:
            await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def __aenter__(self) -> "OracleServer":
        """Async context entry: the started server."""
        if not self._started:
            await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        """Async context exit: graceful stop."""
        await self.stop()

    def _on_engine(self, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` on the engine thread, after every engine call
        queued before it."""
        return asyncio.get_running_loop().run_in_executor(
            self._engine_thread, fn, *args
        )

    # ------------------------------------------------------------ #
    # Connections and requests
    # ------------------------------------------------------------ #

    def _ask(self, conn: _Conn) -> None:
        """``conn`` sent a request the batcher should wait out."""
        conn.unanswered += 1
        if conn.unanswered == 1 and conn.open:
            self._idle -= 1
            self._note_idle()

    def _note_idle(self) -> None:
        if self._idle == 0:
            self._none_idle = True
            self._wake.set()

    def _answered(self, conn: _Conn) -> None:
        conn.unanswered -= 1
        if conn.unanswered == 0 and conn.open:
            self._idle += 1

    def _settle(self, p: _Pending) -> None:
        """Count ``p`` answered, once (by its batch or by its timeout)."""
        if p.conn is not None:
            self._answered(p.conn)
            p.conn = None

    @contextlib.contextmanager
    def _asking(self, conn: _Conn):
        self._ask(conn)
        try:
            yield
        finally:
            self._answered(conn)

    def _enqueue(self, item: _Pending | None) -> None:
        self._queue.put_nowait(item)
        self._wake.set()

    async def _write(self, writer, wlock: asyncio.Lock, obj: dict) -> None:
        data = encode(obj)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, RuntimeError):
            async with wlock:
                writer.write(data)
                await writer.drain()

    async def _handle_conn(self, reader, writer) -> None:
        self._writers.add(writer)
        conn = _Conn()
        self._idle += 1
        wlock = asyncio.Lock()  # responses interleave per request-task
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    req = decode(line)
                except ServerError as exc:
                    self.metrics.record_error()
                    await self._write(
                        writer, wlock, error_response(None, exc.code, exc.message)
                    )
                    continue
                task = asyncio.create_task(
                    self._handle_request(req, conn, writer, wlock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.LimitOverrunError, ValueError):
            pass
        finally:
            # A closed connection adds no row: stop counting it idle.
            conn.open = False
            if conn.unanswered == 0:
                self._idle -= 1
                self._note_idle()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_request(
        self, req: dict, conn: _Conn, writer, wlock: asyncio.Lock
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        req_id = req.get("id")
        op = req.get("op")
        self.metrics.record_request(op if isinstance(op, str) else "?")
        try:
            if op == "ping":
                resp = ok_response(req_id, {"pong": True})
            elif op == "stats":
                with self._asking(conn):
                    resp = ok_response(req_id, await self._stats_result())
            elif op == "reweight":
                with self._asking(conn):
                    resp = ok_response(req_id, await self._reweight_op(req))
            elif op in ROW_OPS:
                resp = await self._row_op(req_id, op, req, conn, t0)
            else:
                raise ServerError(BAD_REQUEST, f"unknown op {op!r}")
        except ServerError as exc:
            if exc.code == OVERLOADED:
                self.metrics.record_shed()
            elif exc.code == TIMEOUT:
                self.metrics.record_timeout()
            else:
                self.metrics.record_error()
            resp = error_response(req_id, exc.code, exc.message)
        except Exception as exc:  # defensive: a bug must not kill the conn
            self.metrics.record_error()
            resp = error_response(req_id, INTERNAL, f"{type(exc).__name__}: {exc}")
        await self._write(writer, wlock, resp)

    def _parse_reweight(self, req: dict):
        """Validate a ``reweight`` request into ``(weight, edges, values)``
        — exactly one of the full vector or the sparse delta."""
        g = self._graph
        raw_w = req.get("weight")
        raw_d = req.get("delta")
        if (raw_w is None) == (raw_d is None):
            raise ServerError(
                BAD_REQUEST, "reweight needs exactly one of 'weight' or 'delta'"
            )
        try:
            if raw_w is not None:
                w = np.asarray(raw_w, dtype=g.weight.dtype)
                if w.shape != (g.m,):
                    raise ServerError(
                        BAD_REQUEST,
                        f"'weight' must list all {g.m} edge weights, got {w.shape}",
                    )
                return w, None, None
            edges = _int_ids(raw_d.get("edges"), "'delta' edge")
            values = np.asarray(raw_d.get("weights"), dtype=g.weight.dtype)
        except ServerError:
            raise
        except Exception as exc:
            raise ServerError(BAD_REQUEST, f"malformed reweight payload: {exc}") from exc
        if edges.ndim != 1 or edges.shape != values.shape:
            raise ServerError(
                BAD_REQUEST, "'delta' needs equal-length 'edges' and 'weights' lists"
            )
        if edges.size and ((edges < 0).any() or (edges >= g.m).any()):
            raise ServerError(BAD_REQUEST, f"edge id out of range [0, {g.m})")
        return None, edges, values

    async def _reweight_op(self, req: dict) -> dict:
        """The ``reweight`` RPC: hot-swap the serving stack to new edge
        weights without dropping queries.

        Parsing happens on the loop; the replay + flip runs on the engine
        thread between two batches (it is CPU work), so the batch before
        it is answered at the old epoch and every batch after it entirely
        at the new one.  A sparse ``delta`` assigns absolute weights
        (idempotent, so a client retry after a dropped connection is
        safe).
        """
        if self._draining:
            raise ServerError(UNAVAILABLE, "server is shutting down")
        weight, edges, values = self._parse_reweight(req)
        return await self._on_engine(self._reweight_sync, weight, edges, values)

    def _reweight_sync(self, weight, edges, values) -> dict:
        """Engine-thread reweight; that one thread also keeps two RPCs
        from interleaving the oracle/engine swap."""
        from ..core.query import QueryEngine

        t0 = time.perf_counter()
        if isinstance(self.engine, QueryEngine):
            if weight is not None:
                new_oracle = self.oracle.with_new_weights(weight)
            else:
                new_oracle = self.oracle.with_new_weights(
                    weight_delta=(edges, values)
                )
            self.engine.reweight(new_oracle.augmentation)
            old, self.oracle = self.oracle, new_oracle
            old.close()
            self._graph = new_oracle.graph
            epoch = int(getattr(new_oracle.augmentation, "weights_epoch", 0))
            mode = "engine"
        elif hasattr(self.engine, "reweight"):
            # Shard path: the router wants the full vector (it slices
            # per-shard local weights out of it); a delta additionally
            # names the dirty ids so shards replay sparsely.
            if weight is None:
                weight = self._graph.weight.copy()
                weight[edges] = values
                res = self.engine.reweight(weight, dirty=edges)
            else:
                res = self.engine.reweight(weight)
            self._graph = self.engine.graph
            epoch = int(res["weights_epoch"])
            mode = "fleet"
        else:
            raise ServerError(
                BAD_REQUEST,
                f"engine {type(self.engine).__name__} does not support reweight",
            )
        wall = time.perf_counter() - t0
        _log.info(
            "server: reweighted (%s) to weights epoch %d in %.3fs",
            mode, epoch, wall,
        )
        return {"weights_epoch": epoch, "mode": mode, "wall_s": wall}

    def _parse_sources(self, op: str, req: dict) -> np.ndarray:
        n = self._graph.n
        if op == "path":
            target = req.get("target")
            if not _is_int(target) or not 0 <= target < n:
                raise ServerError(BAD_REQUEST, "'target' must be a vertex id")
            raw = [req.get("source")]
        else:
            raw = req.get("sources")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ServerError(
                BAD_REQUEST,
                "'source' must be an int" if op == "path"
                else "'sources' must be a non-empty list of ints",
            )
        srcs = _int_ids(raw, "source")
        if (srcs < 0).any() or (srcs >= n).any():
            raise ServerError(BAD_REQUEST, f"source out of range [0, {n})")
        return srcs

    async def _row_op(self, req_id, op: str, req: dict, conn: _Conn, t0: float) -> dict:
        if self._draining:
            raise ServerError(UNAVAILABLE, "server is shutting down")
        srcs = self._parse_sources(op, req)
        limit = self.server_config.queue_limit
        if self._pending >= limit:
            raise ServerError(
                OVERLOADED,
                f"queue limit {limit} reached; retry later",
            )
        timeout_ms = _timeout_ms(req, self.server_config.request_timeout_ms)
        # Admission control: a request whose *predicted* queue wait — rows
        # already backlogged, priced at the recent per-row batch wall —
        # exceeds its own deadline would only time out after consuming a
        # queue slot.  Shed it now (429) so the queue holds only requests
        # that can still meet their deadlines, instead of collapsing into
        # a deadline-miss convoy under sustained overload.
        if self._ema_row_s > 0.0:
            eta_s = (self._pending_rows + int(srcs.shape[0])) * self._ema_row_s
            if eta_s > timeout_ms / 1e3:
                self.metrics.record_shed_early()
                raise ServerError(
                    OVERLOADED,
                    f"admission control: predicted queue wait {eta_s * 1e3:.0f} ms "
                    f"exceeds the {timeout_ms:.0f} ms deadline; retry later",
                )
        loop = asyncio.get_running_loop()
        pending = _Pending(srcs, loop.create_future(), loop.time(), conn)
        self._pending += 1
        self._pending_rows += pending.rows
        self._ask(conn)
        self._enqueue(pending)
        try:
            rows = await asyncio.wait_for(pending.fut, timeout_ms / 1e3)
        except asyncio.TimeoutError:
            # The batch still completes server-side; only the response is
            # given up (the batcher skips done/cancelled futures).
            self._settle(pending)
            raise ServerError(
                TIMEOUT, f"timed out after {float(timeout_ms):.0f} ms"
            ) from None
        result = self._postprocess(op, req, srcs, rows)
        self.metrics.record_latency(loop.time() - t0)
        return ok_response(req_id, result)

    def _postprocess(self, op: str, req: dict, srcs: np.ndarray, rows: np.ndarray) -> dict:
        if op == "distances":
            # protocol.encode frames the arrays as raw bytes; a boolean
            # semiring's rows go out as float64 0/1, as JSON numbers did.
            return {"sources": srcs.tolist(), "distances": rows}
        if op == "nearest_source":
            best = np.argmin(rows, axis=0)
            d = rows[best, np.arange(rows.shape[1])]
            assigned = np.where(np.isfinite(d), srcs[best], -1)
            return {"assigned": assigned, "distance": d}
        # path: one source row → shortest-path tree → explicit path
        target = req["target"]  # checked by _parse_sources
        source = int(srcs[0])
        parent = shortest_path_tree(self._graph, source, rows[0])
        path = reconstruct_path(parent, source, int(target))
        return {
            "source": source,
            "target": int(target),
            "path": path,
            "distance": float(rows[0, int(target)]),
        }

    async def _stats_result(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        # engine.stats() takes the engine lock — run off-loop so a stats
        # probe never stalls the event loop behind an in-flight batch.
        engine_stats = await loop.run_in_executor(None, self.engine.stats)
        cfg = self.server_config
        return {
            "server": self.metrics.snapshot(),
            "engine": engine_stats,
            "graph": {"n": int(self._graph.n), "m": int(self._graph.m)},
            "mode": "direct" if self.oracle.augmentation.method == "direct" else "exact",
            "separators": self.oracle.tree.separator_stats(),
            "cache": {
                "build": dict(self.oracle.cache_info),
                "row_hit_rate": self.metrics.row_cache_hit_rate,
                "row_cache": engine_stats.get("row_cache"),
            },
            "pending": self._pending,
            "admission": {
                "queue_limit": self.server_config.queue_limit,
                "pending_rows": self._pending_rows,
                "ema_row_ms": self._ema_row_s * 1e3,
                "shed_early_total": self.metrics.shed_early_total,
            },
            "uptime_s": loop.time() - self._t_start,
            "config": {
                "max_batch_rows": cfg.max_batch_rows,
                "max_wait_us": cfg.max_wait_us,
                "queue_limit": cfg.queue_limit,
                "request_timeout_ms": cfg.request_timeout_ms,
            },
        }

    # ------------------------------------------------------------ #
    # The coalescing batcher
    # ------------------------------------------------------------ #

    async def _batch_loop(self) -> None:
        """One tick per iteration: block for the first admitted request,
        hold the window open ``max_wait_us`` (or until ``max_batch_rows``,
        or until no open connection is idle), run the coalesced batch,
        answer every member.  After the shutdown sentinel, keep ticking
        without waiting until the queue is dry."""
        loop = asyncio.get_running_loop()
        cfg = self.server_config
        draining = False
        while True:
            if draining:
                if self._queue.empty():
                    return
                head = self._queue.get_nowait()
            else:
                head = await self._queue.get()
            if head is None:
                draining = True
                continue
            batch = [head]
            rows = head.rows
            self._none_idle = False
            deadline = loop.time() + cfg.max_wait_us / 1e6
            while rows < cfg.max_batch_rows:
                if draining:
                    if self._queue.empty():
                        break
                    nxt = self._queue.get_nowait()
                else:
                    nxt = await self._window_get(deadline)
                    if nxt is _CLOSE:
                        break
                if nxt is None:
                    draining = True
                    continue
                batch.append(nxt)
                rows += nxt.rows
            await self._run_batch(batch)

    async def _window_get(self, deadline: float):
        """The next queued item of a tick whose window ends at ``deadline``,
        or :data:`_CLOSE` once the window is over or every open connection
        waits for an answer (the rows queued by then still join)."""
        loop = asyncio.get_running_loop()
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return _CLOSE
            if not self._queue.empty():
                return self._queue.get_nowait()
            if self._none_idle or self._idle <= 0:
                return _CLOSE
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return _CLOSE

    async def _run_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        t_batch = loop.time()
        waits = [t_batch - p.t_enqueue for p in batch]
        srcs = np.concatenate([p.sources for p in batch])
        try:
            dist, info = await self._on_engine(self.engine.submit, srcs)
        except Exception as exc:
            _log.error(
                "server: batch of %d rows failed: %s: %s",
                int(srcs.shape[0]), type(exc).__name__, exc,
            )
            for p in batch:
                self._settle(p)
                if not p.fut.done():
                    p.fut.set_exception(
                        ServerError(INTERNAL, f"batch failed: {type(exc).__name__}: {exc}")
                    )
            self._pending -= len(batch)
            self._pending_rows -= sum(p.rows for p in batch)
            return
        off = 0
        for p in batch:
            self._settle(p)
            if not p.fut.done():
                p.fut.set_result(dist[off : off + p.rows])
            off += p.rows
        self._pending -= len(batch)
        self._pending_rows -= sum(p.rows for p in batch)
        per_row_s = info["wall_s"] / max(1, int(info["rows"]))
        self._ema_row_s = (
            per_row_s
            if self._ema_row_s == 0.0
            else 0.3 * per_row_s + 0.7 * self._ema_row_s
        )
        self.metrics.record_batch(
            len(batch), info["rows"], info["shards"], info["wall_s"], waits,
            cached_rows=info.get("cached_rows", 0),
        )
