"""The benchmark's three workloads and the measurements they share.

Every workload is a closed loop driven from one process, on the ``serial``
executor:

* ``grid-batch``: a 40×40 integer-weight directed grid decomposed by
  ``decompose_grid``; one caller submits 64 distinct sources per
  ``QueryEngine.submit`` with the row cache off, and every
  ``GRID_BATCH_REWEIGHT_EVERY``-th batch is preceded by a 1%-edge delta
  reweight.
* ``grid-served``: the same grid behind ``OracleServer`` on a unix socket
  with ``row_cache=1024``; two ``OracleClient`` connections send
  single-source ``distances`` requests with Zipf-skewed sources, and one of
  them also sends a 1%-edge delta ``reweight`` every
  ``SERVED_REWEIGHT_EVERY``-th request.
* ``expander-auto``: a degree-8 expander built with ``mode="auto"``,
  ``eps=0.1`` (the auto gate picks the hopset), 64-source batches and
  delta reweights through the hopset replay.

The graph skeleton of each workload is fixed; the seed draws the integer
weights, the query sources and the reweight deltas.  Each run times
cold set-ups (cache off) after one untimed warm-up set-up that also
populates a private augmentation cache, the query phase on one set-up's
serving stack, and rebuilds with ``cache="read"``, in the order of
:data:`PLAN`.  A seeded sample of answered rows is checked against
``kernels.dijkstra`` at the weights of the epoch that answered it.

Every time is reported at a fixed reference host speed: a burst of a
fixed reference computation (:func:`reference_op`) runs before and after
every timed segment (each plan step, each query chunk), and the segment's
raw times are multiplied by ``REF_NOMINAL_S`` over the median reference
time of the two bursts around it (see :class:`Pace`).
"""

from __future__ import annotations

import asyncio
import gc
import os
import pathlib
import resource
import statistics
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.kernels.dijkstra as dijkstra_mod
import repro.separators.grid as grid_mod
from repro import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.server import OracleClient, OracleServer, ServerConfig
from repro.server.protocol import ServerError
from repro.workloads.generators import expander_digraph, grid_digraph

#: Seed of every graph skeleton (weights come from the run's seed).
SKELETON_SEED = 0
#: Share of edges a delta reweight assigns new weights to.
DELTA_SHARE = 0.01
GRID_BATCH_REWEIGHT_EVERY = 1
SERVED_REWEIGHT_EVERY = 20
EXPANDER_REWEIGHT_EVERY = 10
#: Zipf exponent of the served workload's source popularity.
ZIPF_S = 1.1
SERVED_ROW_CACHE = 1024
EPS = 0.1


#: Order of the timed steps after the warm-up.  ``setup`` times a cold
#: set-up and tears it down, ``serve`` times one and keeps its serving
#: stack for the ``query`` steps, ``restart`` times a rebuild from the
#: cache.  Each ``query`` step is an equal slice of the query phase; the
#: slices sit between the other steps so that every metric's samples
#: span the whole run (the shared host changes speed over seconds).
#: Seven set-ups and seven restarts: with four restarts the median of
#: ``restart_s`` spread by 0.2–0.24 of itself between seeds.
PLAN = ("serve", "query") + ("restart", "query", "setup", "query") * 6 + ("restart", "query")


@dataclass(frozen=True)
class Sizes:
    grid_side: int = 40
    expander_n: int = 64
    batch: int = 64
    plan: tuple[str, ...] = PLAN
    #: answered rows checked against Dijkstra after the query phase
    checks: int = 32
    #: reference operations per host-speed burst
    burst: int = 20


FULL = Sizes()
SMOKE = Sizes(grid_side=12, expander_n=24, batch=8,
              plan=("serve", "query", "restart", "query"), checks=4, burst=2)


def _integer_weights(m: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(1, 10, size=m).astype(np.float64)


def _with_weights(g: WeightedDigraph, w: np.ndarray) -> WeightedDigraph:
    return WeightedDigraph(g.n, g.src, g.dst, w)


def _delta(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k = max(1, int(m * DELTA_SHARE))
    idx = np.sort(rng.choice(m, size=k, replace=False))
    return idx, _integer_weights(k, rng)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 ≤ q ≤ 1``)."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def tail_quantile(samples: int) -> float:
    """The quantile ``latency_p90_ms`` reports: p90 once at least 10
    samples lie beyond it, else the highest quantile that has 10 beyond it
    (floored at the median for tiny runs).  It stops at p90 rather than
    climbing to p99 with 1000 samples, because a p99 resting on ~10
    samples moved by a third between runs of the same code on a shared
    2-core host."""
    return max(0.5, min(0.9, 1.0 - 10.0 / max(1, samples)))


# ------------------------------------------------------------------ #
# Host speed: a fixed reference computation timed around every segment
# ------------------------------------------------------------------ #

#: Median time of :func:`reference_op` on the reference host (2 vCPUs of
#: an Intel Xeon, in a quiet stretch); reported times are scaled to it.
REF_NOMINAL_S = 0.002


def reference_op() -> int:
    """About 2 ms of interpreter-bound arithmetic.  It calls nothing of the
    program, so a change to the program cannot move it.  Of the candidates
    timed between 64-source grid batches on the shared host (a pure-Python
    loop, numpy gathers with segmented minima on L2- and memory-sized
    arrays, JSON encoding of a float row, heap operations), this loop
    tracked the batch time best: log-log slope 0.92 over 28 five-second
    windows in which the batch time moved by 1.5×; the numpy candidates
    had slopes of 0.64–0.71 and would over-correct."""
    s = 0
    for i in range(30000):
        s += i * i
    return s


class Pace:
    """Host speed around each timed segment.

    The host the benchmark runs on is shared and changes speed by 1.5× or
    more over minutes.  :meth:`burst` times ``n`` reference operations;
    :meth:`factor` is ``REF_NOMINAL_S`` over the median of the last two
    bursts, the one before and the one after the segment just timed.
    Multiplying that segment's times by it reports them at the reference
    speed."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.bursts: list[list[float]] = []

    def burst(self) -> None:
        ts = []
        for _ in range(self.n):
            t0 = time.perf_counter()
            reference_op()
            ts.append(time.perf_counter() - t0)
        self.bursts.append(ts)

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.bursts[-2] + self.bursts[-1])

    def all_samples(self) -> list[float]:
        return [t for b in self.bursts for t in b]


# ------------------------------------------------------------------ #
# Correctness: sampled rows, checked after the timed phase
# ------------------------------------------------------------------ #


class Checker:
    """Reservoir of answered rows with the weights epochs that may have
    answered them; :meth:`verify` recomputes each with Dijkstra.

    Exact workloads must match bit for bit (integer weights make every
    path sum exact); the hopset workload must satisfy ``d ≤ d̂ ≤ (1+ε)·d``.
    """

    def __init__(self, graph: WeightedDigraph, epoch: int, limit: int,
                 rng: np.random.Generator, eps: float | None) -> None:
        self.graph = graph
        self.weights = {epoch: graph.weight}
        self.limit = limit
        self.eps = eps
        self.rng = rng
        self.samples: list[tuple[int, np.ndarray, tuple[int, ...]]] = []
        self.seen = 0
        self._lock = threading.Lock()

    def add_epoch(self, epoch: int, base: int, idx, vals) -> None:
        """Record the weights of ``epoch``: ``base``'s with a delta."""
        w = self.weights[base].copy()
        w[idx] = vals
        with self._lock:
            self.weights[epoch] = w

    def offer(self, source: int, row: np.ndarray, epochs: tuple[int, ...]) -> None:
        with self._lock:
            self.seen += 1
            if len(self.samples) < self.limit:
                self.samples.append((int(source), np.array(row), epochs))
                return
            j = int(self.rng.integers(self.seen))
            if j < self.limit:
                self.samples[j] = (int(source), np.array(row), epochs)

    def verify(self) -> dict:
        """``{"failed", "checked", "max_rel_err", "dijkstra_rows_per_s"}``."""
        truth: dict[tuple[int, int], np.ndarray] = {}
        busy = 0.0
        failed = 0
        max_rel = 0.0
        for source, row, epochs in self.samples:
            ok = False
            for e in epochs:
                d = truth.get((e, source))
                if d is None:
                    g = _with_weights(self.graph, self.weights[e])
                    t0 = time.perf_counter()
                    d = dijkstra_mod.dijkstra(g, source)
                    busy += time.perf_counter() - t0
                    truth[(e, source)] = d
                if self.eps is None:
                    if np.array_equal(row, d):
                        ok = True
                        break
                    continue
                tol = 1e-9 * np.maximum(1.0, d)
                if (np.isfinite(row) == np.isfinite(d)).all():
                    fin = np.isfinite(d)
                    lo_ok = (row[fin] >= d[fin] - tol[fin]).all()
                    hi_ok = (row[fin] <= (1.0 + self.eps) * d[fin] + tol[fin]).all()
                    if lo_ok and hi_ok:
                        pos = fin & (d > 0)
                        if pos.any():
                            max_rel = max(max_rel, float(((row[pos] - d[pos]) / d[pos]).max()))
                        ok = True
                        break
            failed += not ok
        return {
            "failed": failed,
            "checked": len(self.samples),
            "max_rel_err": max_rel,
            "dijkstra_rows_per_s": len(truth) / busy if busy else 0.0,
        }


# ------------------------------------------------------------------ #
# Run bookkeeping
# ------------------------------------------------------------------ #


@dataclass
class QueryStats:
    """What one query phase measured, from the caller's side."""

    wall_s: float = 0.0
    rows: int = 0
    latencies_s: list = field(default_factory=list)
    reweights_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Context:
    """Run-wide knobs shared by the workloads: sizes, seed, scratch dir,
    and the tracer (``None`` on an untraced run)."""

    def __init__(self, sizes: Sizes, seed: int, tmp: str, tracer=None) -> None:
        self.sizes = sizes
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.cache_dir = os.path.join(tmp, "cache")

    def phase(self, label: str):
        return self.tracer.phase(label) if self.tracer else nullcontext()

    def request(self, rid):
        return self.tracer.request(rid) if self.tracer else nullcontext()


class Workload:
    """One workload: build inputs once, then set up, serve, restart.

    Subclasses implement :meth:`setup` (returns the serving state),
    :meth:`restart`, :meth:`query` and :meth:`close`."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checker: Checker | None = None
        #: operations issued so far in the query phase, per connection;
        #: query chunks continue the count, so the reweight cadence spans
        #: the whole phase.
        self.ops = [0, 0]

    def build_config(self, cache: str) -> OracleConfig:
        return OracleConfig(executor="serial", cache=cache, cache_dir=self.ctx.cache_dir)

    def first_sources(self) -> np.ndarray:
        return self.ctx.rng.choice(self.graph.n, size=self.ctx.sizes.batch, replace=False)


# ------------------------------------------------------------------ #
# In-process workloads: grid-batch, expander-auto
# ------------------------------------------------------------------ #


@dataclass
class EngineState:
    oracle: object
    engine: object


class BatchWorkload(Workload):
    """A caller submitting distinct-source batches straight to the engine,
    with a delta reweight before every ``reweight_every``-th batch."""

    reweight_every = 1
    #: ``None``: rows must match Dijkstra exactly; else the (1+eps) bound.
    eps: float | None = None

    def serve_config(self) -> OracleConfig:
        return OracleConfig(executor="serial", row_cache=0)

    def _build(self, cache: str):
        raise NotImplementedError

    def setup(self, cache: str = "off") -> tuple[float, EngineState]:
        srcs = self.first_sources()
        idx, vals = _delta(self.graph.m, self.ctx.rng)
        t0 = time.perf_counter()
        oracle = self._build(cache)
        engine = oracle.query_engine(self.serve_config())
        engine.submit(srcs)
        oracle = oracle.with_new_weights(weight_delta=(idx, vals))
        engine.reweight(oracle.augmentation)
        return time.perf_counter() - t0, EngineState(oracle, engine)

    def restart(self) -> float:
        srcs = self.first_sources()
        t0 = time.perf_counter()
        oracle = self._build("read")
        engine = oracle.query_engine(self.serve_config())
        engine.submit(srcs)
        t = time.perf_counter() - t0
        status = oracle.cache_info.get("status")
        engine.close()
        if status != "hit":
            raise RuntimeError(f"restart missed the cache (status {status!r})")
        return t

    def start_checker(self, state: EngineState) -> None:
        """Sampling starts at the epoch the set-up left serving."""
        epoch = int(state.engine.weights_epoch)
        self.checker = Checker(state.oracle.graph, epoch, self.ctx.sizes.checks,
                               np.random.default_rng(self.ctx.seed + 1), self.eps)

    def query(self, state: EngineState, seconds: float) -> QueryStats:
        ctx, rng, q = self.ctx, self.ctx.rng, QueryStats()
        n, m, b = self.graph.n, self.graph.m, self.ctx.sizes.batch
        t0 = time.perf_counter()
        deadline = t0 + seconds
        i = self.ops[0]
        while time.perf_counter() < deadline:
            if i and i % self.reweight_every == 0:
                idx, vals = _delta(m, rng)
                base = int(state.engine.weights_epoch)
                q.attempted += 1
                t1 = time.perf_counter()
                try:
                    oracle = state.oracle.with_new_weights(weight_delta=(idx, vals))
                    state.engine.reweight(oracle.augmentation)
                except Exception:  # noqa: BLE001 - a failed op is counted
                    traceback.print_exc()
                    q.failed += 1
                else:
                    q.reweights_s.append(time.perf_counter() - t1)
                    state.oracle = oracle
                    self.checker.add_epoch(int(state.engine.weights_epoch), base, idx, vals)
            srcs = rng.choice(n, size=b, replace=False)
            pick = int(rng.integers(b))
            q.attempted += 1
            with ctx.request(i):
                t1 = time.perf_counter()
                try:
                    dist, _ = state.engine.submit(srcs)
                except Exception:  # noqa: BLE001 - a failed op is counted
                    traceback.print_exc()
                    q.failed += 1
                    dist = None
                lat = time.perf_counter() - t1
            if dist is not None:
                q.latencies_s.append(lat)
                q.rows += b
                self.checker.offer(srcs[pick], dist[pick], (int(state.engine.weights_epoch),))
            i += 1
        q.wall_s = time.perf_counter() - t0
        self.ops[0] = i
        return q

    def close(self, state: EngineState) -> None:
        state.engine.close()
        state.oracle.close()

    def counters(self, state: EngineState) -> dict:
        return {"engine": state.engine.stats()}

    def layer_state(self, state: EngineState) -> dict:
        out = {"schedule.phases": int(state.engine.schedule.num_phases)}
        hopset = getattr(state.oracle.augmentation, "hopset", None)
        if hopset is not None:
            out["hopset.edges"] = int(hopset.size)
            out["hopset.hop_cap"] = int(hopset.hop_cap)
        return out


def _grid_graph(side: int, rng: np.random.Generator) -> WeightedDigraph:
    g = grid_digraph((side, side))
    return _with_weights(g, _integer_weights(g.m, rng))


class GridBatch(BatchWorkload):
    name = "grid-batch"
    reweight_every = GRID_BATCH_REWEIGHT_EVERY

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        side = ctx.sizes.grid_side
        self.shape = (side, side)
        self.graph = _grid_graph(side, ctx.rng)

    def _build(self, cache: str):
        tree = grid_mod.decompose_grid(self.graph, self.shape)
        return ShortestPathOracle.build(self.graph, tree, config=self.build_config(cache))


class ExpanderAuto(BatchWorkload):
    name = "expander-auto"
    reweight_every = EXPANDER_REWEIGHT_EVERY
    eps = EPS

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        skel = expander_digraph(
            ctx.sizes.expander_n, np.random.default_rng(SKELETON_SEED), degree=8
        )
        self.graph = _with_weights(skel, _integer_weights(skel.m, ctx.rng))

    def build_config(self, cache: str) -> OracleConfig:
        return OracleConfig(executor="serial", cache=cache, cache_dir=self.ctx.cache_dir,
                            mode="auto", eps=EPS)

    def _build(self, cache: str):
        return ShortestPathOracle.build(self.graph, config=self.build_config(cache))


# ------------------------------------------------------------------ #
# grid-served: OracleServer on a unix socket, two client connections
# ------------------------------------------------------------------ #


class _Loop:
    """An asyncio loop on its own thread, hosting the server."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="server-loop")
        self.thread.start()

    def call(self, coro, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        self.call(self.loop.shutdown_default_executor())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


@dataclass
class ServedState:
    server: OracleServer
    clients: list
    #: epoch of the last acknowledged reweight, and of the last one sent
    acked: int = 0
    issued: int = 0


class GridServed(Workload):
    name = "grid-served"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        side = ctx.sizes.grid_side
        self.shape = (side, side)
        self.graph = _grid_graph(side, ctx.rng)
        self.loop = _Loop()
        self._socks = 0
        self._queries = 0
        ranks = np.arange(1, self.graph.n + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** -ZIPF_S)
        self.zipf_cdf = cdf / cdf[-1]
        self.popularity = np.random.default_rng(ctx.seed + 2).permutation(self.graph.n)

    def _sock(self) -> str:
        self._socks += 1
        return os.path.join(self.ctx.tmp, f"s{self._socks}.sock")

    def _start(self, cache: str) -> OracleServer:
        tree = grid_mod.decompose_grid(self.graph, self.shape)
        oracle = ShortestPathOracle.build(self.graph, tree, config=self.build_config(cache))
        server = OracleServer(
            oracle,
            OracleConfig(executor="serial", row_cache=SERVED_ROW_CACHE),
            ServerConfig(path=self._sock()),
        )
        self.loop.call(server.start())
        return server

    def _source(self, rng: np.random.Generator) -> int:
        return int(self.popularity[np.searchsorted(self.zipf_cdf, rng.random())])

    def setup(self, cache: str = "off") -> tuple[float, ServedState]:
        src = self._source(self.ctx.rng)
        idx, vals = _delta(self.graph.m, self.ctx.rng)
        t0 = time.perf_counter()
        server = self._start(cache)
        client = OracleClient(server.address)
        client.distances([src])
        res = client.reweight(delta=(idx, vals))
        t = time.perf_counter() - t0
        epoch = int(res["weights_epoch"])
        return t, ServedState(server, [client], acked=epoch, issued=epoch)

    def restart(self) -> float:
        src = self._source(self.ctx.rng)
        t0 = time.perf_counter()
        server = self._start("read")
        with OracleClient(server.address) as client:
            client.distances([src])
            t = time.perf_counter() - t0
        status = server.oracle.cache_info.get("status")
        self.loop.call(server.stop())
        if status != "hit":
            raise RuntimeError(f"restart missed the cache (status {status!r})")
        return t

    def start_checker(self, state: ServedState) -> None:
        self.checker = Checker(state.server.oracle.graph, state.acked, self.ctx.sizes.checks,
                               np.random.default_rng(self.ctx.seed + 1), None)
        if len(state.clients) < 2:
            state.clients.append(OracleClient(state.server.address))

    def _connection(self, state: ServedState, k: int, deadline: float,
                    q: QueryStats, rng: np.random.Generator, lock: threading.Lock) -> None:
        client = state.clients[k]
        ctx, m = self.ctx, self.graph.m
        mine = QueryStats()
        i = self.ops[k]
        try:
            while time.perf_counter() < deadline:
                if k == 0 and i and i % SERVED_REWEIGHT_EVERY == 0:
                    idx, vals = _delta(m, rng)
                    base = state.acked
                    self.checker.add_epoch(base + 1, base, idx, vals)
                    state.issued = base + 1
                    mine.attempted += 1
                    t1 = time.perf_counter()
                    try:
                        res = client.reweight(delta=(idx, vals))
                        if int(res["weights_epoch"]) != base + 1:
                            raise RuntimeError(f"unexpected epoch {res['weights_epoch']}")
                    except (ServerError, OSError, RuntimeError):
                        traceback.print_exc()
                        mine.failed += 1
                    else:
                        mine.reweights_s.append(time.perf_counter() - t1)
                        state.acked = base + 1
                src = self._source(rng)
                mine.attempted += 1
                lo = state.acked
                with ctx.request((k, i)):
                    t1 = time.perf_counter()
                    try:
                        row = client.distances([src])[0]
                    except (ServerError, OSError):
                        traceback.print_exc()
                        mine.failed += 1
                        row = None
                    dt = time.perf_counter() - t1
                if row is not None:
                    mine.latencies_s.append(dt)
                    mine.rows += 1
                    self.checker.offer(src, row, tuple(range(lo, state.issued + 1)))
                i += 1
        finally:
            self.ops[k] = i
            with lock:
                q.latencies_s.extend(mine.latencies_s)
                q.reweights_s.extend(mine.reweights_s)
                q.rows += mine.rows
                q.attempted += mine.attempted
                q.failed += mine.failed

    def query(self, state: ServedState, seconds: float) -> QueryStats:
        q = QueryStats()
        lock = threading.Lock()
        self._queries += 1
        rngs = [np.random.default_rng([self.ctx.seed, self._queries, k])
                for k in range(len(state.clients))]
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [
            threading.Thread(
                target=self._connection,
                args=(state, k, deadline, q, rngs[k], lock),
                name=f"client-{k}",
            )
            for k in range(len(state.clients))
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        q.wall_s = time.perf_counter() - t0
        return q

    def close(self, state: ServedState) -> None:
        for c in state.clients:
            c.close()
        self.loop.call(state.server.stop())

    def shutdown(self) -> None:
        self.loop.close()

    def counters(self, state: ServedState) -> dict:
        return state.clients[0].stats()

    def layer_state(self, state: ServedState) -> dict:
        return {"schedule.phases": int(state.server.engine.schedule.num_phases)}


WORKLOADS = {w.name: w for w in (GridBatch, GridServed, ExpanderAuto)}


# ------------------------------------------------------------------ #
# One run
# ------------------------------------------------------------------ #


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _add(into: QueryStats, chunk: QueryStats, f: float) -> None:
    """Add ``chunk`` to ``into`` with its times scaled by ``f``."""
    into.wall_s += chunk.wall_s * f
    into.rows += chunk.rows
    into.latencies_s.extend(x * f for x in chunk.latencies_s)
    into.reweights_s.extend(x * f for x in chunk.reweights_s)
    into.attempted += chunk.attempted
    into.failed += chunk.failed


def _rows_epoch_dropped(counters: dict) -> int:
    return int(counters["engine"]["row_cache"]["rows_epoch_dropped"])


def _e2e(setups, restarts, q: QueryStats, rss_mb: float, tail: float) -> dict:
    return {
        "setup_s": (_median(setups), "s", len(setups)),
        "restart_s": (_median(restarts), "s", len(restarts)),
        "rows_per_s": (q.rows / q.wall_s if q.wall_s else 0.0, "1/s", q.rows),
        "latency_p50_ms": (percentile(q.latencies_s, 0.5) * 1e3, "ms", len(q.latencies_s)),
        "latency_p90_ms": (percentile(q.latencies_s, tail) * 1e3, "ms", len(q.latencies_s)),
        "reweight_ms": (_median(q.reweights_s) * 1e3, "ms", len(q.reweights_s)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def run(name: str, ctx: Context, seconds: float) -> dict:
    """Run workload ``name`` once, following ``ctx.sizes.plan``; returns the
    end-to-end numbers (at the reference host speed, and as timed), the
    per-layer numbers (traced runs) and their sample counts.

    The ``serve`` step's stack stays up for the rest of the plan, and the
    query phase is cut into the plan's ``query`` steps, interleaved with
    the other set-ups and restarts, so that every metric samples the whole
    run rather than one stretch of the host's speed.  On a traced run the
    query steps alternate untraced and traced; the traced ones give the
    per-layer numbers, and their per-operation wall over the untraced
    ones' is the tracing overhead."""
    w = WORKLOADS[name](ctx)
    tr = ctx.tracer
    plan = ctx.sizes.plan
    slice_s = seconds / plan.count("query")
    pace = Pace(ctx.sizes.burst)
    setups: list[float] = []
    restarts: list[float] = []
    raw_setups: list[float] = []
    raw_restarts: list[float] = []
    q, qu, q_raw = QueryStats(), QueryStats(), QueryStats()
    dropped = 0
    slices = 0
    serving = None
    try:
        gc.collect()
        with ctx.phase("warmup"):
            _, state = w.setup(cache="readwrite")
        w.close(state)
        pace.burst()
        for step in plan:
            gc.collect()
            if step == "restart":
                with ctx.phase(f"restart.{len(restarts)}"):
                    t = w.restart()
                pace.burst()
                raw_restarts.append(t)
                restarts.append(t * pace.factor())
            elif step in ("setup", "serve"):
                with ctx.phase(f"setup.{len(setups)}"):
                    t, state = w.setup()
                pace.burst()
                raw_setups.append(t)
                setups.append(t * pace.factor())
                if step == "serve":
                    serving = state
                    w.start_checker(serving)
                else:
                    w.close(state)
            elif step == "query":
                traced = tr is not None and slices % 2 == 1
                slices += 1
                if tr is None:
                    chunk = w.query(serving, slice_s)
                elif traced:
                    before = w.counters(serving)
                    with ctx.phase("query"):
                        chunk = w.query(serving, slice_s)
                    dropped += _rows_epoch_dropped(w.counters(serving)) \
                        - _rows_epoch_dropped(before)
                else:
                    tr.uninstall()
                    chunk = w.query(serving, slice_s)
                    tr.install()
                pace.burst()
                _add(qu if tr is not None and not traced else q, chunk, pace.factor())
                _add(q_raw, chunk, 1.0)
        layer = w.layer_state(serving)
        entries = pathlib.Path(ctx.cache_dir).glob("*.npz")
        layer["cache.entry_mb"] = sum(p.stat().st_size for p in entries) / 2**20
        w.close(serving)
        serving = None
        with ctx.phase("verify"):
            check = w.checker.verify()
    finally:
        if serving is not None:
            w.close(serving)
        if isinstance(w, GridServed):
            w.shutdown()
    tail = tail_quantile(len(q.latencies_s))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = pace.all_samples()
    out = {
        "e2e": _e2e(setups, restarts, q, rss_mb, tail),
        "e2e_as_timed": _e2e(raw_setups, raw_restarts, q_raw, rss_mb, tail),
        "attempted": q.attempted + qu.attempted + len(setups) + len(restarts) + check["checked"],
        "failed": q.failed + qu.failed + check["failed"],
        "check": check,
        "tail_quantile": tail,
        "reference_op_ms": {"median": _median(ref) * 1e3, "min": min(ref) * 1e3,
                            "max": max(ref) * 1e3, "samples": len(ref)},
    }
    if tr is not None:
        overhead = (q.wall_s / max(1, q.attempted)) / (qu.wall_s / max(1, qu.attempted))
        reweights = len(tr.select("reweight.flip", "query"))
        out["layers"] = per_layer(tr, layer, check, dropped / reweights if reweights else 0.0,
                                  overhead)
    return out


# ------------------------------------------------------------------ #
# Per-layer numbers from a traced run
# ------------------------------------------------------------------ #


def _durations_ms(tr, name: str, phase: str) -> list[float]:
    return [(s[4] - s[3]) / 1e6 for s in tr.select(name, phase)]


def _attr(key):
    return lambda s: float((s[8] or {}).get(key, 0))


def per_layer(tr, layer: dict, check: dict, dropped_per_reweight: float,
              overhead: float) -> dict:
    """Every per-layer metric, ``name -> (value, unit)``.  Query-phase
    numbers come from the traced query chunks only; counts that grow with
    the work done are divided by it (per engine submit, per reweight), so
    a faster layer doing the same work per operation reads the same."""
    med = _median

    def setup_median(name, value=None):
        return med(tr.per_instance(name, "setup", value))

    out: dict[str, tuple] = {}
    out["separators.decompose_s"] = (setup_median("separators.decompose"), "s")
    chosen = "quality.best_first_pass" if tr.select("quality.best_first_pass", "setup") \
        else "separators.decompose"
    out["separators.sep_vertices"] = (setup_median(chosen, _attr("sep_vertices")), "count")
    out["quality.best_first_pass_s"] = (setup_median("quality.best_first_pass"), "s")
    out["augment.build_s"] = (setup_median("augment.build"), "s")
    out["augment.eplus_edges"] = (setup_median("augment.build", _attr("eplus_edges")), "count")
    out["kernels.matmul_calls"] = (setup_median("kernels.matmul", lambda s: 1.0), "count")
    out["kernels.matmul_s"] = (setup_median("kernels.matmul"), "s")
    submits = tr.select("engine.submit", "query")
    per_submit = 1.0 / len(submits) if submits else 0.0
    relax = tr.within("kernels.relax", "engine.submit", "query")
    out["kernels.relax_calls"] = (len(relax) * per_submit, "count/submit")
    out["kernels.relax_s"] = (sum((s[4] - s[3]) / 1e9 for s in relax) * per_submit, "s/submit")
    out["schedule.compile_s"] = (setup_median("schedule.compile"), "s")
    out["schedule.phases"] = (layer.get("schedule.phases", 0), "count")

    rows = sum((s[8] or {}).get("rows", 0) for s in submits)
    cached = sum((s[8] or {}).get("cached_rows", 0) for s in submits)
    out["engine.submit_p50_ms"] = (
        percentile(_durations_ms(tr, "engine.submit", "query"), 0.5) if submits else 0.0, "ms")
    out["engine.rows_per_submit"] = (rows / len(submits) if submits else 0.0, "count")
    out["engine.row_hit_rate"] = (cached / rows if rows else 0.0, "ratio")
    out["engine.rows_epoch_dropped"] = (dropped_per_reweight, "count/reweight")

    out["reweight.replay_ms"] = (med(_durations_ms(tr, "reweight.replay", "query")), "ms")
    out["reweight.flip_ms"] = (med(_durations_ms(tr, "reweight.flip", "query")), "ms")
    out["reweight.plan_capture_s"] = (setup_median("reweight.plan_capture"), "s")

    stores = tr.select("cache.store", "warmup")
    out["cache.store_s"] = (sum((s[4] - s[3]) / 1e9 for s in stores), "s")
    out["cache.entry_mb"] = (layer.get("cache.entry_mb", 0.0), "MB")
    out["cache.load_s"] = (med(tr.per_instance("cache.load", "restart")), "s")

    batches = [s[8] for s in tr.select("server.batch", "query")]
    if batches:
        waits = [w * 1e3 for b in batches for w in b["waits"]]
        batch_wall = percentile([b["wall_s"] * 1e3 for b in batches], 0.5)
        client = _durations_ms(tr, "client.distances", "query")
        encodes = tr.select("server.encode", "query")
        out["server.queue_wait_p50_ms"] = (percentile(waits, 0.5), "ms")
        out["server.batch_wall_p50_ms"] = (batch_wall, "ms")
        out["server.coalesce_factor"] = (
            sum(b["requests"] for b in batches) / len(batches), "ratio")
        out["server.reply_bytes"] = (
            med([(s[8] or {}).get("bytes", 0) for s in encodes]), "bytes")
        out["server.overhead_p50_ms"] = (
            (percentile(client, 0.5) if client else 0.0) - batch_wall, "ms")
    else:
        for k, unit in (("queue_wait_p50_ms", "ms"), ("batch_wall_p50_ms", "ms"),
                        ("coalesce_factor", "ratio"), ("reply_bytes", "bytes"),
                        ("overhead_p50_ms", "ms")):
            out[f"server.{k}"] = (0.0, unit)

    out["hopset.build_s"] = (setup_median("hopset.build"), "s")
    out["hopset.edges"] = (layer.get("hopset.edges", 0), "count")
    out["hopset.hop_cap"] = (layer.get("hopset.hop_cap", 0), "count")
    out["hopset.max_rel_err"] = (check["max_rel_err"], "ratio")
    out["baseline.dijkstra_rows_per_s"] = (check["dijkstra_rows_per_s"], "1/s")
    out["trace.coverage"] = (tr.coverage(), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
