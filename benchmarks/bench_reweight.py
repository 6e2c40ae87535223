"""E-reweight — replayed reweighting vs full rebuild, and the served flip.

Three experiments on the 56×56 grid workload (the E-par/E-serve graph),
all appended to ``benchmarks/results/BENCH_reweight.json``:

* **dense reweight vs full rebuild** — replacing the entire weight vector
  through ``with_new_weights`` must beat a full rebuild,
  ``ShortestPathOracle.build(new_graph, tree, config=...)`` (re-running the
  §4 construction on the frozen decomposition), by at least
  ``DENSE_SPEEDUP``×, stay within ``ABS_SLACK`` of ``PARENT_DENSE_S``,
  finish sub-second, and produce distances bit-identical to a cold build
  on the reweighted graph.
* **sparse delta** — a 1%-of-edges ``weight_delta`` restricts the replay to
  the root paths of the dirty leaves and must beat the full rebuild by at
  least ``SPARSE_SPEEDUP``× and stay within ``ABS_SLACK`` of
  ``PARENT_SPARSE_S``, again bit-identically.

The rebuild is the same stacked sweep as the reweight plus a plan capture
(the cold Algorithm 4.1 build *is* the sweep), so the ratio bars measure
what capture and schedule compile add, and the absolute bars keep the
reweight itself from slowing down.  Both sides of a ratio bar run in the
same rotating rounds; a ratio bar reads the median per-round ratio, an
absolute bar the median wall.
* **served flip p99** — a ``QueryEngine`` under continuous single-source
  load absorbs mid-stream ``reweight`` flips with zero failed queries; the
  p99 query latency across the flips is recorded (the flip itself happens
  under the engine lock, so a query never observes a half-swapped
  generation).
* **replay under query load** (record-only, 40×40 grid) — the same 1%-edge
  delta replay timed alone, while one thread submits 2-row batches in the
  same process, and as a ``reweight`` RPC through an ``OracleServer``
  while one client connection streams 1-row ``distances`` requests.  The
  second row is the interpreter-lock cost of a replay beside a batch
  thread; the third is what a served reweight pays, now that the server
  runs it between two batches on its one engine thread.
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

SIDE = 56

#: Acceptance bar: dense replayed reweight vs the full-rebuild path.
DENSE_SPEEDUP = 3.0

#: Acceptance bar: sparse 1%-edge delta vs the full-rebuild path.
SPARSE_SPEEDUP = 10.0

#: Dense / sparse reweight wall (s) of the per-node builder's lineage on
#: this workload (2-vCPU Xeon VM, numpy 2.4, no numba); a reweight may be
#: at most ``ABS_SLACK`` slower than that.
PARENT_DENSE_S = 0.095
PARENT_SPARSE_S = 0.027
ABS_SLACK = 1.25

DIRTY_FRACTION = 0.01   # sparse experiment: 1% of the edges move
FLIPS = 3               # served experiment: mid-stream reweights
LOAD_QUERIES = 150      # served experiment: single-source queries under load
ROUNDS = 10             # rotating rounds per side of a ratio bar
LOAD_SIDE = 40          # replay-under-load experiment: perfbench's grid
LOAD_REPLAYS = 9        # replay-under-load experiment: replays per side
SERVED_GAP_S = 0.01     # replay-under-load experiment: pause between served reweights


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    g = grid_digraph((SIDE, SIDE), rng)
    tree = decompose_grid(g, (SIDE, SIDE))
    return g, tree


@pytest.fixture(scope="module")
def base_oracle(workload):
    g, tree = workload
    oracle = ShortestPathOracle.build(g, tree)
    yield oracle
    oracle.close()


def _rebuild(oracle, weight):
    """A cold build of ``oracle``'s lineage at new weights on its tree."""
    g = oracle.graph
    new_graph = type(g)(g.n, g.src, g.dst, weight)
    return ShortestPathOracle.build(new_graph, oracle.tree, config=oracle.config)


def test_reweight_dense_vs_rebuild(timed, workload, base_oracle, report, record_json):
    """Dense weight refresh beats the full-rebuild path ≥3×, is no slower
    than the recorded dense wall by more than 25%, sub-second,
    bit-identical to a cold build on the reweighted graph."""
    g, tree = workload
    w2 = np.random.default_rng(11).permutation(g.weight)
    res = timed({
        "rebuild": lambda: _rebuild(base_oracle, w2),
        "dense": lambda: base_oracle.with_new_weights(w2),
    }, ROUNDS)
    rebuilt, dense = res.outputs["rebuild"], res.outputs["dense"]
    srcs = np.random.default_rng(7).integers(0, g.n, size=8)
    cold = ShortestPathOracle.build(
        type(g)(g.n, g.src, g.dst, w2), tree
    )
    want = cold.distances(srcs)
    assert np.array_equal(want, dense.distances(srcs))
    assert np.array_equal(want, rebuilt.distances(srcs))
    rebuild_s, dense_s = res.median("rebuild"), res.median("dense")
    speedup = res.ratio_quartiles("rebuild", "dense")
    rows = [
        ["full rebuild ms", res.span(res.quartiles("rebuild", 1e3), 1)],
        ["dense reweight ms", res.span(res.quartiles("dense", 1e3), 1)],
        ["speedup (per-round ratio)", res.span(speedup, 1)],
        ["weights epoch", dense.augmentation.weights_epoch],
        ["bit-identical distances", True],
    ]
    report(
        "E-reweight-dense",
        render_table(["metric", "median [quartiles]"], rows,
                     title=f"E-reweight: dense refresh vs rebuild, {SIDE}x{SIDE} grid, "
                           f"{ROUNDS} rotating rounds")
        + "\n\nFinding: with structure, schedule and shard plan all "
        "weight-invariant (paper comment (iv)), refreshing every weight is "
        "a leaves-up numeric sweep — no separator recursion, no recompile.",
    )
    record_json("BENCH_reweight.json", "dense_56x56", {
        "workload": f"dense reweight, {SIDE}x{SIDE} grid, leaves_up",
        "rebuild_s": rebuild_s,
        "dense_s": dense_s,
        "speedup": speedup[1],
        "speedup_quartiles": speedup,
        "timings_s": res.record(),
        "sub_second": dense_s < 1.0,
        "bit_identical": True,
    })
    assert dense_s < 1.0, f"dense reweight took {dense_s:.3f}s (bar: sub-second)"
    assert speedup[1] >= DENSE_SPEEDUP, (
        f"dense reweight only {speedup[1]:.1f}x faster than rebuild "
        f"(rebuild {rebuild_s:.3f}s, dense {dense_s:.4f}s; bar {DENSE_SPEEDUP}x)"
    )
    assert dense_s <= PARENT_DENSE_S * ABS_SLACK, (
        f"dense reweight {dense_s:.4f}s exceeds {ABS_SLACK}x the recorded "
        f"{PARENT_DENSE_S}s"
    )


def test_reweight_sparse_delta_vs_rebuild(timed, workload, base_oracle, report, record_json):
    """A 1%-edge delta sweeps only the dirty root paths: ≥10× faster than
    the full rebuild, no slower than the recorded sparse wall by more than
    25%, bit-identical to a cold build."""
    g, tree = workload
    k = max(1, int(g.m * DIRTY_FRACTION))
    # A *localized* 1% delta — edges inside one corner neighborhood (the
    # routing case: an incident reweights one area).  Uniformly scattered
    # dirty edges would touch nearly every leaf and degrade to dense.
    rows, cols = g.src // SIDE, g.src % SIDE
    block = np.nonzero((rows < 10) & (cols < 10))[0]
    idx = block[:k]
    assert idx.shape[0] == k, (idx.shape, k)
    vals = g.weight[idx] * 1.5 + 0.25
    full = _full_vector(g, idx, vals)
    # Every Algorithm 4.1 lineage carries a live heap state (the cold build
    # included), so every delta takes the sparse root-path sweep.
    warm = base_oracle.with_new_weights(g.weight.copy())
    res = timed({
        "rebuild": lambda: _rebuild(warm, full),
        "sparse": lambda: warm.with_new_weights(weight_delta=(idx, vals)),
    }, ROUNDS)
    srcs = np.random.default_rng(7).integers(0, g.n, size=8)
    cold = ShortestPathOracle.build(type(g)(g.n, g.src, g.dst, full), tree)
    assert np.array_equal(cold.distances(srcs), res.outputs["sparse"].distances(srcs))
    rebuild_s, sparse_s = res.median("rebuild"), res.median("sparse")
    speedup = res.ratio_quartiles("rebuild", "sparse")
    rows = [
        ["dirty edges (one 10x10 corner)", f"{k} / {g.m}"],
        ["full rebuild ms", res.span(res.quartiles("rebuild", 1e3), 1)],
        ["sparse delta ms", res.span(res.quartiles("sparse", 1e3), 1)],
        ["speedup (per-round ratio)", res.span(speedup, 1)],
        ["bit-identical distances", True],
    ]
    report(
        "E-reweight-sparse",
        render_table(["metric", "median [quartiles]"], rows,
                     title=f"E-reweight: 1% sparse delta vs rebuild, {SIDE}x{SIDE} grid, "
                           f"{ROUNDS} rotating rounds"),
    )
    record_json("BENCH_reweight.json", "sparse_56x56", {
        "workload": f"{k}-edge delta ({DIRTY_FRACTION:.0%}), {SIDE}x{SIDE} grid",
        "dirty_edges": int(k),
        "rebuild_s": rebuild_s,
        "sparse_s": sparse_s,
        "speedup": speedup[1],
        "speedup_quartiles": speedup,
        "timings_s": res.record(),
        "bit_identical": True,
    })
    assert speedup[1] >= SPARSE_SPEEDUP, (
        f"sparse delta only {speedup[1]:.1f}x faster than rebuild "
        f"(rebuild {rebuild_s:.3f}s, sparse {sparse_s:.4f}s; bar {SPARSE_SPEEDUP}x)"
    )
    assert sparse_s <= PARENT_SPARSE_S * ABS_SLACK, (
        f"sparse delta {sparse_s:.4f}s exceeds {ABS_SLACK}x the recorded "
        f"{PARENT_SPARSE_S}s"
    )


def _full_vector(g, idx, vals):
    w = g.weight.copy()
    w[idx] = vals
    return w


def test_reweight_served_flip_p99(workload, base_oracle, report, record_json):
    """A live engine under single-source load absorbs mid-stream epoch flips
    with zero failed queries; the p99 across flips is recorded."""
    g, tree = workload
    rng = np.random.default_rng(5)
    weights = [rng.permutation(g.weight) for _ in range(FLIPS)]
    latencies: list[float] = []
    errors: list[str] = []
    stop = threading.Event()

    with base_oracle.query_engine(OracleConfig(executor="shm:2", row_cache=32)) as eng:

        def load() -> None:
            i = 0
            while not stop.is_set():
                t0 = time.perf_counter()
                try:
                    eng.query(int(i % g.n))
                except Exception as exc:  # noqa: BLE001 — a failed query fails the bench
                    errors.append(repr(exc))
                    return
                latencies.append(time.perf_counter() - t0)
                i += 37

        t = threading.Thread(target=load)
        t.start()
        flip_walls = []
        next_oracle = base_oracle
        try:
            for w in weights:
                time.sleep(0.05)
                t0 = time.perf_counter()
                next_oracle = next_oracle.with_new_weights(w)
                eng.reweight(next_oracle.augmentation)
                flip_walls.append(time.perf_counter() - t0)
            while len(latencies) < LOAD_QUERIES and t.is_alive():
                time.sleep(0.01)
        finally:
            stop.set()
            t.join()
        stats = eng.stats()
    assert not errors, errors
    assert stats["weights_epoch"] == FLIPS, stats
    assert stats["reweights"] == FLIPS, stats
    # Post-flip correctness: the engine now serves the last weight vector.
    cold = ShortestPathOracle.build(
        type(g)(g.n, g.src, g.dst, weights[-1]), tree
    )
    assert np.array_equal(cold.distances(3), next_oracle.distances(3))
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))
    rows = [
        ["queries served under load", len(latencies)],
        ["epoch flips", FLIPS],
        ["flip wall s (max)", round(max(flip_walls), 3)],
        ["query p50 ms", round(p50 * 1e3, 3)],
        ["query p99 ms", round(p99 * 1e3, 3)],
        ["failed queries", 0],
    ]
    report(
        "E-reweight-served-flip",
        render_table(["metric", "value"], rows,
                     title=f"E-reweight: served flip under load, {SIDE}x{SIDE} grid")
        + "\n\nFinding: the flip publishes a fully-compiled generation under "
        "the engine lock — load sees a latency blip bounded by one batch, "
        "never an error or a mixed-epoch row.",
    )
    record_json("BENCH_reweight.json", "served_flip_56x56", {
        "workload": f"single-source load + {FLIPS} flips, {SIDE}x{SIDE} grid, shm:2",
        "queries": len(latencies),
        "flips": FLIPS,
        "flip_wall_max_s": max(flip_walls),
        "p50_s": p50,
        "p99_s": p99,
        "failed_queries": 0,
        "bit_identical_post_flip": True,
    })
    assert len(latencies) >= LOAD_QUERIES // 2, len(latencies)


def _served_reweights(oracle, deltas, sock: str) -> tuple[list[float], int]:
    """Reweight RPC walls through an :class:`OracleServer` over ``oracle``
    (serial engine, row cache off) while a second connection streams 1-row
    ``distances`` requests; returns the walls and the rows streamed."""
    server = OracleServer(
        oracle, OracleConfig(executor="serial", row_cache=0), ServerConfig(path=sock)
    )
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    loop_thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(60)
    stop = threading.Event()
    streamed = [0]

    def stream() -> None:
        with OracleClient(sock) as c:
            i = 0
            while not stop.is_set():
                c.distances([i % oracle.graph.n])
                streamed[0] += 1
                i += 37

    t = threading.Thread(target=stream)
    walls = []
    try:
        with OracleClient(sock) as c:
            c.reweight(delta=deltas[0])  # warm-up, untimed
            t.start()
            time.sleep(0.2)  # the stream is busy before the first reweight
            rows_before = streamed[0]
            for delta in deltas:
                t0 = time.perf_counter()
                c.reweight(delta=delta)
                walls.append(time.perf_counter() - t0)
                time.sleep(SERVED_GAP_S)  # the stream runs between reweights
            rows = streamed[0] - rows_before
    finally:
        stop.set()
        if t.is_alive():
            t.join(timeout=60)
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        loop_thread.join(timeout=30)
        loop.close()
    assert not t.is_alive() and not loop_thread.is_alive()
    return walls, rows


def test_replay_under_query_load(report, record_json, tmp_path):
    """Record-only: a 1%-edge delta replay on the 40×40 grid, alone, with
    one thread submitting 2-row batches to a serial engine in the same
    process, and as a reweight RPC through the server beside a 1-row
    request stream (no bar)."""
    rng = np.random.default_rng(0)
    g = grid_digraph((LOAD_SIDE, LOAD_SIDE))
    g = type(g)(g.n, g.src, g.dst, rng.integers(1, 10, size=g.m).astype(np.float64))
    oracle = ShortestPathOracle.build(g, decompose_grid(g, (LOAD_SIDE, LOAD_SIDE)))
    k = max(1, int(g.m * DIRTY_FRACTION))
    deltas = [(np.sort(rng.choice(g.m, size=k, replace=False)),
               rng.integers(1, 10, size=k).astype(np.float64))
              for _ in range(LOAD_REPLAYS)]
    oracle.with_new_weights(weight_delta=deltas[0]).close()  # warm-up

    def replays() -> list[float]:
        walls = []
        for delta in deltas:
            t0 = time.perf_counter()
            new = oracle.with_new_weights(weight_delta=delta)
            walls.append(time.perf_counter() - t0)
            new.close()
        return walls

    alone = replays()
    stop = threading.Event()
    batches = [0]
    with oracle.query_engine(OracleConfig(executor="serial", row_cache=0)) as eng:

        def load() -> None:
            i = 0
            while not stop.is_set():
                eng.query([i % g.n, (i + 811) % g.n])
                batches[0] += 1
                i += 37

        t = threading.Thread(target=load)
        t.start()
        try:
            time.sleep(0.2)  # the batch thread is busy before the first replay
            loaded = replays()
        finally:
            stop.set()
            t.join(timeout=60)
        assert not t.is_alive()
    # Last: the server's first reweight closes the oracle it was given.
    served, streamed = _served_reweights(oracle, deltas, str(tmp_path / "replay.sock"))
    oracle.close()
    alone_ms = float(np.median(alone)) * 1e3
    under_ms = float(np.median(loaded)) * 1e3
    served_ms = float(np.median(served)) * 1e3
    rows = [
        ["replays per side", LOAD_REPLAYS],
        ["replay alone ms (median)", round(alone_ms, 1)],
        ["replay under 2-row batch load ms (median)", round(under_ms, 1)],
        ["ratio", round(under_ms / alone_ms, 2)],
        ["batches served during the loaded replays", batches[0]],
        ["served reweight RPC ms beside a 1-row stream (median)", round(served_ms, 1)],
        ["served ratio", round(served_ms / alone_ms, 2)],
        [f"rows streamed over the served reweights ({SERVED_GAP_S * 1e3:.0f} ms apart)",
         streamed],
    ]
    report(
        "E-served-replay",
        render_table(["metric", "value"], rows,
                     title=f"E-served-replay: 1% delta replay, {LOAD_SIDE}x{LOAD_SIDE} "
                           "grid, alone, beside a batch thread, and served")
        + "\n\nFinding: the replay is numpy calls issued from Python; beside a "
        "thread that keeps relaxing small batches, each call waits for the "
        "interpreter lock, so the replay's wall stretches with no extra work. "
        "The server runs a reweight on its one engine thread between two "
        "batches, so the served RPC pays the replay, at most one batch it "
        "queues behind, and the socket round trip, not the lock waits.",
    )
    record_json("BENCH_reweight.json", "replay_under_load", {
        "workload": f"{k}-edge delta ({DIRTY_FRACTION:.0%}), {LOAD_SIDE}x{LOAD_SIDE} "
                    "grid, serial engine, 2-row batches in one thread",
        "alone_ms": alone_ms,
        "under_load_ms": under_ms,
        "ratio": under_ms / alone_ms,
        "batches": batches[0],
        "served_ms": served_ms,
        "served_ratio": served_ms / alone_ms,
        "served_rows_streamed": streamed,
    })
