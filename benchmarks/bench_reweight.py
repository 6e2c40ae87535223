"""E-reweight — incremental reweighting vs full rebuild, and the served flip.

Three experiments on the 56×56 grid workload (the E-par/E-serve graph),
all appended to ``benchmarks/results/BENCH_reweight.json``:

* **dense reweight vs full rebuild** — replacing the entire weight vector
  through ``with_new_weights`` must beat the ``reweight="rebuild"`` path
  (re-running the §4 construction on the frozen decomposition) by at least
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
reweight itself from slowing down.
* **served flip p99** — a ``QueryEngine`` under continuous single-source
  load absorbs mid-stream ``reweight`` flips with zero failed queries; the
  p99 query latency across the flips is recorded (the flip itself happens
  under the engine lock, so a query never observes a half-swapped
  generation).
"""

from __future__ import annotations

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
from repro.workloads.generators import grid_digraph

SIDE = 56

#: Acceptance bar: dense incremental reweight vs the full-rebuild path.
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


def _record_json(results_dir, key: str, record: dict) -> None:
    """Merge one experiment record into ``BENCH_reweight.json`` (atomic
    temp+rename — a crashed run must not truncate accumulated results)."""
    path = results_dir / "BENCH_reweight.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best_s, best_out = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        if wall < best_s:
            best_s, best_out = wall, out
    return best_s, best_out


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


def test_reweight_dense_vs_rebuild(benchmark, workload, base_oracle, report, results_dir):
    """Dense weight refresh beats the full-rebuild path ≥3×, is no slower
    than the recorded dense wall by more than 25%, sub-second,
    bit-identical to a cold build on the reweighted graph."""
    g, tree = workload
    w2 = np.random.default_rng(11).permutation(g.weight)
    rebuild_s, rebuilt = _best_of(
        lambda: base_oracle.with_new_weights(w2, reweight="rebuild"), 2
    )
    base_oracle.with_new_weights(w2)  # warm-up
    dense_s, dense = _best_of(lambda: base_oracle.with_new_weights(w2), 5)
    srcs = np.random.default_rng(7).integers(0, g.n, size=8)
    cold = ShortestPathOracle.build(
        type(g)(g.n, g.src, g.dst, w2), tree
    )
    want = cold.distances(srcs)
    assert np.array_equal(want, dense.distances(srcs))
    assert np.array_equal(want, rebuilt.distances(srcs))
    speedup = rebuild_s / dense_s
    rows = [
        ["full rebuild s (best of 2)", round(rebuild_s, 3)],
        ["dense reweight s (best of 5)", round(dense_s, 4)],
        ["speedup", round(speedup, 1)],
        ["weights epoch", dense.augmentation.weights_epoch],
        ["bit-identical distances", True],
    ]
    report(
        "E-reweight-dense",
        render_table(["metric", "value"], rows,
                     title=f"E-reweight: dense refresh vs rebuild, {SIDE}x{SIDE} grid")
        + "\n\nFinding: with structure, schedule and shard plan all "
        "weight-invariant (paper comment (iv)), refreshing every weight is "
        "a leaves-up numeric sweep — no separator recursion, no recompile.",
    )
    _record_json(
        results_dir,
        "dense_56x56",
        {
            "workload": f"dense reweight, {SIDE}x{SIDE} grid, leaves_up",
            "rebuild_s": rebuild_s,
            "dense_s": dense_s,
            "speedup": speedup,
            "sub_second": dense_s < 1.0,
            "bit_identical": True,
        },
    )
    assert dense_s < 1.0, f"dense reweight took {dense_s:.3f}s (bar: sub-second)"
    assert speedup >= DENSE_SPEEDUP, (
        f"dense reweight only {speedup:.1f}x faster than rebuild "
        f"(rebuild {rebuild_s:.3f}s, dense {dense_s:.4f}s; bar {DENSE_SPEEDUP}x)"
    )
    assert dense_s <= PARENT_DENSE_S * ABS_SLACK, (
        f"dense reweight {dense_s:.4f}s exceeds {ABS_SLACK}x the recorded "
        f"{PARENT_DENSE_S}s"
    )
    benchmark(lambda: base_oracle.with_new_weights(w2))


def test_reweight_sparse_delta_vs_rebuild(benchmark, workload, base_oracle, report, results_dir):
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
    # Every Algorithm 4.1 lineage carries a live heap state (the cold build
    # included), so every delta takes the sparse root-path sweep.
    warm = base_oracle.with_new_weights(g.weight.copy())
    rebuild_s, _ = _best_of(
        lambda: warm.with_new_weights(
            _full_vector(g, idx, vals), reweight="rebuild"
        ),
        2,
    )
    warm.with_new_weights(weight_delta=(idx, vals))  # warm-up
    sparse_s, sparse = _best_of(
        lambda: warm.with_new_weights(weight_delta=(idx, vals)), 5
    )
    srcs = np.random.default_rng(7).integers(0, g.n, size=8)
    cold = ShortestPathOracle.build(
        type(g)(g.n, g.src, g.dst, _full_vector(g, idx, vals)), tree
    )
    assert np.array_equal(cold.distances(srcs), sparse.distances(srcs))
    speedup = rebuild_s / sparse_s
    rows = [
        ["dirty edges (one 10x10 corner)", f"{k} / {g.m}"],
        ["full rebuild s (best of 2)", round(rebuild_s, 3)],
        ["sparse delta s (best of 5)", round(sparse_s, 4)],
        ["speedup", round(speedup, 1)],
        ["bit-identical distances", True],
    ]
    report(
        "E-reweight-sparse",
        render_table(["metric", "value"], rows,
                     title=f"E-reweight: 1% sparse delta vs rebuild, {SIDE}x{SIDE} grid"),
    )
    _record_json(
        results_dir,
        "sparse_56x56",
        {
            "workload": f"{k}-edge delta ({DIRTY_FRACTION:.0%}), {SIDE}x{SIDE} grid",
            "dirty_edges": int(k),
            "rebuild_s": rebuild_s,
            "sparse_s": sparse_s,
            "speedup": speedup,
            "bit_identical": True,
        },
    )
    assert speedup >= SPARSE_SPEEDUP, (
        f"sparse delta only {speedup:.1f}x faster than rebuild "
        f"(rebuild {rebuild_s:.3f}s, sparse {sparse_s:.4f}s; bar {SPARSE_SPEEDUP}x)"
    )
    assert sparse_s <= PARENT_SPARSE_S * ABS_SLACK, (
        f"sparse delta {sparse_s:.4f}s exceeds {ABS_SLACK}x the recorded "
        f"{PARENT_SPARSE_S}s"
    )
    benchmark(lambda: warm.with_new_weights(weight_delta=(idx, vals)))


def _full_vector(g, idx, vals):
    w = g.weight.copy()
    w[idx] = vals
    return w


def test_reweight_served_flip_p99(workload, base_oracle, report, results_dir):
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
    _record_json(
        results_dir,
        "served_flip_56x56",
        {
            "workload": f"single-source load + {FLIPS} flips, {SIDE}x{SIDE} grid, shm:2",
            "queries": len(latencies),
            "flips": FLIPS,
            "flip_wall_max_s": max(flip_walls),
            "p50_s": p50,
            "p99_s": p99,
            "failed_queries": 0,
            "bit_identical_post_flip": True,
        },
    )
    assert len(latencies) >= LOAD_QUERIES // 2, len(latencies)
