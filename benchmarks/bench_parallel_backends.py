"""E-par — real-hardware parallel speedup on the paper's dependency graph.

The PRAM is simulated in the ledger, but the *structure* of the parallelism
is real: all node squarings of a round (Algorithm 4.3) are independent.
This bench runs the identical augmentation on the serial, thread, process
and zero-copy shm backends, checks bit-equal results, and records the
wall-clock ratios; the PRAM depth is reported alongside as the
infinite-processor limit.  (Algorithm 4.1 runs as one stacked sweep per
tree level and takes no executor, so the per-node builder here is
doubling.)  A second experiment
serves a ≥64-source batched query through the persistent
:class:`~repro.core.query.QueryEngine` on every backend.

Besides the markdown tables, both experiments append machine-readable
records to ``benchmarks/results/BENCH_parallel.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.doubling import augment_doubling
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

BACKENDS = ["serial", "thread:4", "process:4", "shm:4"]

#: Sources per batch for the query-engine experiment (ISSUE target: ≥64).
QUERY_BATCH = 96


def _record_json(results_dir, key: str, record: dict) -> None:
    """Merge one experiment record into ``BENCH_parallel.json`` (atomic
    temp+rename — a crashed run must not truncate accumulated results)."""
    path = results_dir / "BENCH_parallel.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    shape = (56, 56)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    return g, tree


def test_epar_backends_agree_and_speed(benchmark, workload, report, results_dir):
    g, tree = workload
    results = {}
    times = {}
    for backend in BACKENDS:
        t0 = time.perf_counter()
        aug = augment_doubling(g, tree, executor=backend, keep_node_distances=False)
        times[backend] = time.perf_counter() - t0
        results[backend] = aug
    base = results["serial"]
    for backend in BACKENDS[1:]:
        other = results[backend]
        assert np.array_equal(base.src, other.src)
        assert np.allclose(base.weight, other.weight)
    led = Ledger()
    augment_doubling(g, tree, ledger=led, keep_node_distances=False)
    rows = [[b, round(times[b], 3), round(times["serial"] / times[b], 2)] for b in BACKENDS]
    table = render_table(
        ["backend", "wall s", "speedup vs serial"],
        rows,
        title=(
            f"E-par: Algorithm 4.3 on 56x56 grid — ledger work {led.work:.3g}, "
            f"PRAM depth {led.depth:.3g} (ideal parallelism {led.work / led.depth:.0f}x)"
        ),
    )
    report(
        "E-par-backends",
        table
        + "\n\nFinding: descriptor passing removes the pickling term — shm "
        "ships (name, offset, shape, dtype) tuples where process pickles "
        "whole matrices both ways; the remaining gap to the work/depth "
        "ideal is per-node kernel size vs interpreter constants (the "
        "'parallel speedup is harder to show in Python' caveat of "
        "DESIGN.md §5).",
    )
    _record_json(
        results_dir,
        "augmentation_56x56",
        {
            "workload": "doubling augmentation, 56x56 grid",
            "ledger_work": led.work,
            "ledger_depth": led.depth,
            "wall_s": {b: times[b] for b in BACKENDS},
            "speedup_vs_serial": {b: times["serial"] / times[b] for b in BACKENDS},
            "shm_beats_process": times["shm:4"] < times["process:4"],
        },
    )
    assert times["shm:4"] < times["process:4"], (
        f"zero-copy regression: shm:4 {times['shm:4']:.3f}s not faster than "
        f"process:4 {times['process:4']:.3f}s"
    )
    benchmark(lambda: augment_doubling(g, tree, executor="thread:4", keep_node_distances=False))


def test_epar_query_engine_batched(benchmark, workload, report, results_dir):
    """Persistent QueryEngine serving a ≥64-source batch on every backend:
    bit-equal distances, wall-clock per backend, amortization evidence
    (second batch at least as fast as the first on warm pools)."""
    g, tree = workload
    oracle = ShortestPathOracle.build(g, tree, method="leaves_up")
    rng = np.random.default_rng(7)
    srcs = rng.integers(0, g.n, size=QUERY_BATCH)
    want = oracle.distances(srcs)
    times, second = {}, {}
    for backend in BACKENDS:
        with oracle.query_engine(executor=backend) as eng:
            t0 = time.perf_counter()
            got = eng.query(srcs)
            times[backend] = time.perf_counter() - t0
            t0 = time.perf_counter()
            again = eng.query(srcs)
            second[backend] = time.perf_counter() - t0
        assert np.array_equal(got, want), backend
        assert np.array_equal(again, want), backend
    rows = [
        [b, round(times[b], 4), round(second[b], 4),
         round(times["serial"] / times[b], 2)]
        for b in BACKENDS
    ]
    table = render_table(
        ["backend", "batch 1 s", "batch 2 s (warm)", "speedup vs serial"],
        rows,
        title=(
            f"E-par: QueryEngine, {QUERY_BATCH}-source batch on 56x56 grid "
            f"(n={g.n}, |E+|={oracle.augmentation.size})"
        ),
    )
    report("E-par-query-engine", table)
    _record_json(
        results_dir,
        f"query_batch_{QUERY_BATCH}",
        {
            "workload": f"QueryEngine {QUERY_BATCH}-source batch, 56x56 grid",
            "n": int(g.n),
            "eplus": int(oracle.augmentation.size),
            "batch1_wall_s": {b: times[b] for b in BACKENDS},
            "batch2_wall_s": {b: second[b] for b in BACKENDS},
            "speedup_vs_serial": {b: times["serial"] / times[b] for b in BACKENDS},
            "shm_beats_process": second["shm:4"] < second["process:4"],
        },
    )
    assert second["shm:4"] < second["process:4"], (
        f"zero-copy regression: warm shm:4 {second['shm:4']:.4f}s not faster "
        f"than warm process:4 {second['process:4']:.4f}s"
    )
    with oracle.query_engine(executor="shm:4") as eng:
        eng.query(srcs)  # warm the pool and the shared distance block
        benchmark(lambda: eng.query(srcs))


def test_epar_per_level_width(benchmark, workload, report):
    """The available parallelism per tree level (nodes per level) — what a
    PRAM would exploit; shows the fan-out the executors see."""
    g, tree = workload
    rows = []
    for group in tree.levels_desc():
        lvl = group[0].level
        sizes = [t.size for t in group]
        rows.append([lvl, len(group), max(sizes), sum(sizes)])
    rows.reverse()
    table = render_table(
        ["level", "independent nodes", "max |V(t)|", "Σ|V(t)|"],
        rows,
        title="E-par: per-level fan-out of the 56x56 grid tree",
    )
    report("E-par-fanout", table)
    widths = [r[1] for r in rows]
    assert max(widths) >= 64  # plenty of independent node work at the bottom
    benchmark(lambda: list(tree.levels_desc()))
