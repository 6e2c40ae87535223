"""E-par — real-hardware parallelism of §3.2's disjoint source rows.

The PRAM is simulated in the ledger, but one source of its parallelism is
real: the rows of a batched query relax independently.  A
:class:`~repro.core.query.QueryEngine` fans a batch's rows out over its
executor, so this bench times warmed batches on the serial, thread and
zero-copy shm executors (pools sized to the host's CPU count) in rotating
rounds and checks every row bit-equal to serial.  (The builders take no
executor: their per-node work runs in the calling thread, and no pool beat
serial on a build — EXPERIMENTS, E-exec-rows.)

Besides the markdown tables, both experiments write machine-readable
records, stamped with the revision and host, to
``benchmarks/results/BENCH_parallel.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

#: Pool size of the parallel executors: one worker per host CPU.
WORKERS = os.cpu_count() or 1
BACKENDS = ["serial", f"thread:{WORKERS}", f"shm:{WORKERS}"]

#: Rotating rounds per cell; each round times every backend once, in an
#: order shifted by one backend per round.
ROUNDS = 10

#: Batch sizes (rows) and calls per timed sample for the row-count table.
ROW_COUNTS = [(1, 10), (8, 4), (64, 1)]

#: Sources per batch for the warm-versus-first-batch experiment.
QUERY_BATCH = 96


def _record_json(results_dir, key: str, record: dict, provenance: dict) -> None:
    """Merge one experiment record into ``BENCH_parallel.json`` (atomic
    temp+rename — a crashed run must not truncate accumulated results)."""
    path = results_dir / "BENCH_parallel.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    data["provenance"] = {k: v for k, v in provenance.items() if k != "line"}
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _quartiles(xs) -> list[float]:
    """Median, lower and upper quartile."""
    return [float(v) for v in np.percentile(xs, [50, 25, 75])]


def _cell(q: list[float], digits: int = 2) -> str:
    return f"{q[0]:.{digits}f} [{q[1]:.{digits}f}–{q[2]:.{digits}f}]"


def _rotating_rounds(engines: dict, batches: list[np.ndarray], reps: int):
    """Per-call ms of every backend over rotating rounds (one batch per
    round, the same for every backend); asserts rows bit-equal to serial."""
    names = list(engines)
    ms = {b: [] for b in names}
    for r, srcs in enumerate(batches):
        order = names[r % len(names):] + names[: r % len(names)]
        got = {}
        for b in order:
            t0 = time.perf_counter()
            for _ in range(reps):
                got[b] = engines[b].query(srcs)
            ms[b].append((time.perf_counter() - t0) / reps * 1e3)
        for b in names:
            assert np.array_equal(got[b], got["serial"]), b
    return ms


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    shape = (56, 56)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
    return g, tree, oracle


def test_epar_backends_agree_and_speed(benchmark, workload, report, results_dir, provenance):
    """Warmed batches of 1, 8 and 64 rows on every executor, rotating
    rounds: median ms [quartiles], and the per-round speed ratio against
    serial (above 1 = faster than serial)."""
    g, _, oracle = workload
    rng = np.random.default_rng(7)
    engines = {b: oracle.query_engine(OracleConfig(executor=b, row_cache=0)) for b in BACKENDS}
    try:
        for eng in engines.values():
            eng.query(rng.integers(0, g.n, size=64))  # warm pools and caches
        table_rows, record = [], {}
        for rows, reps in ROW_COUNTS:
            batches = [rng.integers(0, g.n, size=rows) for _ in range(ROUNDS)]
            ms = _rotating_rounds(engines, batches, reps)
            serial = np.array(ms["serial"])
            record[str(rows)] = {}
            for b in BACKENDS:
                speed = _quartiles(serial / np.array(ms[b]))
                record[str(rows)][b] = {"ms": _quartiles(ms[b]), "speed_vs_serial": speed}
                table_rows.append([rows, b, _cell(_quartiles(ms[b])), _cell(speed)])
        srcs = rng.integers(0, g.n, size=64)
        benchmark(lambda: engines["serial"].query(srcs))
    finally:
        for eng in engines.values():
            eng.close()
    table = render_table(
        ["rows", "executor", "ms per batch", "speed vs serial"],
        table_rows,
        title=(
            f"E-par: QueryEngine batches on the 56x56 grid (n={g.n}, "
            f"|E+|={oracle.augmentation.size}), {ROUNDS} rotating rounds, "
            f"row cache off; median [quartiles]"
        ),
    )
    report("E-par-backends", table + "\n\n" + provenance["line"])
    _record_json(
        results_dir,
        "query_rows_56x56",
        {
            "workload": "warmed QueryEngine batches, 56x56 grid, row_cache=0",
            "rounds": ROUNDS,
            "cells": record,
        },
        provenance,
    )


def test_epar_query_engine_batched(benchmark, workload, report, results_dir, provenance):
    """A ≥64-source batch on every executor: the first batch on a fresh
    engine (pool start-up included) against warm batches in rotating
    rounds, with rows bit-equal to the facade's serial pass."""
    g, _, oracle = workload
    rng = np.random.default_rng(11)
    srcs = rng.integers(0, g.n, size=QUERY_BATCH)
    want = oracle.distances(srcs)
    engines, first = {}, {}
    try:
        for b in BACKENDS:
            t0 = time.perf_counter()
            engines[b] = oracle.query_engine(OracleConfig(executor=b, row_cache=0))
            assert np.array_equal(engines[b].query(srcs), want), b
            first[b] = (time.perf_counter() - t0) * 1e3
        batches = [rng.integers(0, g.n, size=QUERY_BATCH) for _ in range(ROUNDS)]
        ms = _rotating_rounds(engines, batches, 1)
        benchmark(lambda: engines["serial"].query(srcs))
    finally:
        for eng in engines.values():
            eng.close()
    serial = np.array(ms["serial"])
    speed = {b: _quartiles(serial / np.array(ms[b])) for b in BACKENDS}
    table = render_table(
        ["executor", "first batch ms", "warm batch ms", "speed vs serial"],
        [[b, round(first[b], 1), _cell(_quartiles(ms[b]), 1), _cell(speed[b])]
         for b in BACKENDS],
        title=(
            f"E-par: QueryEngine, {QUERY_BATCH}-source batch on the 56x56 grid "
            f"(n={g.n}, |E+|={oracle.augmentation.size}); warm batches: "
            f"{ROUNDS} rotating rounds, median [quartiles]"
        ),
    )
    report("E-par-query-engine", table + "\n\n" + provenance["line"])
    _record_json(
        results_dir,
        f"query_batch_{QUERY_BATCH}",
        {
            "workload": f"QueryEngine {QUERY_BATCH}-source batch, 56x56 grid, row_cache=0",
            "rounds": ROUNDS,
            "first_batch_ms": first,
            "warm_batch_ms": {b: _quartiles(ms[b]) for b in BACKENDS},
            "speed_vs_serial": speed,
        },
        provenance,
    )


def test_epar_per_level_width(benchmark, workload, report):
    """The available parallelism per tree level (nodes per level) — what a
    PRAM would exploit; the builders run a level's nodes in the calling
    thread and charge them to the ledger as one parallel step."""
    _, tree, _ = workload
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
