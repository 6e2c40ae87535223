"""E-par — real-hardware parallelism of §3.2's disjoint source rows.

The PRAM is simulated in the ledger, but one source of its parallelism is
real: the rows of a batched query relax independently.  A
:class:`~repro.core.query.QueryEngine` fans a batch's rows out over its
executor, so this bench times warmed batches on the serial, thread and
zero-copy shm executors (pools sized to the host's CPU count) in rotating
rounds, one fixed batch per cell, and checks every row bit-equal to
serial.  (The builders take no executor: their per-node work runs in the
calling thread, and no pool beat serial on a build — EXPERIMENTS,
E-exec-rows.)

Besides the markdown tables, both experiments write machine-readable
records, stamped with the revision and host, to
``benchmarks/results/BENCH_parallel.json``.
"""

from __future__ import annotations

import os

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
ROUNDS = 12

#: Batch sizes (rows) and calls per timed sample for the row-count table.
ROW_COUNTS = [(1, 10), (8, 4), (64, 1)]

#: Sources per batch for the warm-versus-first-batch experiment.
QUERY_BATCH = 96


def _assert_rows_agree(engines: dict, batches) -> None:
    """Every engine's rows bit-equal serial's on each batch (untimed)."""
    for srcs in batches:
        want = engines["serial"].query(srcs)
        for b, eng in engines.items():
            assert np.array_equal(eng.query(srcs), want), b


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    shape = (56, 56)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    oracle = ShortestPathOracle.build(g, tree)
    return g, tree, oracle


def test_epar_backends_agree_and_speed(timed, workload, report, record_json, provenance):
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
            _assert_rows_agree(engines, [rng.integers(0, g.n, size=rows) for _ in range(ROUNDS)])
            srcs = rng.integers(0, g.n, size=rows)
            res = timed({b: (lambda b=b: engines[b].query(srcs)) for b in BACKENDS},
                        ROUNDS, calls=reps)
            record[str(rows)] = {}
            for b in BACKENDS:
                assert np.array_equal(res.outputs[b], res.outputs["serial"]), b
                speed = res.ratio_quartiles("serial", b)
                record[str(rows)][b] = {"ms": res.quartiles(b, 1e3), "speed_vs_serial": speed}
                table_rows.append([rows, b, res.span(res.quartiles(b, 1e3)), res.span(speed)])
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
    record_json("BENCH_parallel.json", "query_rows_56x56", {
        "workload": "warmed QueryEngine batches, 56x56 grid, row_cache=0",
        "rounds": ROUNDS,
        "cells": record,
    })


def test_epar_query_engine_batched(timed, workload, report, record_json, provenance):
    """A ≥64-source batch on every executor: the first batch on a fresh
    engine (pool start-up included, one round without warm-up) against
    warm batches in rotating rounds, with rows bit-equal to the facade's
    serial pass."""
    g, _, oracle = workload
    rng = np.random.default_rng(11)
    srcs = rng.integers(0, g.n, size=QUERY_BATCH)
    want = oracle.distances(srcs)
    engines = {}

    def first_batch(b):
        engines[b] = oracle.query_engine(OracleConfig(executor=b, row_cache=0))
        return engines[b].query(srcs)

    try:
        first = timed({b: (lambda b=b: first_batch(b)) for b in BACKENDS}, 1, warmup=0)
        for b in BACKENDS:
            assert np.array_equal(first.outputs[b], want), b
        _assert_rows_agree(engines, [rng.integers(0, g.n, size=QUERY_BATCH)
                                     for _ in range(ROUNDS)])
        warm_srcs = rng.integers(0, g.n, size=QUERY_BATCH)
        res = timed({b: (lambda b=b: engines[b].query(warm_srcs)) for b in BACKENDS}, ROUNDS)
    finally:
        for eng in engines.values():
            eng.close()
    for b in BACKENDS:
        assert np.array_equal(res.outputs[b], res.outputs["serial"]), b
    speed = {b: res.ratio_quartiles("serial", b) for b in BACKENDS}
    table = render_table(
        ["executor", "first batch ms", "warm batch ms", "speed vs serial"],
        [[b, round(first.median(b) * 1e3, 1), res.span(res.quartiles(b, 1e3), 1),
          res.span(speed[b])] for b in BACKENDS],
        title=(
            f"E-par: QueryEngine, {QUERY_BATCH}-source batch on the 56x56 grid "
            f"(n={g.n}, |E+|={oracle.augmentation.size}); warm batches: "
            f"{ROUNDS} rotating rounds, median [quartiles]"
        ),
    )
    report("E-par-query-engine", table + "\n\n" + provenance["line"])
    record_json("BENCH_parallel.json", f"query_batch_{QUERY_BATCH}", {
        "workload": f"QueryEngine {QUERY_BATCH}-source batch, 56x56 grid, row_cache=0",
        "rounds": ROUNDS,
        "first_batch_ms": {b: first.median(b) * 1e3 for b in BACKENDS},
        "warm_batch_ms": {b: res.quartiles(b, 1e3) for b in BACKENDS},
        "speed_vs_serial": speed,
    })


def test_epar_per_level_width(workload, report):
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
