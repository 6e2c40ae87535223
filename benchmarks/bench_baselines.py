"""E-schedule-pass — the query engine against honest baselines.

One table, ``benchmarks/results/BENCH_baselines.json`` plus
``E-schedule-pass.md``: per-batch wall of four ways to answer ``rows``
sources exactly, at 1, 8 and 64 rows on the 40², 56² and 80² integer-weight
grids (``decompose_grid``) and the ceiled μ=0.5 family
(``separator_programmable_family(2200, 0.5)``, its own tree):

* ``engine (per-run frontier)`` — one §3.2 pass with every run of the
  schedule through ``relax_fixpoint``, single phases included: the query
  path before once-per-pass phases were relaxed as a vertex-major block;
* ``engine`` — the same pass through :func:`run_phases`, as
  ``QueryEngine`` runs it;
* ``frontier BF on G`` — ``relax_fixpoint`` over G's edges to its
  fixpoint, no preprocessing: the honest same-substrate baseline;
* ``scipy Dijkstra`` — compiled ``csgraph.dijkstra``, a reference only
  (DESIGN rules scipy out as the algorithm).

Each cell is ten alternating rounds (the column order rotates every
round); a round times each column as the median of a few calls, and the
cell reports the median with its quartiles.  Relaxers and the scipy
matrix are built before timing; every timed call starts from fresh
initial distances.  The engine columns must agree bit for bit with each
other and with BF on G; scipy within 1e-9.  Record-only: no speed gate.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np
import scipy
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.digraph import WeightedDigraph
from repro.kernels.bellman_ford import (
    EdgeRelaxer,
    initial_distances,
    relax_fixpoint,
    run_phases,
)
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph
from repro.workloads.synthetic import separator_programmable_family

ROWS = (1, 8, 64)
ROUNDS = 10
#: calls per column per round, by row count (the median is kept)
CALLS = {1: 5, 8: 5, 64: 3}
COLUMNS = ("engine (per-run frontier)", "engine", "frontier BF on G", "scipy Dijkstra")


def _per_run_fixpoint(relaxers, dist) -> None:
    """The §3.2 pass with every run of identical relaxers, length one
    included, through ``relax_fixpoint`` and its frontier."""
    i = 0
    while i < len(relaxers):
        j = i + 1
        while j < len(relaxers) and relaxers[j] is relaxers[i]:
            j += 1
        relax_fixpoint(relaxers[i], dist, j - i)
        i = j


def _grid(side: int):
    rng = np.random.default_rng(0)
    g = grid_digraph((side, side), rng)
    g = WeightedDigraph(g.n, g.src, g.dst, rng.integers(1, 100, size=g.m).astype(float))
    return f"grid {side}²", g, decompose_grid(g, (side, side))


def _mu_family():
    g, tree = separator_programmable_family(2200, 0.5, np.random.default_rng(3))
    g = WeightedDigraph(g.n, g.src, g.dst, np.ceil(g.weight))
    return f"μ=0.5 family n={g.n}", g, tree


def _solvers(g, tree):
    relaxers = ShortestPathOracle.build(g, tree).augmentation.schedule().relaxers
    on_g = EdgeRelaxer.from_graph(g)
    # csgraph sums duplicate entries; keep the lightest parallel edge instead
    key = g.src * g.n + g.dst
    order = np.lexsort((g.weight, key))
    first = np.ones(g.m, dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    keep = order[first]
    mat = csr_matrix((g.weight[keep], (g.src[keep], g.dst[keep])), shape=(g.n, g.n))

    def pass_with(run):
        def solve(srcs):
            dist = initial_distances(g.n, srcs)
            run(relaxers, dist)
            return dist
        return solve

    def bf_on_g(srcs):
        dist = initial_distances(g.n, srcs)
        relax_fixpoint(on_g, dist, g.n)
        return dist

    return dict(zip(COLUMNS, (
        pass_with(_per_run_fixpoint),
        pass_with(run_phases),
        bf_on_g,
        lambda srcs: scipy_dijkstra(mat, indices=srcs),
    ))), len(relaxers)


def _time_cell(solvers, srcs, calls):
    samples = {c: [] for c in COLUMNS}
    for r in range(ROUNDS):
        for c in COLUMNS[r % len(COLUMNS):] + COLUMNS[: r % len(COLUMNS)]:
            walls = []
            for _ in range(calls):
                t0 = time.perf_counter()
                solvers[c](srcs)
                walls.append(time.perf_counter() - t0)
            samples[c].append(float(np.median(walls)) * 1e3)
    return {c: [float(q) for q in np.percentile(v, [25, 50, 75])] for c, v in samples.items()}


def _host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def test_schedule_pass_against_baselines(report, results_dir):
    cells, lines = [], []
    for label, g, tree in [_grid(40), _grid(56), _grid(80), _mu_family()]:
        solvers, phases = _solvers(g, tree)
        rng = np.random.default_rng(1)
        for rows in ROWS:
            srcs = rng.choice(g.n, size=rows, replace=False)
            want = solvers["frontier BF on G"](srcs)
            assert np.array_equal(solvers["engine"](srcs), want), (label, rows)
            assert np.array_equal(solvers["engine (per-run frontier)"](srcs), want)
            assert np.allclose(solvers["scipy Dijkstra"](srcs), want, rtol=0, atol=1e-9)
            ms = _time_cell(solvers, srcs, CALLS[rows])
            cells.append({"graph": label, "n": g.n, "m": g.m, "phases": phases,
                          "rows": rows, "ms_q25_q50_q75": ms})
            med = {c: ms[c][1] for c in COLUMNS}
            lines.append([label, rows] + [
                f"{ms[c][1]:.2f} [{ms[c][0]:.2f}–{ms[c][2]:.2f}]" for c in COLUMNS
            ] + [f"{med['engine (per-run frontier)'] / med['engine']:.2f}×",
                 f"{med['frontier BF on G'] / med['engine']:.2f}×"])
    host = _host()
    data = {"cells": cells, "host": host, "rounds": ROUNDS, "calls": CALLS,
            "columns": list(COLUMNS)}
    path = results_dir / "BENCH_baselines.json"
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    report(
        "E-schedule-pass",
        render_table(
            ["graph", "rows", *(f"{c} ms" for c in COLUMNS),
             "per-run / engine", "BF on G / engine"],
            lines,
            title=f"E-schedule-pass: batch wall, median [quartiles] of {ROUNDS} "
                  f"alternating rounds ({host['nproc']} CPUs, numpy {host['numpy']})",
        )
        + "\n\nscipy's compiled Dijkstra is a yardstick only; the engine and "
        "BF on G run on the same numpy substrate.",
    )
