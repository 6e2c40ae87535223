"""E-schedule-pass — the query engine against honest baselines.

One table, ``benchmarks/results/BENCH_baselines.json`` plus
``E-schedule-pass.md``: per-batch wall of four ways to answer ``rows``
sources exactly, at 1, 2, 3, 8 and 64 rows on the 40², 56² and 80²
integer-weight grids (``decompose_grid``) and the ceiled μ=0.5 family
(``separator_programmable_family(2200, 0.5)``, its own tree):

* ``engine (block pass)`` — one §3.2 pass as :func:`run_phases` ran every
  block before the row pass: each stretch of single phases on one
  vertex-major block, each run through ``relax_rows`` and its 2-D
  frontier, whatever the row count;
* ``engine`` — the same pass through :func:`run_phases`, as
  ``QueryEngine`` runs it (a block of at most ``ROW_PASS_ROWS`` rows one
  1-D row at a time);
* ``frontier BF on G`` — ``relax_fixpoint`` over G's edges to its
  fixpoint, no preprocessing: the honest same-substrate baseline;
* ``scipy Dijkstra`` — compiled ``csgraph.dijkstra``, a reference only
  (DESIGN rules scipy out as the algorithm).

Each cell is twelve rotating rounds (the column order rotates every round);
a round times each column as the mean of a few back-to-back calls, and
the cell reports the median with its quartiles.  Relaxers and the scipy
matrix are built before timing; every timed call starts from fresh
initial distances.  The engine columns must agree bit for bit with each
other and with BF on G; scipy within 1e-9.  Record-only: no speed gate.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.digraph import WeightedDigraph
from repro.kernels.bellman_ford import (
    ROW_PASS_ROWS,
    EdgeRelaxer,
    Frontier,
    initial_distances,
    relax_fixpoint,
    run_phases,
)
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph
from repro.workloads.synthetic import separator_programmable_family

ROWS = (1, 2, 3, 8, 64)
ROUNDS = 12
#: calls per column per round, by row count (their mean is one sample)
CALLS = {1: 5, 2: 5, 3: 5, 8: 5, 64: 3}
COLUMNS = ("engine (block pass)", "engine", "frontier BF on G", "scipy Dijkstra")


def _block_pass(relaxers, dist) -> None:
    """The §3.2 pass with every block on the 2-D path: stretches of single
    phases on one vertex-major block, runs through ``relax_rows`` and a
    :class:`Frontier` (the loop ``relax_fixpoint`` runs for two or more
    rows)."""
    block = None
    i = 0
    while i < len(relaxers):
        r, j = relaxers[i], i + 1
        while j < len(relaxers) and relaxers[j] is r:
            j += 1
        if j - i == 1:
            if block is None:
                block = np.ascontiguousarray(dist.T)
            r._relax_block(block)
        else:
            if block is not None:
                dist[...] = block.T
                block = None
            active, frontier = np.arange(dist.shape[0]), Frontier()
            for _ in range(j - i):
                if not active.size:
                    break
                active = r.relax_rows(dist, active, frontier=frontier)
        i = j
    if block is not None:
        dist[...] = block.T


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
        pass_with(_block_pass),
        pass_with(run_phases),
        bf_on_g,
        lambda srcs: scipy_dijkstra(mat, indices=srcs),
    ))), len(relaxers)


def test_schedule_pass_against_baselines(timed, report, record_json, provenance):
    cells, lines, cut, same = [], [], None, []
    for label, g, tree in [_grid(40), _grid(56), _grid(80), _mu_family()]:
        solvers, phases = _solvers(g, tree)
        rng = np.random.default_rng(1)
        for rows in ROWS:
            srcs = rng.choice(g.n, size=rows, replace=False)
            want = solvers["frontier BF on G"](srcs)
            assert np.array_equal(solvers["engine"](srcs), want), (label, rows)
            assert np.array_equal(solvers["engine (block pass)"](srcs), want)
            assert np.allclose(solvers["scipy Dijkstra"](srcs), want, rtol=0, atol=1e-9)
            res = timed({c: (lambda c=c: solvers[c](srcs)) for c in COLUMNS}, ROUNDS,
                        calls=CALLS[rows])
            ms = {c: res.quartiles(c, 1e3) for c in COLUMNS}
            ratios = {
                "block pass / engine": res.ratio_quartiles("engine (block pass)", "engine"),
                "BF on G / engine": res.ratio_quartiles("frontier BF on G", "engine"),
                "engine / scipy": res.ratio_quartiles("engine", "scipy Dijkstra"),
            }
            cells.append({"graph": label, "n": g.n, "m": g.m, "phases": phases,
                          "rows": rows, "ms_q25_q50_q75": ms, "ratios_q25_q50_q75": ratios})
            if (label, rows) == ("grid 40²", 1):
                cut = ratios["engine / scipy"][1]
            if rows > ROW_PASS_ROWS:
                same.append(ratios["block pass / engine"])
            lines.append([label, rows] + [res.span(ms[c]) for c in COLUMNS]
                         + [res.span(q) for q in ratios.values()])
    record_json("BENCH_baselines.json", "schedule_pass", {
        "cells": cells, "rounds": ROUNDS, "calls": CALLS, "columns": list(COLUMNS),
    })
    verdict = "meets" if cut <= 4.0 else "misses"
    report(
        "E-schedule-pass",
        render_table(
            ["graph", "rows", *(f"{c} ms" for c in COLUMNS),
             "block pass / engine", "BF on G / engine", "engine / scipy"],
            lines,
            title=f"E-schedule-pass: batch wall and per-round ratios, median "
                  f"[quartiles] of {ROUNDS} rotating rounds "
                  f"({provenance['affinity_cpus']} CPUs, numpy {provenance['numpy']})",
        )
        + f"\n\nA one-row pass on 40² takes {cut:.2f}× scipy's compiled Dijkstra, "
        f"so it {verdict} the 4× bar of ROADMAP item 4.  Above {ROW_PASS_ROWS} rows "
        "both engine columns run the same pass, so their per-round ratio there "
        f"(medians {min(q[1] for q in same):.2f}–{max(q[1] for q in same):.2f}, "
        f"quartiles within {min(q[0] for q in same):.2f}–{max(q[2] for q in same):.2f}) "
        "is this table's noise.  scipy is a "
        "yardstick only; the engine and BF on G run on the same numpy "
        "substrate.\n\n" + provenance["line"],
    )
