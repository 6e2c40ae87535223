"""E-kpair — §6's k-pair query claim, generalized.

Paper (§6, hammock setting): after preprocessing, distances between k
specified pairs cost O(k log n) extra work.  The general-graph analog here
is the recursive pair oracle (plus witness-expanded explicit paths): after
one augmentation, each pair costs a polylog recursion over boundary
matrices — no per-source pass.  The bench measures per-pair latency and its
growth with n (must stay ~polylog·n^{2μ}, i.e. strongly sublinear vs a
fresh Dijkstra per pair).  Both sides run in the same rotating rounds."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.apps.routing import DistanceOracle
from repro.core.paths import path_weight
from repro.core.witnesses import WitnessOracle
from repro.kernels.dijkstra import dijkstra
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

ROUNDS = 6
PAIRS = 50          # pairs per oracle call
DIJKSTRAS = 10      # fresh Dijkstra runs per baseline call


def test_kpair_latency_vs_dijkstra(timed, report):
    rng = np.random.default_rng(0)
    rows = []
    for side in (16, 24, 32, 48):
        g = grid_digraph((side, side), rng)
        tree = decompose_grid(g, (side, side))
        oracle = DistanceOracle.build(g, tree)
        pairs = [(int(rng.integers(g.n)), int(rng.integers(g.n))) for _ in range(PAIRS)]
        res = timed({
            "pairs": lambda: oracle.distances(pairs),
            "dijkstra": lambda: [dijkstra(g, u) for u, _ in pairs[:DIJKSTRAS]],
        }, ROUNDS)
        got, ref = res.outputs["pairs"], res.outputs["dijkstra"][0]
        assert np.isclose(got[0], ref[pairs[0][1]]) or (
            np.isinf(got[0]) and np.isinf(ref[pairs[0][1]])
        )
        # per-round (ms per SSSP) / (ms per pair)
        ratio = res.ratio_quartiles("dijkstra", "pairs")[1] * PAIRS / DIJKSTRAS
        rows.append([g.n, round(res.median("pairs") / PAIRS * 1e3, 3),
                     round(res.median("dijkstra") / DIJKSTRAS * 1e3, 3), round(ratio, 1)])
    table = render_table(
        ["n", "ms/pair (oracle)", "ms/SSSP (dijkstra)", "ratio"],
        rows,
        title="E-kpair: pair-query latency vs a fresh Dijkstra per pair, medians of "
              f"{ROUNDS} rotating rounds",
    )
    report("E-kpair-latency", table)
    # Pair queries must beat whole-SSSP at the largest size.
    assert rows[-1][3] > 1.0


def test_kpair_witness_paths(timed, report):
    """Explicit per-pair paths via witness expansion: exact and fast."""
    rng = np.random.default_rng(1)
    g = grid_digraph((24, 24), rng)
    tree = decompose_grid(g, (24, 24))
    oracle = WitnessOracle(g, tree)
    pairs = [(int(rng.integers(g.n)), int(rng.integers(g.n))) for _ in range(40)]
    res = timed({"paths": lambda: [oracle.path(u, v) for u, v in pairs]}, ROUNDS)
    paths = res.outputs["paths"]
    assert all(p is not None for p in paths)
    total_hops = sum(len(p) - 1 for p in paths)
    per_path = res.median("paths") / len(pairs)
    ref = dijkstra(g, pairs[0][0])
    assert np.isclose(path_weight(g, paths[0]), ref[pairs[0][1]])
    report("E-kpair-paths",
           f"24x24 grid: 40 explicit pair paths in {per_path * 1e3:.2f} ms each "
           f"(median of {ROUNDS} rounds; mean {total_hops / len(pairs):.1f} hops), "
           "weights verified against Dijkstra — paper comment (ii) in per-pair form")
