"""E-seq — the paper's sequential-improvement claim (§1).

"Sequential versions of our algorithms are an improvement over previous
sequential algorithms": for s-source shortest paths, Johnson costs
O(s·(m + n log n)); the separator method pays Õ(n^{3μ}) once, then
O(n + n^{2μ}) per source.  The *shape* to reproduce: per-source marginal
cost of the oracle is below the baselines', so a crossover in total cost
appears as s grows.  We measure wall-clock (Python constants included,
both sides in rotating rounds) and ledger/op-count shapes."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.sssp import sssp_scheduled
from repro.kernels.dijkstra import dijkstra_multi
from repro.kernels.johnson import johnson
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

ROUNDS = 2


def _setup(side=48, seed=0):
    rng = np.random.default_rng(seed)
    g = grid_digraph((side, side), rng)
    tree = decompose_grid(g, (side, side))
    return g, tree


def test_eseq_crossover_in_s(timed, report):
    g, tree = _setup()
    build = timed({"build": lambda: ShortestPathOracle.build(g, tree)}, ROUNDS)
    preprocess, oracle = build.median("build"), build.outputs["build"]
    schedule = oracle.schedule

    rows = []
    crossover = None
    walls = {}
    for s in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        res = timed({
            "oracle": lambda: sssp_scheduled(oracle.augmentation, list(range(s)),
                                             schedule=schedule),
            "dijkstra": lambda: dijkstra_multi(g, range(s)),
        }, ROUNDS)
        walls[s] = res
        to = preprocess + res.median("oracle")
        td = res.median("dijkstra")
        rows.append([s, round(to, 4), round(td, 4), round(td / to, 2)])
        if crossover is None and to < td:
            crossover = s
    # Robust comparison: *marginal* per-source rates at the largest batch
    # (absolute crossover wobbles with machine load; the rates don't).
    s_big = 512
    rate_oracle = walls[s_big].median("oracle") / s_big
    rate_dijkstra = walls[s_big].median("dijkstra") / s_big
    implied = (
        int(np.ceil(preprocess / (rate_dijkstra - rate_oracle)))
        if rate_dijkstra > rate_oracle
        else None
    )
    table = render_table(
        ["s sources", "oracle total (s)", "dijkstra total (s)", "speedup"],
        rows,
        title=(
            f"E-seq wall-clock on 48x48 grid (preprocess {preprocess:.3f}s), medians "
            f"of {ROUNDS} rotating rounds: marginal {rate_oracle * 1e3:.2f} vs "
            f"{rate_dijkstra * 1e3:.2f} ms/source — implied crossover s ≈ {implied} "
            f"(observed {crossover})"
        ),
    )
    report("E-seq-crossover", table)
    # The oracle's marginal per-source cost must beat Dijkstra's, and the
    # implied crossover must come well before s = n (n = 2304 here).
    assert rate_oracle < rate_dijkstra
    assert implied is not None and implied < 1000


def test_eseq_negative_weights_vs_johnson(timed, report):
    """With negative weights the baseline is Johnson (extra global BF pass);
    the oracle handles negatives natively and must stay exact."""
    from repro.workloads.generators import apply_potential_weights

    rng = np.random.default_rng(2)
    g = apply_potential_weights(grid_digraph((24, 24), rng), rng)
    tree = decompose_grid(g, (24, 24))
    oracle = ShortestPathOracle.build(g, tree)
    srcs = list(range(24))
    res = timed({"johnson": lambda: johnson(g, srcs),
                 "oracle": lambda: oracle.distances(srcs)}, ROUNDS)
    assert np.allclose(res.outputs["oracle"], res.outputs["johnson"])
    report("E-seq-johnson",
           f"24x24 grid with negative weights, 24 sources: johnson "
           f"{res.median('johnson'):.3f}s, oracle query {res.median('oracle'):.3f}s "
           f"(medians of {ROUNDS} rotating rounds, after "
           f"{oracle.preprocess_ledger.work:.3g} ledger preprocessing work); "
           "results identical")


def test_eseq_networkx_external_baseline(timed, report):
    """External (not-our-code) baseline: networkx Dijkstra, for scale."""
    import networkx as nx

    g, tree = _setup(side=32)
    oracle = ShortestPathOracle.build(g, tree)
    nxg = g.to_networkx()
    srcs = list(range(16))
    res = timed({
        "networkx": lambda: [nx.single_source_dijkstra_path_length(nxg, s) for s in srcs],
        "oracle": lambda: oracle.distances(srcs),
    }, ROUNDS)
    got, ref = res.outputs["oracle"], res.outputs["networkx"][0]
    assert all(np.isclose(got[0][v], d) for v, d in ref.items())
    report("E-seq-networkx",
           f"32x32 grid, 16 sources: networkx dijkstra {res.median('networkx'):.3f}s vs "
           f"oracle query {res.median('oracle'):.3f}s (medians of {ROUNDS} rotating "
           f"rounds; +{oracle.preprocess_ledger.work:.3g} ledger preprocessing work); "
           "distances identical")


def test_eseq_floyd_warshall_dominated(report):
    """The Õ(n³) dense APSP the paper wants to avoid: at n = 1024 it is
    already far more work than the oracle's full pipeline."""
    from repro.pram.machine import Ledger

    g, tree = _setup(side=32)
    led = Ledger()
    oracle = ShortestPathOracle.build(g, tree)
    sssp_scheduled(oracle.augmentation, list(range(g.n)), schedule=oracle.schedule, ledger=led)
    oracle_work = oracle.preprocess_ledger.work + led.work
    fw_work = float(g.n) ** 3
    report("E-seq-fw",
           f"n=1024 all-pairs: oracle ledger work {oracle_work:.3g} vs "
           f"Floyd-Warshall n^3 = {fw_work:.3g} — ratio {fw_work / oracle_work:.1f}x")
    assert oracle_work < fw_work / 5
