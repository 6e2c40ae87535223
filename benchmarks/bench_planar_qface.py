"""E-planar — §6: planar graphs and the q-face / hammock pipeline.

Shapes to reproduce:

* planar digraphs (Delaunay) run end-to-end through a computed μ≈1/2
  decomposition (the Gazit–Miller substitute) with exact distances;
* for q-face graphs, the hammock pipeline makes the separator machinery pay
  in ``q``, not ``n``: at fixed n, G′ size scales with q, and at fixed q,
  growing n leaves G′ unchanged."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.kernels.dijkstra import dijkstra
from repro.planar.hammock import ring_of_hammocks
from repro.planar.qface import QFaceOracle
from repro.separators.planar import decompose_planar
from repro.separators.quality import assess
from repro.workloads.generators import delaunay_digraph


def test_planar_pipeline_end_to_end(report):
    rng = np.random.default_rng(0)
    g, _ = delaunay_digraph(500, rng)
    tree = decompose_planar(g)
    q = assess(tree)
    oracle = ShortestPathOracle.build(g, tree)
    srcs = [0, 100, 499]
    got = oracle.distances(srcs)
    for i, s in enumerate(srcs):
        assert np.allclose(got[i], dijkstra(g, s))
    report("E-planar-delaunay",
           f"Delaunay n=500: decomposition {q.summary()}; oracle stats "
           f"{oracle.stats()}; distances match Dijkstra on {len(srcs)} sources")


def test_qface_gprime_scales_with_q_not_n(report):
    rows = []
    rng = np.random.default_rng(4)
    # Fixed q, growing hammock size: G' stays put.
    for q, hsize in [(6, 12), (6, 24), (6, 48), (12, 24), (24, 24)]:
        g, dec = ring_of_hammocks(q, hsize, rng)
        oracle = QFaceOracle.build(g, dec)
        s = oracle.stats()
        rows.append([g.n, q, s["attachments"], s["gprime_edges"], round(s["preprocess_work"], 0)])
    table = render_table(
        ["n", "q", "attachments", "G' edges", "preprocess work"],
        rows,
        title="E-planar q-face: G' size tracks q, not n (paper §6)",
    )
    report("E-planar-qface-scaling", table)
    # Same q, 4x the n: G' identical size.
    assert rows[0][2] == rows[2][2] and rows[0][3] == rows[2][3]
    # 4x the q at same hammock size: G' grows ~4x.
    assert rows[4][3] >= 3 * rows[1][3]
    g, dec = ring_of_hammocks(8, 16, rng)


def test_qface_query_correctness_and_speed(report):
    rng = np.random.default_rng(8)
    g, dec = ring_of_hammocks(10, 30, rng)
    oracle = QFaceOracle.build(g, dec)
    srcs = [0, g.n // 2, g.n - 1]
    for s in srcs:
        assert np.allclose(oracle.distances_from(s), dijkstra(g, s))
    report("E-planar-qface-queries",
           f"ring of 10 hammocks (n={g.n}): per-source distances equal "
           "Dijkstra; stats " + str(oracle.stats()))
