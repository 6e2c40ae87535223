"""Large-scale integration scenarios: the whole pipeline on instances an
order of magnitude bigger than the unit tests, with sampled verification
(full references would dominate the runtime)."""

import numpy as np
import pytest

from repro import ShortestPathOracle, augment_doubling_shared
from repro.core.sssp import sssp_scheduled
from repro.kernels.dijkstra import dijkstra
from repro.kernels.johnson import johnson
from repro.separators.grid import decompose_grid
from repro.separators.multilevel import decompose_multilevel
from repro.separators.quality import assess
from repro.workloads.generators import (
    apply_potential_weights,
    delaunay_digraph,
    grid_digraph,
)


@pytest.mark.slow
class TestLargeGrid:
    def test_64x64_end_to_end(self, rng):
        g = grid_digraph((64, 64), rng)
        tree = decompose_grid(g, (64, 64))
        oracle = ShortestPathOracle.build(g, tree)
        q = assess(tree)
        assert q.height_over_log2n < 1.5
        assert 0.3 < q.mu_hat < 0.7
        srcs = rng.integers(0, g.n, size=4)
        got = oracle.distances(srcs)
        for i, s in enumerate(srcs.tolist()):
            assert np.allclose(got[i], dijkstra(g, int(s)))
        # Diameter bound is polylog-sized while diam(G) is Θ(√n).
        assert oracle.diameter_bound < 80

    def test_48x48_negative_weights(self, rng):
        g = apply_potential_weights(grid_digraph((48, 48), rng), rng)
        tree = decompose_grid(g, (48, 48))
        aug = augment_doubling_shared(g, tree)
        srcs = [0, 1000, 2303]
        assert np.allclose(sssp_scheduled(aug, srcs), johnson(g, srcs), atol=1e-7)


@pytest.mark.slow
class TestLargeDelaunay:
    def test_1500_vertices_multilevel(self, rng):
        g, _ = delaunay_digraph(1500, rng)
        tree = decompose_multilevel(g)
        oracle = ShortestPathOracle.build(g, tree)
        srcs = rng.integers(0, g.n, size=3)
        got = oracle.distances(srcs)
        for i, s in enumerate(srcs.tolist()):
            assert np.allclose(got[i], dijkstra(g, int(s)))
        # The per-source schedule beats naive BF structurally.
        from repro.pram.machine import Ledger

        ls, ln = Ledger(), Ledger()
        sssp_scheduled(oracle.augmentation, [0], schedule=oracle.schedule, ledger=ls)
        from repro.core.sssp import sssp_naive

        sssp_naive(oracle.augmentation, [0], ledger=ln)
        assert ls.work < ln.work


@pytest.mark.slow
class TestLargeScenario:
    def test_persist_and_requery(self, rng, tmp_path):
        """Full life cycle: decompose, persist, reload in a 'new session',
        reweight, requery — the comment-(iv) workflow at scale."""
        from repro.io import load_tree, save_tree

        g = grid_digraph((40, 40), rng)
        tree = decompose_grid(g, (40, 40))
        save_tree(tmp_path / "tree.npz", tree)

        tree2 = load_tree(tmp_path / "tree.npz")
        oracle = ShortestPathOracle.build(g, tree2)
        d1 = oracle.distances(7)
        assert np.allclose(d1, dijkstra(g, 7))

        new_w = rng.uniform(0.5, 3.0, size=g.m)
        fresh = oracle.with_new_weights(new_w)
        from repro.core.digraph import WeightedDigraph

        g2 = WeightedDigraph(g.n, g.src, g.dst, new_w)
        assert np.allclose(fresh.distances(7), dijkstra(g2, 7))
