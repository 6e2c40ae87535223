"""Tests for the multilevel (METIS-style) separator engine."""

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.core.digraph import WeightedDigraph
from repro.separators.multilevel import (
    _coarsen,
    _heavy_edge_matching,
    _Level,
    _undirected_edges,
    decompose_multilevel,
)
from repro.separators.quality import assess
from repro.workloads.generators import delaunay_digraph, gnm_digraph, grid_digraph
from repro.workloads.synthetic import separator_programmable_family
from tests.conftest import assert_distances_equal, reference_apsp


def _level_of(g):
    eu, ev, mult = _undirected_edges(g)
    return _Level(n=g.n, eu=eu, ev=ev, emult=mult, vweight=np.ones(g.n), fine_to_coarse=None)


class TestCoarsening:
    def test_undirected_edges_dedup(self):
        g = WeightedDigraph(3, [0, 1, 0, 1], [1, 0, 2, 2], np.ones(4))
        eu, ev, mult = _undirected_edges(g)
        assert eu.tolist() == [0, 0, 1]
        assert ev.tolist() == [1, 2, 2]
        assert mult.tolist() == [2.0, 1.0, 1.0]

    def test_matching_is_a_matching(self, rng):
        g = grid_digraph((8, 8), rng)
        level = _level_of(g)
        coarse = _heavy_edge_matching(level, rng)
        # Each coarse id has at most 2 fine vertices.
        counts = np.bincount(coarse)
        assert counts.max() <= 2
        assert coarse.min() == 0 and coarse.max() == counts.shape[0] - 1

    def test_coarsen_preserves_total_vertex_weight(self, rng):
        g = grid_digraph((8, 8), rng)
        level = _level_of(g)
        coarse = _heavy_edge_matching(level, rng)
        nxt = _coarsen(level, coarse)
        assert np.isclose(nxt.vweight.sum(), level.vweight.sum())
        assert nxt.n < level.n

    def test_coarsen_aggregates_multiplicity(self):
        # Two parallel fine edges collapsing onto one coarse edge.
        g = WeightedDigraph(4, [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        level = _level_of(g)
        coarse = np.array([0, 0, 1, 1])  # pair (0,1) and (2,3)
        nxt = _coarsen(level, coarse)
        assert nxt.n == 2 and nxt.eu.size == 0  # no cross edges here

    def test_matching_stall_on_clique_handled(self, rng):
        # K6: matching works (3 pairs), coarse K3, then the oracle's
        # component_aware wrapper ends with InseparableSubgraph → leaf.
        n = 6
        src = [i for i in range(n) for j in range(n) if i != j]
        dst = [j for i in range(n) for j in range(n) if i != j]
        g = WeightedDigraph(n, src, dst, np.ones(len(src)))
        tree = decompose_multilevel(g, leaf_size=3)
        assert tree.root.is_leaf  # no separator exists


class TestEngine:
    def test_grid_quality(self, rng):
        g = grid_digraph((20, 20), rng)
        tree = decompose_multilevel(g)
        tree.validate(g)
        q = assess(tree)
        assert q.mu_hat < 0.8
        assert q.height_over_log2n < 2.5

    def test_delaunay_quality(self, rng):
        g, _ = delaunay_digraph(300, rng)
        tree = decompose_multilevel(g)
        tree.validate(g)
        assert assess(tree).mu_hat < 0.8

    def test_distances_exact_through_oracle(self, rng):
        g, _ = delaunay_digraph(120, rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(separator="multilevel"))
        ref = reference_apsp(g)
        assert_distances_equal(oracle.distances([0, 60, 119]), ref[[0, 60, 119]])

    def test_sparse_random_graph(self, rng):
        g = gnm_digraph(150, 300, rng)
        tree = decompose_multilevel(g, leaf_size=6)
        tree.validate(g)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mu067_family_decomposes(self, seed):
        """Pendant vertices of the μ = 0.67 family: the common fallback's
        one-vertex cut would break the builder's balance bound, so the
        cut's other endpoint set separates instead."""
        g, _ = separator_programmable_family(600, 0.67, np.random.default_rng(seed))
        tree = decompose_multilevel(g)
        tree.validate(g)

    def test_expander64_tree_is_unchanged(self):
        """perfbench's 64-vertex expander, which multilevel decomposed before
        the μ = 0.67 fix: the same tree, pinned by its E⁺ key."""
        from repro.cache import augmentation_key
        from repro.core.semiring import MIN_PLUS
        from repro.workloads.generators import expander_digraph

        g = expander_digraph(64, np.random.default_rng(0), degree=8)
        tree = decompose_multilevel(g)
        assert len(tree.nodes) == 295
        key = augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        assert key[:16] == "a87abb381d5af29b"

    def test_disconnected_input(self, rng):
        a = grid_digraph((5, 5), rng)
        g = WeightedDigraph(
            50,
            np.concatenate([a.src, a.src + 25]),
            np.concatenate([a.dst, a.dst + 25]),
            np.concatenate([a.weight, a.weight]),
        )
        tree = decompose_multilevel(g, leaf_size=4)
        tree.validate(g)

    def test_seed_determinism(self, rng):
        g, _ = delaunay_digraph(150, rng)
        t1 = decompose_multilevel(g, seed=7)
        t2 = decompose_multilevel(g, seed=7)
        assert len(t1.nodes) == len(t2.nodes)
        for a, b in zip(t1.nodes, t2.nodes):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.separator, b.separator)
