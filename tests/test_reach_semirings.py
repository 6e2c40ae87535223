"""Tests for the reachability specialization (I6) and the non-min-plus path
algebras (I9 — paper comment (iii))."""

import numpy as np
import pytest

from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up, dense_semiring_weights
from repro.core.reach import reachability_augmentation, reachable_from, transitive_closure
from repro.core.semiring import BOOLEAN, MAX_MIN, MIN_MAX
from repro.core.sssp import sssp_scheduled
from repro.kernels.floyd_warshall import floyd_warshall
from repro.workloads.generators import gnm_digraph, grid_digraph
from repro.separators.grid import decompose_grid
from repro.separators.spectral import decompose_spectral


def networkx_closure(g):
    import networkx as nx

    nxg = g.to_networkx()
    out = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        for v in nx.descendants(nxg, u):
            out[u, v] = True
    np.fill_diagonal(out, True)
    return out


class TestReachability:
    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_closure_sparse_random(self, rng, method):
        g = gnm_digraph(70, 140, rng)
        tree = decompose_spectral(g, leaf_size=6)
        if method == "leaves_up":
            clo = transitive_closure(g, tree)
        else:
            clo = reachable_from(augment_doubling(g, tree, BOOLEAN), np.arange(g.n))
            np.fill_diagonal(clo, True)
        assert np.array_equal(clo, networkx_closure(g))

    def test_reachable_from_subset(self, rng):
        g = gnm_digraph(50, 90, rng)
        tree = decompose_spectral(g, leaf_size=6)
        aug = reachability_augmentation(g, tree)
        got = reachable_from(aug, [0, 13])
        want = networkx_closure(g)
        want_rows = want[[0, 13]].copy()
        # reachable_from does not force reflexivity.
        want_rows[0, 0] = got[0, 0]
        want_rows[1, 13] = got[1, 13]
        assert np.array_equal(got, want_rows)

    def test_rejects_weighted_augmentation(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree)
        with pytest.raises(ValueError):
            reachable_from(aug, [0])

    def test_one_way_edges(self):
        """Directionality is respected (reachability is not symmetric)."""
        from repro.core.digraph import WeightedDigraph

        # 4-cycle oriented one way inside a 2x2 grid shape.
        g = WeightedDigraph(4, [0, 1, 3, 2], [1, 3, 2, 0], np.ones(4))
        tree = decompose_spectral(g, leaf_size=2)
        clo = transitive_closure(g, tree)
        assert clo.all()  # a directed cycle reaches everything


class TestPathAlgebras:
    """I9: bottleneck (max-min) and minimax (min-max) via the same engine."""

    @pytest.mark.parametrize("build", [augment_leaves_up, augment_doubling],
                             ids=["leaves_up", "doubling"])
    @pytest.mark.parametrize("sr", [MAX_MIN, MIN_MAX], ids=lambda s: s.name)
    def test_matches_generalized_fw(self, rng, build, sr):
        g = grid_digraph((5, 5), rng)
        tree = decompose_grid(g, (5, 5), leaf_size=4)
        aug = build(g, tree, sr, keep_node_distances=False)
        got = sssp_scheduled(aug, list(range(g.n)))
        ref = floyd_warshall(dense_semiring_weights(g, sr), sr)
        assert np.allclose(got, ref)

    def test_widest_path_semantics(self):
        """max-min really computes the widest-path capacity."""
        from repro.core.digraph import WeightedDigraph

        # 0->1->2 with capacities 10 and 3; plus direct 0->2 capacity 5.
        g = WeightedDigraph(3, [0, 1, 0], [1, 2, 2], [10.0, 3.0, 5.0])
        ref = floyd_warshall(dense_semiring_weights(g, MAX_MIN), MAX_MIN)
        assert ref[0, 2] == 5.0  # direct link beats the 3-capacity route

    def test_minimax_semantics(self):
        from repro.core.digraph import WeightedDigraph

        # Minimize the largest edge on the way: route 0->1->2 (max 4) beats
        # direct 0->2 (max 9).
        g = WeightedDigraph(3, [0, 1, 0], [1, 2, 2], [4.0, 2.0, 9.0])
        ref = floyd_warshall(dense_semiring_weights(g, MIN_MAX), MIN_MAX)
        assert ref[0, 2] == 4.0
