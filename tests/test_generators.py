"""Tests for the workload generators."""

import numpy as np

from repro.core.negcycle import has_negative_cycle
from repro.workloads.generators import (
    apply_potential_weights,
    delaunay_digraph,
    gnm_digraph,
    grid_digraph,
    overlap_digraph,
    path_digraph,
    random_tree_digraph,
)


class TestGrid:
    def test_2d_edge_count(self):
        g = grid_digraph((4, 5), None)
        assert g.n == 20
        # 4*(5-1) + 5*(4-1) undirected lattice edges, both orientations.
        assert g.m == 2 * (4 * 4 + 5 * 3)

    def test_3d_edge_count(self):
        g = grid_digraph((3, 3, 3), None)
        assert g.n == 27 and g.m == 2 * 3 * (2 * 3 * 3)

    def test_unit_weights_without_rng(self):
        g = grid_digraph((3, 3), None)
        assert (g.weight == 1.0).all()

    def test_symmetric_weights(self, rng):
        g = grid_digraph((4, 4), rng, symmetric_weights=True)
        w = g.dense_weights()
        assert np.allclose(w, w.T)

    def test_asymmetric_by_default(self, rng):
        g = grid_digraph((4, 4), rng)
        w = g.dense_weights()
        assert not np.allclose(np.where(np.isfinite(w), w, 0),
                               np.where(np.isfinite(w.T), w.T, 0))

    def test_degenerate_axis(self):
        g = grid_digraph((5, 1), None)
        assert g.m == 2 * 4  # just a path


class TestPotentialTrick:
    def test_creates_negatives_but_no_cycles(self, rng):
        g = apply_potential_weights(grid_digraph((6, 6), rng), rng, scale=8.0)
        assert g.has_negative_weights()
        assert not has_negative_cycle(g)

    def test_preserves_distance_structure(self, rng):
        """Reweighting shifts every u→v distance by p[u] − p[v], so shortest
        path trees are unchanged."""
        from repro.kernels.floyd_warshall import floyd_warshall

        base = grid_digraph((4, 4), rng)
        rng2 = np.random.default_rng(42)
        rew = apply_potential_weights(base, rng2)
        d0 = floyd_warshall(base.dense_weights())
        d1 = floyd_warshall(rew.dense_weights())
        # d1[u,v] - d0[u,v] must equal p[u]-p[v]: check consistency via
        # triangle combinations (without knowing p).
        delta = d1 - d0
        finite = np.isfinite(d0)
        for u, v, w in [(0, 5, 12), (3, 7, 9)]:
            assert np.isclose(delta[u, v] + delta[v, w], delta[u, w])


class TestOtherFamilies:
    def test_path(self, rng):
        g = path_digraph(10, rng)
        assert g.n == 10 and g.m == 18

    def test_tree_is_connected_acyclic(self, rng):
        g = random_tree_digraph(40, rng)
        assert g.m == 2 * 39
        import networkx as nx

        und = nx.Graph(zip(g.src.tolist(), g.dst.tolist()))
        assert nx.is_connected(und) and und.number_of_edges() == 39

    def test_gnm_no_self_loops(self, rng):
        g = gnm_digraph(30, 100, rng)
        assert (g.src != g.dst).all()

    def test_delaunay_planar_and_connected(self, rng):
        g, pts = delaunay_digraph(100, rng)
        assert pts.shape == (100, 2)
        import networkx as nx

        und = nx.Graph(zip(g.src.tolist(), g.dst.tolist()))
        planar, _ = nx.check_planarity(und)
        assert planar  # Delaunay triangulations are planar
        assert nx.is_connected(und)

    def test_delaunay_euclidean_weights(self, rng):
        g, pts = delaunay_digraph(50, rng)
        # Each weight equals the endpoint distance.
        d = np.linalg.norm(pts[g.src] - pts[g.dst], axis=1)
        assert np.allclose(g.weight, d)

    def test_overlap_degree_scale(self, rng):
        g, pts = overlap_digraph(300, rng, degree_target=6.0)
        avg_deg = g.m / g.n
        assert 2.0 < avg_deg < 14.0

    def test_overlap_3d(self, rng):
        g, pts = overlap_digraph(200, rng, dim=3, degree_target=8.0)
        assert pts.shape == (200, 3)
