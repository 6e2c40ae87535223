"""Tests for the recursive k-pair distance oracle (paper §6 routing-table
analog)."""

import numpy as np
import pytest

from repro.apps.routing import DistanceOracle
from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.semiring import BOOLEAN
from repro.separators.grid import decompose_grid
from repro.separators.spectral import decompose_spectral
from repro.workloads.generators import grid_digraph
from tests.conftest import reference_apsp


class TestDistanceOracle:
    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_all_pairs_small_grid(self, rng, method):
        g = grid_digraph((6, 6), rng)
        tree = decompose_grid(g, (6, 6), leaf_size=4)
        if method == "leaves_up":
            oracle = DistanceOracle.build(g, tree)
        else:
            oracle = DistanceOracle(augment_doubling(g, tree, keep_node_distances=True))
        ref = reference_apsp(g)
        for u in range(g.n):
            for v in range(g.n):
                assert np.isclose(oracle.distance(u, v), ref[u, v])

    def test_negative_weights(self, grid6_negative):
        g, tree = grid6_negative
        oracle = DistanceOracle.build(g, tree)
        ref = reference_apsp(g)
        rng = np.random.default_rng(0)
        for _ in range(150):
            u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
            assert np.isclose(oracle.distance(u, v), ref[u, v])

    def test_unreachable_pairs(self, rng):
        from repro.core.digraph import WeightedDigraph

        # Two disjoint directed lines.
        g = WeightedDigraph(8, [0, 1, 2, 4, 5, 6], [1, 2, 3, 5, 6, 7], np.ones(6))
        tree = decompose_spectral(g, leaf_size=3)
        oracle = DistanceOracle.build(g, tree)
        assert oracle.distance(0, 3) == 3.0
        assert np.isinf(oracle.distance(0, 4))
        assert np.isinf(oracle.distance(3, 0))  # directed line, no way back

    def test_batch_pairs(self, delaunay80):
        g, tree, _ = delaunay80
        oracle = DistanceOracle.build(g, tree)
        ref = reference_apsp(g)
        rng = np.random.default_rng(4)
        pairs = [(int(rng.integers(g.n)), int(rng.integers(g.n))) for _ in range(100)]
        got = oracle.distances(pairs)
        want = np.array([ref[u, v] for u, v in pairs])
        both_inf = np.isinf(got) & np.isinf(want)
        assert (both_inf | np.isclose(got, want)).all()

    def test_boolean_semiring_pairs(self, rng):
        from repro.workloads.generators import gnm_digraph

        g = gnm_digraph(40, 70, rng)
        tree = decompose_spectral(g, leaf_size=4)
        oracle = DistanceOracle.build(g, tree, semiring=BOOLEAN)
        import networkx as nx

        nxg = g.to_networkx()
        for u in (0, 5, 17):
            desc = nx.descendants(nxg, u)
            for v in (1, 20, 39):
                want = v in desc or v == u
                assert bool(oracle.distance(u, v)) == want

    def test_requires_kept_matrices(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        with pytest.raises(ValueError):
            DistanceOracle(aug)

    def test_self_distance_is_zero(self, grid7):
        g, tree = grid7
        oracle = DistanceOracle.build(g, tree)
        for v in (0, 24, 48):
            assert oracle.distance(v, v) == 0.0


class TestPathExtraction:
    def test_paths_are_optimal(self, grid6_negative):
        from repro.core.paths import path_weight

        g, tree = grid6_negative
        oracle = DistanceOracle.build(g, tree)
        ref = reference_apsp(g)
        rng = np.random.default_rng(1)
        for _ in range(60):
            u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
            p = oracle.path(u, v)
            assert p is not None and p[0] == u and p[-1] == v
            assert np.isclose(path_weight(g, p), ref[u, v])

    def test_unreachable_returns_none(self):
        from repro.core.digraph import WeightedDigraph

        g = WeightedDigraph(4, [0, 1], [1, 2], np.ones(2))
        tree = decompose_spectral(g, leaf_size=2)
        oracle = DistanceOracle.build(g, tree)
        assert oracle.path(0, 3) is None
        assert oracle.path(2, 0) is None

    def test_trivial_path(self, grid7):
        g, tree = grid7
        oracle = DistanceOracle.build(g, tree)
        assert oracle.path(5, 5) == [5]

    def test_zero_weight_edges_terminate(self):
        from repro.core.digraph import WeightedDigraph
        from repro.core.paths import path_weight

        # Zero 2-cycle next to the optimal route.
        g = WeightedDigraph(4, [0, 1, 2, 1, 3], [1, 2, 1, 3, 0], [1.0, 0.0, 0.0, 1.0, 5.0])
        tree = decompose_spectral(g, leaf_size=2)
        oracle = DistanceOracle.build(g, tree)
        p = oracle.path(0, 3)
        assert p is not None
        assert np.isclose(path_weight(g, p), 2.0)

    def test_rejects_boolean_semiring(self, rng):
        from repro.core.semiring import BOOLEAN
        from repro.workloads.generators import gnm_digraph

        g = gnm_digraph(30, 60, rng)
        tree = decompose_spectral(g, leaf_size=4)
        oracle = DistanceOracle.build(g, tree, semiring=BOOLEAN)
        with pytest.raises(ValueError):
            oracle.path(0, 1)
