"""Tests for the Remark 4.4 shared-pairing doubling variant."""

import numpy as np
import pytest

from repro import ShortestPathOracle, WeightedDigraph
from repro.core.doubling_shared import SharedEdgeTable, augment_doubling_shared
from repro.core.leaves_up import augment_leaves_up
from repro.core.augment import NegativeCycleDetected
from repro.core.semiring import BOOLEAN, MIN_PLUS
from repro.core.sssp import measured_diameter, sssp_scheduled
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.separators.spectral import decompose_spectral
from repro.workloads.generators import (
    apply_potential_weights,
    gnm_digraph,
    grid_digraph,
)
from tests.conftest import assert_distances_equal, reference_apsp


class TestSharedTable:
    def test_dedup_eliminates_redundancy(self, grid7):
        g, tree = grid7
        table = SharedEdgeTable(g, tree, MIN_PLUS)
        assert table.distinct_pair_count() < table.redundant_pair_count()
        # Diagonal pairs carry 1̄.
        diag = table.src == table.dst
        assert (table.weights[diag] == 0.0).all()

    def test_original_edges_absorbed(self, tiny_line):
        tree = decompose_spectral(tiny_line, leaf_size=2)
        table = SharedEdgeTable(tiny_line, tree, MIN_PLUS)
        # Any original edge whose endpoints share a block must carry ≤ its
        # weight.
        for u, v, w in zip(tiny_line.src, tiny_line.dst, tiny_line.weight):
            key = int(u) * tiny_line.n + int(v)
            pos = np.searchsorted(table.keys, key)
            if pos < table.keys.shape[0] and table.keys[pos] == key:
                assert table.weights[pos] <= w + 1e-12


class TestAugmentDoublingShared:
    @pytest.mark.parametrize("negative", [False, True])
    def test_queries_exact(self, rng, negative):
        g = grid_digraph((7, 7), rng)
        if negative:
            g = apply_potential_weights(g, rng)
        tree = decompose_grid(g, (7, 7), leaf_size=4)
        aug = augment_doubling_shared(g, tree, keep_node_distances=False)
        got = sssp_scheduled(aug, list(range(g.n)))
        assert_distances_equal(got, reference_apsp(g))

    def test_diameter_bound_holds(self, grid7):
        g, tree = grid7
        aug = augment_doubling_shared(g, tree, keep_node_distances=False)
        assert measured_diameter(aug) <= aug.diameter_bound

    def test_weights_sound_and_at_most_standard(self, grid7):
        """dist_G ≤ shared weight ≤ per-node weight on every common edge."""
        g, tree = grid7
        shared = augment_doubling_shared(g, tree, keep_node_distances=False)
        std = augment_leaves_up(g, tree, keep_node_distances=False)
        ref = reference_apsp(g)
        assert (shared.weight >= ref[shared.src, shared.dst] - 1e-9).all()
        std_map = {
            (int(s), int(d)): w
            for s, d, w in zip(std.src.tolist(), std.dst.tolist(), std.weight.tolist())
        }
        for s, d, w in zip(shared.src.tolist(), shared.dst.tolist(), shared.weight.tolist()):
            if (s, d) in std_map:
                assert w <= std_map[(s, d)] + 1e-9

    def test_same_edge_set_as_standard(self, grid7):
        g, tree = grid7
        shared = augment_doubling_shared(g, tree, keep_node_distances=False)
        std = augment_leaves_up(g, tree, keep_node_distances=False)
        # Finite-weight pairs coincide (weights may differ — tighter).
        assert np.array_equal(shared.src, std.src)
        assert np.array_equal(shared.dst, std.dst)

    def test_negative_cycle_detected(self):
        g = grid_digraph((4, 4), None)
        g = g.with_extra_edges([0, 1], [1, 0], [-3.0, 1.0])
        tree = decompose_grid(g, (4, 4), leaf_size=4)
        with pytest.raises(NegativeCycleDetected):
            augment_doubling_shared(g, tree)

    def test_boolean_semiring(self, rng):
        g = gnm_digraph(50, 90, rng)
        tree = decompose_spectral(g, leaf_size=4)
        aug = augment_doubling_shared(g, tree, BOOLEAN, keep_node_distances=False)
        got = sssp_scheduled(aug, [0, 10])
        import networkx as nx

        nxg = g.to_networkx()
        for i, s in enumerate((0, 10)):
            want = np.zeros(g.n, dtype=bool)
            want[list(nx.descendants(nxg, s))] = True
            want[s] = got[i, s]
            assert np.array_equal(got[i], want)

    def test_through_oracle_facade(self, delaunay80):
        g, tree, _ = delaunay80
        # As a loaded doubling_shared archive serves it.
        aug = augment_doubling_shared(g, tree)
        oracle = ShortestPathOracle(g, tree, aug, aug.schedule(), preprocess_ledger=Ledger())
        assert_distances_equal(oracle.distances([0, 40]), reference_apsp(g)[[0, 40]])
        # A reweight replays Algorithm 4.1 on the same tree.
        rng = np.random.default_rng(1)
        w2 = rng.uniform(1, 5, g.m)
        fresh = oracle.with_new_weights(w2)
        assert fresh.augmentation.method == "leaves_up"
        cold = ShortestPathOracle.build(WeightedDigraph(g.n, g.src, g.dst, w2), tree)
        assert np.array_equal(fresh.distances([0, 40]), cold.distances([0, 40]))

    def test_routing_oracle_on_shared_matrices(self, grid7):
        """Node matrices from the shared table are within-G(t) upper bounds
        that the recursive DistanceOracle still answers exactly with, since
        every query path it composes is a real G-walk and the certified
        pairs are tight enough."""
        from repro.apps.routing import DistanceOracle

        g, tree = grid7
        aug = augment_doubling_shared(g, tree, keep_node_distances=True)
        oracle = DistanceOracle(aug)
        ref = reference_apsp(g)
        rng = np.random.default_rng(2)
        for _ in range(150):
            u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
            assert np.isclose(oracle.distance(u, v), ref[u, v])
