"""Tests for E⁺ (Theorem 3.1 / Propositions 4.2, 4.5): both construction
algorithms, edge-for-edge agreement (invariant I3), exactness of node
matrices, deduplication, and the diameter bound (I2)."""

import numpy as np
import pytest

from repro.core.augment import NegativeCycleDetected, dedupe_edges
from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up, dense_semiring_weights
from repro.core.semiring import BOOLEAN, MIN_PLUS
from repro.core.sssp import measured_diameter
from repro.kernels.bellman_ford import min_weight_diameter
from repro.kernels.floyd_warshall import floyd_warshall
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import apply_potential_weights, grid_digraph
from tests.conftest import assert_distances_equal, reference_apsp

BUILDERS = [augment_leaves_up, augment_doubling]
IDS = ["leaves_up", "doubling"]


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
class TestEdgeWeightsExact:
    def test_every_eplus_edge_is_a_true_distance(self, grid7, build):
        """Each E⁺ edge weight equals dist_{G(t)} ≥ dist_G; combined with the
        preservation test this pins Theorem 3.1(i)."""
        g, tree = grid7
        aug = build(g, tree)
        ref = reference_apsp(g)
        # E+ weights are >= the global distance (they are G(t)-distances).
        assert (aug.weight >= ref[aug.src, aug.dst] - 1e-9).all()

    def test_node_matrices_exact_on_label_sets(self, grid7, build):
        """Prop 4.2 / 4.5: within-G(t) distances on the labeled pairs."""
        g, tree = grid7
        aug = build(g, tree)
        for t in tree.nodes:
            nd = aug.node_distances[t.idx]
            sub, mapping = g.induced_subgraph(t.vertices)
            sub_ref = floyd_warshall(sub.dense_weights())
            pos_in_sub = np.searchsorted(mapping, nd.vertices)
            want = sub_ref[np.ix_(pos_in_sub, pos_in_sub)]
            assert_distances_equal(nd.matrix, want)

    def test_distances_preserved(self, grid7, build):
        """Theorem 3.1(i): dist_{G⁺} = dist_G, via naive BF on G⁺."""
        g, tree = grid7
        aug = build(g, tree)
        ref = reference_apsp(g)
        gplus = aug.augmented_graph()
        from repro.kernels.bellman_ford import bellman_ford

        got = bellman_ford(gplus, list(range(g.n)))
        assert_distances_equal(got, ref)

    def test_diameter_bound(self, grid7, build):
        """Theorem 3.1(ii): diam(G⁺) ≤ 4·d_G + 2ℓ + 1."""
        g, tree = grid7
        aug = build(g, tree)
        assert measured_diameter(aug) <= aug.diameter_bound

    def test_diameter_actually_shrinks(self, grid7, build):
        g, tree = grid7
        aug = build(g, tree)
        assert measured_diameter(aug) < min_weight_diameter(g)

    def test_negative_weights(self, grid6_negative, build):
        g, tree = grid6_negative
        aug = build(g, tree)
        ref = reference_apsp(g)
        assert (aug.weight >= ref[aug.src, aug.dst] - 1e-9).all()
        assert measured_diameter(aug) <= aug.diameter_bound

    def test_negative_cycle_detected(self, build):
        g = grid_digraph((4, 4), None)
        # Insert a tight negative 2-cycle in a corner.
        g = g.with_extra_edges([0, 1], [1, 0], [-3.0, 1.0])
        tree = decompose_grid(g, (4, 4), leaf_size=4)
        with pytest.raises(NegativeCycleDetected):
            build(g, tree)

    def test_boolean_semiring(self, grid7, build):
        g, tree = grid7
        aug = build(g, tree, BOOLEAN)
        # Boolean E+ edges must be true reachability facts.
        closure = floyd_warshall(dense_semiring_weights(g, BOOLEAN), BOOLEAN)
        assert closure[aug.src, aug.dst].all()

    def test_leaf_diameters_recorded(self, grid7, build):
        g, tree = grid7
        aug = build(g, tree)
        assert set(aug.leaf_diameters) == {t.idx for t in tree.leaves()}
        assert aug.ell <= tree.ell_bound()

    def test_keep_node_distances_flag(self, grid7, build):
        g, tree = grid7
        aug = build(g, tree, keep_node_distances=False)
        assert aug.node_distances == {}
        assert aug.size > 0  # edges still produced

    def test_ledger_populated(self, grid7, build):
        g, tree = grid7
        led = Ledger()
        build(g, tree, ledger=led, keep_node_distances=False)
        assert led.work > 0 and led.depth > 0


class TestAgreement:
    """Invariant I3: Algorithm 4.1 and 4.3 agree edge-for-edge."""

    @pytest.mark.parametrize("negative", [False, True])
    def test_grid(self, rng, negative):
        g = grid_digraph((6, 6), rng)
        if negative:
            g = apply_potential_weights(g, rng)
        tree = decompose_grid(g, (6, 6), leaf_size=4)
        a1 = augment_leaves_up(g, tree)
        a2 = augment_doubling(g, tree)
        assert np.array_equal(a1.src, a2.src)
        assert np.array_equal(a1.dst, a2.dst)
        assert np.allclose(a1.weight, a2.weight)

    def test_spectral_tree(self, delaunay80):
        g, tree, _ = delaunay80
        a1 = augment_leaves_up(g, tree)
        a2 = augment_doubling(g, tree)
        assert np.array_equal(a1.src, a2.src)
        assert np.allclose(a1.weight, a2.weight)

    def test_node_matrices_agree(self, grid7):
        g, tree = grid7
        a1 = augment_leaves_up(g, tree)
        a2 = augment_doubling(g, tree)
        for t in tree.nodes:
            if t.is_leaf:
                continue
            n1, n2 = a1.node_distances[t.idx], a2.node_distances[t.idx]
            assert np.array_equal(n1.vertices, n2.vertices)
            assert_distances_equal(n1.matrix, n2.matrix)


class TestDedupe:
    def test_keeps_min(self):
        s = np.array([0, 0, 1])
        d = np.array([1, 1, 2])
        w = np.array([5.0, 3.0, 7.0])
        rs, rd, rw = dedupe_edges(3, s, d, w, MIN_PLUS)
        assert rs.tolist() == [0, 1] and rd.tolist() == [1, 2]
        assert rw.tolist() == [3.0, 7.0]

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        rs, rd, rw = dedupe_edges(3, e, e.copy(), np.empty(0), MIN_PLUS)
        assert rs.size == 0

    def test_boolean_or(self):
        s = np.array([0, 0])
        d = np.array([1, 1])
        w = np.array([False, True])
        _, _, rw = dedupe_edges(2, s, d, w, BOOLEAN)
        assert rw.tolist() == [True]


class TestAugmentationObject:
    def test_stats_and_combined(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree)
        s = aug.stats()
        assert s["n"] == g.n and s["eplus"] == aug.size
        src, dst, w, is_aug = aug.combined_edges()
        assert src.shape[0] == g.m + aug.size
        assert is_aug.sum() == aug.size

    def test_single_leaf_tree_gives_empty_eplus(self, rng):
        g = grid_digraph((2, 2), rng)
        tree = decompose_grid(g, (2, 2), leaf_size=8)
        aug = augment_leaves_up(g, tree)
        assert aug.size == 0
        assert aug.diameter_bound >= measured_diameter(aug)
