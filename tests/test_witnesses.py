"""Tests for witness-tracked path reconstruction (paper comment ii,
per-pair form)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digraph import WeightedDigraph
from repro.core.paths import path_weight
from repro.core.witnesses import WitnessOracle, build_witnessed_augmentation
from repro.separators.grid import decompose_grid
from repro.separators.spectral import decompose_spectral
from repro.workloads.generators import apply_potential_weights, grid_digraph
from tests.conftest import reference_apsp


class TestWitnessedNodes:
    def test_node_matrices_match_leaves_up(self, grid7):
        from repro.core.leaves_up import augment_leaves_up

        g, tree = grid7
        witnessed = build_witnessed_augmentation(g, tree)
        plain = augment_leaves_up(g, tree)
        for t in tree.nodes:
            wn = witnessed[t.idx]
            nd = plain.node_distances[t.idx]
            assert np.array_equal(wn.vertices, nd.vertices)
            both_inf = np.isinf(wn.matrix) & np.isinf(nd.matrix)
            assert (both_inf | np.isclose(wn.matrix, nd.matrix)).all()

    def test_every_certified_pair_expands(self, grid7):
        g, tree = grid7
        oracle = WitnessOracle(g, tree)
        ref = reference_apsp(g)
        for t in tree.nodes:
            wn = oracle.nodes[t.idx]
            sub, mapping = g.induced_subgraph(t.vertices)
            sub_ref = reference_apsp(sub)
            pos = np.searchsorted(mapping, wn.vertices)
            for a in range(0, wn.vertices.shape[0], 3):
                for b in range(0, wn.vertices.shape[0], 3):
                    u, v = int(wn.vertices[a]), int(wn.vertices[b])
                    if u == v or np.isinf(wn.matrix[a, b]):
                        continue
                    out = [u]
                    oracle._expand_node_pair(t, u, v, out)
                    assert out[-1] == v
                    # The expanded path stays inside V(t) and realizes the
                    # within-G(t) distance.
                    assert set(out) <= set(t.vertices.tolist())
                    assert np.isclose(path_weight(g, out), sub_ref[pos[a], pos[b]])


class TestPairPaths:
    @pytest.mark.parametrize("negative", [False, True])
    def test_all_pairs_grid(self, rng, negative):
        g = grid_digraph((6, 6), rng)
        if negative:
            g = apply_potential_weights(g, rng)
        tree = decompose_grid(g, (6, 6), leaf_size=4)
        oracle = WitnessOracle(g, tree)
        ref = reference_apsp(g)
        for u in range(g.n):
            for v in range(g.n):
                assert np.isclose(oracle.distance(u, v), ref[u, v])
                p = oracle.path(u, v)
                assert p is not None and p[0] == u and p[-1] == v
                assert np.isclose(path_weight(g, p), ref[u, v])

    def test_unreachable(self):
        g = WeightedDigraph(4, [0, 1], [1, 2], np.ones(2))
        tree = decompose_spectral(g, leaf_size=2)
        oracle = WitnessOracle(g, tree)
        assert oracle.path(0, 3) is None
        assert np.isinf(oracle.distance(3, 0))

    def test_trivial(self, grid7):
        g, tree = grid7
        oracle = WitnessOracle(g, tree)
        assert oracle.path(9, 9) == [9]

    def test_delaunay_sample(self, delaunay80):
        g, tree, _ = delaunay80
        oracle = WitnessOracle(g, tree)
        ref = reference_apsp(g)
        rng = np.random.default_rng(3)
        for _ in range(120):
            u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
            p = oracle.path(u, v)
            if np.isinf(ref[u, v]):
                assert p is None
            else:
                assert np.isclose(path_weight(g, p), ref[u, v])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=8, max_value=25))
def test_witness_paths_on_random_digraphs(seed, n):
    rng = np.random.default_rng(seed)
    m = 3 * n
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    g = WeightedDigraph(n, src[keep], dst[keep], rng.uniform(0.5, 9.0, int(keep.sum())))
    tree = decompose_spectral(g, leaf_size=4)
    oracle = WitnessOracle(g, tree)
    ref = reference_apsp(g)
    for _ in range(20):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if np.isinf(ref[u, v]):
            assert oracle.path(u, v) is None
        else:
            p = oracle.path(u, v)
            assert np.isclose(path_weight(g, p), ref[u, v])
