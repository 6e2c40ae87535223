"""Tests for the consolidated pipeline validator and the batch-query API."""

import numpy as np
import pytest

from repro import ShortestPathOracle
from repro.core.leaves_up import augment_leaves_up
from repro.core.validation import validate_pipeline
from tests.conftest import reference_apsp


class TestValidatePipeline:
    def test_healthy_build_passes_everything(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        report = validate_pipeline(aug)
        assert report.ok, report.summary()
        # Small graph: the exhaustive checks ran.
        assert "exhaustive all-pairs == Floyd-Warshall" in report.checks
        assert "ok]" in report.summary()

    def test_negative_weights_pass(self, grid6_negative):
        g, tree = grid6_negative
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        assert validate_pipeline(aug).ok

    def test_corruption_is_caught_not_raised(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        aug.weight[int(np.argmax(aug.weight))] -= 100.0
        rng = np.random.default_rng(0)
        report = validate_pipeline(aug, edge_sample=aug.size, rng=rng)
        assert not report.ok
        assert not report.checks["E+ soundness & scheduled completeness"]
        assert "FAIL" in report.summary()

    def test_exhaustive_skipped_above_cutoff(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        report = validate_pipeline(aug, exhaustive_cutoff=10)
        assert "exhaustive all-pairs == Floyd-Warshall" not in report.checks
        assert report.ok

    def test_rejects_boolean(self, grid7):
        from repro.core.reach import reachability_augmentation

        g, tree = grid7
        aug = reachability_augmentation(g, tree)
        with pytest.raises(ValueError):
            validate_pipeline(aug)

    def test_oracle_facade_hook(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        assert oracle.validate().ok


class TestBatchQueries:
    @pytest.fixture
    def oracle(self, grid7):
        g, tree = grid7
        return ShortestPathOracle.build(g, tree)

    def test_distance_matrix(self, oracle):
        ref = reference_apsp(oracle.graph)
        sub = oracle.distance_matrix([0, 10], [5, 6, 7])
        assert sub.shape == (2, 3)
        assert np.allclose(sub, ref[np.ix_([0, 10], [5, 6, 7])])

    def test_nearest_source_assignment(self, oracle):
        ref = reference_apsp(oracle.graph)
        srcs = [0, 24, 48]
        assigned, dist = oracle.nearest_source(srcs)
        want = ref[srcs].min(axis=0)
        assert np.allclose(dist, want)
        for v in range(oracle.graph.n):
            assert np.isclose(ref[assigned[v], v], dist[v])

    def test_nearest_source_unreachable(self, rng):
        from repro.core.digraph import WeightedDigraph
        from repro.separators.spectral import decompose_spectral

        # Directed line: nothing reaches vertex 0 except itself.
        g = WeightedDigraph(4, [0, 1, 2], [1, 2, 3], np.ones(3))
        oracle = ShortestPathOracle.build(g, decompose_spectral(g, leaf_size=2))
        assigned, dist = oracle.nearest_source([1])
        assert assigned[0] == -1 and np.isinf(dist[0])
        assert assigned[3] == 1 and dist[3] == 2.0
