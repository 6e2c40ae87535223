"""Tests for .npz persistence of graphs, trees and augmentations."""

import numpy as np
import pytest

from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.sssp import sssp_scheduled
from repro.io import (
    load_augmentation,
    load_graph,
    load_tree,
    save_augmentation,
    save_graph,
    save_tree,
)
from tests.conftest import assert_distances_equal, reference_apsp


class TestGraphIO:
    def test_roundtrip(self, grid7, tmp_path):
        g, _ = grid7
        p = tmp_path / "g.npz"
        save_graph(p, g)
        back = load_graph(p)
        assert back.n == g.n
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.weight, g.weight)

    def test_kind_check(self, grid7, tmp_path):
        g, tree = grid7
        p = tmp_path / "t.npz"
        save_tree(p, tree)
        with pytest.raises(ValueError):
            load_graph(p)


class TestTreeIO:
    def test_roundtrip_preserves_structure(self, grid7, tmp_path):
        g, tree = grid7
        p = tmp_path / "t.npz"
        save_tree(p, tree)
        back = load_tree(p)
        assert back.n == tree.n and back.height == tree.height
        assert len(back.nodes) == len(tree.nodes)
        for a, b in zip(tree.nodes, back.nodes):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.separator, b.separator)
            assert np.array_equal(a.boundary, b.boundary)
            assert a.children == b.children and a.parent == b.parent
        back.validate(g)

    def test_reloaded_tree_drives_pipeline(self, grid7, tmp_path):
        """Comment (iv) operationalized: decompose once, store, reuse."""
        g, tree = grid7
        p = tmp_path / "t.npz"
        save_tree(p, tree)
        back = load_tree(p)
        aug = augment_leaves_up(g, back, keep_node_distances=False)
        got = sssp_scheduled(aug, [0, 24])
        assert_distances_equal(got, reference_apsp(g)[[0, 24]])

    def test_vertex_levels_recomputed(self, grid7, tmp_path):
        g, tree = grid7
        p = tmp_path / "t.npz"
        save_tree(p, tree)
        back = load_tree(p)
        assert np.array_equal(back.vertex_level, tree.vertex_level)
        assert np.array_equal(back.vertex_node, tree.vertex_node)


class TestAugmentationIO:
    def test_roundtrip_answers_queries(self, grid6_negative, tmp_path):
        g, tree = grid6_negative
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        p = tmp_path / "aug.npz"
        save_augmentation(p, aug)
        back = load_augmentation(p)
        assert back.method == aug.method
        assert back.size == aug.size
        assert back.diameter_bound == aug.diameter_bound
        sched = build_schedule(back)
        got = sssp_scheduled(back, list(range(g.n)), schedule=sched)
        assert_distances_equal(got, reference_apsp(g))

    def test_boolean_augmentation_roundtrip(self, grid7, tmp_path):
        from repro.core.reach import reachability_augmentation, reachable_from

        g, tree = grid7
        aug = reachability_augmentation(g, tree)
        p = tmp_path / "baug.npz"
        save_augmentation(p, aug)
        back = load_augmentation(p)
        assert back.semiring.name == "boolean"
        assert np.array_equal(reachable_from(back, [0]), reachable_from(aug, [0]))


class TestEdgeCaseRoundTrips:
    def test_zero_edge_graph(self, tmp_path):
        """A graph with no edges round-trips: empty arrays, empty E⁺,
        all-unreachable distances."""
        from repro.core.digraph import WeightedDigraph
        from repro.separators.spectral import decompose_spectral

        g = WeightedDigraph(6, [], [], [])
        tree = decompose_spectral(g, leaf_size=2)
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        p = tmp_path / "empty.npz"
        save_augmentation(p, aug)
        back = load_augmentation(p)
        assert back.size == 0 and back.graph.m == 0
        got = sssp_scheduled(back, [0])
        assert got[0, 0] == 0.0 and np.isinf(got[0, 1:]).all()

    def test_negative_weights_exact(self, grid6_negative, tmp_path):
        """Negative weights survive bit-exactly (no lossy encode)."""
        g, tree = grid6_negative
        assert (g.weight < 0).any()  # the fixture really is negative
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        p = tmp_path / "neg.npz"
        save_augmentation(p, aug)
        back = load_augmentation(p)
        assert np.array_equal(back.graph.weight, g.weight)
        assert np.array_equal(back.weight, aug.weight)

    def test_single_leaf_tree(self, tmp_path):
        """A decomposition that is one leaf (no separators, empty E⁺)."""
        from repro.separators.grid import decompose_grid
        from repro.workloads.generators import grid_digraph

        g = grid_digraph((2, 2), np.random.default_rng(0))
        tree = decompose_grid(g, (2, 2), leaf_size=8)
        assert len(tree.nodes) == 1
        save_tree(tmp_path / "leaf.npz", tree)
        back = load_tree(tmp_path / "leaf.npz")
        assert len(back.nodes) == 1 and back.nodes[0].children == ()
        aug = augment_leaves_up(g, back, keep_node_distances=False)
        assert aug.size == 0
        save_augmentation(tmp_path / "leaf_aug.npz", aug)
        got = sssp_scheduled(load_augmentation(tmp_path / "leaf_aug.npz"), [0])
        assert_distances_equal(got, reference_apsp(g)[[0]])


class TestOracleSaveLoad:
    def test_facade_roundtrip(self, grid6_negative, tmp_path):
        from repro import ShortestPathOracle

        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        oracle.save(tmp_path / "oracle.npz")
        back = ShortestPathOracle.load(tmp_path / "oracle.npz")
        assert back.diameter_bound == oracle.diameter_bound
        assert np.array_equal(back.distances([0, 20]), oracle.distances([0, 20]))

    def test_roundtrip_preserves_build_config(self, grid7, tmp_path):
        """save → load → query_engine keeps the build's executor —
        the format-2 ``config_json`` header (earlier formats silently
        reverted a loaded oracle to default knobs)."""
        from repro import ShortestPathOracle
        from repro.core.config import OracleConfig

        g, tree = grid7
        cfg = OracleConfig(executor="thread:2", row_cache=16)
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        oracle.save(tmp_path / "oracle.npz")
        back = ShortestPathOracle.load(tmp_path / "oracle.npz")
        assert back.config.executor == "thread:2"
        assert back.config.row_cache == 16
        with back.query_engine(OracleConfig(executor="serial")) as eng:
            got = eng.query([0, 11])
        assert np.array_equal(got, oracle.distances([0, 11]))

    def test_archive_with_retired_process_executor_still_loads(self, grid7, tmp_path):
        """An archive saved with ``executor="process:2"`` loads and answers;
        only opening a query engine on the saved config raises."""
        import json

        from repro import ShortestPathOracle

        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        path = tmp_path / "oracle.npz"
        oracle.save(path)
        with np.load(path, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        saved = json.loads(str(payload["config_json"]))
        saved["executor"] = "process:2"
        payload["config_json"] = np.array(json.dumps(saved, sort_keys=True))
        np.savez_compressed(path, **payload)

        back = ShortestPathOracle.load(path)
        assert back.config.executor == "process:2"
        assert np.array_equal(back.distances([0, 11]), oracle.distances([0, 11]))
        with pytest.raises(ValueError, match=r"'process'.*removed.*thread:N.*shm:N"):
            back.query_engine(back.config)

    def test_legacy_archive_defaults_config(self, grid7, tmp_path):
        """An archive without the config header loads with default knobs."""
        from repro import ShortestPathOracle

        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        p = tmp_path / "legacy.npz"
        save_augmentation(p, aug)  # no config= → header omits config_json
        back = ShortestPathOracle.load(p)
        assert back.config.executor == "serial"
        assert back.config.row_cache == 0
        assert np.array_equal(back.distances(0), sssp_scheduled(aug, [0])[0])

    def test_retired_kernel_key_still_loads(self, grid7, tmp_path):
        """Archives written while ``OracleConfig`` still had a ``kernel``
        field carry it in ``config_json``; they load, keep the other knobs
        and answer bit-identically."""
        import json

        from repro import ShortestPathOracle
        from repro.core.config import OracleConfig

        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(row_cache=16))
        p = tmp_path / "old.npz"
        oracle.save(p)
        with np.load(p, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        saved = json.loads(str(payload["config_json"]))
        saved["kernel"] = "blocked"
        payload["config_json"] = np.array(json.dumps(saved, sort_keys=True))
        np.savez_compressed(p, **payload)
        back = ShortestPathOracle.load(p)
        assert back.config.row_cache == 16
        assert not hasattr(back.config, "kernel")
        assert np.array_equal(back.distances([0, 11, 30]), oracle.distances([0, 11, 30]))

    def test_future_format_refused(self, grid7, tmp_path):
        import numpy as _np

        from repro.io import AUG_FORMAT_VERSION

        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        p = tmp_path / "future.npz"
        save_augmentation(p, aug)
        with np.load(p, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        payload["version"] = _np.int64(AUG_FORMAT_VERSION + 1)
        _np.savez_compressed(p, **payload)
        with pytest.raises(ValueError, match="format"):
            load_augmentation(p)
