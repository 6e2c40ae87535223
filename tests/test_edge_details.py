"""Focused unit tests for behaviors not pinned elsewhere: exact phase-mask
membership in the schedule, quality fitting on crafted trees, multilevel
refinement mechanics, io failure paths, executor error propagation, and
extreme leaf sizes."""

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph
from tests.conftest import assert_distances_equal, reference_apsp


class TestScheduleMasks:
    """The §3.2 filters, checked against hand-derived membership."""

    @pytest.fixture
    def setup(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        schedule = build_schedule(aug)
        src, dst, w, is_aug = aug.combined_edges()
        lv = tree.vertex_level
        return aug, schedule, src, dst, lv

    def test_desc_same_contains_exactly_level_pairs(self, setup):
        aug, schedule, src, dst, lv = setup
        d_g = aug.tree.height
        # Find the desc-same phase for the top level.
        idx = schedule.labels.index(f"desc-same-{d_g}")
        relaxer = schedule.relaxers[idx]
        want = int(((lv[src] == d_g) & (lv[dst] == d_g)).sum())
        assert relaxer.m == want

    def test_desc_drop_excludes_undefined(self, setup):
        aug, schedule, src, dst, lv = setup
        d_g = aug.tree.height
        idx = schedule.labels.index(f"desc-drop-{d_g}")
        relaxer = schedule.relaxers[idx]
        want = int(((lv[src] == d_g) & (lv[dst] >= 0) & (lv[dst] < d_g)).sum())
        assert relaxer.m == want

    def test_asc_rise_membership(self, setup):
        aug, schedule, src, dst, lv = setup
        idx = schedule.labels.index("asc-rise-0")
        relaxer = schedule.relaxers[idx]
        want = int(((lv[src] == 0) & (lv[dst] > 0)).sum())
        assert relaxer.m == want

    def test_prefix_phases_scan_only_original(self, setup):
        aug, schedule, src, dst, lv = setup
        if aug.ell:
            assert schedule.relaxers[0].m == aug.graph.m


class TestQualityFit:
    def test_mu_fit_on_crafted_tree(self):
        """Craft nodes with |S| = |V|^0.5 exactly; the fit must recover 0.5."""
        from repro.core.septree import SeparatorTree, SepTreeNode

        nodes = [SepTreeNode(
            idx=0, level=0, parent=-1,
            vertices=np.arange(1024), separator=np.arange(32),
            boundary=np.empty(0, dtype=np.int64), children=(1, 2),
        )]
        sizes = [(1, 1, 512, 23), (2, 1, 512, 23), (3, 2, 256, 16), (4, 2, 256, 16)]
        for idx, level, size, sep in sizes:
            nodes.append(SepTreeNode(
                idx=idx, level=level, parent=0 if level == 1 else 1,
                vertices=np.arange(size), separator=np.arange(sep),
                boundary=np.empty(0, dtype=np.int64),
                children=(3, 4) if idx == 1 else (),
            ))
        nodes[0].children = (1, 2)
        from repro.separators.quality import assess

        tree = SeparatorTree.__new__(SeparatorTree)
        tree.nodes = nodes
        tree.n = 1024
        tree.height = 2
        q = assess(tree)
        assert abs(q.mu_hat - 0.5) < 0.05


class TestMultilevelRefinement:
    def test_refine_moves_obvious_vertex(self):
        from repro.separators.multilevel import _Level, _refine

        # Path 0-1-2-3-4-5 with vertex 1 stranded on side B between two
        # A-vertices: flipping it removes two cut edges (gain +2) while
        # keeping the 1/3..2/3 balance.
        level = _Level(
            n=6,
            eu=np.arange(5),
            ev=np.arange(1, 6),
            emult=np.ones(5),
            vweight=np.ones(6),
            fine_to_coarse=None,
        )
        in_a = np.array([True, False, True, True, False, False])
        before = (in_a[level.eu] != in_a[level.ev]).sum()
        out = _refine(level, in_a)
        after = (out[level.eu] != out[level.ev]).sum()
        # Greedy refinement strictly improved the cut (order-dependent local
        # optimum, so we assert improvement, not the global minimum) while
        # keeping the 1/3–2/3 balance.
        assert after < before
        assert 2 <= out.sum() <= 4


class TestIOErrors:
    def test_load_graph_rejects_wrong_kind(self, tmp_path, grid7):
        from repro.io import load_tree, save_graph

        g, _ = grid7
        save_graph(tmp_path / "g.npz", g)
        with pytest.raises(ValueError):
            load_tree(tmp_path / "g.npz")

    def test_load_augmentation_rejects_graph_file(self, tmp_path, grid7):
        from repro.io import load_augmentation, save_graph

        g, _ = grid7
        save_graph(tmp_path / "g.npz", g)
        with pytest.raises(ValueError):
            load_augmentation(tmp_path / "g.npz")


def _boom(payload):
    raise RuntimeError("worker exploded")


class TestExecutorErrors:
    @pytest.mark.parametrize(
        "spec",
        [
            "serial",
            "thread:2",
            pytest.param("shm:2", marks=pytest.mark.multiproc),
        ],
    )
    def test_worker_exception_propagates(self, spec):
        from repro.pram.executor import get_executor

        exe = get_executor(spec)
        try:
            with pytest.raises(RuntimeError):
                exe.map(_boom, [1, 2])
        finally:
            exe.close()


class TestExtremeLeafSizes:
    def test_leaf_size_one(self, rng):
        """Minimal leaves: even with leaf_size=1 a leaf can hold an interior
        vertex plus one boundary vertex (full-S inclusion), so ℓ ≤ 1; the
        schedule must stay exact with the tiny prefix."""
        g = grid_digraph((5, 5), rng)
        tree = decompose_grid(g, (5, 5), leaf_size=1)
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        schedule = build_schedule(aug)
        assert aug.ell <= 1
        from repro.core.sssp import sssp_scheduled

        got = sssp_scheduled(aug, list(range(g.n)), schedule=schedule)
        assert_distances_equal(got, reference_apsp(g))

    def test_leaf_size_covers_whole_graph(self, rng):
        g = grid_digraph((4, 4), rng)
        oracle = ShortestPathOracle.build(
            g, config=OracleConfig(separator="spectral", leaf_size=100)
        )
        assert oracle.tree.root.is_leaf
        assert_distances_equal(oracle.distances(0), reference_apsp(g)[0])


class TestCombinedEdges:
    def test_flags_and_order(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        src, dst, w, is_aug = aug.combined_edges()
        assert np.array_equal(src[: g.m], g.src)
        assert not is_aug[: g.m].any() and is_aug[g.m :].all()
        assert np.array_equal(w[g.m :], aug.weight)
