"""Tests for all separator engines and the shared progress machinery."""

import numpy as np
import pytest

from repro.core.digraph import WeightedDigraph
from repro.separators.bfs_levels import bfs_levels
from repro.separators.common import (
    component_aware,
    ensure_progress,
    has_two_sides,
    neighborhood_separator,
    rest_components,
)
from repro.separators.planar import decompose_planar
from repro.separators.quality import assess
from repro.separators.spectral import decompose_spectral, fiedler_vector
from repro.separators.treewidth import decompose_treewidth, tree_decomposition_width
from repro.workloads.generators import (
    delaunay_digraph,
    grid_digraph,
    random_tree_digraph,
)


class TestBfsLevels:
    def test_levels_on_path(self):
        g = WeightedDigraph(4, [0, 1, 2], [1, 2, 3], np.ones(3))
        level, parent = bfs_levels(g, 0)
        assert level.tolist() == [0, 1, 2, 3]
        assert parent.tolist() == [-1, 0, 1, 2]

    def test_unreached_marked(self):
        g = WeightedDigraph(3, [0], [1], [1.0])
        level, _ = bfs_levels(g, 0)
        assert level[2] == -1


class TestCommon:
    def test_rest_components(self):
        g = grid_digraph((3, 3), None)
        ncomp, largest = rest_components(g, np.array([1, 4, 7]))  # middle column
        assert ncomp == 2 and largest == 3

    def test_has_two_sides_false_for_corner(self):
        g = grid_digraph((3, 3), None)
        assert not has_two_sides(g, np.array([0]))

    def test_neighborhood_separator_star(self):
        # Star: center 0; N(leaf) = {0} separates that leaf from the rest.
        n = 6
        g = WeightedDigraph(n, [0] * 5 + list(range(1, 6)), list(range(1, 6)) + [0] * 5,
                            np.ones(10))
        sep = neighborhood_separator(g)
        assert sep.tolist() == [0]
        assert has_two_sides(g, sep)

    def test_neighborhood_separator_clique_signals_inseparable(self):
        from repro.core.septree import InseparableSubgraph

        n = 5
        src = [i for i in range(n) for j in range(n) if i != j]
        dst = [j for i in range(n) for j in range(n) if i != j]
        g = WeightedDigraph(n, src, dst, np.ones(len(src)))
        with pytest.raises(InseparableSubgraph):
            neighborhood_separator(g)

    def test_clique_becomes_oversized_leaf(self):
        """A K6 has no separator (paper §1 definition): the builder must
        fall back to an oversized leaf and the pipeline must stay exact."""
        from repro.core.leaves_up import augment_leaves_up
        from repro.core.sssp import sssp_scheduled
        from repro.kernels.floyd_warshall import floyd_warshall

        n = 6
        src = [i for i in range(n) for j in range(n) if i != j]
        dst = [j for i in range(n) for j in range(n) if i != j]
        rng = np.random.default_rng(0)
        g = WeightedDigraph(n, src, dst, rng.uniform(1, 5, len(src)))
        tree = decompose_spectral(g, leaf_size=3)
        assert len(tree.nodes) == 1 and tree.root.is_leaf
        aug = augment_leaves_up(g, tree)
        got = sssp_scheduled(aug, list(range(n)))
        assert np.allclose(got, floyd_warshall(g.dense_weights()))

    def test_ensure_progress_passthrough(self):
        g = grid_digraph((3, 3), None)
        sep = np.array([1, 4, 7])
        assert ensure_progress(g, sep) is sep

    def test_component_aware_empty_on_balanced_disconnect(self):
        g = WeightedDigraph(6, [0, 1, 3, 4], [1, 2, 4, 5], np.ones(4))

        def never(sub, gv):  # should not be called
            raise AssertionError("core called on balanced disconnected input")

        sep = component_aware(never)(g, np.arange(6))
        assert sep.size == 0


class TestEngines:
    def test_planar_on_delaunay(self, rng):
        g, _ = delaunay_digraph(200, rng)
        tree = decompose_planar(g, leaf_size=8)
        tree.validate(g)
        q = assess(tree)
        assert q.mu_hat < 0.85  # sublinear separators
        assert q.height_over_log2n < 3.0

    def test_spectral_on_grid_is_sqrt(self, rng):
        g = grid_digraph((16, 16), rng)
        tree = decompose_spectral(g, leaf_size=8)
        tree.validate(g)
        q = assess(tree)
        assert 0.3 < q.mu_hat < 0.75

    def test_treewidth_on_tree_gives_tiny_separators(self, rng):
        g = random_tree_digraph(100, rng)
        assert tree_decomposition_width(g) == 1
        tree = decompose_treewidth(g, leaf_size=4)
        tree.validate(g)
        q = assess(tree)
        assert q.max_separator <= 2

    def test_fiedler_vector_signs_split_barbell(self):
        # Two triangles joined by one edge: Fiedler vector separates them.
        src = [0, 1, 2, 3, 4, 5, 2]
        dst = [1, 2, 0, 4, 5, 3, 3]
        g = WeightedDigraph(6, src + dst, dst + src, np.ones(14))
        f = fiedler_vector(g)
        left = set(np.nonzero(f < np.median(f))[0].tolist())
        assert left in ({0, 1, 2}, {3, 4, 5})

    def test_engines_handle_disconnected_input(self, rng):
        a = grid_digraph((4, 4), rng)
        # Two disjoint 4x4 grids in one vertex space.
        g = WeightedDigraph(
            32,
            np.concatenate([a.src, a.src + 16]),
            np.concatenate([a.dst, a.dst + 16]),
            np.concatenate([a.weight, a.weight]),
        )
        for build in (decompose_spectral, decompose_planar):
            tree = build(g, leaf_size=4)
            tree.validate(g)


class TestQuality:
    def test_assess_reports_sane_numbers(self, grid7):
        g, tree = grid7
        q = assess(tree)
        assert q.n == g.n
        assert q.num_nodes == len(tree.nodes)
        assert q.max_leaf_size <= 4
        assert 0 < q.worst_balance <= 1.0
        assert "μ̂" in q.summary()

    def test_single_leaf_tree(self, rng):
        g = grid_digraph((2, 2), rng)
        from repro.separators.grid import decompose_grid

        tree = decompose_grid(g, (2, 2), leaf_size=8)
        q = assess(tree)
        assert q.num_nodes == 1 and q.mu_hat == 0.0


class TestRetiredEngines:
    """Engines deleted after E-engines showed them winning no cell keep a
    pointed error that names the survivors."""

    @pytest.mark.parametrize("name", ["lipton_tarjan", "geometric"])
    def test_retired_name_raises_a_pointed_error(self, name, rng):
        from repro import OracleConfig, ShortestPathOracle
        from repro.separators import available_engines, decompose

        g = grid_digraph((6, 6), rng)
        pointed = (f"'{name}' separator engine was removed.*registered engines: "
                   + ", ".join(available_engines()))
        with pytest.raises(ValueError, match=pointed):
            decompose(g, name)
        with pytest.raises(ValueError, match=pointed):
            ShortestPathOracle.build(g, config=OracleConfig(separator=name))
        assert name not in available_engines()

    def test_unhashable_name_raises_the_registry_error(self, rng):
        from repro import OracleConfig, ShortestPathOracle
        from repro.separators import available_engines, decompose, resolve_engine

        g = grid_digraph((6, 6), rng)
        pointed = r"unknown separator engine \['x'\]; registered engines: " + ", ".join(
            available_engines())
        with pytest.raises(ValueError, match=pointed):
            resolve_engine(["x"])
        with pytest.raises(ValueError, match=pointed):
            decompose(g, ["x"])
        with pytest.raises(ValueError, match=pointed):
            ShortestPathOracle.build(g, config=OracleConfig(separator=["x"]))
