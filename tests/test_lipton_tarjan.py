"""Tests for the Lipton–Tarjan planar separator engine."""

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.core.digraph import WeightedDigraph
from repro.separators.common import has_two_sides
from repro.separators.lipton_tarjan import (
    _fan_triangulate,
    _level_cut,
    _lt_attempt,
    _tree_cycle,
    decompose_lipton_tarjan,
)
from repro.separators.quality import assess
from repro.workloads.generators import delaunay_digraph, grid_digraph
from tests.conftest import assert_distances_equal, reference_apsp


class TestPhases:
    def test_level_cut_budget(self):
        # 100 vertices spread over 10 equal levels of 10: budget 2√100 = 20.
        level = np.repeat(np.arange(10), 10)
        out = _level_cut(level, 100)
        assert out is not None
        l0, l2, ring = out
        counts = np.bincount(level)
        assert counts[l0] + 2 * (4 - l0) <= 20  # the LT inequality at l1=4
        assert l0 <= 4 < l2

    def test_level_cut_shallow_returns_none(self):
        assert _level_cut(np.array([0, 1, 1]), 3) is None

    def test_fan_triangulate(self):
        tris = _fan_triangulate([[0, 1, 2, 3]])
        assert tris == [(0, 1, 2), (0, 2, 3)]

    def test_fan_triangulate_rejects_repeats(self):
        assert _fan_triangulate([[0, 1, 0, 2]]) is None
        assert _fan_triangulate([[0, 1]]) is None

    def test_tree_cycle(self):
        # Path tree 0-1-2-3 plus non-tree edge (0, 3).
        parent = np.array([-1, 0, 1, 2])
        level = np.array([0, 1, 2, 3])
        cyc = _tree_cycle(0, 3, level, parent)
        assert cyc.tolist() == [0, 1, 2, 3]


class TestAttempt:
    def test_delaunay_direct_attempt(self, rng):
        g, _ = delaunay_digraph(500, rng)
        sep = _lt_attempt(g)
        if sep is not None:  # triangulation-degenerate inputs may bail
            assert sep.shape[0] <= 8 * np.sqrt(g.n)
            assert has_two_sides(g, sep)

    def test_attempt_validates_or_bails(self, rng):
        """On any planar input the attempt either yields a real separator
        or None — never a bogus set."""
        for n in (150, 300):
            g, _ = delaunay_digraph(n, rng)
            sep = _lt_attempt(g)
            if sep is not None:
                assert has_two_sides(g, sep)


class TestEngine:
    def test_grid_decomposition(self, rng):
        g = grid_digraph((16, 16), rng)
        tree = decompose_lipton_tarjan(g)
        tree.validate(g)
        q = assess(tree)
        assert q.mu_hat < 0.8

    def test_delaunay_decomposition(self, rng):
        g, _ = delaunay_digraph(300, rng)
        tree = decompose_lipton_tarjan(g)
        tree.validate(g)

    def test_distances_exact_through_oracle(self, rng):
        g, _ = delaunay_digraph(150, rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(separator="lipton_tarjan"))
        ref = reference_apsp(g)
        assert_distances_equal(oracle.distances([0, 75, 149]), ref[[0, 75, 149]])

    def test_disconnected_input(self, rng):
        a = grid_digraph((5, 5), rng)
        g = WeightedDigraph(
            50,
            np.concatenate([a.src, a.src + 25]),
            np.concatenate([a.dst, a.dst + 25]),
            np.concatenate([a.weight, a.weight]),
        )
        tree = decompose_lipton_tarjan(g, leaf_size=4)
        tree.validate(g)
