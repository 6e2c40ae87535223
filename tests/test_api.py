"""Tests for the ShortestPathOracle facade."""

import numpy as np
import pytest

from repro import (
    OracleConfig,
    QueryEngine,
    ShortestPathOracle,
    augment_doubling,
    augment_doubling_shared,
    augment_leaves_up,
    reachability_augmentation,
)
from repro.core import api
from repro.core.sssp import sssp_naive, sssp_scheduled
from repro.core.paths import path_weight
from repro.separators.grid import decompose_grid
from repro.workloads.generators import apply_potential_weights, delaunay_digraph, grid_digraph
from tests.conftest import assert_distances_equal, reference_apsp

#: Algorithm 4.1 builds the oracle; Algorithm 4.3 is a library function.
BUILDERS = {"leaves_up": augment_leaves_up, "doubling": augment_doubling}


class TestBuild:
    def test_with_explicit_tree(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(validate=True))
        assert oracle.tree is tree
        assert oracle.diameter_bound == oracle.augmentation.diameter_bound

    def test_auto_separator(self, rng):
        g, _ = delaunay_digraph(60, rng)
        oracle = ShortestPathOracle.build(g)  # spectral fallback
        ref = reference_apsp(g)
        assert_distances_equal(oracle.distances([0, 30]), ref[[0, 30]])

    def test_planar_separator_spec(self, rng):
        g, _ = delaunay_digraph(60, rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(separator="planar"))
        assert_distances_equal(oracle.distances(0), reference_apsp(g)[0])

    def test_callable_separator_spec(self, rng):
        from repro.separators.grid import grid_separator_fn

        g = grid_digraph((5, 5), rng)
        oracle = ShortestPathOracle.build(
            g, config=OracleConfig(separator=grid_separator_fn((5, 5)))
        )
        assert_distances_equal(oracle.distances(0), reference_apsp(g)[0])

    def test_unknown_specs_raise(self, grid7):
        g, tree = grid7
        with pytest.raises(ValueError):
            ShortestPathOracle.build(g, config=OracleConfig(separator="voodoo"))
        with pytest.raises(ValueError):
            ShortestPathOracle.build(g, tree, config=OracleConfig(mode="magic"))

    def test_builds_leave_the_callers_tree_alone(self, rng):
        """A ``mode="auto"`` build records its tier decision on its own
        copy of the tree, so a tree reused across builds carries no earlier
        build's decision."""
        g = grid_digraph((12, 12), rng)
        tree = decompose_grid(g, (12, 12))
        auto = ShortestPathOracle.build(g, tree, config=OracleConfig(mode="auto"))
        exact = ShortestPathOracle.build(g, tree, config=OracleConfig(mode="exact"))
        assert tree.selection is None
        decision = auto.stats()["separators"]["selection"]["mode_decision"]
        assert decision["mode"] == "exact" and decision["separability"] >= api.DIRECT_GATE
        assert exact.stats()["separators"]["selection"] is None
        assert exact.tree is tree

    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_methods_agree(self, grid7, method):
        g, tree = grid7
        aug = BUILDERS[method](g, tree)
        assert_distances_equal(sssp_scheduled(aug, [0, 24]), reference_apsp(g)[[0, 24]])


class TestQueries:
    @pytest.fixture
    def oracle(self, grid6_negative):
        g, tree = grid6_negative
        return ShortestPathOracle.build(g, tree)

    def test_engines_agree(self, oracle):
        """The §3.2 schedule against the A3 reference, plain Bellman–Ford
        on G⁺."""
        s = [0, 5, 35]
        assert_distances_equal(oracle.distances(s), sssp_naive(oracle.augmentation, s))

    def test_point_distance(self, oracle):
        ref = reference_apsp(oracle.graph)
        assert np.isclose(oracle.distance(3, 27), ref[3, 27])

    def test_shortest_path_tree_and_path(self, oracle):
        dist = oracle.distances(0)
        parent = oracle.shortest_path_tree(0)
        assert parent[0] == -1
        p = oracle.path(0, 35)
        assert p is not None
        assert np.isclose(path_weight(oracle.graph, p), dist[35])

    def test_stats_keys(self, oracle):
        s = oracle.stats()
        for key in ("n", "m", "eplus", "height", "ell", "diameter_bound",
                    "preprocess_work", "schedule_phases", "schedule_edge_scans"):
            assert key in s

    def test_query_ledger_accumulates(self, oracle):
        w0 = oracle.query_ledger.work
        oracle.distances([0, 1])
        assert oracle.query_ledger.work > w0

    def test_measured_diameter_within_bound(self, oracle):
        assert oracle.measured_diameter() <= oracle.diameter_bound

    def test_negative_cycle_cross_check(self, oracle):
        assert oracle.check_no_negative_cycle()


class TestExecutors:
    @pytest.mark.parametrize(
        "executor",
        [
            "serial",
            "thread:2",
            pytest.param("shm:2", marks=pytest.mark.multiproc),
        ],
    )
    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_backends_identical_results(self, rng, executor, method):
        """A config's executor fans a ``QueryEngine`` batch's rows out; the
        rows it returns are the serial engine's, bit for bit."""
        g = apply_potential_weights(grid_digraph((6, 6), rng), rng)
        tree = decompose_grid(g, (6, 6), leaf_size=4)
        aug = BUILDERS[method](g, tree)
        sources = np.arange(g.n)
        with QueryEngine(aug, OracleConfig(executor="serial")) as eng:
            want = eng.query(sources)
        with QueryEngine(aug, OracleConfig(executor=executor)) as eng:
            got, info = eng.submit(sources)
        # A pool really fans the batch out; serial relaxes it as one block.
        assert info["shards"] == (1 if executor == "serial" else 2)
        assert np.array_equal(got, want)
        assert_distances_equal(want, sssp_scheduled(aug, sources))

    @pytest.mark.parametrize(
        "builder", [augment_doubling, augment_doubling_shared, reachability_augmentation]
    )
    def test_builders_take_no_executor(self, grid7, builder):
        """A build's per-node work runs in the calling thread: no pool beat
        serial on any build (EXPERIMENTS, E-exec-rows), so the builders
        have no executor parameter."""
        g, tree = grid7
        with pytest.raises(TypeError, match="executor"):
            builder(g, tree, executor="thread:2")
