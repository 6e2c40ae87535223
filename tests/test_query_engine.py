"""Persistent :class:`~repro.core.query.QueryEngine`: cross-backend
equivalence, cache reuse (the build-once contract), telemetry, lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.query import QueryEngine
from repro.core.sssp import sssp_scheduled
from repro.pram.shm import orphaned_segments
from tests.conftest import assert_distances_equal, reference_apsp

BACKENDS = [
    "serial",
    "thread:2",
    pytest.param("shm:2", marks=pytest.mark.multiproc),
]


@pytest.fixture
def oracle(grid6_negative):
    g, tree = grid6_negative
    return ShortestPathOracle.build(g, tree)


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_to_serial_pass(self, oracle, rng, backend):
        srcs = rng.integers(0, oracle.graph.n, size=17)
        want = sssp_scheduled(oracle.augmentation, srcs)
        with oracle.query_engine(OracleConfig(executor=backend)) as eng:
            got = eng.query(srcs)
            again = eng.query(srcs)  # second batch through the warm pool
        assert np.array_equal(got, want)
        assert np.array_equal(again, want)
        assert orphaned_segments() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_reference_apsp(self, grid6_negative, backend):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine(OracleConfig(executor=backend)) as eng:
            got = eng.query(np.arange(g.n))
        assert_distances_equal(got, reference_apsp(g))

    def test_single_source_and_tiny_batch(self, oracle):
        with oracle.query_engine(OracleConfig(executor="serial")) as eng:
            d = eng.query(3)
            assert d.shape == (oracle.graph.n,)
            d1 = eng.query([3])
            assert d1.shape == (1, oracle.graph.n)
            assert np.array_equal(d, d1[0])

    @pytest.mark.multiproc
    def test_uneven_shards(self, oracle):
        """Batch size not divisible by worker count still covers every row."""
        srcs = np.arange(7)
        want = sssp_scheduled(oracle.augmentation, srcs)
        with oracle.query_engine(OracleConfig(executor="shm:3")) as eng:
            assert np.array_equal(eng.query(srcs), want)
        assert orphaned_segments() == []


class TestCaching:
    def test_engine_reuses_augmentation_caches(self, oracle):
        """The build-once contract: the engine must hold the *same* schedule
        the augmentation caches — not a rebuild."""
        aug = oracle.augmentation
        eng = QueryEngine(aug)
        try:
            assert eng.schedule is aug.schedule()
            assert eng.schedule is oracle.schedule
        finally:
            eng.close()

    def test_augmentation_caches_are_singletons(self, oracle):
        aug = oracle.augmentation
        assert aug.schedule() is aug.schedule()
        assert aug.relaxer() is aug.relaxer()
        assert aug.augmented_graph() is aug.augmented_graph()

    def test_engines_share_one_schedule(self, oracle):
        with oracle.query_engine(OracleConfig(executor="serial")) as a, \
             oracle.query_engine(OracleConfig(executor="serial")) as b:
            assert a.schedule is b.schedule

    @pytest.mark.multiproc
    def test_shm_publishes_once_across_queries(self, oracle):
        with oracle.query_engine(OracleConfig(executor="shm:2")) as eng:
            eng.query(np.arange(8))
            published = eng.stats()["shared_bytes"]
            eng.query(np.arange(8))
            # Same batch size: no new phase arrays, no new distance block.
            assert eng.stats()["shared_bytes"] == published


class TestLifecycle:
    def test_stats_counters(self, oracle):
        with oracle.query_engine(OracleConfig(executor="serial")) as eng:
            eng.query([0, 1, 2])
            eng.query(5)
            s = eng.stats()
        assert s["queries_served"] == 2
        assert s["rows_served"] == 4
        assert s["engine"] == "scheduled" and s["phases"] >= 1

    def test_query_after_close_raises(self, oracle):
        eng = oracle.query_engine(OracleConfig(executor="serial"))
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(ValueError):
            eng.query([0])

    @pytest.mark.multiproc
    def test_close_releases_segments(self, oracle):
        eng = oracle.query_engine(OracleConfig(executor="shm:2"))
        eng.query(np.arange(6))
        assert orphaned_segments() != []  # arena is live while serving
        eng.close()
        assert orphaned_segments() == []
