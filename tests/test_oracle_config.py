"""The :class:`~repro.core.config.OracleConfig` consolidation: ``config=``
as the one way in (removed kwargs raise), serialization, the shared
``query_engine`` parameter set, and the ``with_new_weights`` executor
regression."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle
from repro.core.query import QueryEngine
from repro.core.semiring import MIN_PLUS, SEMIRINGS
from repro.core.sssp import sssp_scheduled


class TestDefaults:
    def test_defaults_mirror_legacy_kwargs(self):
        cfg = OracleConfig()
        assert cfg.mode == "exact"
        assert cfg.separator == "auto"
        assert cfg.resolved_semiring is MIN_PLUS
        assert cfg.leaf_size == 8
        assert cfg.executor == "serial"
        assert cfg.keep_node_distances is False
        assert cfg.validate is False

    @pytest.mark.parametrize(
        "bad", [{"mode": "magic"}, {"row_cache": -1}, {"cache": "sometimes"},
                {"semiring": "tropical-ish"}]
    )
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            OracleConfig(**bad)

    def test_semiring_by_name(self):
        cfg = OracleConfig(semiring="boolean")
        assert cfg.resolved_semiring is SEMIRINGS["boolean"]


class TestSerialization:
    def test_to_from_dict_round_trip(self):
        cfg = OracleConfig(mode="auto", executor="shm:4", row_cache=16,
                           leaf_size=6)
        d = cfg.to_dict()
        assert d["semiring"] == "min-plus"
        back = OracleConfig.from_dict(d)
        assert back == cfg.replace(semiring="min-plus")
        assert back.resolved_semiring is cfg.resolved_semiring

    def test_unserializable_fields_rejected(self):
        with pytest.raises(TypeError):
            OracleConfig(separator=lambda g, leaf_size: None).to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown OracleConfig keys"):
            OracleConfig.from_dict({"methd": "leaves_up"})


#: Every keyword the build and the query engine used to take beside
#: ``config=``; each is now only an OracleConfig field (``engine`` and
#: ``source_block`` are retired entirely).
_REMOVED_BUILD_KWARGS = (
    "separator", "method", "semiring", "leaf_size", "executor", "validate",
    "keep_node_distances", "cache", "cache_dir", "mode",
)
_REMOVED_ENGINE_KWARGS = ("executor", "engine", "source_block")


class TestBuildEquivalence:
    @pytest.mark.parametrize(
        "entry, kwarg",
        [("build", k) for k in _REMOVED_BUILD_KWARGS]
        + [(e, k) for e in ("query_engine", "QueryEngine") for k in _REMOVED_ENGINE_KWARGS],
    )
    def test_removed_kwarg_raises_type_error_naming_it(self, grid6_negative, entry, kwarg):
        g, tree = grid6_negative
        value = getattr(OracleConfig(), kwarg, None)
        with pytest.raises(TypeError, match=rf"\b{kwarg}\b"):
            if entry == "build":
                ShortestPathOracle.build(g, tree, **{kwarg: value})
            else:
                oracle = ShortestPathOracle.build(g, tree)
                if entry == "query_engine":
                    oracle.query_engine(**{kwarg: value})
                else:
                    QueryEngine(oracle.augmentation, **{kwarg: value})

    def test_build_stores_resolved_config(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(executor="thread:2"))
        assert oracle.config.executor == "thread:2"
        assert oracle.augmentation.method == "leaves_up"


class TestQueryEngineUnification:
    def test_same_parameter_set_same_order(self):
        eng_params = list(inspect.signature(QueryEngine.__init__).parameters)[2:]
        facade_params = list(
            inspect.signature(ShortestPathOracle.query_engine).parameters
        )[1:]
        build_params = list(inspect.signature(ShortestPathOracle.build).parameters)
        assert eng_params == facade_params == ["config"]
        assert build_params == ["graph", "tree", "config"]

    def test_query_engine_takes_config(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        cfg = OracleConfig(executor="thread:2", row_cache=4)
        with oracle.query_engine(cfg) as eng:
            assert eng.config is cfg and eng.row_cache_capacity == 4
            got = eng.query([0, 5])
        assert np.array_equal(got, sssp_scheduled(oracle.augmentation, [0, 5]))

    def test_facade_and_engine_default_to_serial(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        for eng in (QueryEngine(oracle.augmentation), oracle.query_engine()):
            with eng:
                assert eng.config.executor == "serial"
                assert eng.stats()["backend"] == "serial"


class TestWithNewWeightsRegression:
    """`with_new_weights` used to rebuild with the default executor,
    silently dropping the original build's choices."""

    def test_executor_and_row_cache_survive_rebuild(self, grid6_negative, rng):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(
            g, tree, config=OracleConfig(executor="thread:2", row_cache=16)
        )
        w2 = np.abs(g.weight) + rng.uniform(0.1, 1.0, size=g.m)
        rebuilt = oracle.with_new_weights(w2)
        assert rebuilt.config.executor == "thread:2"
        assert rebuilt.config.row_cache == 16
        # and the rebuild is still correct for the new weights
        want = ShortestPathOracle.build(
            g.__class__(g.n, g.src, g.dst, w2), tree
        ).distances([0, 3])
        assert np.allclose(rebuilt.distances([0, 3]), want)

    def test_skeleton_change_rebuilds_with_the_saved_config(self, grid6_negative, rng):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(leaf_size=6))
        rebuilt = oracle.with_new_weights(graph=g.reverse())
        assert rebuilt.config == oracle.config
        assert rebuilt.augmentation.method == "leaves_up"
        assert rebuilt.augmentation.weights_epoch == 1
        want = ShortestPathOracle.build(g.reverse(), tree).distances([0, 3])
        assert np.array_equal(rebuilt.distances([0, 3]), want)
