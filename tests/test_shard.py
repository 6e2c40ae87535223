"""Unit and equivalence tests of the separator-sharded fleet (fast lane).

Everything here runs the *inline* backend (K warm engines in-process, no
worker processes) so it belongs to the blocking tier-1 suite; the process
backend — workers, crash/restart, pinning, serving — is exercised under
the ``multiproc`` marker in ``test_shard_fleet.py``.

Bit-identity discipline: tests asserting ``np.array_equal`` use integer
edge weights, where float arithmetic is exact and the three-leg route
evaluates the same sums as the direct engine; float-weight tests assert
allclose plus identical ∞ masks (DESIGN.md §8).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OracleConfig, ShortestPathOracle, WeightedDigraph
from repro.separators.grid import decompose_grid
from repro.separators.spectral import decompose_spectral
from repro.shard import ShardRouter, extract_subtree, make_shard_plan
from repro.shard.engine import shard_build_config
from repro.workloads.generators import grid_digraph


def integer_grid(side: int, seed: int = 0, *, negative: bool = False):
    """A ``side×side`` grid digraph with integer weights (and, optionally,
    integer potential-shifted negative weights that keep all cycles
    non-negative), plus its grid decomposition."""
    rng = np.random.default_rng(seed)
    g = grid_digraph((side, side), rng)
    w = np.round(g.weight * 8.0).astype(np.float64)
    if negative:
        p = rng.integers(0, 12, size=g.n).astype(np.float64)
        w = w + p[g.src] - p[g.dst]  # potential transform: no negative cycles
    g = WeightedDigraph(g.n, g.src, g.dst, w)
    tree = decompose_grid(g, (side, side), leaf_size=4)
    return g, tree


# ------------------------------------------------------------------ #
# Shard plans
# ------------------------------------------------------------------ #


class TestShardPlan:
    def test_invariants_grid(self):
        g, tree = integer_grid(10)
        for k in (2, 3, 4, 6):
            plan = make_shard_plan(g, tree, k)  # _verify_plan runs inside
            assert plan.k >= 2
            assert plan.home.min() >= 0
            # interiors partition V \ spine
            interiors = np.concatenate([s.interior for s in plan.shards])
            assert len(np.unique(interiors)) == len(interiors)
            assert len(interiors) + len(plan.spine) == g.n
            # spine_index is a bijection onto 0..|spine|-1
            assert np.array_equal(
                np.sort(plan.spine_index[plan.spine]), np.arange(len(plan.spine))
            )

    def test_k1_single_shard_empty_spine(self):
        g, tree = integer_grid(6)
        plan = make_shard_plan(g, tree, 1)
        assert plan.k == 1
        assert plan.spine.size == 0
        assert plan.shards[0].n == g.n
        assert plan.shards[0].boundary.size == 0

    def test_home_points_to_containing_shard(self):
        g, tree = integer_grid(8)
        plan = make_shard_plan(g, tree, 4)
        for v in range(g.n):
            shard = plan.shards[plan.home[v]]
            assert v in shard.vertices

    def test_large_k_saturates(self):
        g, tree = integer_grid(6)
        plan = make_shard_plan(g, tree, 10_000)
        assert plan.k <= len(tree.nodes)

    def test_k_zero_rejected(self):
        g, tree = integer_grid(6)
        with pytest.raises(ValueError, match="k must be"):
            make_shard_plan(g, tree, 0)

    def test_tree_graph_mismatch_rejected(self):
        g, tree = integer_grid(6)
        other = WeightedDigraph(5, [0], [1], [1.0])
        with pytest.raises(ValueError, match="vertex count"):
            make_shard_plan(other, tree, 2)

    def test_fingerprint_keyed_by_weights_and_cut(self):
        g, tree = integer_grid(8)
        a = make_shard_plan(g, tree, 2)
        assert a.fingerprint() == make_shard_plan(g, tree, 2).fingerprint()
        assert a.fingerprint() != make_shard_plan(g, tree, 4).fingerprint()
        g2 = WeightedDigraph(g.n, g.src, g.dst, g.weight + 1.0)
        assert a.fingerprint() != make_shard_plan(g2, tree, 2).fingerprint()

    def test_extract_subtree_recomputes_boundaries(self):
        g, tree = integer_grid(8)
        plan = make_shard_plan(g, tree, 3)
        for shard in plan.shards:
            sub = shard.tree
            assert sub.n == shard.n
            assert sub.nodes[0].boundary.size == 0  # local root: B = ∅
            for t in sub.nodes:
                if t.parent >= 0:
                    p = sub.nodes[t.parent]
                    want = np.intersect1d(
                        np.union1d(p.separator, p.boundary), t.vertices
                    )
                    assert np.array_equal(np.sort(t.boundary), want)
            # the extracted subtree must be a valid decomposition of the
            # shard's own subgraph
            sub.validate(shard.graph)

    def test_stats_shape(self):
        g, tree = integer_grid(8)
        plan = make_shard_plan(g, tree, 2)
        s = plan.stats()
        assert s["k"] == plan.k
        assert sum(len(sh.interior) for sh in plan.shards) + s["spine_vertices"] == g.n
        assert len(s["shard_sizes"]) == plan.k


def test_extract_subtree_of_root_is_whole_tree():
    g, tree = integer_grid(6)
    sub = extract_subtree(tree, 0, np.arange(g.n))
    assert sub.n == tree.n
    assert len(sub.nodes) == len(tree.nodes)
    sub.validate(g)


# ------------------------------------------------------------------ #
# Inline router equivalence
# ------------------------------------------------------------------ #


SOURCES = [0, 3, 17, 31]


class TestInlineRouterEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bit_identical_integer_weights(self, k):
        g, tree = integer_grid(10, seed=1)
        oracle = ShortestPathOracle.build(g, tree)
        srcs = list(range(0, g.n, 7))
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, k=k, backend="inline") as r:
            got = r.query(srcs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [2, 4])
    def test_bit_identical_negative_integer_weights(self, k):
        g, tree = integer_grid(9, seed=3, negative=True)
        assert (g.weight < 0).any()
        oracle = ShortestPathOracle.build(g, tree)
        srcs = list(range(0, g.n, 5))
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, k=k, backend="inline") as r:
            got = r.query(srcs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [2, 4])
    def test_unreachable_rows_exact_inf(self, k):
        # A forward-only directed path: everything before a source is
        # unreachable, so rows carry genuine ∞ blocks through all 3 legs.
        n = 48
        rng = np.random.default_rng(11)
        w = rng.integers(1, 9, size=n - 1).astype(np.float64)
        g = WeightedDigraph(n, np.arange(n - 1), np.arange(1, n), w)
        tree = decompose_spectral(g, leaf_size=4)
        oracle = ShortestPathOracle.build(g, tree)
        srcs = [0, 13, 29, 47]
        want = oracle.distances(srcs)
        assert np.isinf(want).any()
        with ShardRouter(g, tree, k=k, backend="inline") as r:
            got = r.query(srcs)
        assert np.array_equal(got, want)

    def test_float_weights_allclose_same_inf_mask(self, grid6_negative):
        g, tree = grid6_negative
        oracle = ShortestPathOracle.build(g, tree)
        srcs = list(range(0, g.n, 3))
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, k=4, backend="inline") as r:
            got = r.query(srcs)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        mask = np.isfinite(want)
        assert np.allclose(got[mask], want[mask], atol=1e-9)

    def test_boolean_semiring_reachability(self):
        g, tree = integer_grid(8, seed=5)
        cfg = OracleConfig(semiring="boolean")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        srcs = [0, 20, 45]
        want = oracle.distances(srcs)
        with ShardRouter(g, tree, cfg, k=3, backend="inline") as r:
            got = r.query(srcs)
        assert got.dtype == want.dtype == np.dtype(bool)
        assert np.array_equal(got, want)

    def test_spine_vertices_as_sources(self):
        g, tree = integer_grid(10, seed=7)
        oracle = ShortestPathOracle.build(g, tree)
        with ShardRouter(g, tree, k=4, backend="inline") as r:
            assert r.plan.spine.size > 0
            srcs = r.plan.spine[:: max(1, r.plan.spine.size // 6)].tolist()
            got = r.query(srcs)
        assert np.array_equal(got, oracle.distances(srcs))

    def test_single_int_source_shape(self):
        g, tree = integer_grid(8)
        oracle = ShortestPathOracle.build(g, tree)
        with ShardRouter(g, tree, k=2, backend="inline") as r:
            got = r.query(9)
            assert got.shape == (g.n,)
            assert np.array_equal(got, oracle.distances(9))


# ------------------------------------------------------------------ #
# Router protocol surface
# ------------------------------------------------------------------ #


class TestRouterProtocol:
    def test_submit_info_and_stats(self):
        g, tree = integer_grid(8)
        with ShardRouter(g, tree, k=2, backend="inline") as r:
            dist, info = r.submit([0, 1, 60])
            assert dist.shape == (3, g.n)
            assert info["rows"] == 3
            assert 1 <= info["shards"] <= 2
            assert info["wall_s"] > 0
            s = r.stats()
            assert s["engine"] == "sharded"
            assert s["backend"] == "inline"
            assert s["workers"] == r.plan.k
            assert len(s["per_shard"]) == r.plan.k
            assert s["spine"]["vertices"] == r.plan.spine.size
            assert s["last_batch"]["rows"] == 3
            assert r.health_check()["backend"] == "inline"

    def test_closed_router_rejects_queries(self):
        g, tree = integer_grid(6)
        r = ShardRouter(g, tree, k=2, backend="inline")
        r.close()
        r.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            r.query(0)

    def test_bad_backend_rejected(self):
        g, tree = integer_grid(6)
        with pytest.raises(ValueError, match="backend"):
            ShardRouter(g, tree, k=2, backend="carrier-pigeon")

    def test_router_honors_config_fields(self):
        g, tree = integer_grid(8)
        cfg = OracleConfig(shards=4, shard_backend="inline")
        with ShardRouter(g, tree, cfg) as r:
            assert r.plan.k == 4
            assert r.backend == "inline"

    def test_oracle_shard_fleet_entry_point(self):
        g, tree = integer_grid(8)
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.shard_fleet(2, backend="inline") as r:
            assert isinstance(r, ShardRouter)
            assert np.array_equal(r.query([0, 5]), oracle.distances([0, 5]))


# ------------------------------------------------------------------ #
# Config plumbing
# ------------------------------------------------------------------ #


class TestShardConfig:
    def test_new_knobs_validate(self):
        with pytest.raises(ValueError, match="shards"):
            OracleConfig(shards=-1)
        with pytest.raises(ValueError, match="shard_backend"):
            OracleConfig(shard_backend="inproc")
        cfg = OracleConfig(shards=4, shard_backend="inline", shard_pin=True)
        back = OracleConfig.from_dict(cfg.to_dict())
        assert (back.shards, back.shard_backend, back.shard_pin) == (4, "inline", True)

    def test_shard_build_config_downgrades(self):
        cfg = OracleConfig(
            executor="shm:4", shards=8, shard_pin=True, cache="readwrite",
            row_cache=64, validate=True,
        )
        sub = shard_build_config(cfg)
        assert sub.executor == "serial"
        assert sub.shards == 0 and not sub.shard_pin  # no recursive sharding
        assert sub.row_cache == 0 and not sub.validate
        assert sub.cache == "readwrite"  # warm-respawn path preserved
