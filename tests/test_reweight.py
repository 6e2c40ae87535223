"""Tests for incremental reweighting and the epoch hot-swap serving path.

Paper comment (iv): the separator decomposition — and with it the E⁺
*structure* — depends only on the unweighted skeleton.
:meth:`ShortestPathOracle.with_new_weights` exploits this by replaying the
retained build provenance (:class:`repro.core.reweight.ReweightPlan`) as a
weight-only leaves-up sweep; the property asserted throughout this file is
that the replay is **bit-identical** to a cold rebuild — same E⁺ arrays,
same served distances — dense and sparse, across semirings, including
negative weights and +inf deltas, on grids and on the programmable-μ
multilevel family.  The serving half (QueryEngine generations, router /
fleet epochs, server RPC) is covered at the bottom.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro import ShortestPathOracle
from repro.core.augment import Augmentation, NegativeCycleDetected
from repro.core.config import OracleConfig
from repro.core.query import QueryEngine
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import apply_potential_weights, grid_digraph
from repro.workloads.synthetic import separator_programmable_family


def _reweighted_graph(g, weight):
    return type(g)(g.n, g.src, g.dst, np.asarray(weight, dtype=g.weight.dtype))


def _assert_bit_identical(got: ShortestPathOracle, cold: ShortestPathOracle, srcs):
    """The replay's E⁺ and its served distances equal the cold rebuild's,
    to the bit (the sweep replays the exact builder kernels)."""
    a, b = got.augmentation, cold.augmentation
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(got.distances(srcs), cold.distances(srcs))


@pytest.fixture
def grid10(rng):
    g = grid_digraph((10, 10), rng)
    tree = decompose_grid(g, (10, 10), leaf_size=4)
    return g, tree


class TestBitIdentityDense:
    def test_minplus_float(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        w2 = rng.uniform(0.5, 20.0, size=g.m)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="leaves_up")
        )
        _assert_bit_identical(got, cold, [0, 17, 55, 99])
        assert got.augmentation.weights_epoch == 1
        assert got.cache_info["status"] == "reweight"

    def test_minplus_negative_weights(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        gn = apply_potential_weights(g, rng)  # negative but cycle-free
        assert (gn.weight < 0).any()
        got = oracle.with_new_weights(gn.weight)
        cold = ShortestPathOracle.build(gn, tree, config=OracleConfig(method="leaves_up"))
        _assert_bit_identical(got, cold, [0, 42, 99])

    def test_minplus_integer_valued(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        w2 = np.round(g.weight * 7.0) + 1.0
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="leaves_up")
        )
        _assert_bit_identical(got, cold, list(range(0, 100, 9)))

    def test_boolean_semiring(self, rng, grid10):
        """Boolean reachability: reweighting toggles edge presence (zero
        weight = absent under the bool cast)."""
        g, tree = grid10
        cfg = OracleConfig(method="leaves_up", semiring="boolean")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        w2 = (rng.uniform(size=g.m) < 0.6).astype(np.float64)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, config=cfg)
        _assert_bit_identical(got, cold, [0, 31, 99])

    def test_maxmin_semiring(self, rng, grid10):
        g, tree = grid10
        cfg = OracleConfig(method="leaves_up", semiring="max-min")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        w2 = rng.uniform(0.0, 100.0, size=g.m)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, config=cfg)
        _assert_bit_identical(got, cold, [0, 50, 99])

    @pytest.mark.parametrize("mu", [0.35, 0.6])
    def test_mu_family(self, rng, mu):
        """The programmable-μ multilevel family: deep trees, chained
        boundaries — the replay must agree there too, not just on grids."""
        g, tree = separator_programmable_family(260, mu, rng)
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        w2 = rng.uniform(1.0, 10.0, size=g.m)
        got = oracle.with_new_weights(w2)
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="leaves_up")
        )
        _assert_bit_identical(got, cold, [0, g.n // 2, g.n - 1])

    def test_reverse_graph(self, rng, grid10):
        """``graph=`` accepts any same-skeleton graph — the reverse
        orientation goes through the rebuild fallback (src/dst change)."""
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        got = oracle.with_new_weights(graph=g.reverse())
        cold = ShortestPathOracle.build(
            g.reverse(), tree, config=OracleConfig(method="leaves_up")
        )
        assert np.array_equal(got.distances([0, 9]), cold.distances([0, 9]))


class TestBitIdentitySparse:
    def test_sparse_delta_on_lineage(self, rng, grid10):
        """A 1%-edge delta on an oracle produced by a reweight takes the
        restricted root-path sweep and still matches a cold rebuild."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        w1 = rng.uniform(1.0, 9.0, size=g.m)
        o1 = base.with_new_weights(w1)  # o1 carries the retained heap
        dirty = rng.choice(g.m, size=max(2, g.m // 100), replace=False)
        w2 = w1.copy()
        w2[dirty] = rng.uniform(1.0, 9.0, size=dirty.size)
        got = o1.with_new_weights(weight_delta=(dirty, w2[dirty]))
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="leaves_up")
        )
        _assert_bit_identical(got, cold, [0, 33, 66, 99])
        assert got.augmentation.weights_epoch == 2

    def test_dict_delta_and_idempotence(self, rng, grid10):
        """Deltas are absolute assignments — replaying the same delta is a
        no-op (the property the client/server retry policy relies on)."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        o1 = base.with_new_weights(rng.uniform(1.0, 9.0, size=g.m))
        delta = {3: 42.0, 17: 0.5}
        o2 = o1.with_new_weights(weight_delta=delta)
        o3 = o2.with_new_weights(weight_delta=delta)
        assert np.array_equal(o2.graph.weight, o3.graph.weight)
        assert np.array_equal(o2.distances([0, 50]), o3.distances([0, 50]))

    def test_inf_delta_disconnects(self, rng, grid10):
        """Setting edges to +inf (min-plus 0̄) must reproduce the cold
        rebuild's +inf rows exactly — deleted edges, possibly unreachable
        vertices."""
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        o1 = base.with_new_weights(g.weight.copy())
        # Sever every edge out of vertex 0's corner neighborhood.
        dirty = np.nonzero((g.src == 0) | (g.dst == 0))[0]
        w2 = o1.graph.weight.copy()
        w2[dirty] = np.inf
        got = o1.with_new_weights(weight_delta=(dirty, w2[dirty]))
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="leaves_up")
        )
        _assert_bit_identical(got, cold, [0, 1, 99])
        assert np.isinf(got.distances([0])[0][1:]).all()

    def test_cold_build_serves_first_delta_sparsely(self, rng, grid10, monkeypatch):
        """A cold Algorithm 4.1 build leaves its sweep's heap on the
        augmentation, so its very first delta already takes the sparse
        root-path sweep — and is still exact against a rebuild and against
        Algorithm 4.3 (integer weights keep doubling's float sums exact)."""
        from repro.core.reweight import ReweightPlan

        g, tree = grid10
        g = _reweighted_graph(g, np.round(g.weight * 7.0) + 1.0)
        base = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        state = getattr(base.augmentation, "_reweight_state", None)
        assert state is not None
        assert state.plan is base._reweight_plan
        calls = []
        real_run = ReweightPlan.run

        def spy(plan, *args, **kwargs):
            calls.append(kwargs)
            return real_run(plan, *args, **kwargs)

        monkeypatch.setattr(ReweightPlan, "run", spy)
        got = base.with_new_weights(weight_delta={5: 99.0})
        monkeypatch.undo()
        assert len(calls) == 1
        assert calls[0]["dirty_edges"] is not None
        assert calls[0]["base_state"] is state
        w2 = g.weight.copy()
        w2[5] = 99.0
        g2 = _reweighted_graph(g, w2)
        cold = ShortestPathOracle.build(g2, tree, config=OracleConfig(method="leaves_up"))
        _assert_bit_identical(got, cold, [0, 99])
        doubling = ShortestPathOracle.build(
            g2, tree, config=OracleConfig(method="doubling")
        )
        _assert_bit_identical(got, doubling, [0, 42, 99])
        assert getattr(got.augmentation, "_reweight_state", None) is not None

    @pytest.mark.parametrize("semiring", ["boolean", "hops", "max-min", "min-max", "min-plus"])
    def test_sparse_delta_every_semiring(self, grid10, semiring):
        """A one-edge delta re-sweeps one root path and carries every other
        node over from the base state; E⁺ must still equal a cold build's."""
        g, tree = grid10
        g = _reweighted_graph(g, np.round(g.weight * 7.0) + 1.0)
        cfg = OracleConfig(method="leaves_up", semiring=semiring)
        base = ShortestPathOracle.build(g, tree, config=cfg)
        w2 = g.weight.copy()
        w2[5] = 0.0 if semiring == "boolean" else 99.0  # boolean: drop the edge
        got = base.with_new_weights(weight_delta={5: w2[5]})
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, config=cfg)
        _assert_bit_identical(got, cold, [0, 5, 99])

    def test_swept_augmentation_reuses_its_plan(self, grid10, monkeypatch):
        """An augmentation that carries a sweep state reweights with that
        state's plan, however it was wrapped: no second capture."""
        from repro.apps.routing import DistanceOracle
        from repro.core.leaves_up import augment_leaves_up
        from repro.core.reweight import ReweightPlan

        g, tree = grid10
        g = _reweighted_graph(g, np.round(g.weight * 7.0) + 1.0)
        aug = augment_leaves_up(g, tree, keep_node_distances=True)
        state = aug._reweight_state

        def no_capture(*args, **kwargs):
            raise AssertionError("plan captured twice")

        monkeypatch.setattr(ReweightPlan, "capture", no_capture)
        pair = DistanceOracle(aug).with_new_weights(weight_delta={5: 99.0})
        oracle = ShortestPathOracle(g, tree, aug, aug.schedule(), preprocess_ledger=Ledger())
        got = oracle.with_new_weights(weight_delta={5: 99.0}, reweight="incremental")
        monkeypatch.undo()
        assert pair.aug._reweight_state.plan is state.plan
        assert got._reweight_plan is state.plan
        w2 = g.weight.copy()
        w2[5] = 99.0
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="leaves_up")
        )
        _assert_bit_identical(got, cold, [0, 99])
        assert np.array_equal(pair.aug.weight, cold.augmentation.weight)

    def test_plan_shared_along_lineage(self, rng, grid10):
        g, tree = grid10
        base = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        o1 = base.with_new_weights(rng.uniform(1.0, 5.0, size=g.m))
        o2 = o1.with_new_weights(rng.uniform(1.0, 5.0, size=g.m))
        assert base._reweight_plan is not None
        assert o1._reweight_plan is base._reweight_plan
        assert o2._reweight_plan is base._reweight_plan


def _scattered_delta(g, rng, semiring):
    """1% of the edges, drawn across the whole graph, with new float
    weights (boolean: edges toggled present/absent)."""
    idx = np.sort(rng.choice(g.m, size=max(2, g.m // 100), replace=False))
    if semiring == "boolean":
        return idx, (rng.uniform(size=idx.size) < 0.5).astype(np.float64)
    return idx, rng.uniform(0.5, 20.0, size=idx.size)


def _real_slots(plan):
    """Mask of the heap slots that hold a node-matrix entry (the rest is
    level-block padding)."""
    real = np.zeros(plan.heap_size, dtype=bool)
    for t in range(plan.node_h.shape[0]):
        pos = plan.vh_pos[plan.vh_ptr[t] : plan.vh_ptr[t + 1]]
        real[plan.node_base[t] + pos[:, None] * plan.node_stride[t] + pos[None, :]] = True
    return real


def _reference_dirty(plan, edges):
    """The root-path walk the vectorized mask replaces: every leaf holding
    a changed edge, then its ancestors one parent at a time."""
    dirty = np.zeros(len(plan.tree.nodes), dtype=bool)
    for e in edges:
        for r in plan.le_row[plan.le_edge == e]:
            t = int(plan.leaf_nodes[r])
            while t >= 0 and not dirty[t]:
                dirty[t] = True
                t = plan.tree.nodes[t].parent
    return dirty


class TestLevelHeap:
    """The sweep's level-major heap: sparse sweeps equal cold builds bit
    for bit, padding stays 0̄, and the dirty mask is the root-path walk."""

    @pytest.fixture
    def grid12(self, rng):
        g = grid_digraph((12, 12), rng)
        g = _reweighted_graph(g, rng.uniform(0.5, 20.0, size=g.m))
        return g, decompose_grid(g, (12, 12))

    @pytest.mark.parametrize("semiring", ["boolean", "hops", "max-min", "min-max", "min-plus"])
    def test_scattered_float_delta_matches_cold(self, rng, grid12, semiring):
        g, tree = grid12
        cfg = OracleConfig(method="leaves_up", semiring=semiring, keep_node_distances=True)
        base = ShortestPathOracle.build(g, tree, config=cfg)
        idx, vals = _scattered_delta(g, rng, semiring)
        dirty = base._reweight_plan._dirty_nodes(idx)
        assert 0 < dirty.sum() < dirty.size  # a genuinely sparse sweep
        got = base.with_new_weights(weight_delta=(idx, vals)).augmentation
        w2 = g.weight.copy()
        w2[idx] = vals
        cold = ShortestPathOracle.build(_reweighted_graph(g, w2), tree, config=cfg).augmentation
        for part in ("src", "dst", "weight"):
            assert np.array_equal(getattr(got, part), getattr(cold, part)), part
        assert got.leaf_diameters == cold.leaf_diameters
        assert sorted(got.node_distances) == sorted(cold.node_distances)
        for t, nd in cold.node_distances.items():
            assert np.array_equal(got.node_distances[t].vertices, nd.vertices)
            assert np.array_equal(got.node_distances[t].matrix, nd.matrix), t
            # label order: vertices ascending, as the per-node builder kept them
            assert (np.diff(nd.vertices) > 0).all()

    @pytest.mark.parametrize("semiring", ["boolean", "max-min", "min-plus"])
    def test_padding_stays_zero(self, rng, grid12, semiring):
        g, tree = grid12
        cfg = OracleConfig(method="leaves_up", semiring=semiring)
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        plan = oracle._reweight_plan
        pad = ~_real_slots(plan)
        assert pad.any()
        zero = oracle.augmentation.semiring.zero
        assert (oracle.augmentation._reweight_state.heap[pad] == zero).all()
        for _ in range(3):
            oracle = oracle.with_new_weights(weight_delta=_scattered_delta(g, rng, semiring))
            state = oracle.augmentation._reweight_state
            assert state.plan is plan
            assert (state.heap[pad] == zero).all()

    def test_leaf_matrices_are_heap_views(self, grid12):
        """Kept node distances copy only the internal matrices: a leaf's is
        a view into the retained heap."""
        from repro.core.leaves_up import augment_leaves_up

        g, tree = grid12
        aug = augment_leaves_up(g, tree, keep_node_distances=True)
        heap = aug._reweight_state.heap
        for t, nd in aug.node_distances.items():
            assert np.shares_memory(nd.matrix, heap) == tree.nodes[t].is_leaf, t

    @pytest.mark.parametrize("family", ["grid", "mu"])
    def test_dirty_mask_is_the_root_path_walk(self, rng, grid12, family):
        from repro.core.reweight import ReweightPlan

        g, tree = grid12 if family == "grid" else separator_programmable_family(260, 0.5, rng)
        plan = ReweightPlan.capture(g, tree)
        for size in (1, 3, max(2, g.m // 100), g.m // 5):
            edges = rng.choice(g.m, size=size, replace=False)
            assert np.array_equal(plan._dirty_nodes(edges), _reference_dirty(plan, edges))

    def test_dirty_mask_on_the_distance_oracle_path(self, rng, grid12, monkeypatch):
        from repro.apps.routing import DistanceOracle
        from repro.core.leaves_up import augment_leaves_up
        from repro.core.reweight import ReweightPlan

        g, tree = grid12
        pair = DistanceOracle(augment_leaves_up(g, tree, keep_node_distances=True))
        seen = []
        real = ReweightPlan._dirty_nodes

        def spy(plan, edges):
            mask = real(plan, edges)
            seen.append((plan, edges, mask))
            return mask

        monkeypatch.setattr(ReweightPlan, "_dirty_nodes", spy)
        idx, vals = _scattered_delta(g, rng, "min-plus")
        got = pair.with_new_weights(weight_delta=(idx, vals))
        monkeypatch.undo()
        (plan, edges, mask), = seen
        assert np.array_equal(mask, _reference_dirty(plan, edges))
        w2 = g.weight.copy()
        w2[idx] = vals
        cold = augment_leaves_up(_reweighted_graph(g, w2), tree, keep_node_distances=True)
        assert np.array_equal(got.aug.weight, cold.weight)


class TestModesAndErrors:
    def test_incremental_requires_leaves_up(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="doubling"))
        with pytest.raises(ValueError, match="incremental"):
            oracle.with_new_weights(g.weight * 2.0, reweight="incremental")

    def test_auto_falls_back_to_rebuild(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="doubling"))
        w2 = np.round(g.weight * 3.0) + 1.0
        got = oracle.with_new_weights(w2)  # auto → rebuild, no raise
        cold = ShortestPathOracle.build(
            _reweighted_graph(g, w2), tree, config=OracleConfig(method="doubling")
        )
        assert np.array_equal(got.distances([0, 9]), cold.distances([0, 9]))
        assert got.augmentation.weights_epoch == 1

    def test_rebuild_mode_matches_incremental(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        w2 = rng.uniform(1.0, 9.0, size=g.m)
        inc = oracle.with_new_weights(w2, reweight="incremental")
        reb = oracle.with_new_weights(w2, reweight="rebuild")
        _assert_bit_identical(inc, reb, [0, 50, 99])

    def test_exactly_one_input(self, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        with pytest.raises(ValueError):
            oracle.with_new_weights()
        with pytest.raises(ValueError):
            oracle.with_new_weights(g.weight, weight_delta={0: 1.0})

    def test_negative_cycle_raises_and_preserves_serving(self, rng, grid10):
        """A delta creating a negative cycle raises on both paths, and the
        base oracle keeps serving its old weights untouched."""
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        before = oracle.distances([0, 99])
        # Any reciprocal edge pair is a 2-cycle; make it very negative.
        pair = {(int(s), int(d)): i for i, (s, d) in enumerate(zip(g.src, g.dst))}
        cyc = next(
            (i, pair[(d, s)]) for (s, d), i in pair.items() if (d, s) in pair
        )
        w2 = g.weight.copy()
        w2[list(cyc)] = -50.0
        with pytest.raises(NegativeCycleDetected):
            oracle.with_new_weights(w2, reweight="incremental")
        with pytest.raises(NegativeCycleDetected):
            oracle.with_new_weights(w2, reweight="rebuild")
        assert np.array_equal(oracle.distances([0, 99]), before)


class TestValidateFlag:
    """Satellite (a): ``validate=True`` on the reweight path checks the
    shortcut *weights* only; the structural (tree) validation hides behind
    ``validate="full"``."""

    def test_validate_true_skips_structural(self, rng, grid10, monkeypatch):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        called = []
        monkeypatch.setattr(
            type(tree), "validate",
            lambda self, graph, **kw: called.append("structural"),
        )
        oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m), validate=True)
        assert called == []
        oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m), validate="full")
        assert called == ["structural"]

    def test_validate_actually_runs_weight_check(self, rng, grid10, monkeypatch):
        """Regression: the weight check is live on the incremental path (a
        semiring-name mismatch once made it silently vacuous)."""
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        monkeypatch.setattr(Augmentation, "verify_edges", lambda self, *a, **k: 1.0)
        with pytest.raises(AssertionError, match="deviate"):
            oracle.with_new_weights(g.weight * 2.0, validate=True)

    def test_validate_passes_on_healthy_replay(self, rng, grid10):
        g, tree = grid10
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(method="leaves_up"))
        got = oracle.with_new_weights(rng.uniform(1.0, 9.0, size=g.m), validate=True)
        assert got.augmentation.weights_epoch == 1


class TestEngineHotSwap:
    """Satellite (b) + the engine half of the tentpole: arena-generation
    flip, epoch counters, row-LRU invalidation accounting."""

    def test_flip_is_bit_identical_and_counts(self, rng, grid10):
        g, tree = grid10
        # shm executor: the arena generations (pspg<epoch> segments) are
        # observable; serial engines have no arena to flip.
        cfg = OracleConfig(method="leaves_up", executor="shm:2", row_cache=16)
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        eng = QueryEngine(oracle.augmentation, cfg)
        try:
            srcs = np.array([0, 17, 99])
            eng.query(srcs)  # warm the row LRU on epoch 0
            eng.query(srcs)
            w2 = rng.uniform(1.0, 9.0, size=g.m)
            o2 = oracle.with_new_weights(w2)
            old_segments = list(eng._arena.segment_names)
            assert all("g0" in s for s in old_segments)
            eng.reweight(o2.augmentation)
            assert all("g1" in s for s in eng._arena.segment_names)
            cold = ShortestPathOracle.build(
                _reweighted_graph(g, w2), tree, config=cfg
            )
            assert np.array_equal(eng.query(srcs), cold.distances(srcs))
            st = eng.stats()
            assert st["weights_epoch"] == 1
            assert st["reweights"] == 1
            assert st["row_cache"]["epoch_invalidations"] == 1
            assert st["row_cache"]["rows_epoch_dropped"] >= srcs.size
        finally:
            eng.close()
            oracle.close()

    def test_reweight_rejects_mismatched_augmentation(self, rng, grid10):
        g, tree = grid10
        cfg = OracleConfig(method="leaves_up", executor="serial")
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        eng = QueryEngine(oracle.augmentation, cfg)
        try:
            g_small = grid_digraph((4, 4), rng)
            tree_small = decompose_grid(g_small, (4, 4), leaf_size=4)
            other = ShortestPathOracle.build(g_small, tree_small, config=cfg)
            with pytest.raises(ValueError):
                eng.reweight(other.augmentation)
        finally:
            eng.close()
            oracle.close()


class TestRouterReweight:
    """Shard-router epoch flip, dense and sparse, against a cold router."""

    def _integral(self, g):
        # Sharded legs recompose sums; integral weights keep float
        # arithmetic exact so bit-identity is well-defined.
        return _reweighted_graph(g, np.round(g.weight * 8.0) + 1.0)

    def test_inline_dense_and_sparse(self, rng, grid10):
        from repro.shard.router import ShardRouter

        g, tree = grid10
        g = self._integral(g)
        cfg = OracleConfig(method="leaves_up", cache="off")
        srcs = np.array([0, 13, 99])
        r = ShardRouter(g, tree, cfg, k=2)
        try:
            w2 = np.round(g.weight * 3.0) + 2.0
            assert r.reweight(w2)["weights_epoch"] == 1
            cold = ShardRouter(
                _reweighted_graph(g, w2), tree, cfg, k=2
            )
            want = cold.query(srcs)
            cold.close()
            assert np.array_equal(r.query(srcs), want)
            dirty = np.array([0, 7, 200])
            w3 = w2.copy()
            w3[dirty] += 5.0
            assert r.reweight(w3, dirty=dirty)["weights_epoch"] == 2
            cold = ShardRouter(
                _reweighted_graph(g, w3), tree, cfg, k=2
            )
            want = cold.query(srcs)
            cold.close()
            assert np.array_equal(r.query(srcs), want)
            st = r.stats()
            assert st["weights_epoch"] == 2 and st["reweights"] == 2
            assert all(s["weights_epoch"] == 2 for s in st["per_shard"])
        finally:
            r.close()

    def test_bad_weight_shape(self, rng, grid10):
        from repro.shard.router import ShardRouter

        g, tree = grid10
        r = ShardRouter(g, tree, OracleConfig(cache="off"), k=2)
        try:
            with pytest.raises(ValueError, match="shape"):
                r.reweight(np.ones(3))
        finally:
            r.close()


class TestLeakCheckerGenerations:
    """Satellite (e) support: the shm leak checker understands the
    per-generation arena tag (``pspg<epoch>_…``)."""

    @pytest.fixture
    def tool(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "tools", "check_shm_leaks.py"
        )
        spec = importlib.util.spec_from_file_location("check_shm_leaks", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    @pytest.mark.parametrize(
        "name,epoch",
        [
            ("psp_123_0af3", None),
            ("pspg7_123_0af3", "7"),
        ],
    )
    def test_segment_regex(self, tool, name, epoch):
        m = tool._SEGMENT_RE.match(name)
        assert m is not None
        assert m.groups() == (epoch, "123")

    def test_describe_mentions_generation(self, tool):
        assert "epoch 7 generation" in tool.describe("pspg7_123_0af3")
        assert tool._SEGMENT_RE.match("notpsp_1_aa") is None
