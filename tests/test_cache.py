"""Tests for the content-addressed augmentation cache (:mod:`repro.cache`):
keying, the store round-trip through ``ShortestPathOracle.build``, tree
entries, locking, eviction, the query-row LRU, and the CLI subcommand.

Process-spawning concurrency tests carry the ``multiproc`` marker (CI's
deep lane selects them with ``-m multiproc``); threads cover the same
stampede protocol beside them.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.cache import AugmentationCache, augmentation_key, default_cache_dir, tree_key
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.core.leaves_up import augment_leaves_up
from repro.core.semiring import MIN_PLUS, SEMIRINGS
from repro.separators.grid import decompose_grid
from repro.workloads.generators import expander_digraph, grid_digraph


def _store_files(store) -> list[str]:
    if not store.dir.is_dir():
        return []
    return sorted(p.name for p in store.dir.iterdir())


def _entry_files(store) -> list[str]:
    return [f for f in _store_files(store) if f.endswith(".npz")]


class TestKeying:
    def test_deterministic(self, grid7):
        g, tree = grid7
        k1 = augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        k2 = augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        assert k1 == k2 and len(k1) == 64

    def test_sensitive_to_content(self, grid7):
        g, tree = grid7
        base = augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        from repro.core.digraph import WeightedDigraph

        reweighted = WeightedDigraph(g.n, g.src, g.dst, g.weight * 2.0)
        assert augmentation_key(reweighted, tree, MIN_PLUS, "leaves_up") != base
        assert augmentation_key(g, tree, MIN_PLUS, "doubling") != base
        assert augmentation_key(g, tree, SEMIRINGS["boolean"], "leaves_up") != base

    def test_sensitive_to_dtype(self, grid7):
        """A float32 reweighting builds a different payload than float64."""
        g, tree = grid7
        base = augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        from repro.core.digraph import WeightedDigraph

        g32 = WeightedDigraph(g.n, g.src, g.dst, g.weight.astype(np.float32))
        assert augmentation_key(g32, tree, MIN_PLUS, "leaves_up") != base

    def test_sensitive_to_tree(self, grid7, rng):
        g, _ = grid7
        t4 = decompose_grid(g, (7, 7), leaf_size=4)
        t9 = decompose_grid(g, (7, 7), leaf_size=9)
        assert augmentation_key(g, t4, MIN_PLUS, "leaves_up") != augmentation_key(
            g, t9, MIN_PLUS, "leaves_up"
        )

    def test_insensitive_to_implementation_knobs(self, grid7):
        """the executor produces bit-identical E⁺ — same key by design."""
        g, tree = grid7
        assert augmentation_key(g, tree, MIN_PLUS, "leaves_up") == augmentation_key(
            g, tree, MIN_PLUS, "leaves_up"
        )

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-store"))
        assert default_cache_dir() == tmp_path / "env-store"


class TestBuildRoundTrip:
    def test_miss_store_hit(self, grid6_negative, tmp_path):
        g, tree = grid6_negative
        d = str(tmp_path / "store")
        first = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        assert first.cache_info["status"] == "stored"
        second = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        assert second.cache_info["status"] == "hit"
        assert second.cache_info["key"] == first.cache_info["key"]
        assert np.array_equal(first.distances([0, 17]), second.distances([0, 17]))
        store = AugmentationCache(d)
        assert _entry_files(store) == [f"{first.cache_info['key']}.npz"]
        assert not [f for f in _store_files(store) if f.endswith(".lock")]

    def test_read_mode_never_writes(self, grid7, tmp_path):
        g, tree = grid7
        d = tmp_path / "store"
        oracle = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="read", cache_dir=str(d))
        )
        assert oracle.cache_info["status"] == "miss"
        assert not _entry_files(AugmentationCache(str(d)))

    def test_off_mode_touches_nothing(self, grid7, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        oracle = ShortestPathOracle.build(g := grid7[0], grid7[1])
        assert oracle.cache_info == {"mode": "off", "status": "off"}
        assert not (tmp_path / "store").exists()
        assert oracle.distances(0).shape == (g.n,)

    def test_keep_node_distances_bypasses(self, grid7, tmp_path):
        g, tree = grid7
        cfg = OracleConfig(
            cache="readwrite", cache_dir=str(tmp_path / "store"), keep_node_distances=True
        )
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        assert oracle.cache_info["status"] == "bypass"
        assert not _entry_files(AugmentationCache(str(tmp_path / "store")))
        assert oracle.augmentation.node_distances  # matrices retained

    def test_hit_skips_validation_when_store_validated(self, grid7, tmp_path, monkeypatch):
        g, tree = grid7
        d = str(tmp_path / "store")
        ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d, validate=True)
        )
        calls = []
        monkeypatch.setattr(
            type(tree), "validate", lambda self, graph: calls.append(1)
        )
        hit = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="read", cache_dir=d, validate=True)
        )
        assert hit.cache_info["status"] == "hit"
        assert hit.cache_info["validated"] is True
        assert not calls  # fast path: validation already paid at store time

    def test_hit_revalidates_when_store_unvalidated(self, grid7, tmp_path, monkeypatch):
        g, tree = grid7
        d = str(tmp_path / "store")
        ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )  # validate=False
        calls = []
        monkeypatch.setattr(
            type(tree), "validate", lambda self, graph: calls.append(1)
        )
        hit = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="read", cache_dir=d, validate=True)
        )
        assert hit.cache_info["status"] == "hit"
        assert hit.cache_info["validated"] is False
        assert calls  # the requester wants validation the entry never paid

    def test_config_on_cache_object(self, grid7, tmp_path):
        g, tree = grid7
        cfg = OracleConfig(
            cache="readwrite", cache_dir=str(tmp_path / "store"), row_cache=16
        )
        first = ShortestPathOracle.build(g, tree, config=cfg)
        second = ShortestPathOracle.build(g, tree, config=cfg)
        assert (first.cache_info["status"], second.cache_info["status"]) == (
            "stored", "hit",
        )
        assert second.config.row_cache == 16

    def test_corrupt_entry_is_a_miss(self, grid7, tmp_path):
        g, tree = grid7
        d = str(tmp_path / "store")
        first = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        store = AugmentationCache(d)
        store.entry_path(first.cache_info["key"]).write_bytes(b"not an npz")
        again = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        assert again.cache_info["status"] == "stored"  # rebuilt and re-stored
        assert np.array_equal(first.distances(0), again.distances(0))


class TestHitPath:
    """A hit reuses the caller's graph and tree: the key is a digest of
    exactly those arrays, so the entry's copies are never read."""

    def test_hit_reuses_callers_tree_without_loading_one(self, tmp_path, monkeypatch):
        import repro.io

        g = grid_digraph((12, 12), np.random.default_rng(7))
        tree = decompose_grid(g, (12, 12))
        d = str(tmp_path / "store")
        cold = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit loaded the entry's tree")

        monkeypatch.setattr(repro.io, "load_tree", refuse)
        warm = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="read", cache_dir=d)
        )
        assert warm.cache_info["status"] == "hit"
        assert warm.augmentation.tree is tree
        assert warm.augmentation.graph is g
        assert warm.schedule.labels == cold.schedule.labels
        assert warm.schedule.edge_scans == cold.schedule.edge_scans
        sources = np.arange(0, g.n, 7)
        got, want = warm.distances(sources), cold.distances(sources)
        assert got.tobytes() == want.tobytes()

    def test_archive_load_without_inputs_materializes_them(self, grid7, tmp_path):
        from repro.io import load_augmentation

        g, tree = grid7
        d = str(tmp_path / "store")
        first = ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        key = first.cache_info["key"]
        back = load_augmentation(AugmentationCache(d).entry_path(key))
        assert back.tree is not tree and back.graph is not g
        assert augmentation_key(back.graph, back.tree, MIN_PLUS, "leaves_up") == key
        assert np.array_equal(back.tree.vertex_level, tree.vertex_level)


def _flat_arrays(tree) -> dict:
    return {f: getattr(tree.flat, f) for f in tree.flat.__dataclass_fields__}


def _assert_same_tree(got, want) -> None:
    """Bit-identical FlatTree arrays (values and dtypes) and records."""
    a, b = _flat_arrays(got), _flat_arrays(want)
    for name in b:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name]), name
    assert got.selection == want.selection
    assert got.refinement == want.refinement
    assert got.cut_at is None and want.cut_at is None


def _skeleton_graph(kind: str):
    if kind == "grid":
        return grid_digraph((12, 12), np.random.default_rng(3))
    return expander_digraph(64, np.random.default_rng(3), degree=8)


class TestTreeEntry:
    """Tree entries: a build that derives its tree from a named spec
    stores it under :func:`tree_key` (the skeleton, not the weights), and
    a restart restores it instead of running the gate or decomposition."""

    @pytest.mark.parametrize("kind,verdict", [("grid", "exact"), ("expander", "direct")])
    def test_hit_equals_fresh_gate(self, kind, verdict, tmp_path):
        g = _skeleton_graph(kind)
        d = str(tmp_path / "store")
        fresh = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        cold = ShortestPathOracle.build(
            g, config=OracleConfig(mode="auto", cache="readwrite", cache_dir=d)
        )
        warm = ShortestPathOracle.build(
            g, config=OracleConfig(mode="auto", cache="read", cache_dir=d)
        )
        assert (cold.cache_info["tree"], warm.cache_info["tree"]) == ("stored", "hit")
        assert warm.cache_info["status"] == "hit" and warm.cache_info["tree_load_s"] >= 0
        decision = warm.tree.selection["mode_decision"]
        assert decision["mode"] == verdict
        assert set(decision) >= {"mode", "why", "separability", "gate", "candidates"}
        assert decision == fresh.tree.selection["mode_decision"]
        _assert_same_tree(warm.tree, fresh.tree)
        assert warm.augmentation.method == fresh.augmentation.method
        assert warm.cache_info["key"] == cold.cache_info["key"]

    def test_tree_hit_then_eplus_miss_builds_the_cold_eplus(self, tmp_path):
        g = _skeleton_graph("grid")
        d = str(tmp_path / "store")
        cfg = OracleConfig(mode="auto", cache="readwrite", cache_dir=d)
        cold = ShortestPathOracle.build(g, config=cfg)
        AugmentationCache(d).entry_path(cold.cache_info["key"]).unlink()
        warm = ShortestPathOracle.build(g, config=cfg)
        assert (warm.cache_info["tree"], warm.cache_info["status"]) == ("hit", "stored")
        assert warm.cache_info["key"] == cold.cache_info["key"]
        for name in ("src", "dst", "weight"):
            got, want = getattr(warm.augmentation, name), getattr(cold.augmentation, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        srcs = [0, 50, 143]
        assert warm.distances(srcs).tobytes() == cold.distances(srcs).tobytes()

    def test_new_weights_hit_and_skeleton_changes_miss(self, tmp_path):
        g = _skeleton_graph("grid")
        d = str(tmp_path / "store")
        base = OracleConfig(cache="readwrite", cache_dir=d)
        first = ShortestPathOracle.build(g, config=base)
        assert first.cache_info["tree"] == "stored"
        heavier = WeightedDigraph(g.n, g.src, g.dst, g.weight * 3.0 + 1.0)
        again = ShortestPathOracle.build(heavier, config=base)
        assert (again.cache_info["tree"], again.cache_info["status"]) == ("hit", "stored")
        fresh = ShortestPathOracle.build(heavier)  # the decomposition ignores weights
        _assert_same_tree(again.tree, fresh.tree)
        src, dst = g.src.copy(), g.dst.copy()
        src[0], dst[0] = dst[0], src[0]
        redirected = WeightedDigraph(g.n, src, dst, g.weight)
        assert tree_key(redirected, base) != tree_key(g, base)
        assert ShortestPathOracle.build(redirected, config=base).cache_info["tree"] == "stored"
        for change in (
            {"leaf_size": 4},
            {"separator": "multilevel"},
            {"refine_separators": True},
            {"refine_separators": True, "refine_max_nodes": 64},
            {"mode": "auto"},
        ):
            other = base.replace(**change)
            assert tree_key(g, other) != tree_key(g, base), change
            built = ShortestPathOracle.build(g, config=other)
            assert built.cache_info["tree"] == "stored", change
        # Knobs the tree does not read leave the key alone.
        for same in ({"method": "doubling"}, {"semiring": "boolean"}, {"validate": True}):
            assert tree_key(g, base.replace(**same)) == tree_key(g, base), same

    def test_truncated_entry_falls_back_and_is_rewritten(self, tmp_path):
        g = _skeleton_graph("expander")
        d = str(tmp_path / "store")
        rw = OracleConfig(mode="auto", cache="readwrite", cache_dir=d)
        cold = ShortestPathOracle.build(g, config=rw)
        store = AugmentationCache(d)
        path = store.entry_path(tree_key(g, rw))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        read = ShortestPathOracle.build(g, config=rw.replace(cache="read"))
        assert read.cache_info["tree"] == "miss"  # corrupt: dropped, gate ran
        assert not path.exists()  # and "read" did not write it back
        path.write_bytes(whole[: len(whole) // 2])
        again = ShortestPathOracle.build(g, config=rw)
        assert again.cache_info["tree"] == "stored"
        assert path.read_bytes() == whole
        _assert_same_tree(again.tree, cold.tree)

    def test_off_read_and_callable_rules(self, tmp_path, monkeypatch):
        from repro.separators.spectral import spectral_separator_fn

        g = _skeleton_graph("grid")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        off = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        assert off.cache_info == {"mode": "off", "status": "off"}
        assert not (tmp_path / "env").exists()
        d = str(tmp_path / "store")
        read = ShortestPathOracle.build(
            g, config=OracleConfig(mode="auto", cache="read", cache_dir=d)
        )
        assert (read.cache_info["tree"], read.cache_info["status"]) == ("miss", "miss")
        assert not _entry_files(AugmentationCache(d))
        rw = OracleConfig(cache="readwrite", cache_dir=d)
        fn = ShortestPathOracle.build(g, config=rw.replace(separator=spectral_separator_fn()))
        assert fn.cache_info["tree"] == "bypass"
        given = ShortestPathOracle.build(g, fn.tree, config=rw.replace(mode="auto"))
        assert given.cache_info["tree"] == "bypass"
        direct = ShortestPathOracle.build(g, config=rw.replace(mode="direct"))
        assert direct.cache_info["tree"] == "bypass"
        kinds = [e["kind"] for e in AugmentationCache(d).entries()]
        assert kinds.count("tree") == 0 and kinds.count("eplus") >= 2

    def test_both_kinds_listed_touched_and_evicted(self, tmp_path, capsys):
        from repro.cli import main

        g = _skeleton_graph("grid")
        d = str(tmp_path / "store")
        rw = OracleConfig(mode="auto", cache="readwrite", cache_dir=d)
        ShortestPathOracle.build(g, config=rw)
        store = AugmentationCache(d)
        tkey = tree_key(g, rw)
        assert store.stats()["kinds"] == {"eplus": 1, "tree": 1}
        assert [e["key"] for e in store.entries()][0] == tkey  # stored first
        assert store.load_tree(tkey) is not None  # touch: now the newest
        assert [e["key"] for e in store.entries()][-1] == tkey
        assert main(["cache", "ls", "--cache-dir", d]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and " tree " in out and " eplus " in out
        assert "tier=exact" in out and "method=leaves_up" in out
        assert main(["cache", "stats", "--cache-dir", d]) == 0
        assert "kinds: {'eplus': 1, 'tree': 1}" in capsys.readouterr().out
        # LRU eviction treats both kinds alike: the E⁺ entry is oldest now.
        oldest, newest = store.entries()
        assert (oldest["kind"], newest["kind"]) == ("eplus", "tree")
        small = AugmentationCache(d, max_bytes=newest["bytes"])
        assert small.evict() == [oldest["key"]]
        assert small.stats()["kinds"] == {"eplus": 0, "tree": 1}
        assert ShortestPathOracle.build(g, config=rw).cache_info["tree"] == "hit"


class TestStoreMechanics:
    def _small_aug(self, seed: int):
        rng = np.random.default_rng(seed)
        g = grid_digraph((5, 5), rng)
        tree = decompose_grid(g, (5, 5), leaf_size=4)
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        return augmentation_key(g, tree, MIN_PLUS, "leaves_up"), aug

    def test_lru_eviction_bounded(self, tmp_path):
        store = AugmentationCache(str(tmp_path / "s"), max_bytes=1)  # everything over
        k1, a1 = self._small_aug(1)
        k2, a2 = self._small_aug(2)
        assert store.store(k1, a1)
        assert store.store(k2, a2)  # evicts k1 (oldest), protects itself
        assert store.load(k1) is None
        assert store.load(k2) is not None
        assert _entry_files(store) == [f"{k2}.npz"]

    def test_touch_on_hit_reorders_lru(self, tmp_path):
        store = AugmentationCache(str(tmp_path / "s"))
        k1, a1 = self._small_aug(1)
        k2, a2 = self._small_aug(2)
        store.store(k1, a1)
        store.store(k2, a2)
        assert store.load(k1) is not None  # touch k1 → k2 becomes oldest
        keys = [e["key"] for e in store.entries()]  # oldest first
        assert keys == [k2, k1]

    def test_stats_and_clear(self, tmp_path):
        store = AugmentationCache(str(tmp_path / "s"))
        k, a = self._small_aug(3)
        store.store(k, a)
        st = store.stats()
        assert st["entries"] == 1 and st["total_bytes"] > 0
        assert store.clear() == 1
        assert store.stats()["entries"] == 0

    def test_store_is_first_writer_wins(self, tmp_path):
        store = AugmentationCache(str(tmp_path / "s"))
        k, a = self._small_aug(4)
        assert store.store(k, a) is True
        assert store.store(k, a) is False  # already present: skip, touch
        assert len(_entry_files(store)) == 1

    def test_stale_lock_broken(self, tmp_path):
        store = AugmentationCache(str(tmp_path / "s"))
        k, _ = self._small_aug(5)
        store.dir.mkdir(parents=True)
        store.lock_path(k).write_text(
            json.dumps({"pid": 2**22 + 12345, "created": 0.0})
        )
        lock = store.try_lock(k)  # dead pid → break and take over
        assert lock is not None
        lock.release()
        assert not store.lock_path(k).exists()

    def test_live_lock_respected(self, tmp_path):
        store = AugmentationCache(str(tmp_path / "s"))
        k, _ = self._small_aug(6)
        lock = store.try_lock(k)
        assert lock is not None
        assert store.try_lock(k) is None  # held by a live pid: not stolen
        lock.release()
        assert store.try_lock(k) is not None

    def test_wait_for_entry_sees_late_store(self, tmp_path):
        """A lock loser polls until the winner's entry lands."""
        store = AugmentationCache(str(tmp_path / "s"))
        k, a = self._small_aug(7)
        winner = store.try_lock(k)
        assert winner is not None

        def finish() -> None:
            store.store(k, a)
            winner.release()

        t = threading.Timer(0.1, finish)
        t.start()
        try:
            assert store.wait_for_entry(k, timeout_s=10)
        finally:
            t.join()
        assert store.load(k) is not None

    def test_wait_for_entry_gives_up_without_builder(self, tmp_path):
        """No entry and no lock: there is nobody to wait for."""
        store = AugmentationCache(str(tmp_path / "s"))
        k, _ = self._small_aug(8)
        assert store.wait_for_entry(k, timeout_s=5) is False


class TestConcurrentBuilders:
    def test_thread_stampede_single_entry(self, grid6_negative, tmp_path):
        """Two threads racing the same key: one entry, both get bit-identical
        oracles, no lock/tmp residue (the fast-lane stampede check)."""
        g, tree = grid6_negative
        d = str(tmp_path / "store")
        results: dict[int, ShortestPathOracle] = {}
        barrier = threading.Barrier(2)

        def worker(i: int) -> None:
            barrier.wait()
            results[i] = ShortestPathOracle.build(
                g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        store = AugmentationCache(d)
        assert len(_entry_files(store)) == 1
        statuses = {results[i].cache_info["status"] for i in range(2)}
        assert statuses <= {"stored", "hit", "miss"} and "stored" in statuses
        assert np.array_equal(results[0].distances(0), results[1].distances(0))
        leftovers = [
            f for f in _store_files(store)
            if f.endswith(".lock") or ".tmp-" in f
        ]
        assert leftovers == []

    @pytest.mark.multiproc
    def test_process_stampede_single_entry(self, tmp_path):
        """Two spawned processes build the same content concurrently: the
        store ends with exactly one entry, no stale locks or temp files, and
        no /dev/shm residue (ISSUE acceptance)."""
        import multiprocessing as mp

        from repro.pram.shm import orphaned_segments

        d = str(tmp_path / "store")
        ctx = mp.get_context("spawn")
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_stampede_worker, args=(d, q)) for _ in range(2)
        ]
        for p in procs:
            p.start()
        outcomes = [q.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(120)
            assert p.exitcode == 0
        store = AugmentationCache(d)
        assert len(_entry_files(store)) == 1
        statuses = {s for s, _ in outcomes}
        assert statuses <= {"stored", "hit", "miss"} and "stored" in statuses
        d0, d1 = (np.asarray(row) for _, row in outcomes)
        assert np.array_equal(d0, d1)
        leftovers = [
            f for f in _store_files(store)
            if f.endswith(".lock") or ".tmp-" in f
        ]
        assert leftovers == []
        assert orphaned_segments() == []


class TestRowLRU:
    def test_hits_and_misses_counted(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine(OracleConfig(executor="serial", row_cache=8)) as eng:
            eng.query([0, 1, 2])
            got = eng.query([1, 2, 3])
            st = eng.stats()["row_cache"]
            assert (st["hits"], st["misses"]) == (2, 4)
            assert st["size"] == 4 and st["capacity"] == 8
        assert np.array_equal(got, oracle.distances([1, 2, 3]))

    def test_duplicate_sources_within_batch(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine(OracleConfig(executor="serial", row_cache=8)) as eng:
            got = eng.query([5, 5, 5, 6])
            st = eng.stats()["row_cache"]
            assert st["misses"] == 2  # only the unique sources relaxed
            assert st["hits"] == 2  # the two repeats served from row 5
        assert np.array_equal(got, oracle.distances([5, 5, 5, 6]))

    def test_eviction_at_capacity(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine(OracleConfig(executor="serial", row_cache=2)) as eng:
            eng.query([0, 1, 2])  # 0 evicted on insert of 2
            eng.query([0])
            st = eng.stats()["row_cache"]
            assert st["size"] == 2
            assert st["misses"] == 4 and st["hits"] == 0

    def test_epoch_invalidation_via_with_new_weights(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        reweighted = oracle.with_new_weights(g.weight * 3.0)
        assert reweighted.augmentation.weights_epoch == 1
        with reweighted.query_engine(
            OracleConfig(executor="serial", row_cache=4)
        ) as eng:
            eng.query([0])
            # Simulate the engine observing a newer lineage epoch.
            reweighted.augmentation.weights_epoch = 2
            got = eng.query([0])
            st = eng.stats()["row_cache"]
            assert st["epoch"] == 2
            assert st["hits"] == 0 and st["misses"] == 2  # stale row dropped
        assert np.array_equal(got, reweighted.distances(0)[None, :])

    def test_zero_capacity_disables(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine(OracleConfig(executor="serial")) as eng:
            eng.query([0])
            eng.query([0])
            st = eng.stats()["row_cache"]
            assert st == {
                "capacity": 0, "size": 0, "hits": 0, "misses": 0,
                "hit_rate": 0.0, "epoch": 0,
                "epoch_invalidations": 0, "rows_epoch_dropped": 0,
            }


class TestCacheCLI:
    def test_ls_stats_clear(self, grid7, tmp_path, capsys):
        from repro.cli import main

        g, tree = grid7
        d = str(tmp_path / "store")
        ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        assert main(["cache", "ls", "--cache-dir", d]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "leaves_up" in out
        assert main(["cache", "stats", "--cache-dir", d]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", d]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", d]) == 0
        assert "empty" in capsys.readouterr().out


def _stampede_worker(cache_dir: str, q) -> None:
    """Spawn target for the process-stampede test (module level so the
    'spawn' context can import it)."""
    rng = np.random.default_rng(5)
    g = grid_digraph((12, 12), rng)
    tree = decompose_grid(g, (12, 12), leaf_size=8)
    oracle = ShortestPathOracle.build(
        g, tree, config=OracleConfig(cache="readwrite", cache_dir=cache_dir)
    )
    q.put((oracle.cache_info["status"], oracle.distances(0).tolist()))
