"""Zero-copy shared-memory plane: arena unit tests, descriptor payloads
on the ``shm`` pool, and /dev/shm leak checks.  (The ``shm`` engine's
rows are checked against serial in ``test_query_engine.py``.)

Pool-spawning tests carry the ``multiproc`` marker; the default fast lane
(``-m "not multiproc"``) still exercises the arena itself in-process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pram.shm import ArrayRef, ShmArena, as_array, orphaned_segments, resolve


class TestShmArena:
    def test_publish_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((13, 7))
        with ShmArena() as arena:
            ref = arena.publish(a)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (13, 7) and np.dtype(ref.dtype) == a.dtype
            view = as_array(ref)
            assert np.array_equal(view, a)
            # The view aliases the segment, not the source array.
            assert not np.shares_memory(view, a)
        assert orphaned_segments() == []

    def test_alloc_alignment_and_write_through(self):
        with ShmArena() as arena:
            refs = [arena.alloc((3, 3), np.float64) for _ in range(5)]
            for i, (ref, view) in enumerate(refs):
                assert ref.offset % 64 == 0
                view[...] = i
            for i, (ref, _) in enumerate(refs):
                assert (as_array(ref) == i).all()

    def test_alloc_int_shape_and_bool_dtype(self):
        with ShmArena() as arena:
            ref, view = arena.alloc(10, bool)
            view[...] = True
            assert ref.shape == (10,) and as_array(ref).all()

    def test_publish_non_contiguous(self):
        a = np.arange(24.0).reshape(4, 6)[:, ::2]
        with ShmArena() as arena:
            assert np.array_equal(as_array(arena.publish(a)), a)

    def test_grows_across_segments(self):
        with ShmArena(chunk_bytes=4096) as arena:
            refs = [arena.publish(np.arange(1024.0)) for _ in range(4)]
            assert len(arena.segment_names) >= 4
            for r in refs:
                assert np.array_equal(as_array(r), np.arange(1024.0))
        assert orphaned_segments() == []

    def test_oversized_array_gets_own_segment(self):
        big = np.ones(5000, dtype=np.float64)  # > chunk_bytes
        with ShmArena(chunk_bytes=4096) as arena:
            assert np.array_equal(as_array(arena.publish(big)), big)
        assert orphaned_segments() == []

    def test_resolve_recurses_containers(self):
        with ShmArena() as arena:
            a = np.arange(6.0)
            ref = arena.publish(a)
            payload = {"x": ref, "nested": [(ref, 1), {"y": ref}], "z": "s"}
            out = resolve(payload)
            assert np.array_equal(out["x"], a)
            assert np.array_equal(out["nested"][0][0], a)
            assert out["nested"][0][1] == 1
            assert np.array_equal(out["nested"][1]["y"], a)
            assert out["z"] == "s"

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena()
        arena.publish(np.ones(3))
        names = list(arena.segment_names)
        assert names
        arena.close()
        arena.close()
        assert orphaned_segments() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                as_array(ArrayRef(name, 0, (3,), "float64"))

    def test_allocated_bytes_monotone(self):
        with ShmArena() as arena:
            b0 = arena.allocated_bytes
            arena.publish(np.ones(100))
            assert arena.allocated_bytes >= b0 + 800


def _touch(payload):
    return float(np.asarray(payload["a"]).sum())


def _explode(payload):
    raise RuntimeError("worker crashed mid-task")


@pytest.mark.multiproc
class TestShmLifecycle:
    def test_descriptor_payloads_resolve_in_workers(self):
        from repro.pram.executor import get_executor

        exe = get_executor("shm:2")
        try:
            with ShmArena() as arena:
                ref = arena.publish(np.arange(10.0))
                got = exe.map(_touch, [{"a": ref}, {"a": ref}])
            assert got == [45.0, 45.0]
        finally:
            exe.close()
        assert orphaned_segments() == []

    def test_no_leak_after_worker_crash(self):
        from repro.pram.executor import get_executor

        exe = get_executor("shm:2")
        try:
            with ShmArena() as arena:
                ref = arena.publish(np.ones(8))
                with pytest.raises(RuntimeError):
                    exe.map(_explode, [{"a": ref}])
        finally:
            exe.close()
        assert orphaned_segments() == []
