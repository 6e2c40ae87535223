"""Tests for the PRAM work/depth ledger, primitives, and executors."""

import numpy as np
import pytest

from repro.pram.executor import SerialExecutor, ThreadExecutor, get_executor
from repro.pram.machine import NULL_LEDGER, Ledger, log2ceil
from repro.pram.primitives import (
    list_rank,
    pairwise_min,
    parallel_reduce,
    pointer_jump_roots,
    prefix_sum,
)


class TestLedger:
    def test_sequential_charges_add(self):
        led = Ledger()
        led.charge(10, 2, label="a")
        led.charge(5, 3, label="a")
        assert led.work == 15 and led.depth == 5
        assert led.breakdown()["a"]["calls"] == 2

    def test_parallel_region_brent(self):
        led = Ledger()
        with led.parallel("phase") as region:
            b1, b2 = region.branch(), region.branch()
            b1.charge(100, 7)
            b2.charge(50, 9)
        assert led.work == 150  # sum of work
        assert led.depth == 9  # max of depth

    def test_nested_parallel(self):
        led = Ledger()
        with led.parallel() as outer:
            b = outer.branch()
            with b.parallel() as inner:
                inner.branch().charge(1, 1)
                inner.branch().charge(1, 5)
        assert led.work == 2 and led.depth == 5

    def test_merge_parallel(self):
        led = Ledger()
        b1, b2 = Ledger(), Ledger()
        b1.charge(3, 1, label="x")
        b2.charge(4, 2, label="x")
        led.merge_parallel([b1, b2], label="lvl")
        assert led.work == 7 and led.depth == 2
        assert led.breakdown()["x"]["work"] == 7

    def test_null_ledger_ignores(self):
        before = (NULL_LEDGER.work, NULL_LEDGER.depth)
        NULL_LEDGER.charge(1e9, 1e9)
        assert (NULL_LEDGER.work, NULL_LEDGER.depth) == before
        assert NULL_LEDGER.spawn() is NULL_LEDGER

    def test_log2ceil(self):
        assert log2ceil(1) == 1 and log2ceil(2) == 1
        assert log2ceil(8) == 3 and log2ceil(9) == 4


class TestPrimitives:
    def test_reduce_charges_linear_work_log_depth(self):
        led = Ledger()
        total = parallel_reduce(np.arange(16), ledger=led)
        assert total == 120
        assert led.work == 16 and led.depth == 4

    def test_prefix_sum_exclusive(self):
        led = Ledger()
        out = prefix_sum(np.array([3, 1, 4, 1]), ledger=led)
        assert out.tolist() == [0, 3, 4, 8]
        assert led.work == 8  # 2n for up+down sweep

    def test_pairwise_min_depth_one(self):
        led = Ledger()
        out = pairwise_min(np.array([1.0, 5.0]), np.array([2.0, 2.0]), ledger=led)
        assert out.tolist() == [1.0, 2.0]
        assert led.depth == 1

    def test_pointer_jump_roots(self):
        # Forest: 0->0 (root), 1->0, 2->1, 3->3 (root), 4->3.
        parent = np.array([0, 0, 1, 3, 3])
        roots = pointer_jump_roots(parent)
        assert roots.tolist() == [0, 0, 0, 3, 3]

    def test_list_rank(self):
        # Two lists: 0->1->2->end; 3->end.
        nxt = np.array([1, 2, -1, -1])
        rank = list_rank(nxt)
        assert rank.tolist() == [2, 1, 0, 0]


def _square(x):
    return x * x


class TestExecutors:
    @pytest.mark.parametrize("exe", [SerialExecutor(), ThreadExecutor(2)])
    def test_map_preserves_order(self, exe):
        assert exe.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        exe.close()

    @pytest.mark.parametrize("spec", ["process", "process:2"])
    def test_process_executor_is_retired_with_a_pointed_error(self, spec):
        with pytest.raises(ValueError, match=r"'process'.*removed.*thread:N.*shm:N"):
            get_executor(spec)

    @pytest.mark.multiproc
    def test_shm_executor_spec(self):
        from repro.pram.executor import ShmExecutor

        exe = get_executor("shm:2")
        try:
            assert isinstance(exe, ShmExecutor)
            assert exe.workers == 2 and exe.uses_shared_memory
            assert exe.map(_square, [3, 5]) == [9, 25]
        finally:
            exe.close()

    def test_get_executor_specs(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        t = get_executor("thread:2")
        assert isinstance(t, ThreadExecutor) and t.workers == 2
        t.close()
        assert isinstance(get_executor(None), SerialExecutor)
        with pytest.raises(ValueError):
            get_executor("gpu")

    def test_get_executor_passthrough(self):
        exe = SerialExecutor()
        assert get_executor(exe) is exe


class TestBrentSimulation:
    def test_curve_shape(self):
        from repro.pram.simulation import brent_curve

        led = Ledger()
        led.charge(work=1e6, depth=100.0)
        curve = brent_curve(led)
        assert curve.parallelism == 1e6 / 100.0
        # Monotone nonincreasing time, speedup approaching parallelism.
        assert (np.diff(curve.time) <= 1e-9).all()
        assert curve.speedup[-1] <= curve.parallelism + 1.0
        assert curve.speedup[0] == pytest.approx(1.0)

    def test_saturation(self):
        from repro.pram.simulation import brent_curve

        led = Ledger()
        led.charge(work=1e6, depth=100.0)
        curve = brent_curve(led, processors=[1, 10, 100, 1000, 10000, 100000])
        p_half = curve.saturation_processors(0.5)
        # Half of 10,000x parallelism needs ~10,000 processors (Brent).
        assert 1000 <= p_half <= 100000

    def test_requires_work(self):
        from repro.pram.simulation import brent_curve

        with pytest.raises(ValueError):
            brent_curve(Ledger())

    def test_on_real_pipeline(self, rng):
        from repro.core.leaves_up import augment_leaves_up
        from repro.pram.simulation import brent_curve
        from repro.separators.grid import decompose_grid
        from repro.workloads.generators import grid_digraph

        g = grid_digraph((10, 10), rng)
        tree = decompose_grid(g, (10, 10), leaf_size=4)
        led = Ledger()
        augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
        curve = brent_curve(led)
        assert curve.parallelism > 10  # plenty of model parallelism


class TestPramModel:
    def test_crcw_flattens_reduction_depth(self):
        from repro.pram.machine import pram_model, reduce_depth, set_pram_model

        assert pram_model() == "EREW"
        assert reduce_depth(1024) == 10
        try:
            set_pram_model("CRCW")
            assert reduce_depth(1024) == 1.0
        finally:
            set_pram_model("EREW")

    def test_invalid_model_rejected(self):
        from repro.pram.machine import set_pram_model

        with pytest.raises(ValueError):
            set_pram_model("QUANTUM")

    def test_model_changes_measured_depth(self, rng):
        from repro.core.leaves_up import augment_leaves_up
        from repro.pram.machine import set_pram_model
        from repro.separators.grid import decompose_grid
        from repro.workloads.generators import grid_digraph

        g = grid_digraph((8, 8), rng)
        tree = decompose_grid(g, (8, 8), leaf_size=4)
        led_erew = Ledger()
        augment_leaves_up(g, tree, ledger=led_erew, keep_node_distances=False)
        try:
            set_pram_model("CRCW")
            led_crcw = Ledger()
            augment_leaves_up(g, tree, ledger=led_crcw, keep_node_distances=False)
        finally:
            set_pram_model("EREW")
        assert led_crcw.depth < led_erew.depth
        assert led_crcw.work == led_erew.work  # work is model-independent
