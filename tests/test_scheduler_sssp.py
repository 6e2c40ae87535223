"""Tests for the §3.2 level schedule and the query engines: exactness
(invariants I1/I5), one-pass sufficiency, and the O(1)-scans-per-E⁺-edge
work bound (I10)."""

import numpy as np
import pytest

from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.semiring import BOOLEAN
from repro.core.sssp import sssp_naive, sssp_scheduled
from repro.kernels.bellman_ford import initial_distances
from repro.pram.machine import Ledger
from tests.conftest import assert_distances_equal, reference_apsp


@pytest.fixture(params=["leaves_up", "doubling"])
def aug(request, grid7):
    g, tree = grid7
    build = augment_leaves_up if request.param == "leaves_up" else augment_doubling
    return build(g, tree, keep_node_distances=False)


class TestSchedule:
    def test_phase_count_formula(self, aug):
        schedule = build_schedule(aug)
        assert schedule.num_phases == 2 * aug.ell + 4 * aug.tree.height + 1

    def test_each_aug_edge_scanned_at_most_twice(self, aug):
        """Invariant I10 — the per-source work bound of §3.2."""
        schedule = build_schedule(aug)
        assert schedule.aug_edge_phase_counts.max() <= 2
        # And at least once: every E+ edge has defined endpoint levels.
        assert schedule.aug_edge_phase_counts.min() >= 1

    def test_edge_scans_bound(self, aug):
        """Total scans ≤ 2ℓ|E| + 2(|E| + |E⁺|)."""
        schedule = build_schedule(aug)
        g = aug.graph
        assert schedule.edge_scans <= 2 * aug.ell * g.m + 2 * (g.m + aug.size)

    def test_labels_structure(self, aug):
        schedule = build_schedule(aug)
        labels = schedule.labels
        ell = aug.ell
        assert all(l.startswith("prefix-E") for l in labels[:ell])
        assert all(l.startswith("suffix-E") for l in labels[-ell:] if ell)
        middle = labels[ell : len(labels) - ell]
        assert middle[0] == f"desc-same-{aug.tree.height}"
        assert middle[-1] == f"asc-same-{aug.tree.height}"


class TestScheduledQueries:
    def test_single_pass_is_exact_all_sources(self, aug):
        ref = reference_apsp(aug.graph)
        got = sssp_scheduled(aug, list(range(aug.graph.n)))
        assert_distances_equal(got, ref)

    def test_naive_matches_scheduled(self, aug):
        srcs = [0, 10, 48]
        assert_distances_equal(sssp_naive(aug, srcs), sssp_scheduled(aug, srcs))

    def test_int_source_returns_vector(self, aug):
        d = sssp_scheduled(aug, 0)
        assert d.shape == (aug.graph.n,)

    def test_schedule_reuse_across_sources(self, aug):
        schedule = build_schedule(aug)
        d1 = sssp_scheduled(aug, 3, schedule=schedule)
        d2 = sssp_scheduled(aug, 3, schedule=schedule)
        assert np.array_equal(d1, d2)

    def test_scheduled_work_less_than_naive(self, aug):
        """Ablation A3: the schedule does strictly less relaxation work."""
        led_s, led_n = Ledger(), Ledger()
        sssp_scheduled(aug, 0, ledger=led_s)
        sssp_naive(aug, 0, ledger=led_n)
        assert led_s.work < led_n.work

    def test_run_in_place(self, aug):
        schedule = build_schedule(aug)
        dist = initial_distances(aug.graph.n, [0], aug.semiring)
        out = schedule.run(dist)
        assert out is dist


class TestNegativeWeights:
    @pytest.mark.parametrize("method", ["leaves_up", "doubling"])
    def test_scheduled_exact_with_negatives(self, grid6_negative, method):
        g, tree = grid6_negative
        build = augment_leaves_up if method == "leaves_up" else augment_doubling
        aug = build(g, tree, keep_node_distances=False)
        ref = reference_apsp(g)
        got = sssp_scheduled(aug, list(range(g.n)))
        assert_distances_equal(got, ref)


class TestBooleanQueries:
    def test_scheduled_reachability(self, grid7):
        g, tree = grid7
        aug = augment_leaves_up(g, tree, BOOLEAN, keep_node_distances=False)
        got = sssp_scheduled(aug, [0])
        assert got.dtype == bool
        assert got.all()  # grid is strongly connected


class TestMultiSourceVectorization:
    def test_many_sources_match_individual(self, aug):
        srcs = [1, 7, 19, 33]
        block = sssp_scheduled(aug, srcs)
        for i, s in enumerate(srcs):
            single = sssp_scheduled(aug, int(s))
            assert np.array_equal(block[i], single)


class TestSourceBlocking:
    def test_blocked_equals_unblocked(self, aug):
        srcs = list(range(40))
        a = sssp_scheduled(aug, srcs, source_block=7)
        b = sssp_scheduled(aug, srcs, source_block=10_000)
        assert np.array_equal(a, b)

    def test_block_of_one(self, aug):
        srcs = [0, 5, 9]
        a = sssp_scheduled(aug, srcs, source_block=1)
        b = sssp_scheduled(aug, srcs)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("block", [0, -3])
    def test_nonpositive_block_relaxes_every_row(self, aug, block):
        """A block below 1 is clamped for the slices too, not only the
        stride — no row may come back unrelaxed."""
        srcs = [0, 5]
        got = sssp_scheduled(aug, srcs, source_block=block)
        assert np.array_equal(got, sssp_scheduled(aug, srcs))
        assert np.isfinite(got).all()  # the grid is strongly connected
