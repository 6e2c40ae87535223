"""Coverage batch: distinct behaviors in branches the main suites skim —
literal-inclusion orphan handling, doubling without early stop, qface with
negative weights, degenerate hammock/scc/tvpi inputs, CLI variants, and
hypothesis checks for the max-min matmul."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import WeightedDigraph
from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.sssp import sssp_scheduled
from repro.separators.spectral import decompose_spectral
from tests.conftest import assert_distances_equal, reference_apsp


class TestLiteralInclusionOrphans:
    def test_orphan_separator_vertex_rescued(self):
        """A separator vertex with no neighbors on either side (isolated
        inside the subgraph) must still land in a child under the literal
        rule — the builder's safety net."""
        from repro.core.septree import build_separator_tree

        # Two components {0,1} and {3,4}, plus isolated vertex 2.  An
        # oracle that names 2 as the separator: N(V_i) misses it on both
        # sides, so the literal rule would drop it entirely — the safety
        # net must re-attach it to both children.
        g = WeightedDigraph(5, [0, 1, 3, 4], [1, 0, 4, 3], np.ones(4))

        def oracle(sub, gv):
            degrees = np.diff(sub.skeleton.indptr)
            return np.array([int(np.argmin(degrees))])  # the isolated vertex

        tree = build_separator_tree(g, oracle, leaf_size=3, full_separator_inclusion=False)
        tree.validate(g)
        root = tree.root
        assert root.separator.tolist() == [2]
        kids = np.concatenate([tree.nodes[c].vertices for c in root.children])
        assert 2 in kids  # rescued despite having no neighbors anywhere


class TestDoublingVariants:
    def test_no_early_stop_same_result(self, grid7):
        g, tree = grid7
        a = augment_doubling(g, tree, early_stop=False, keep_node_distances=False)
        b = augment_doubling(g, tree, early_stop=True, keep_node_distances=False)
        assert np.array_equal(a.src, b.src)
        assert np.allclose(a.weight, b.weight)

    def test_shared_no_early_stop(self, grid7):
        from repro.core.doubling_shared import augment_doubling_shared

        g, tree = grid7
        a = augment_doubling_shared(g, tree, early_stop=False, keep_node_distances=False)
        got = sssp_scheduled(a, [0])
        assert_distances_equal(got[0], reference_apsp(g)[0])


class TestQFaceNegativeWeights:
    def test_negative_weights_match_johnson(self, rng):
        from repro.kernels.johnson import johnson
        from repro.planar.hammock import ring_of_hammocks
        from repro.planar.qface import QFaceOracle
        from repro.workloads.generators import apply_potential_weights

        g, dec = ring_of_hammocks(4, 10, rng)
        g2 = apply_potential_weights(g, rng)
        dec.graph = g2  # same structure, new weights
        oracle = QFaceOracle.build(g2, dec)
        ref = johnson(g2, [0, g2.n // 2])
        for i, s in enumerate((0, g2.n // 2)):
            assert np.allclose(oracle.distances_from(s), ref[i])


class TestDegenerateInputs:
    def test_chain_single_hammock(self, rng):
        from repro.planar.hammock import chain_of_hammocks

        g, dec = chain_of_hammocks(1, 8, rng)
        assert dec.q == 1
        assert not dec.validate()

    def test_scc_empty_and_single(self):
        from repro.core.scc import condensation_closure, strongly_connected_components

        g = WeightedDigraph(1, [], [], [])
        ncomp, labels = strongly_connected_components(g)
        assert ncomp == 1 and labels.tolist() == [0]
        clo = condensation_closure(1, np.empty(0, np.int64), np.empty(0, np.int64))
        assert clo.tolist() == [[True]]

    def test_tvpi_empty_system(self):
        from repro.apps.tvpi import solve_difference_system

        res = solve_difference_system(3, [])
        assert res.feasible and res.solution.shape == (3,)

    def test_prefix_sum_empty(self):
        from repro.pram.primitives import prefix_sum

        out = prefix_sum(np.array([], dtype=np.int64))
        assert out.size == 0

    def test_witness_on_isolated_vertices(self):
        from repro.core.witnesses import WitnessOracle

        g = WeightedDigraph(5, [0], [1], [2.0])  # 2,3,4 isolated
        tree = decompose_spectral(g, leaf_size=2)
        oracle = WitnessOracle(g, tree)
        assert oracle.path(0, 1) == [0, 1]
        assert oracle.path(2, 3) is None
        assert oracle.path(3, 3) == [3]


class TestCLIVariants:
    def test_fig1_max_depth_limits_output(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--side", "5", "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        # No node at depth > 1 printed (they would be indented 4+ spaces).
        assert "\n        node" not in out

    def test_stats_delaunay(self, capsys):
        from repro.cli import main

        assert main(["stats", "--family", "delaunay", "--n", "120"]) == 0
        assert "decomposition" in capsys.readouterr().out


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=6))
def test_maxmin_matmul_matches_bruteforce(seed, k):
    """Widest-path product against a scalar brute force."""
    from repro.core.semiring import MAX_MIN
    from repro.kernels.minplus import semiring_matmul

    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 10, (k, k))
    a[rng.uniform(size=(k, k)) < 0.3] = -np.inf
    got = semiring_matmul(a, a, MAX_MIN)
    want = np.full((k, k), -np.inf)
    for i in range(k):
        for j in range(k):
            want[i, j] = max(min(a[i, t], a[t, j]) for t in range(k))
    assert np.allclose(got, want)


class TestNaivePhasesParam:
    def test_explicit_phase_cap(self, grid7):
        from repro.core.sssp import sssp_naive

        g, tree = grid7
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        capped = sssp_naive(aug, 0, phases=1)
        # One phase only reaches direct successors in G+.
        assert np.isfinite(capped).sum() < g.n
        full = sssp_naive(aug, 0)
        assert np.isfinite(full).sum() == g.n
