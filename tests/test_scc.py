"""Tests for the SCC / condensation substrate."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digraph import WeightedDigraph
from repro.core.scc import (
    condensation,
    condensation_closure,
    reachability_via_condensation,
    strongly_connected_components,
)
from repro.workloads.generators import gnm_digraph, grid_digraph


def scipy_scc(g):
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adj = sp.csr_matrix((np.ones(g.m), (g.src, g.dst)), shape=(g.n, g.n))
    return connected_components(adj, directed=True, connection="strong")


class TestTarjan:
    def test_cycle_is_one_component(self):
        g = WeightedDigraph(4, [0, 1, 2, 3], [1, 2, 3, 0], np.ones(4))
        ncomp, labels = strongly_connected_components(g)
        assert ncomp == 1 and np.unique(labels).size == 1

    def test_dag_has_singletons(self, tiny_line):
        ncomp, labels = strongly_connected_components(tiny_line)
        assert ncomp == 4
        assert np.unique(labels).size == 4

    def test_matches_scipy_on_random(self, rng):
        for _ in range(10):
            g = gnm_digraph(60, 150, rng)
            n1, l1 = strongly_connected_components(g)
            n2, l2 = scipy_scc(g)
            assert n1 == n2
            # Same partition (labels up to renaming).
            for c in range(n1):
                members = np.nonzero(l1 == c)[0]
                assert np.unique(l2[members]).size == 1

    def test_labels_reverse_topological(self, rng):
        g = gnm_digraph(50, 120, rng)
        ncomp, labels, ds, dd = condensation(g)
        # Every condensation edge descends in label.
        assert (labels[g.src][labels[g.src] != labels[g.dst]] >
                labels[g.dst][labels[g.src] != labels[g.dst]]).all()
        assert (ds > dd).all()

    def test_bidirected_grid_single_component(self, rng):
        g = grid_digraph((5, 5), rng)
        ncomp, _ = strongly_connected_components(g)
        assert ncomp == 1


class TestClosure:
    def test_line_dag(self, tiny_line):
        ncomp, labels, ds, dd = condensation(tiny_line)
        clo = condensation_closure(ncomp, ds, dd)
        # Component of vertex 0 reaches all others.
        c0 = labels[0]
        assert clo[c0].sum() == 4

    def test_reachability_matches_networkx(self, rng):
        import networkx as nx

        g = gnm_digraph(80, 200, rng)
        got = reachability_via_condensation(g, [0, 17, 55])
        nxg = g.to_networkx()
        for i, s in enumerate((0, 17, 55)):
            want = np.zeros(g.n, dtype=bool)
            want[list(nx.descendants(nxg, s))] = True
            want[s] = True  # sources are reflexively marked
            assert np.array_equal(got[i], want)

    def test_source_always_marked(self):
        g = WeightedDigraph(2, [0, 0], [1, 0], np.ones(2))
        got = reachability_via_condensation(g, [0, 1])
        assert got[0, 0] and got[1, 1]  # sources are reflexively marked
        assert got[0, 1] and not got[1, 0]

    def test_matches_separator_reachability(self, rng):
        """The condensation fast path and the paper's boolean E⁺ agree."""
        from repro.core.reach import reachability_augmentation, reachable_from
        from repro.separators.spectral import decompose_spectral

        g = gnm_digraph(70, 130, rng)
        tree = decompose_spectral(g, leaf_size=6)
        aug = reachability_augmentation(g, tree)
        srcs = [0, 10, 42]
        assert np.array_equal(
            reachable_from(aug, srcs), reachability_via_condensation(g, srcs)
        )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=90))
def test_scc_partition_property(seed, n, m):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    g = WeightedDigraph(n, src, dst, np.ones(m))
    n1, l1 = strongly_connected_components(g)
    n2, l2 = scipy_scc(g)
    assert n1 == n2
    # Mutual-reachability equivalence: same-component iff scipy says so.
    same1 = l1[:, None] == l1[None, :]
    same2 = l2[:, None] == l2[None, :]
    assert np.array_equal(same1, same2)
