"""The undirected-components primitive behind separator-tree construction:
it must reproduce scipy's ``connected_components`` exactly (count and label
numbering), every engine's tree must be unchanged when scipy stands in for
it, and the builder must label each internal node at most twice."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.septree as septree
from repro import OracleConfig, ShortestPathOracle
from repro.cache import augmentation_key
from repro.core.semiring import MIN_PLUS
from repro.core.septree import undirected_components
from repro.separators import decompose
from repro.separators.grid import grid_separator_fn
from repro.workloads.generators import grid_digraph, random_tree_digraph


def scipy_components(n, src, dst, keep=None):
    """Reference oracle: scipy's undirected connected components."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    if keep is not None:
        live = keep[src] & keep[dst]
        src, dst = src[live], dst[live]
    adj = sp.csr_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n))
    return connected_components(adj, directed=False)


@st.composite
def edge_sets(draw):
    """Random digraphs on 0..40 vertices: self-loops, duplicate edges and
    isolated vertices all occur; sometimes a ``keep`` mask drops vertices."""
    n = draw(st.integers(min_value=0, max_value=40))
    m = draw(st.integers(min_value=0, max_value=3 * n)) if n else 0
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=m, max_size=m)
        if n
        else st.just([])
    )
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    keep = None
    if draw(st.booleans()):
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return n, src, dst, keep


class TestPrimitive:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edge_sets())
    def test_matches_scipy_exactly(self, case):
        n, src, dst, keep = case
        count, labels = undirected_components(n, src, dst, keep)
        ref_count, ref_labels = scipy_components(n, src, dst, keep)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_and_edgeless(self, n):
        empty = np.empty(0, dtype=np.int64)
        count, labels = undirected_components(n, empty, empty)
        assert count == n and labels.tolist() == list(range(n))

    def test_long_path_in_reverse_order(self):
        # Worst case for one-directional hooking: every edge joins two
        # trees whose roots sit at opposite ends of the id range.
        n = 500
        order = np.random.default_rng(0).permutation(n)
        count, labels = undirected_components(n, order[:-1], order[1:])
        assert count == 1 and not labels.any()


def _key(g, tree):
    return augmentation_key(g, tree, MIN_PLUS, "leaves_up")


GRID12 = grid_digraph((12, 12), np.random.default_rng(0))
GRID24 = grid_digraph((24, 24), np.random.default_rng(2))
TREE80 = random_tree_digraph(80, np.random.default_rng(3))

ENGINE_CASES = [
    # The generic builder: decompose_grid labels no components on a lattice.
    ("grid", GRID12, lambda g: septree.build_separator_tree(g, grid_separator_fn((12, 12)))),
    ("planar", GRID12, lambda g: decompose(g, "planar")),
    ("treewidth", TREE80, lambda g: decompose(g, "treewidth")),
    ("multilevel", GRID12, lambda g: decompose(g, "multilevel")),
    ("lipton_tarjan", GRID12, lambda g: decompose(g, "lipton_tarjan")),
    ("flow", GRID12, lambda g: decompose(g, "flow")),
    ("spectral-dense", GRID12, lambda g: decompose(g, "spectral")),
    ("spectral-sparse", GRID24, lambda g: decompose(g, "spectral")),  # n = 576 > 512
]


class TestTreesUnchanged:
    @pytest.mark.parametrize("name,g,build", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
    def test_key_matches_scipy_reference(self, monkeypatch, name, g, build):
        ours = _key(g, build(g))
        monkeypatch.setattr(septree, "undirected_components", scipy_components)
        assert _key(g, build(g)) == ours

    def test_grid_at_most_two_passes_per_internal_node(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return undirected_components(*args, **kwargs)

        monkeypatch.setattr(septree, "undirected_components", counting)
        g = grid_digraph((20, 20), None)
        # The generic builder: decompose_grid builds a full lattice's tree
        # from box arithmetic and labels no components at all.
        tree = septree.build_separator_tree(g, grid_separator_fn((20, 20)))
        internal = sum(1 for t in tree.nodes if not t.is_leaf)
        assert internal > 0 and len(calls) <= 2 * internal


class TestSparseSpectralDeterminism:
    """The sparse Fiedler solve (n > 512) starts from a seed-derived vector:
    repeated builds give one tree, so a cached augmentation is found again."""

    def test_repeated_decompositions_agree(self):
        keys = {_key(GRID24, decompose(GRID24, "spectral")) for _ in range(3)}
        assert len(keys) == 1

    def test_default_separator_cache_round_trip_hits(self, tmp_path):
        d = str(tmp_path / "store")
        cold = ShortestPathOracle.build(
            GRID24, config=OracleConfig(cache="readwrite", cache_dir=d)
        )
        assert cold.cache_info["status"] == "stored", cold.cache_info
        warm = ShortestPathOracle.build(
            GRID24, config=OracleConfig(cache="read", cache_dir=d)
        )
        assert warm.cache_info["status"] == "hit", warm.cache_info
