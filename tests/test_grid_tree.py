"""``decompose_grid`` builds the grid's tree from box arithmetic; it must be,
node for node, the tree the generic builder makes with ``grid_separator_fn``
(so augmentation-cache keys and the build-parity digests stay valid), and
inputs outside the box rule must still go through that builder."""

import numpy as np
import pytest

import repro.separators.grid as grid
from repro.cache import augmentation_key
from repro.core.digraph import WeightedDigraph
from repro.core.semiring import MIN_PLUS
from repro.core.septree import build_separator_tree
from repro.separators.grid import decompose_grid, grid_separator_fn
from repro.workloads.generators import grid_digraph

#: (shape, leaf_size) pairs the box construction serves; (9, 9)/4 is Fig. 1.
BOX_CASES = [
    ((9, 9), 4),
    ((40, 40), 8),
    ((11, 23), 8),
    ((30,), 4),
    ((7, 7), 9),
    ((2, 2), 8),
    ((4, 4, 4), 8),
    ((6, 7, 5), 8),
]
#: leaf_size < 2^d: a box with a widest side of 2 gets split, which the
#: generic builder does with its neighbourhood fallback (non-box nodes).
FALLBACK_CASES = [((5, 5), 1), ((6, 4), 3), ((3, 17), 3)]


def reference(g, shape, leaf_size, full):
    return build_separator_tree(
        g, grid_separator_fn(shape), leaf_size=leaf_size, full_separator_inclusion=full
    )


def assert_same_tree(g, got, want):
    assert got.n == want.n and len(got.nodes) == len(want.nodes)
    for a, b in zip(got.nodes, want.nodes):
        assert (a.idx, a.level, a.parent, a.children) == (b.idx, b.level, b.parent, b.children)
        for part in ("vertices", "separator", "boundary"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype, (a.idx, part)
            assert np.array_equal(x, y), (a.idx, part)
    assert np.array_equal(got.vertex_level, want.vertex_level)
    assert np.array_equal(got.vertex_node, want.vertex_node)
    assert augmentation_key(g, got, MIN_PLUS, "leaves_up") == augmentation_key(
        g, want, MIN_PLUS, "leaves_up"
    )


@pytest.fixture
def no_generic(monkeypatch):
    """Fail if ``decompose_grid`` reaches the generic builder."""

    def refuse(*args, **kwargs):
        raise AssertionError("decompose_grid fell back to build_separator_tree")

    monkeypatch.setattr(grid, "build_separator_tree", refuse)


@pytest.fixture
def generic_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return build_separator_tree(*args, **kwargs)

    monkeypatch.setattr(grid, "build_separator_tree", counting)
    return calls


def _with_edges(g, src, dst):
    return WeightedDigraph(g.n, src, dst, np.ones(src.shape[0]))


@pytest.mark.parametrize("full", [True, False], ids=["full", "adjacent"])
@pytest.mark.parametrize("shape,leaf_size", BOX_CASES, ids=[f"{s}/{k}" for s, k in BOX_CASES])
def test_box_tree_matches_generic_builder(no_generic, shape, leaf_size, full):
    g = grid_digraph(shape, np.random.default_rng(0))
    got = decompose_grid(g, shape, leaf_size=leaf_size, full_separator_inclusion=full)
    assert_same_tree(g, got, reference(g, shape, leaf_size, full))
    got.validate(g)


@pytest.mark.parametrize("variant", ["one-way", "self-loops", "parallel"])
def test_box_tree_ignores_orientation_loops_and_parallel_edges(no_generic, variant):
    shape = (11, 9)
    g = grid_digraph(shape, None)
    one_way = g.src < g.dst
    src, dst = g.src[one_way], g.dst[one_way]
    if variant == "self-loops":
        loops = np.arange(0, g.n, 7)
        src, dst = np.concatenate([g.src, loops]), np.concatenate([g.dst, loops])
    elif variant == "parallel":
        src, dst = np.concatenate([g.src, src]), np.concatenate([g.dst, dst])
    h = _with_edges(g, src, dst)
    got = decompose_grid(h, shape)
    assert_same_tree(h, got, reference(h, shape, 8, True))


@pytest.mark.parametrize("full", [True, False], ids=["full", "adjacent"])
@pytest.mark.parametrize(
    "shape,leaf_size", FALLBACK_CASES, ids=[f"{s}/{k}" for s, k in FALLBACK_CASES]
)
def test_small_leaves_fall_back_to_generic_builder(generic_calls, shape, leaf_size, full):
    g = grid_digraph(shape, np.random.default_rng(1))
    got = decompose_grid(g, shape, leaf_size=leaf_size, full_separator_inclusion=full)
    assert len(generic_calls) == 1
    assert_same_tree(g, got, reference(g, shape, leaf_size, full))


def test_partial_lattice_falls_back_to_generic_builder(generic_calls):
    shape = (12, 10)
    g = grid_digraph(shape, None)
    keep = np.ones(g.m, dtype=bool)
    # Drop both orientations of a few lattice edges.
    for u, v in [(0, 1), (45, 55), (60, 61), (118, 119)]:
        keep &= ~(((g.src == u) & (g.dst == v)) | ((g.src == v) & (g.dst == u)))
    h = _with_edges(g, g.src[keep], g.dst[keep])
    got = decompose_grid(h, shape)
    assert len(generic_calls) == 1
    assert_same_tree(h, got, reference(h, shape, 8, True))


def test_vertex_count_must_match_shape():
    with pytest.raises(ValueError, match="implies"):
        decompose_grid(grid_digraph((4, 4), None), (4, 5))
