"""``ScheduleLayout.build`` assigns each edge its middle phases from its
endpoint levels and lays every phase out in one grouped pass.  It must equal,
array for array, the per-phase compile it replaced, which is kept here as the
reference: one level mask per §3.2 filter and one relaxer layout per phase."""

import numpy as np
import pytest

from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import ScheduleLayout
from repro.core.semiring import SEMIRINGS
from repro.core.septree import build_separator_tree
from repro.kernels.bellman_ford import RelaxerLayout
from repro.separators.grid import decompose_grid, grid_separator_fn
from repro.workloads.generators import grid_digraph
from repro.workloads.synthetic import separator_programmable_family


def reference_layout(src, dst, edges=None):
    """One edge set's layout arrays, sorted on their own."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    m = int(src.shape[0])
    by_head = np.argsort(dst, kind="stable")
    dst_sorted = dst[by_head]
    new_head = np.ones(m, dtype=bool)
    new_head[1:] = dst_sorted[1:] != dst_sorted[:-1]
    first = np.flatnonzero(new_head)
    indeg = np.diff(np.append(first, m))
    order = np.argsort(-indeg, kind="stable")
    deg = indeg[order]
    slots = int(deg[0]) if m else 0
    width = np.searchsorted(-deg, -np.arange(slots), side="left")
    slot_ptr = np.zeros(slots + 1, dtype=np.int64)
    np.cumsum(width, out=slot_ptr[1:])
    slot_head = np.arange(m, dtype=np.int64) - np.repeat(slot_ptr[:-1], width)
    pull = by_head[first[order][slot_head] + np.repeat(np.arange(slots), width)]
    push = np.argsort(src, kind="stable")
    nv = int(max(src.max(), dst.max())) + 1 if m else 0
    out_ptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nv), out=out_ptr[1:])
    edges = np.arange(m) if edges is None else np.asarray(edges, dtype=np.int64)
    return {
        "pull_src": src[pull],
        "heads": dst_sorted[first][order],
        "slot_ptr": slot_ptr,
        "push_dst": dst[push].astype(np.int32),
        "out_ptr": out_ptr.astype(np.int32),
        "pull_perm": edges[pull],
        "push_perm": edges[push],
    }


def reference_compile(aug):
    """``(labels, layouts, aug_edge_phase_counts)`` of the middle phases, one
    level mask per filter of the scheduler's docstring."""
    tree, g = aug.tree, aug.graph
    d_g = tree.height
    lv = tree.vertex_level
    src = np.concatenate([g.src, aug.src])
    dst = np.concatenate([g.dst, aug.dst])
    lv1, lv2 = lv[src], lv[dst]
    counts = np.zeros(src.shape[0], dtype=np.int64)
    labels, layouts = [], []

    def add(mask, label):
        counts[mask] += 1
        idx = np.flatnonzero(mask)
        labels.append(label)
        layouts.append(reference_layout(src[idx], dst[idx], idx))

    for i in range(1, 2 * d_g + 2):
        if i % 2 == 1:
            lam = d_g - (i - 1) // 2
            add((lv1 == lam) & (lv2 == lam), f"desc-same-{lam}")
        else:
            lam = d_g - i // 2 + 1
            add((lv1 == lam) & (lv2 >= 0) & (lv2 < lam), f"desc-drop-{lam}")
    for i in range(1, 2 * d_g + 1):
        if i % 2 == 1:
            lam = (i - 1) // 2
            add((lv1 == lam) & (lv2 > lam), f"asc-rise-{lam}")
        else:
            lam = i // 2
            add((lv1 == lam) & (lv2 == lam), f"asc-same-{lam}")
    return labels, layouts, counts[g.m :]


def assert_layout_equal(got: RelaxerLayout, want: dict, where=""):
    for name, value in want.items():
        have = getattr(got, name)
        assert have.dtype == value.dtype, (where, name)
        assert np.array_equal(have, value), (where, name)
    assert got.m == want["pull_src"].shape[0]


def assert_compile_equal(aug):
    lay = ScheduleLayout.build(aug)
    labels, layouts, counts = reference_compile(aug)
    assert [label for label, _ in lay.middle] == labels
    assert len(lay.middle) == 4 * aug.tree.height + 1
    for (label, got), want in zip(lay.middle, layouts):
        assert_layout_equal(got, want, label)
    assert_layout_equal(lay.original, reference_layout(aug.graph.src, aug.graph.dst), "E")
    assert lay.aug_edge_phase_counts.dtype == counts.dtype
    assert np.array_equal(lay.aug_edge_phase_counts, counts)
    return lay


def _grid(side, seed=0):
    g = grid_digraph((side, side), np.random.default_rng(seed))
    return g, decompose_grid(g, (side, side))


def test_grid_40():
    g, tree = _grid(40)
    assert_compile_equal(augment_leaves_up(g, tree, keep_node_distances=False))


def test_programmable_family():
    rng = np.random.default_rng(3)
    g, tree = separator_programmable_family(600, 0.5, rng)
    assert_compile_equal(augment_leaves_up(g, tree, keep_node_distances=False))


def test_generic_tree_with_undefined_levels():
    shape = (9, 7)
    g = grid_digraph(shape, np.random.default_rng(4))
    tree = build_separator_tree(g, grid_separator_fn(shape), leaf_size=3)
    assert (tree.vertex_level == -1).any()
    assert_compile_equal(augment_leaves_up(g, tree, keep_node_distances=False))


def test_single_leaf_tree():
    g = grid_digraph((3, 3), np.random.default_rng(5))
    tree = build_separator_tree(g, grid_separator_fn((3, 3)), leaf_size=g.n)
    assert tree.height == 0 and len(tree.nodes) == 1
    lay = assert_compile_equal(augment_leaves_up(g, tree, keep_node_distances=False))
    assert [label for label, _ in lay.middle] == ["desc-same-0"]
    assert lay.middle[0][1].m == 0


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_bind_on_every_semiring(name):
    semiring = SEMIRINGS[name]
    g, tree = _grid(9, seed=6)
    aug = augment_leaves_up(g, tree, semiring, keep_node_distances=False)
    schedule = assert_compile_equal(aug).bind(aug)
    labels, layouts, _ = reference_compile(aug)
    w = np.concatenate([g.weight.astype(semiring.dtype), aug.weight])
    ell = aug.ell
    assert schedule.labels[ell : len(schedule.labels) - ell] == labels
    assert schedule.edge_scans == 2 * ell * g.m + sum(lay["pull_src"].shape[0] for lay in layouts)
    for relaxer, want in zip(schedule.relaxers[ell:], layouts):
        assert np.array_equal(relaxer._pull_w, w[want["pull_perm"]])
        assert np.array_equal(relaxer._push_w, w[want["push_perm"]])


#: (edges, vertices, groups, edges into vertex 3): the sort keys fit one
#: 16-bit radix pass; need two; have a vertex key wider than 16 bits; and a
#: rank key (group, in-degree) wider than 16 bits.
GROUPED_CASES = [(400, 60, 7, 100), (3000, 20000, 7, 10), (3000, 70000, 3, 10),
                 (60000, 500, 3, 56000)]


@pytest.mark.parametrize("m,n,groups,skew", GROUPED_CASES)
def test_grouped_layouts_match_one_at_a_time(m, n, groups, skew):
    rng = np.random.default_rng(m + n)
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    dst[:skew] = 3
    group = rng.integers(0, groups, m)
    group[group == groups - 2] = groups - 1  # one empty group
    got = RelaxerLayout.build_groups(src, dst, group, groups)
    for k in range(groups):
        idx = np.flatnonzero(group == k)
        assert_layout_equal(got[k], reference_layout(src[idx], dst[idx], idx), k)
    assert_layout_equal(RelaxerLayout.build(src, dst), reference_layout(src, dst))
