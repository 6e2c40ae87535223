"""Separator decompositions for d-dimensional grid graphs (paper §1).

"An example of a family of graphs with a readily available separator
decomposition is d′-dimensional grid graphs ... there is a trivial
k^{(d−1)/d}-separator decomposition": cutting along the median hyperplane of
the widest axis removes O(k^{(d−1)/d}) vertices and splits the box in two.
Figure 1 of the paper is exactly this decomposition on the 9×9 grid, which
:func:`decompose_grid` regenerates.

On the full lattice every node of that decomposition is an axis-aligned box
(the separator hyperplane goes to both children), so :func:`decompose_grid`
computes the tree from box arithmetic alone.  :func:`grid_separator_fn` is
the same rule as a separator oracle for arbitrary *subsets* of the grid; it
plugs into the generic :func:`repro.core.septree.build_separator_tree`
builder, which :func:`decompose_grid` falls back on when the boxes would not
reproduce that builder's tree.
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import FlatTree, SeparatorFn, SeparatorTree, build_separator_tree
from .common import component_aware

__all__ = ["grid_separator_fn", "decompose_grid", "grid_mu"]


def grid_mu(shape: tuple[int, ...]) -> float:
    """The μ of the family: (d−1)/d over axes with non-constant width."""
    d = sum(1 for s in shape if s > 1)
    return 0.0 if d <= 1 else (d - 1) / d


def grid_separator_fn(shape: tuple[int, ...]) -> SeparatorFn:
    """Median-hyperplane separator oracle for subsets of the ``shape`` grid.

    Picks the axis of the largest coordinate extent in the current vertex
    set and returns every vertex lying on the median hyperplane of that
    axis.  Grid edges are unit steps, so the hyperplane is a separator of
    any induced subgraph of the grid.
    """
    shape = tuple(int(s) for s in shape)

    def core(sub: WeightedDigraph, global_vertices: np.ndarray) -> np.ndarray:
        coords = np.stack(np.unravel_index(global_vertices, shape), axis=1)
        extents = coords.max(axis=0) - coords.min(axis=0)
        axis = int(np.argmax(extents))
        if extents[axis] == 0:
            # Degenerate: no axis to cut (single column); cut the lone cell
            # in the middle of the lexicographic order instead.
            return np.array([sub.n // 2], dtype=np.int64)
        vals = np.sort(coords[:, axis])
        cut = int(vals[vals.shape[0] // 2])
        # Never cut at the extreme value — that would leave one side empty
        # and the child equal to V ∖ (empty) ∪ S, stalling the recursion.
        lo, hi = int(vals[0]), int(vals[-1])
        cut = min(max(cut, lo + 1), hi) if hi > lo else cut
        return np.nonzero(coords[:, axis] == cut)[0]

    # The hyperplane cut can fail on degenerate boxes (e.g. a 2x2 block has
    # no hyperplane separator at all); component_aware verifies progress and
    # substitutes the neighborhood fallback there.
    return component_aware(core)


def decompose_grid(
    graph: WeightedDigraph,
    shape: tuple[int, ...],
    *,
    leaf_size: int = 8,
    full_separator_inclusion: bool = True,
) -> SeparatorTree:
    """Separator decomposition tree of a graph laid out on the ``shape``
    grid (the graph must be a subgraph of the grid's skeleton).

    The result is node for node the tree :func:`build_separator_tree` makes
    with :func:`grid_separator_fn`.  When the skeleton is the full lattice
    and no box with a widest side of 2 can be split (``leaf_size`` ≥ 2^d,
    d the number of axes wider than 1), it is built from box arithmetic
    (:func:`_box_tree`); otherwise the generic builder runs.
    """
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape))
    if graph.n != n:
        raise ValueError(f"graph has {graph.n} vertices, shape {shape} implies {n}")
    d = sum(1 for s in shape if s > 1)
    if leaf_size >= 2**d and _is_full_lattice(graph, shape):
        # Every cut hyperplane touches both sides, so the neighbourhood
        # inclusion rule attaches all of S(t) too: one tree for both rules.
        return _box_tree(shape, leaf_size)
    return build_separator_tree(
        graph,
        grid_separator_fn(shape),
        leaf_size=leaf_size,
        full_separator_inclusion=full_separator_inclusion,
    )


def _lattice_edges(shape: tuple[int, ...]) -> np.ndarray:
    """Sorted keys ``u·n + v`` (u < v) of the ``shape`` lattice's edges."""
    n = int(np.prod(shape))
    ids = np.arange(n, dtype=np.int64).reshape(shape)
    keys = [np.empty(0, dtype=np.int64)]
    for axis, s in enumerate(shape):
        if s > 1:
            low = np.take(ids, range(s - 1), axis=axis).ravel()
            keys.append(low * n + low + int(np.prod(shape[axis + 1:])))
    return np.sort(np.concatenate(keys))


def _is_full_lattice(graph: WeightedDigraph, shape: tuple[int, ...]) -> bool:
    """Whether the undirected skeleton, self-loops and parallel edges aside,
    is exactly the lattice of ``shape``."""
    u = np.minimum(graph.src, graph.dst).astype(np.int64)
    v = np.maximum(graph.src, graph.dst).astype(np.int64)
    proper = u != v
    keys = np.unique(u[proper] * graph.n + v[proper])
    return np.array_equal(keys, _lattice_edges(shape))


def _box_tree(shape: tuple[int, ...], leaf_size: int) -> SeparatorTree:
    """The median-hyperplane tree of the full ``shape`` lattice, node for
    node as :func:`build_separator_tree` derives it (requires every box of
    more than ``leaf_size`` vertices to have a side of at least 3).

    A node is a box ``[lo, hi]``.  An internal node cuts its widest axis
    (the first on a tie) at ``lo + w // 2``, which is ``grid_separator_fn``'s
    median and lies strictly inside the box.  The children are the boxes
    ``[lo, cut]`` and ``[cut, hi]`` along that axis.  ``split_components``
    lists the side with more vertices first (the upper one on a tie, which
    is an odd width); the builder's stack then numbers the other child
    first, and numbers nodes in preorder.  ``B(t)`` is the set of box
    vertices on a face that lies inside the grid: every such face is an
    ancestor's cut and every ancestor cut meeting the box is such a face,
    which is ``(S(p) ∪ B(p)) ∩ V(t)``.

    The boxes are cut one tree level at a time, the preorder numbers come
    from the subtree sizes, and every node's labels are slices of three
    arrays enumerated at once (:func:`_box_vertices`).
    """
    top = np.array(shape, dtype=np.int64) - 1
    # Per level: boxes (lo, hi), parent positions in the level above, the
    # split boxes and their cut hyperplanes as boxes.  A split box's
    # children sit at positions 2r (numbered first) and 2r + 1 of the next
    # level, r its rank among the split boxes of its level.
    levels = []
    lo, hi = np.zeros((1, top.shape[0]), dtype=np.int64), top[None, :]
    up = np.full(1, -1, dtype=np.int64)
    while lo.shape[0]:
        width = hi - lo + 1
        split = np.flatnonzero(width.prod(axis=1) > leaf_size)
        rows = np.arange(split.shape[0])
        axis = np.argmax(width[split], axis=1)
        w = width[split, axis]
        cut = lo[split, axis] + w // 2
        cut_lo, cut_hi = lo[split], hi[split].copy()
        cut_lo[rows, axis] = cut_hi[rows, axis] = cut
        levels.append((lo, hi, up, split, cut_lo, cut_hi))
        # The lower child [lo, cut] comes first for an odd width.
        odd = w % 2
        lo, hi = np.repeat(lo[split], 2, axis=0), np.repeat(hi[split], 2, axis=0)
        hi[2 * rows + 1 - odd, axis] = cut
        lo[2 * rows + odd, axis] = cut
        up = np.repeat(split, 2)
    # Subtree sizes bottom-up, then preorder numbers top-down.
    size = [np.ones(level[0].shape[0], dtype=np.int64) for level in levels]
    for d in range(len(levels) - 2, -1, -1):
        size[d][levels[d][3]] += size[d + 1].reshape(-1, 2).sum(axis=1)
    index = [np.zeros(1, dtype=np.int64)]
    for d in range(1, len(levels)):
        offset = np.zeros(size[d].shape[0], dtype=np.int64)
        offset[1::2] = size[d][0::2]
        index.append(index[d - 1][levels[d][2]] + 1 + offset)
    count = int(size[0][0])
    node_lo = np.empty((count, top.shape[0]), dtype=np.int64)
    node_hi, sep_lo, sep_hi = (np.empty_like(node_lo) for _ in range(3))
    meta = np.full((count, 4), -1, dtype=np.int64)
    has_sep = np.zeros(count, dtype=bool)
    for d, (lo, hi, up, split, cut_lo, cut_hi) in enumerate(levels):
        idx = index[d]
        node_lo[idx], node_hi[idx] = lo, hi
        meta[idx, 0] = d
        if d:
            meta[idx, 1] = index[d - 1][up]
        if split.shape[0]:
            meta[idx[split], 2:] = index[d + 1].reshape(-1, 2)
            sep_lo[idx[split]], sep_hi[idx[split]] = cut_lo, cut_hi
            has_sep[idx[split]] = True
    voff, vertices, on_face = _box_vertices(node_lo, node_hi, top)
    soff, separators, _ = _box_vertices(sep_lo[has_sep], sep_hi[has_sep], top)
    soff = soff[np.concatenate([[0], np.cumsum(has_sep)])]
    owner = np.repeat(np.arange(count), np.diff(voff))
    boff = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[on_face], minlength=count), out=boff[1:])
    flat = FlatTree(
        meta=meta, voff=voff, vertices=vertices, soff=soff, separators=separators,
        boff=boff, boundaries=vertices[on_face],
    )
    return SeparatorTree.from_flat(flat, int(np.prod(shape)))


def _box_vertices(
    lo: np.ndarray, hi: np.ndarray, top: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, vertices, on_face)`` of the boxes ``[lo[i], hi[i]]`` of
    the lattice ``[0, top]``: box ``i``'s vertex ids in C order are
    ``vertices[offsets[i]:offsets[i+1]]``, and ``on_face`` marks the ones on
    a face of their box that lies inside the lattice.

    A box is a run of rows, each a range of consecutive ids along the last
    axis: the rows are enumerated first, then expanded."""
    width = hi - lo + 1
    # Rows: every box's index tuples over all axes but the last, in C order.
    row_count = width[:, :-1].prod(axis=1)
    owner = np.repeat(np.arange(lo.shape[0]), row_count)
    rest = np.arange(owner.shape[0]) - np.repeat(np.cumsum(row_count) - row_count, row_count)
    row_start = lo[owner, -1]
    row_face = np.zeros(owner.shape[0], dtype=bool)
    stride = int(top[-1]) + 1
    for axis in range(top.shape[0] - 2, -1, -1):
        rest, k = np.divmod(rest, width[owner, axis])
        coord = lo[owner, axis] + k
        row_start += coord * stride
        stride *= int(top[axis]) + 1
        a, b = lo[owner, axis], hi[owner, axis]
        row_face |= ((coord == a) & (a > 0)) | ((coord == b) & (b < top[axis]))
    # Ids: each row's range; on a face: the whole row if it lies on one,
    # else its ends where the box's last-axis sides lie inside the lattice.
    row_len = width[owner, -1]
    row_ptr = np.zeros(owner.shape[0] + 1, dtype=np.int64)
    np.cumsum(row_len, out=row_ptr[1:])
    vertices = np.arange(row_ptr[-1]) + np.repeat(row_start - row_ptr[:-1], row_len)
    on_face = np.repeat(row_face, row_len)
    on_face[row_ptr[:-1][lo[owner, -1] > 0]] = True
    on_face[row_ptr[1:][hi[owner, -1] < top[-1]] - 1] = True
    offsets = np.zeros(lo.shape[0] + 1, dtype=np.int64)
    np.cumsum(width.prod(axis=1), out=offsets[1:])
    return offsets, vertices, on_face
