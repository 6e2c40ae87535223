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
from ..core.septree import SeparatorFn, SeparatorTree, SepTreeNode, build_separator_tree
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
    first.  ``B(t)`` is the set of box vertices on a face that lies inside
    the grid: every such face is an ancestor's cut and every ancestor cut
    meeting the box is such a face, which is ``(S(p) ∪ B(p)) ∩ V(t)``.
    """
    n = int(np.prod(shape))
    ids = np.arange(n, dtype=np.int64).reshape(shape)
    top = tuple(s - 1 for s in shape)
    nodes: list[SepTreeNode] = []
    # Work stack of (parent_idx, level, lo, hi), as in build_separator_tree.
    stack = [(-1, 0, (0,) * len(shape), top)]
    while stack:
        parent, level, lo, hi = stack.pop()
        idx = len(nodes)
        if parent >= 0:
            nodes[parent].children += (idx,)
        box = ids[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
        separator = np.empty(0, dtype=np.int64)
        if box.size > leaf_size:
            widths = [b - a + 1 for a, b in zip(lo, hi)]
            axis = widths.index(max(widths))
            cut = lo[axis] + widths[axis] // 2
            separator = np.take(box, cut - lo[axis], axis=axis).ravel()
            lower = (lo, hi[:axis] + (cut,) + hi[axis + 1:])
            upper = (lo[:axis] + (cut,) + lo[axis + 1:], hi)
            first, second = (upper, lower) if widths[axis] % 2 else (lower, upper)
            stack.append((idx, level + 1, *first))
            stack.append((idx, level + 1, *second))
        on_face = np.zeros(box.shape, dtype=bool)
        for axis, (a, b, t) in enumerate(zip(lo, hi, top)):
            face = [slice(None)] * len(shape)
            if a > 0:
                face[axis] = 0
                on_face[tuple(face)] = True
            if b < t:
                face[axis] = -1
                on_face[tuple(face)] = True
        nodes.append(
            SepTreeNode(
                idx=idx,
                level=level,
                parent=parent,
                vertices=box.flatten(),
                separator=separator,
                boundary=box[on_face],
            )
        )
    return SeparatorTree(nodes, n)
