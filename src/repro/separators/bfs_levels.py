"""BFS level structures on the undirected skeleton — shared by the planar
separator engines (Lipton–Tarjan's first phase is a BFS level argument)."""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import rest_labels

__all__ = ["bfs_levels", "expand_ranges", "largest_component"]


def largest_component(g: WeightedDigraph) -> np.ndarray:
    """Vertex ids of the largest undirected component."""
    ncomp, labels = rest_labels(g, np.empty(0, dtype=np.int64))
    if ncomp <= 1:
        return np.arange(g.n)
    counts = np.bincount(labels)
    return np.nonzero(labels == int(np.argmax(counts)))[0]


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i]+counts[i])`` without a loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(starts.shape[0]), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[reps] + offsets


def bfs_levels(g: WeightedDigraph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """``(level, parent)`` of a BFS over the undirected skeleton from
    ``root``; unreached vertices get level −1 / parent −1."""
    skel = g.skeleton
    indptr, indices = skel.indptr, skel.indices
    level = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        # Gather all neighbors of the frontier at once.
        counts = indptr[frontier + 1] - indptr[frontier]
        nbrs = indices[expand_ranges(indptr[frontier], counts)]
        own = np.repeat(frontier, counts)
        fresh = level[nbrs] < 0
        nbrs, own = nbrs[fresh], own[fresh]
        # First writer wins for parents; duplicates collapse via unique.
        uniq, first = np.unique(nbrs, return_index=True)
        level[uniq] = d
        parent[uniq] = own[first]
        frontier = uniq
    return level, parent
