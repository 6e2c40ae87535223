"""Separator decompositions from tree decompositions (paper §1).

"Other examples are bounded tree-width graphs with a tree decomposition
(see Robertson and Seymour)": a graph of treewidth ``w`` has balanced
separators of size ``w + 1`` — any *centroid bag* of a tree decomposition
splits the graph so no component exceeds half the remaining vertices, giving
a k⁰-separator decomposition (μ = 0, the cheapest row of Table 1).

We compute tree decompositions with networkx's min-degree / min-fill-in
heuristics (exact treewidth is NP-hard; the heuristic width only affects the
constant in |S|) and pick the bag minimizing the largest remaining
component by direct evaluation.
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import SeparatorFn, SeparatorTree, build_separator_tree
from .common import component_aware, rest_components

__all__ = ["treewidth_separator_fn", "decompose_treewidth", "tree_decomposition_width"]


def tree_decomposition_width(g: WeightedDigraph, heuristic: str = "min_degree") -> int:
    """Width of the heuristic tree decomposition of ``g``'s skeleton."""
    width, _ = _tree_decomposition(g, heuristic)
    return width


def _tree_decomposition(g: WeightedDigraph, heuristic: str):
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in

    und = nx.Graph()
    und.add_nodes_from(range(g.n))
    und.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
    fn = treewidth_min_degree if heuristic == "min_degree" else treewidth_min_fill_in
    return fn(und)


def _centroid_bag(sub: WeightedDigraph, bags: list[np.ndarray]) -> np.ndarray:
    """The bag whose removal minimizes the largest remaining component."""
    best_bag = bags[0]
    best_score = np.inf
    for bag in bags:
        score = float(rest_components(sub, bag)[1])
        if score < best_score:
            best_bag, best_score = bag, score
        if best_score <= sub.n / 2:
            # A half-balanced centroid bag always exists; first hit is fine.
            break
    return best_bag


def treewidth_separator_fn(*, heuristic: str = "min_degree") -> SeparatorFn:
    """Separator oracle: centroid bag of a heuristic tree decomposition of
    the current subgraph."""

    def core(sub: WeightedDigraph, global_vertices: np.ndarray) -> np.ndarray:
        _, decomp = _tree_decomposition(sub, heuristic)
        bags = [np.array(sorted(b), dtype=np.int64) for b in decomp.nodes]
        if not bags:
            return np.array([0], dtype=np.int64)
        return _centroid_bag(sub, bags)

    return component_aware(core)


def decompose_treewidth(
    graph: WeightedDigraph,
    *,
    leaf_size: int = 8,
    heuristic: str = "min_degree",
    full_separator_inclusion: bool = True,
) -> SeparatorTree:
    """Separator decomposition via centroid bags (μ ≈ 0 for bounded
    treewidth families)."""
    return build_separator_tree(
        graph,
        treewidth_separator_fn(heuristic=heuristic),
        leaf_size=leaf_size,
        full_separator_inclusion=full_separator_inclusion,
    )
