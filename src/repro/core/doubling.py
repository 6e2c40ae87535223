"""Algorithm 4.3 — simultaneous path doubling on all tree nodes (paper §4.2).

Instead of finishing each tree level before starting its parent (Algorithm
4.1), every node ``t`` maintains a dense matrix ``W_t`` over
``V_H(t) = S(t) ∪ B(t)`` and all nodes advance together:

* initialization: leaves get exact ``dist_{G(t)}`` (an O(1) APSP); internal
  nodes get the one-hop weights of original edges inside ``V_H(t)²``;
* each round applies one min-plus squaring ``W_t ← W_t ⊕ W_t⊗W_t`` to every
  node in parallel, then ⊕-merges each child's matrix into its parent on the
  shared vertex pairs;
* after ``2⌈log₂ n⌉ + 2·d_G`` rounds every entry equals ``dist_{G(t)}``
  (Proposition 4.5 — the pairing-phase induction).

This trades a factor-O(log n) of work for a factor-O(d_G) less parallel
time than Algorithm 4.1 (Table 1's two preprocessing rows).  We stop early
when a full round changes nothing, which the monotone fixpoint argument
makes safe and which is the common case well before the worst-case round
count.
"""

from __future__ import annotations

import numpy as np

from ..kernels.bellman_ford import min_weight_diameter
from ..kernels.floyd_warshall import floyd_warshall, floyd_warshall_with_hops
from ..kernels.minplus import semiring_matmul
from ..pram.machine import NULL_LEDGER, Ledger, log2ceil
from .augment import (
    Augmentation,
    NegativeCycleDetected,
    NodeDistances,
    assemble_augmentation,
)
from .digraph import WeightedDigraph
from .semiring import MIN_PLUS, Semiring
from .septree import SeparatorTree

__all__ = ["augment_doubling", "dense_semiring_weights"]


def dense_semiring_weights(g: WeightedDigraph, semiring: Semiring) -> np.ndarray:
    """Dense one-hop matrix of ``g`` in the given semiring: 1̄ diagonal, ⊕ of
    parallel edges, 0̄ where no edge."""
    w = semiring.empty_matrix(g.n, g.n)
    np.fill_diagonal(w, semiring.one)
    if g.m:
        semiring.scatter_min(w, (g.src, g.dst), g.weight.astype(semiring.dtype))
    return w


def _check_diagonal(matrix: np.ndarray, vertices: np.ndarray, semiring: Semiring) -> int:
    """Return a global vertex id on a negative cycle (diagonal strictly
    better than 1̄), or -1."""
    diag = np.einsum("ii->i", matrix)
    bad = semiring.improves(diag, np.full(diag.shape[0], semiring.one, dtype=semiring.dtype))
    if bad.any():
        return int(vertices[int(np.argmax(bad))])
    return -1


def _node_branch(step: Ledger) -> Ledger:
    """One independent node step as a branch of a parallel level or round:
    the step's total work and depth, charged under ``node``."""
    branch = Ledger()
    branch.charge(step.work, step.depth, label="node")
    return branch


def _leaf_apsp(
    graph: WeightedDigraph, t, semiring: Semiring
) -> tuple[NodeDistances, int, Ledger]:
    """Leaf APSP plus the leaf's min-weight diameter (the ℓ of Theorem
    3.1), and the leaf's branch ledger.  A negative cycle inside the leaf
    raises :class:`NegativeCycleDetected` (min-plus and hops)."""
    sub, mapping = graph.induced_subgraph(t.vertices)
    ledger = Ledger()
    dense = dense_semiring_weights(sub, semiring)
    if semiring.name in ("min-plus", "hops"):
        # One pass computes APSP *and* the min-weight diameter.
        apsp, hop_counts = floyd_warshall_with_hops(dense)
        ledger.charge(work=float(sub.n) ** 3, depth=log2ceil(sub.n) ** 2, label="apsp")
        bad = _check_diagonal(apsp, mapping, semiring)
        if bad >= 0:
            raise NegativeCycleDetected(t.idx, bad)
        diam = int(hop_counts[np.isfinite(hop_counts)].max(initial=0.0))
    else:
        apsp = floyd_warshall(dense, semiring, ledger=ledger, copy=False)
        bad = _check_diagonal(apsp, mapping, semiring)
        diam = 0
        if bad < 0 and sub.n > 1:
            diam = min_weight_diameter(sub, semiring=semiring)
    nd = NodeDistances(node_idx=t.idx, vertices=mapping, matrix=apsp)
    return nd, diam, _node_branch(ledger)


def augment_doubling(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring = MIN_PLUS,
    *,
    ledger: Ledger = NULL_LEDGER,
    keep_node_distances: bool = True,
    raise_on_negative_cycle: bool = True,
    early_stop: bool = True,
) -> Augmentation:
    """Compute the augmentation with Algorithm 4.3.

    The squaring rounds' products skip the all-+inf panels that dominate
    early rounds (:func:`~repro.kernels.minplus.semiring_matmul`).  The
    nodes of a round run in the calling thread; the ledger still charges
    each round as one parallel step over its nodes.
    """
    matrices: dict[int, np.ndarray] = {}
    vh_of: dict[int, np.ndarray] = {}
    leaf_results: dict[int, NodeDistances] = {}
    leaf_diameters: dict[int, int] = {}
    _initialize(graph, tree, semiring, ledger, matrices, vh_of, leaf_results, leaf_diameters)
    rounds = 2 * max(1, int(np.ceil(np.log2(max(2, graph.n))))) + 2 * tree.height
    internal = [t for t in tree.nodes if not t.is_leaf]
    for _ in range(rounds):
        changed = False
        branches = []
        for t in internal:
            step = Ledger()
            w = matrices[t.idx]
            new = semiring.add(w, semiring_matmul(w, w, semiring, ledger=step))
            changed |= bool(semiring.improves(new, w).any())
            matrices[t.idx] = new
            branches.append(_node_branch(step))
        ledger.merge_parallel(branches, label="doubling-square")
        # Child → parent merge on the shared vertex pairs (step ii(2)).
        merge_changed = _merge_children(tree, semiring, matrices, vh_of, leaf_results, ledger)
        changed |= merge_changed
        if early_stop and not changed:
            break
    results: dict[int, NodeDistances] = dict(leaf_results)
    for t in internal:
        m = matrices[t.idx]
        bad = _check_diagonal(m, vh_of[t.idx], semiring)
        if bad >= 0 and raise_on_negative_cycle and semiring.name in ("min-plus", "hops"):
            raise NegativeCycleDetected(t.idx, bad)
        results[t.idx] = NodeDistances(node_idx=t.idx, vertices=vh_of[t.idx], matrix=m)
    return assemble_augmentation(
        graph,
        tree,
        results,
        leaf_diameters,
        semiring,
        method="doubling",
        keep_node_distances=keep_node_distances,
        ledger=ledger,
    )


def _initialize(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring,
    ledger: Ledger,
    matrices: dict[int, np.ndarray],
    vh_of: dict[int, np.ndarray],
    leaf_results: dict[int, NodeDistances],
    leaf_diameters: dict[int, int],
) -> None:
    """Step (i): leaf APSPs (one parallel step) and internal one-hop
    matrices."""
    branches = []
    for t in tree.nodes:
        if t.is_leaf:
            leaf_results[t.idx], leaf_diameters[t.idx], branch = _leaf_apsp(
                graph, t, semiring
            )
            branches.append(branch)
            continue
        vh = np.union1d(t.separator, t.boundary)
        vh_of[t.idx] = vh
        h = vh.shape[0]
        w = semiring.empty_matrix(h, h)
        np.fill_diagonal(w, semiring.one)
        # One-hop weights of original edges with both endpoints in V_H(t).
        member = np.zeros(graph.n, dtype=bool)
        member[vh] = True
        mask = member[graph.src] & member[graph.dst]
        if mask.any():
            local = np.full(graph.n, -1, dtype=np.int64)
            local[vh] = np.arange(h)
            semiring.scatter_min(
                w,
                (local[graph.src[mask]], local[graph.dst[mask]]),
                graph.weight[mask].astype(semiring.dtype),
            )
        matrices[t.idx] = w
    ledger.merge_parallel(branches, label="doubling-init-leaves")


def _merge_children(
    tree: SeparatorTree,
    semiring: Semiring,
    matrices: dict[int, np.ndarray],
    vh_of: dict[int, np.ndarray],
    leaf_results: dict[int, NodeDistances],
    ledger: Ledger,
) -> bool:
    changed = False
    work = 0.0
    for t in tree.nodes:
        if t.is_leaf:
            continue
        vh = vh_of[t.idx]
        w = matrices[t.idx]
        for c in t.children:
            child = tree.nodes[c]
            if child.is_leaf:
                nd = leaf_results[c]
                child_vertices, child_matrix = nd.vertices, nd.matrix
            else:
                child_vertices, child_matrix = vh_of[c], matrices[c]
            common, pos_vh, pos_child = np.intersect1d(
                vh, child_vertices, assume_unique=True, return_indices=True
            )
            if common.size == 0:
                continue
            block = child_matrix[np.ix_(pos_child, pos_child)]
            tgt = w[np.ix_(pos_vh, pos_vh)]
            merged = semiring.add(tgt, block)
            if not changed and semiring.improves(merged, tgt).any():
                changed = True
            w[np.ix_(pos_vh, pos_vh)] = merged
            work += float(common.size) ** 2
    ledger.charge(work=max(1.0, work), depth=1.0, label="doubling-merge")
    return changed
