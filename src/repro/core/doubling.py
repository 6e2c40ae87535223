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

from typing import Any

import numpy as np

from ..kernels.bellman_ford import min_weight_diameter
from ..kernels.floyd_warshall import floyd_warshall, floyd_warshall_with_hops
from ..kernels.minplus import semiring_matmul
from ..pram.machine import NULL_LEDGER, Ledger, log2ceil
from ..pram.executor import SerialExecutor, get_executor
from .augment import (
    Augmentation,
    NegativeCycleDetected,
    NodeDistances,
    assemble_augmentation,
)
from .digraph import WeightedDigraph
from .semiring import MIN_PLUS, SEMIRINGS, Semiring
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


# ------------------------------------------------------------------ #
# Per-node workers (module level so the process backends can pickle them)
#
# Two payload styles share these functions: the classic style carries the
# arrays themselves (serial/thread/process), while the shm style carries
# ArrayRef descriptors that the ShmExecutor resolves to zero-copy views
# before dispatch, plus an ``out`` block the worker fills in place so the
# result matrix is never pickled either (see repro.pram.shm).
# ------------------------------------------------------------------ #


def _leaf_payload(
    graph: WeightedDigraph, t, semiring: Semiring, arena=None
) -> tuple[dict[str, Any], np.ndarray, np.ndarray | None]:
    """Build one leaf task payload; returns ``(payload, vertices, out_view)``.

    With an arena, the subgraph arrays are published as descriptors and an
    output block for the APSP matrix is pre-allocated (``out_view`` is the
    orchestrator's view of it); without one, the arrays ride in the payload.
    """
    sub, mapping = graph.induced_subgraph(t.vertices)
    payload: dict[str, Any] = {
        "idx": t.idx,
        "semiring": semiring.name,
        "vertices": mapping,
        "n_local": sub.n,
        "sub_src": sub.src,
        "sub_dst": sub.dst,
        "sub_weight": sub.weight,
    }
    if arena is None:
        return payload, mapping, None
    out_ref, out_view = arena.alloc((mapping.shape[0], mapping.shape[0]), semiring.dtype)
    payload.update(
        vertices=arena.publish(mapping),
        sub_src=arena.publish(sub.src),
        sub_dst=arena.publish(sub.dst),
        sub_weight=arena.publish(sub.weight),
        out=out_ref,
    )
    return payload, mapping, out_view


def _leaf_worker(payload: dict[str, Any]) -> dict[str, Any]:
    """Leaf APSP plus the leaf's min-weight diameter (the ℓ of Theorem
    3.1); with an ``out`` block the matrix is written in place and left
    out of the (pickled) result."""
    semiring = SEMIRINGS[payload["semiring"]]
    sub = WeightedDigraph(
        payload["n_local"], payload["sub_src"], payload["sub_dst"], payload["sub_weight"]
    )
    ledger = Ledger()
    dense = dense_semiring_weights(sub, semiring)
    if semiring.name in ("min-plus", "hops"):
        # One pass computes APSP *and* the min-weight diameter.
        apsp, hop_counts = floyd_warshall_with_hops(dense)
        ledger.charge(work=float(sub.n) ** 3, depth=log2ceil(sub.n) ** 2, label="apsp")
        bad = _check_diagonal(apsp, payload["vertices"], semiring)
        finite = np.isfinite(hop_counts)
        diam = 0 if bad >= 0 else int(hop_counts[finite].max(initial=0.0))
    else:
        apsp = floyd_warshall(dense, semiring, ledger=ledger, copy=False)
        bad = _check_diagonal(apsp, payload["vertices"], semiring)
        diam = 0
        if bad < 0 and sub.n > 1:
            diam = min_weight_diameter(sub, semiring=semiring)
    out = {
        "idx": payload["idx"],
        "vertices": payload["vertices"],
        "matrix": apsp,
        "leaf_diameter": diam,
        "neg_vertex": bad,
        "work": ledger.work,
        "depth": ledger.depth,
    }
    if "out" in payload:
        payload["out"][...] = out.pop("matrix")
        out.pop("vertices")
    return out


def _square_worker(payload: dict[str, Any]) -> dict[str, Any]:
    """One doubling step on one node's matrix (module level for pickling).

    With ``inplace`` set the matrix is a shared-memory view owned solely by
    this node: the squared result is written back through it and the reply
    carries only scalars (the shm backend's zero-copy round).
    """
    semiring = SEMIRINGS[payload["semiring"]]
    ledger = Ledger()
    w = payload["matrix"]
    prod = semiring_matmul(w, w, semiring, ledger=ledger, kernel=payload.get("kernel"))
    new = semiring.add(w, prod)
    changed = bool(semiring.improves(new, w).any())
    out = {
        "idx": payload["idx"],
        "changed": changed,
        "work": ledger.work,
        "depth": ledger.depth,
    }
    if payload.get("inplace"):
        w[...] = new
    else:
        out["matrix"] = new
    return out


def augment_doubling(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring = MIN_PLUS,
    *,
    executor="serial",
    ledger: Ledger = NULL_LEDGER,
    keep_node_distances: bool = True,
    raise_on_negative_cycle: bool = True,
    early_stop: bool = True,
    kernel: str | None = None,
) -> Augmentation:
    """Compute the augmentation with Algorithm 4.3.

    ``kernel`` selects the min-plus matmul implementation for the squaring
    rounds (see :mod:`repro.kernels.dispatch`); the ``pruned`` kernel skips
    the all-+inf panels that dominate early rounds.

    On the ``shm`` backend every node matrix is a shared-memory block:
    rounds send (idx, descriptor) pairs, workers square their block in
    place, and the orchestrator's child→parent merges mutate the same
    pages — matrices cross the process boundary zero times.
    """
    exe = get_executor(executor)
    owns_executor = isinstance(executor, str) and not isinstance(exe, SerialExecutor)
    use_shm = getattr(exe, "uses_shared_memory", False)
    arena = None
    if use_shm:
        from ..pram.shm import ShmArena

        arena = ShmArena()
    matrices: dict[int, np.ndarray] = {}
    mat_refs: dict[int, Any] = {}
    vh_of: dict[int, np.ndarray] = {}
    leaf_results: dict[int, NodeDistances] = {}
    leaf_diameters: dict[int, int] = {}
    try:
        _initialize(
            graph, tree, semiring, exe, ledger,
            matrices, vh_of, leaf_results, leaf_diameters,
            arena=arena, mat_refs=mat_refs,
        )
        rounds = 2 * max(1, int(np.ceil(np.log2(max(2, graph.n))))) + 2 * tree.height
        internal = [t for t in tree.nodes if not t.is_leaf]
        for _ in range(rounds):
            if use_shm:
                payloads = [
                    {
                        "idx": t.idx,
                        "semiring": semiring.name,
                        "kernel": kernel,
                        "matrix": mat_refs[t.idx],
                        "inplace": True,
                    }
                    for t in internal
                ]
            else:
                payloads = [
                    {
                        "idx": t.idx,
                        "semiring": semiring.name,
                        "kernel": kernel,
                        "matrix": matrices[t.idx],
                    }
                    for t in internal
                ]
            outs = exe.map(_square_worker, payloads)
            changed = False
            branches = []
            for out in outs:
                if "matrix" in out:
                    matrices[out["idx"]] = out["matrix"]
                changed |= out["changed"]
                b = Ledger()
                b.charge(out["work"], out["depth"], label="node")
                branches.append(b)
            ledger.merge_parallel(branches, label="doubling-square")
            # Child → parent merge on the shared vertex pairs (step ii(2)).
            merge_changed = _merge_children(tree, semiring, matrices, vh_of, leaf_results, ledger)
            changed |= merge_changed
            if early_stop and not changed:
                break
        results: dict[int, NodeDistances] = dict(leaf_results)
        for t in tree.nodes:
            if t.is_leaf:
                continue
            m = matrices[t.idx]
            bad = _check_diagonal(m, vh_of[t.idx], semiring)
            if bad >= 0 and raise_on_negative_cycle and semiring.name in ("min-plus", "hops"):
                raise NegativeCycleDetected(t.idx, bad)
            results[t.idx] = NodeDistances(node_idx=t.idx, vertices=vh_of[t.idx], matrix=m)
        if use_shm and keep_node_distances:
            # The arena dies with this call; surviving matrices need to own
            # their memory.
            for nd in results.values():
                nd.matrix = np.array(nd.matrix, copy=True)
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
    finally:
        if arena is not None:
            arena.close()
        if owns_executor:
            exe.close()


def _initialize(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring,
    exe,
    ledger: Ledger,
    matrices: dict[int, np.ndarray],
    vh_of: dict[int, np.ndarray],
    leaf_results: dict[int, NodeDistances],
    leaf_diameters: dict[int, int],
    *,
    arena=None,
    mat_refs: dict[int, Any] | None = None,
) -> None:
    """Step (i): leaf APSPs (in parallel) and internal one-hop matrices.

    With an arena, internal matrices are allocated as shared blocks (filled
    in place here) and leaf payloads/results travel as descriptors."""
    leaf_payloads = []
    leaf_views: dict[int, np.ndarray] = {}
    leaf_verts: dict[int, np.ndarray] = {}
    for t in tree.nodes:
        if t.is_leaf:
            payload, mapping, out_view = _leaf_payload(graph, t, semiring, arena)
            leaf_payloads.append(payload)
            if arena is not None:
                leaf_views[t.idx] = out_view
                leaf_verts[t.idx] = mapping
        else:
            vh = np.union1d(t.separator, t.boundary)
            vh_of[t.idx] = vh
            h = vh.shape[0]
            if arena is None:
                w = semiring.empty_matrix(h, h)
            else:
                ref, w = arena.alloc((h, h), semiring.dtype)
                mat_refs[t.idx] = ref
                w[...] = semiring.zero
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
    outs = exe.map(_leaf_worker, leaf_payloads)
    branches = []
    for out in outs:
        if out["neg_vertex"] >= 0 and semiring.name in ("min-plus", "hops"):
            raise NegativeCycleDetected(out["idx"], out["neg_vertex"])
        idx = out["idx"]
        leaf_results[idx] = NodeDistances(
            node_idx=idx,
            vertices=leaf_verts[idx] if arena is not None else out["vertices"],
            matrix=leaf_views[idx] if arena is not None else out["matrix"],
        )
        leaf_diameters[idx] = out["leaf_diameter"]
        b = Ledger()
        b.charge(out["work"], out["depth"], label="node")
        branches.append(b)
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
