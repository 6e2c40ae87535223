"""Remark 4.4 — path doubling with a shared edge table.

Algorithm 4.3 "as stated performs some redundant work": two edges
``(u₁,u₂)``, ``(u₂,u₃)`` are paired once per node whose ``V_H`` contains all
three vertices, each time against that node's private weights.  Remark 4.4
observes it suffices to keep *one* copy of every edge in ``⋃_t E_H(t)`` and
pair each qualifying triple once, against the minimum weight over nodes —
the pairing table depends only on the ``V_H(t)`` sets and is built once.

Our realization: a single global weight vector over the deduplicated edge
set; per node, a precomputed index matrix mapping its ``V_H(t)²`` block into
the global vector.  A round gathers each block, min-plus squares it, and
scatter-mins the result back — child→parent merging disappears entirely
because shared pairs share storage.

The converged weights satisfy ``dist_G(u,v) ≤ w(u,v) ≤ min_t dist_{G(t)}(u,v)``
(pairing across nodes can only combine true G-walks), so the assembled E⁺ is
still sound (never below a true distance) and complete (no worse than any
node's certificate) — Theorem 3.1 holds verbatim, with possibly *tighter*
shortcut weights than the per-node algorithms.  Tests verify exact query
results and the diameter bound; the ablation bench reports the redundancy
eliminated (Σ_t h_t³ vs distinct-triple work).
"""

from __future__ import annotations

import numpy as np

from typing import Any

from ..kernels.minplus import semiring_matmul
from ..pram.executor import SerialExecutor, get_executor
from ..pram.machine import NULL_LEDGER, Ledger, log2ceil
from .augment import Augmentation, NegativeCycleDetected, NodeDistances, assemble_augmentation
from .digraph import WeightedDigraph
from .doubling import _leaf_payload, _leaf_worker
from .semiring import MIN_PLUS, SEMIRINGS, Semiring
from .septree import SeparatorTree

__all__ = ["augment_doubling_shared", "SharedEdgeTable"]


def _shared_square_worker(payload: dict[str, Any]) -> dict[str, Any]:
    """One node's gather → square step of a Remark-4.4 round, against the
    *shared* weight vector (module level for pickling).

    Shared-memory protocol: ``weights`` and ``block`` (the node's index
    matrix into the weight vector) are descriptor-resolved views; the
    min-plus square of the gathered block is written to the node's private
    ``scratch`` block and the orchestrator ⊕-scatters every improved
    scratch back into the weights between rounds, so concurrent workers
    only ever read the shared vector."""
    sr = SEMIRINGS[payload["semiring"]]
    ledger = Ledger()
    weights = payload["weights"]
    idx_matrix = payload["block"]
    block = weights[idx_matrix]
    prod = semiring_matmul(block, block, sr, ledger=ledger, kernel=payload.get("kernel"))
    changed = bool(sr.improves(prod, block).any())
    if changed:
        payload["scratch"][...] = prod
    return {
        "idx": payload["idx"],
        "changed": changed,
        "work": ledger.work,
        "depth": ledger.depth,
    }


class SharedEdgeTable:
    """Deduplicated ``⋃_t V_H(t)²`` edge set with per-node block indexes."""

    def __init__(self, graph: WeightedDigraph, tree: SeparatorTree, semiring: Semiring):
        self.semiring = semiring
        vhs: dict[int, np.ndarray] = {}
        keys_parts = []
        n = graph.n
        for t in tree.nodes:
            if t.is_leaf:
                vh = t.boundary
            else:
                vh = np.union1d(t.separator, t.boundary)
            vhs[t.idx] = vh
            if vh.size:
                # All ordered pairs (u, v) over vh, as u*n + v keys.
                keys_parts.append((vh[:, None] * n + vh[None, :]).ravel())
        keys = (
            np.unique(np.concatenate(keys_parts))
            if keys_parts
            else np.empty(0, dtype=np.int64)
        )
        self.keys = keys
        self.src = keys // n
        self.dst = keys % n
        self.weights = np.full(keys.shape[0], semiring.zero, dtype=semiring.dtype)
        # Diagonal pairs get 1̄ (empty path).
        diag = self.src == self.dst
        self.weights[diag] = semiring.one
        # Original one-hop edges ⊕ in.
        if graph.m and keys.size:
            ekeys = graph.src * n + graph.dst
            pos = np.searchsorted(keys, ekeys)
            hit = (pos < keys.shape[0]) & (keys[np.minimum(pos, keys.shape[0] - 1)] == ekeys)
            semiring.scatter_min(
                self.weights, pos[hit], graph.weight[hit].astype(semiring.dtype)
            )
        # Per-node block index matrices (h×h positions into self.weights).
        self.blocks: dict[int, np.ndarray] = {}
        for idx, vh in vhs.items():
            if vh.size == 0:
                continue
            bkeys = (vh[:, None] * n + vh[None, :]).ravel()
            self.blocks[idx] = np.searchsorted(keys, bkeys).reshape(vh.size, vh.size)
        self.vhs = vhs

    # -------------------------------------------------------------- #

    def absorb_matrix(self, node_idx: int, vertices: np.ndarray, matrix: np.ndarray) -> None:
        """⊕ a node's dense matrix (e.g. a leaf APSP restricted to its
        block vertices) into the shared weights."""
        vh = self.vhs[node_idx]
        if vh.size == 0:
            return
        pos = np.searchsorted(vertices, vh)
        block = matrix[np.ix_(pos, pos)]
        idx = self.blocks[node_idx]
        self.semiring.scatter_min(self.weights, idx.ravel(), block.ravel())

    def square_round(self, *, ledger: Ledger = NULL_LEDGER, kernel: str | None = None) -> bool:
        """One Remark-4.4 round: every node's block is gathered, min-plus
        squared against the *shared* weights, and scattered back.  Returns
        whether anything improved."""
        sr = self.semiring
        changed = False
        work = 0.0
        max_depth = 0.0
        for idx_matrix in self.blocks.values():
            h = idx_matrix.shape[0]
            if h == 0:
                continue
            block = self.weights[idx_matrix]
            prod = semiring_matmul(block, block, sr, kernel=kernel)
            better = sr.improves(prod, block)
            if better.any():
                changed = True
                sr.scatter_min(self.weights, idx_matrix.ravel(), prod.ravel())
            work += float(h) ** 3
            max_depth = max(max_depth, log2ceil(h))
        ledger.charge(work=max(1.0, work), depth=max(1.0, max_depth), label="shared-square")
        return changed

    def node_matrix(self, node_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(vertices, converged weight block) of one node."""
        vh = self.vhs[node_idx]
        if vh.size == 0:
            return vh, self.semiring.empty_matrix(0, 0)
        return vh, self.weights[self.blocks[node_idx]]

    def distinct_pair_count(self) -> int:
        """Number of deduplicated pairs in ⋃_t V_H(t)²."""
        return int(self.keys.shape[0])

    def redundant_pair_count(self) -> int:
        """Σ_t |V_H(t)|² — what per-node storage/pairing would touch."""
        return int(sum(v.size ** 2 for v in self.vhs.values()))


def augment_doubling_shared(
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
    """Compute the augmentation with the Remark-4.4 shared-table doubling.

    ``kernel`` selects the min-plus matmul implementation for the per-node
    squares (see :mod:`repro.kernels.dispatch`).

    Shortcut weights may be strictly tighter than the per-node algorithms'
    (they converge to ``min_t dist_{G(t)}``, bounded below by ``dist_G``);
    all Theorem 3.1 guarantees hold unchanged.

    On the ``shm`` backend the shared weight vector lives in a
    shared-memory block read concurrently by all workers: a round fans the
    per-node gather→square steps out over the pool (descriptors only) and
    the orchestrator ⊕-scatters the improved products back — the iteration
    reaches the same unique fixpoint as the sequential rounds, within the
    same Proposition 4.5 round bound.  Other executors keep the sequential
    rounds (a round is read-modify-write on one vector, so thread/process
    pools without shared pages have nothing to win).
    """
    exe = get_executor(executor)
    owns_executor = isinstance(executor, str) and not isinstance(exe, SerialExecutor)
    use_shm = getattr(exe, "uses_shared_memory", False)
    arena = None
    if use_shm:
        from ..pram.shm import ShmArena

        arena = ShmArena()
    try:
        table = SharedEdgeTable(graph, tree, semiring)
        # Leaves: exact APSP absorbed once (their boundary blocks seed the
        # table); on shm the APSPs run on the pool and land in arena blocks.
        leaf_results: dict[int, NodeDistances] = {}
        leaf_diameters: dict[int, int] = {}
        leaf_payloads, leaf_views, leaf_verts = [], {}, {}
        for t in tree.leaves():
            payload, mapping, out_view = _leaf_payload(graph, t, semiring, arena)
            leaf_payloads.append(payload)
            if arena is not None:
                leaf_views[t.idx] = out_view
                leaf_verts[t.idx] = mapping
        outs = exe.map(_leaf_worker, leaf_payloads) if use_shm else [
            _leaf_worker(p) for p in leaf_payloads
        ]
        branches = []
        for out in outs:
            if out["neg_vertex"] >= 0 and semiring.name in ("min-plus", "hops"):
                raise NegativeCycleDetected(out["idx"], out["neg_vertex"])
            idx = out["idx"]
            vertices = leaf_verts[idx] if use_shm else out["vertices"]
            matrix = leaf_views[idx] if use_shm else out["matrix"]
            leaf_results[idx] = NodeDistances(node_idx=idx, vertices=vertices, matrix=matrix)
            leaf_diameters[idx] = out["leaf_diameter"]
            table.absorb_matrix(idx, vertices, matrix)
            b = Ledger()
            b.charge(out["work"], out["depth"], label="node")
            branches.append(b)
        ledger.merge_parallel(branches, label="shared-init-leaf")
        rounds = 2 * max(1, int(np.ceil(np.log2(max(2, graph.n))))) + 2 * tree.height
        if use_shm and table.blocks:
            _parallel_rounds(table, exe, arena, rounds, early_stop, ledger, kernel=kernel)
        else:
            for _ in range(rounds):
                if not table.square_round(ledger=ledger, kernel=kernel) and early_stop:
                    break
        results: dict[int, NodeDistances] = dict(leaf_results)
        for t in tree.nodes:
            if t.is_leaf:
                continue
            vh, matrix = table.node_matrix(t.idx)
            diag = np.einsum("ii->i", matrix) if vh.size else np.empty(0)
            if vh.size:
                bad = semiring.improves(
                    diag, np.full(diag.shape[0], semiring.one, dtype=semiring.dtype)
                )
                if bad.any() and raise_on_negative_cycle and semiring.name in ("min-plus", "hops"):
                    raise NegativeCycleDetected(t.idx, int(vh[int(np.argmax(bad))]))
            results[t.idx] = NodeDistances(node_idx=t.idx, vertices=vh, matrix=matrix)
        if use_shm and keep_node_distances:
            # Leaf matrices are arena views; the arena dies with this call.
            for idx in leaf_results:
                results[idx].matrix = np.array(results[idx].matrix, copy=True)
        return assemble_augmentation(
            graph,
            tree,
            results,
            leaf_diameters,
            semiring,
            method="doubling_shared",
            keep_node_distances=keep_node_distances,
            ledger=ledger,
        )
    finally:
        if arena is not None:
            arena.close()
        if owns_executor:
            exe.close()


def _parallel_rounds(
    table: SharedEdgeTable,
    exe,
    arena,
    rounds: int,
    early_stop: bool,
    ledger: Ledger,
    *,
    kernel: str | None = None,
) -> None:
    """Run the Remark-4.4 rounds on the shm pool: the weight vector and the
    per-node index/scratch blocks are published once; each round ships only
    (idx, descriptor) payloads, workers square against the shared weights,
    and improved products are ⊕-scattered back between rounds."""
    sr = table.semiring
    weights_ref, weights_view = arena.alloc(table.weights.shape, table.weights.dtype)
    weights_view[...] = table.weights
    table.weights = weights_view
    block_refs = {idx: arena.publish(b) for idx, b in table.blocks.items()}
    scratch: dict[int, tuple] = {
        idx: arena.alloc(b.shape, sr.dtype) for idx, b in table.blocks.items()
    }
    payloads = [
        {
            "idx": idx,
            "semiring": sr.name,
            "kernel": kernel,
            "weights": weights_ref,
            "block": block_refs[idx],
            "scratch": scratch[idx][0],
        }
        for idx in table.blocks
    ]
    for _ in range(rounds):
        outs = exe.map(_shared_square_worker, payloads)
        changed = False
        branches = []
        for out in outs:
            if out["changed"]:
                changed = True
                idx_matrix = table.blocks[out["idx"]]
                sr.scatter_min(
                    table.weights, idx_matrix.ravel(), scratch[out["idx"]][1].ravel()
                )
            b = Ledger()
            b.charge(max(1.0, out["work"]), max(1.0, out["depth"]), label="node")
            branches.append(b)
        ledger.merge_parallel(branches, label="shared-square")
        if early_stop and not changed:
            break
    # Converged weights must outlive the arena.
    table.weights = np.array(table.weights, copy=True)
