"""Algorithm 4.1 as one stacked sweep per tree level — the exact E⁺ build
and every reweight that keeps the skeleton.

Paper comment (iv): the separator decomposition, and therefore the
*structure* of ``E⁺``, depends only on the unweighted skeleton.  A
:class:`ReweightPlan` captures that structure once, in a constant number
of vectorized passes per tree level: where each node's matrix lives in one
flat heap, the per-leaf edge scatter lists, the child-combine index pairs,
the pair multiset behind E⁺ assembly, and the §3.2 phase layout.
:meth:`ReweightPlan.run` then derives E⁺ for a weight vector on that
skeleton with no separator recursion, per-node Python loop or schedule
rebuild.  The cold build *is* this sweep with every node dirty
(:func:`~repro.core.leaves_up.augment_leaves_up`).

The heap holds one padded block per level, so the sweep works on views
(DESIGN §5, "Algorithm 4.1: the plan is the build"):

* leaves: one ``(L, P, P)`` stack (labels at ``[0, h)`` in label order),
  one padded Floyd–Warshall(-with-hops) over all leaves at once.
* internal levels, deepest first: one ``(B, H, H)`` block with each
  node's separator at ``[0, |S|)`` in ``separator`` order and its other
  labels from ``S_max`` on, so ``D_S``, ``Direct[:,S]`` and
  ``Direct[S,:]`` are slices.  Identity init, child blocks ⊕-combined (one
  pass per child position), a batched FW on a copy of the separator
  cliques, and the three-hop product ``Direct[:,S] ⊗ D_S ⊗ Direct[S,:]``
  ⊕-ed into the block in place.  The paper's two-hop ⊕ into the separator
  columns and rows cannot change a value (the diagonal is at least as
  good as 1̄ and ⊗ is monotone; ``tests/test_semiring.py`` guards this),
  but the PRAM ledger still charges all three products.

Padding holds 0̄, absorbing under ⊗ and the ⊕-identity; every shipped ⊕ is
an exact selection, so batching and reassociating cannot move a bit.
Assembly ⊕-reduces the full pair multiset, then drops 0̄ pairs.

The **sparse** path (``dirty_edges``) re-sweeps only the leaves holding a
changed edge and their ancestors (every edge lies inside some leaf, and
internal matrices hold no one-hop edges); clean nodes carry over from the
base :class:`ReweightState`.  The child-combine passes run unmasked: the
dirty set is closed upward, so re-⊕-ing a clean parent's clean children is
a bitwise no-op.  Negative-cycle detection walks levels deepest first,
nodes in index order, first offending vertex in label order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.bellman_ford import min_weight_diameter
from ..kernels.boolmat import charged_omega
from ..pram.machine import NULL_LEDGER, Ledger, pram_model
from .augment import (
    Augmentation,
    NegativeCycleDetected,
    NodeDistances,
)
from .digraph import WeightedDigraph
from .semiring import Semiring
from .septree import SeparatorTree

__all__ = ["ReweightPlan", "ReweightState", "apply_weight_delta"]


def apply_weight_delta(
    graph: WeightedDigraph, weight_delta
) -> tuple[WeightedDigraph, np.ndarray]:
    """``graph`` with a sparse reweighting applied, and the changed edge ids.

    ``weight_delta`` is a ``{edge_id: new_weight}`` mapping or an
    ``(edge_ids, new_weights)`` pair of absolute assignments, so applying
    it twice is a no-op.  An id outside ``[0, m)`` raises ``ValueError``
    rather than wrapping around as a negative numpy index would."""
    if isinstance(weight_delta, dict):
        idx = np.fromiter(weight_delta.keys(), dtype=np.int64, count=len(weight_delta))
        vals = np.fromiter(
            (weight_delta[int(i)] for i in idx), dtype=graph.weight.dtype, count=idx.shape[0]
        )
    else:
        idx, vals = weight_delta
        idx = np.asarray(idx, dtype=np.int64)
        vals = np.asarray(vals, dtype=graph.weight.dtype)
    if idx.size and (idx.min() < 0 or idx.max() >= graph.m):
        raise ValueError("weight_delta edge ids out of range")
    w = graph.weight.copy()
    w[idx] = vals
    return WeightedDigraph(graph.n, graph.src, graph.dst, w), idx


@dataclass
class ReweightState:
    """Weight-dependent byproducts of one sweep, kept on the augmentation
    (as ``aug._reweight_state``) so a later *sparse* reweight can start from
    them instead of from scratch."""

    #: flat heap: the leaf stack, then one padded block per internal level.
    heap: np.ndarray
    #: per-leaf min-weight diameters, aligned with the plan's leaf rows.
    leaf_diam: np.ndarray
    #: the plan whose heap layout this state follows.
    plan: "ReweightPlan"


@dataclass
class _LevelPlan:
    """One tree level (nodes in tree index order) and the padded
    ``(B, H, H)`` heap block of its internal nodes."""

    nodes: np.ndarray            # every node of the level, leaves included
    internal: np.ndarray         # the internal ones: the block's rows
    off: int                     # heap offset of the block
    H: int                       # S + max |labels ∖ S| over the level
    S: int                       # max |S| over the level (at least 1)
    real: np.ndarray             # (B, H): which positions hold a label
    #: per child position: (parent slots, child slots) to ⊕-combine.
    passes: list[tuple[np.ndarray, np.ndarray]]


class ReweightPlan:
    """Structure-only sweep plan for Algorithm 4.1 on a fixed skeleton.

    Capture once per ``(graph structure, tree)``; every :meth:`run` call
    then derives a full :class:`Augmentation` for a weight vector — the
    cold build (every node dirty) and each reweight alike.  The plan is
    independent of the semiring and of which augmentation *method* built a
    base oracle (Algorithm 4.3 certifies the same matrices on
    ``B×B ∪ S×S``, hence the same E⁺).
    """

    def __init__(self, graph: WeightedDigraph, tree: SeparatorTree) -> None:
        self.tree = tree
        self.n = int(graph.n)
        self._capture(graph, tree)
        #: the §3.2 schedule layout reweights bind to (ensure_schedule_cache).
        self._layout = None

    @classmethod
    def capture(cls, graph: WeightedDigraph, tree: SeparatorTree) -> "ReweightPlan":
        """Record the structural provenance of every shortcut weight."""
        return cls(graph, tree)

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #

    def _capture(self, graph: WeightedDigraph, tree: SeparatorTree) -> None:
        flat = tree.flat
        n_nodes = flat.meta.shape[0]
        n = self.n
        self.is_leaf = flat.meta[:, 2] < 0
        self.node_level = flat.meta[:, 0].copy()
        self.parent = flat.meta[:, 1].copy()
        self.sep_flat = flat.separators.astype(np.int64, copy=False)
        self.bdy_flat = flat.boundaries.astype(np.int64, copy=False)
        self.sep_ptr, self.bdy_ptr = flat.soff, flat.boff
        self.sep_len, self.bdy_len = np.diff(flat.soff), np.diff(flat.boff)
        # Labeled vertex set of every node: V(t) for a leaf, S(t) ∪ B(t)
        # otherwise; one sorted key array ``node·n + vertex`` answers every
        # "label index of v in node t" lookup with a searchsorted.
        leaf_v, leaf_owner = flat.members("vertices", self.is_leaf)
        ids = np.arange(n_nodes, dtype=np.int64)
        sep_owner = np.repeat(ids, self.sep_len)
        bdy_owner = np.repeat(ids, self.bdy_len)
        inner_bdy = ~self.is_leaf[bdy_owner]
        keys = np.concatenate([
            leaf_owner * n + leaf_v,
            sep_owner * n + self.sep_flat,
            bdy_owner[inner_bdy] * n + self.bdy_flat[inner_bdy],
        ])
        self._label_keys = np.unique(keys)
        self.vh_flat = self._label_keys % n
        self.node_h = np.bincount(self._label_keys // n, minlength=n_nodes).astype(np.int64)
        self.vh_ptr = _ptr(self.node_h)

        self._capture_layout()
        self._capture_leaves(graph)
        self._capture_levels(flat.meta[:, 2:])
        self._capture_assembly()

    def _capture_layout(self) -> None:
        """Place every node's matrix: the ``(L, P, P)`` leaf stack first,
        then one ``(B, H, H)`` block per level, deepest first.  Records each
        node's block offset and width and each label's position in it."""
        n_nodes = self.node_h.shape[0]
        self.leaf_nodes = np.nonzero(self.is_leaf)[0]
        self.leaf_h = self.node_h[self.leaf_nodes]
        self.P = P = int(self.leaf_h.max(initial=1))
        self.node_base = np.zeros(n_nodes, dtype=np.int64)
        self.node_stride = np.full(n_nodes, P, dtype=np.int64)
        self.node_base[self.leaf_nodes] = np.arange(self.leaf_nodes.shape[0]) * P * P
        node_s = np.zeros(n_nodes, dtype=np.int64)
        off = self.leaf_nodes.shape[0] * P * P
        self.levels: list[_LevelPlan] = []
        for level in np.unique(self.node_level)[::-1]:
            nodes = np.nonzero(self.node_level == level)[0]
            internal = nodes[~self.is_leaf[nodes]]
            ss, rest = self.sep_len[internal], self.node_h[internal] - self.sep_len[internal]
            S = max(1, int(ss.max(initial=0)))
            H = S + int(rest.max(initial=0)) if internal.size else 0
            ar = np.arange(H)
            real = (ar < ss[:, None]) | ((ar >= S) & (ar < S + rest[:, None]))
            self.node_base[internal] = off + np.arange(internal.shape[0]) * H * H
            self.node_stride[internal] = H
            node_s[internal] = S
            self.levels.append(_LevelPlan(
                nodes=nodes, internal=internal, off=off, H=H, S=S, real=real, passes=[],
            ))
            off += internal.shape[0] * H * H
        self.heap_size = off
        # label positions: a leaf keeps label order; an internal node puts
        # S(t) first in separator order, the rest from S_max in label order
        owner, k = _segments(self.node_h)
        sep_owner, sk = _segments(self.sep_len)
        inner = ~self.is_leaf[sep_owner]
        sep_owner, sk = sep_owner[inner].astype(np.int64), sk[inner].astype(np.int64)
        sep_slot = self.vh_ptr[sep_owner] + self._local(
            sep_owner, self.sep_flat[self.sep_ptr[sep_owner] + sk]
        )
        is_sep = np.zeros(k.shape[0], dtype=bool)
        is_sep[sep_slot] = True
        seps_before = np.cumsum(is_sep) - is_sep
        rank = k - (seps_before - seps_before[self.vh_ptr[owner]])
        rest = ~self.is_leaf[owner] & ~is_sep
        self.vh_pos = k
        self.vh_pos[rest] = node_s[owner[rest]] + rank[rest]
        self.vh_pos[sep_slot] = sk

    def _slot(self, node: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Heap slot of entry ``(i, j)`` (label indices) of each ``node``'s
        matrix."""
        first = self.vh_ptr[node]
        return (
            self.node_base[node]
            + self.vh_pos[first + i] * self.node_stride[node]
            + self.vh_pos[first + j]
        )

    def _slots(self, idx: np.ndarray) -> np.ndarray:
        """Heap-slot indices, narrowed to int32 when the heap allows."""
        return idx.astype(np.int32) if self.heap_size < 2**31 else idx

    def _local(self, node: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Label index of each ``vertex`` at ``node`` (every pair must be
        labeled)."""
        return np.searchsorted(self._label_keys, node * self.n + vertex) - self.vh_ptr[node]

    def _labeled(self, node: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Whether each ``vertex`` is labeled at ``node``."""
        key = node * self.n + vertex
        pos = np.searchsorted(self._label_keys, key)
        hit = pos < self._label_keys.shape[0]
        hit[hit] = self._label_keys[pos[hit]] == key[hit]
        return hit

    def _vertices(self, node: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The ``k``-th labeled vertex of each ``node``."""
        return self.vh_flat[self.vh_ptr[node] + k]

    def _capture_leaves(self, graph: WeightedDigraph) -> None:
        n = self.n
        # An edge lies in leaf r iff both endpoints are labeled there: pair
        # every edge with the leaves holding its tail, keep those holding
        # its head too, and order the pairs by (leaf row, edge id).
        owner, k = _segments(self.leaf_h)
        verts = self._vertices(self.leaf_nodes[owner], k)
        by_vertex = owner[np.argsort(verts, kind="stable")]
        inc_ptr = _ptr(np.bincount(verts, minlength=n))
        edge, k = _segments(np.diff(inc_ptr)[graph.src])
        rows = by_vertex[inc_ptr[graph.src[edge]] + k]
        inside = self._labeled(self.leaf_nodes[rows], graph.dst[edge])
        edge, rows = edge[inside], rows[inside]
        order = np.lexsort((edge, rows))
        self.le_edge, self.le_row = edge[order], rows[order]
        leaf_of = self.leaf_nodes[self.le_row]
        self.le_src = self._local(leaf_of, graph.src[self.le_edge])
        self.le_dst = self._local(leaf_of, graph.dst[self.le_edge])
        #: edge id -> rows of the leaves containing it (several when the
        #: edge lies inside overlapping leaf vertex sets).
        order = np.argsort(self.le_edge, kind="stable")
        self._edge_sorted = self.le_edge[order]
        self._edge_sorted_row = self.le_row[order]

    def _capture_levels(self, kids: np.ndarray) -> None:
        """``kids``: each node's two children, −1 for none."""
        diag, diag_node, diag_vertex = [], [], []
        for lp in self.levels:
            # every real diagonal slot, in the negative-cycle walk order
            owner, k = _segments(self.node_h[lp.nodes])
            t = lp.nodes[owner]
            diag.append(self._slot(t, k, k))
            diag_node.append(t)
            diag_vertex.append(self._vertices(t, k))
            internal = lp.internal
            for p in range(kids.shape[1]):
                sel = np.nonzero(kids[internal, p] >= 0)[0]
                parent, child = internal[sel], kids[internal[sel], p]
                # the child's boundary ∩ the parent's labels, in label order
                owner, k = _segments(self.bdy_len[child])
                v = self.bdy_flat[self.bdy_ptr[child][owner] + k]
                keep = self._labeled(parent[owner], v)
                owner, v = owner[keep], v[keep]
                common = np.bincount(owner, minlength=sel.shape[0])
                pos_p = self._local(parent[owner], v)
                pos_c = self._local(child[owner], v)
                pair, i, j = _outer(common)
                lp.passes.append((
                    self._slots(self._slot(parent[pair], pos_p[i], pos_p[j])),
                    self._slots(self._slot(child[pair], pos_c[i], pos_c[j])),
                ))
        self.diag_slot = self._slots(_concat_i64(diag))
        self.diag_node = _concat_i64(diag_node)
        self.diag_vertex = _concat_i64(diag_vertex)

    def _capture_assembly(self) -> None:
        """The ``B×B ∪ S×S`` pair multiset of every node (nodes in index
        order, boundary before separator, row-major), structural
        ``src != dst`` filter only; 0̄ is filtered after the ⊕-reduction."""
        n, n_nodes = self.n, self.node_h.shape[0]
        node = np.repeat(np.arange(n_nodes, dtype=np.int64), 2)
        is_sep = np.tile(np.array([False, True]), n_nodes)
        size = np.where(is_sep, self.sep_len[node], self.bdy_len[node])
        size[size < 2] = 0
        start = np.where(is_sep, self.bdy_flat.shape[0] + self.sep_ptr[node], self.bdy_ptr[node])
        owner, k = _segments(size)
        group = np.concatenate([self.bdy_flat, self.sep_flat])[start[owner] + k]
        # each group vertex's position in its node's block
        pos = self.vh_pos[self.vh_ptr[node[owner]] + self._local(node[owner], group)]
        del owner, k
        # the multiset is the largest capture-time array: filter the
        # i == j pairs first and drop every temporary once used
        pair, i, j = _outer(size)
        keep = i != j
        t, i, j = node[pair[keep]], i[keep], j[keep]
        del pair, keep
        gather = self._slots(self.node_base[t] + pos[i] * self.node_stride[t] + pos[j])
        del t
        key = group[i] * n + group[j]
        del i, j
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        del key
        #: heap slots of the multiset, grouped by vertex pair (stable order
        #: within a pair), so assembly is one gather and one reduceat
        self.asm_gather = gather[order]
        del gather, order
        boundaries = np.ones(key_s.shape[0], dtype=bool)
        if key_s.shape[0]:
            np.not_equal(key_s[1:], key_s[:-1], out=boundaries[1:])
        self.asm_starts = np.nonzero(boundaries)[0]
        del boundaries
        uniq = key_s[self.asm_starts]
        self.asm_src = (uniq // n).astype(np.int64)
        self.asm_dst = (uniq % n).astype(np.int64)

    # ------------------------------------------------------------------ #
    # the sweep
    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: WeightedDigraph,
        semiring: Semiring,
        *,
        base_state: ReweightState | None = None,
        dirty_edges: np.ndarray | None = None,
        keep_node_distances: bool = False,
        raise_on_negative_cycle: bool = True,
        ledger: Ledger = NULL_LEDGER,
    ) -> Augmentation:
        """One weight-only sweep; returns a fresh :class:`Augmentation`
        (with ``_reweight_state`` attached) for ``graph``'s weights.

        ``dirty_edges`` (edge ids whose weight changed, requires
        ``base_state``) restricts the sweep to the root paths of leaves
        containing those edges.  The base state is never mutated — a
        negative-cycle raise leaves the serving augmentation intact.
        ``ledger`` is charged Algorithm 4.1's PRAM costs, level by level
        (dense sweeps only — a sparse sweep is not a build).
        """
        zero, dtype = semiring.zero, semiring.dtype
        sparse = dirty_edges is not None and base_state is not None
        if sparse:
            dirty_nodes = self._dirty_nodes(np.asarray(dirty_edges, dtype=np.int64))
            heap = base_state.heap.copy()
            leaf_diam = base_state.leaf_diam.copy()
        else:
            dirty_nodes = None
            heap = np.full(self.heap_size, zero, dtype=dtype)
            heap[self.diag_slot] = semiring.one
            leaf_diam = np.zeros(self.leaf_nodes.shape[0], dtype=np.int64)
        # boolean closure rounds per node, read off the matrices only when
        # a live ledger needs them (see _charge)
        rounds = None
        if not sparse and semiring.name == "boolean" and ledger is not NULL_LEDGER:
            rounds = np.zeros(self.node_h.shape[0], dtype=np.int64)

        self._run_leaves(graph, semiring, heap, leaf_diam, dirty_nodes, rounds)
        self._run_levels(semiring, heap, dirty_nodes, rounds)
        self._check_cycles(semiring, heap, raise_on_negative_cycle)
        best = self._assemble(semiring, heap)
        keep = best if semiring.dtype == np.dtype(bool) else best != zero
        src, dst, weight = self.asm_src[keep], self.asm_dst[keep], best[keep]
        if not sparse:
            self._charge(ledger, rounds)
            ledger.charge(work=max(1.0, float(src.shape[0])), depth=1.0, label="assemble-eplus")
        diam_map = dict(zip(self.leaf_nodes.tolist(), leaf_diam.tolist()))
        node_distances = self._node_distances(heap) if keep_node_distances else {}
        aug = Augmentation(
            graph=graph,
            tree=self.tree,
            semiring=semiring,
            src=src,
            dst=dst,
            weight=weight,
            leaf_diameters=diam_map,
            node_distances=node_distances,
            # every sweep is Algorithm 4.1's output bit-for-bit, so the
            # lineage keeps Algorithm 4.1's method tag.
            method="leaves_up",
        )
        aug._reweight_state = ReweightState(  # type: ignore[attr-defined]
            heap=heap, leaf_diam=leaf_diam, plan=self
        )
        # Bind the new weights to the recorded layout, unless the pair
        # structure drifted (a weight hit 0̄ or a 0̄ pair came alive): the
        # schedule then compiles cold on first use.
        if self._layout is not None and self._layout.matches(aug):
            aug._schedule = self._layout.bind(aug)
        return aug

    def _node_distances(self, heap: np.ndarray) -> dict[int, NodeDistances]:
        """Every node's matrix in label order: a leaf's as a view into the
        leaf stack, the internal ones gathered one level block at a time."""
        P, L = self.P, self.leaf_nodes.shape[0]
        leaves = heap[: L * P * P].reshape(L, P, P)
        mats = {t: m[:h, :h] for t, m, h in zip(self.leaf_nodes.tolist(), leaves, self.leaf_h)}
        for lp in self.levels:
            h = self.node_h[lp.internal]
            owner, k = _segments(h)
            pos = self.vh_pos[self.vh_ptr[lp.internal][owner] + k]
            seg, i, j = _outer(h)
            flat = heap[lp.off :][(seg * lp.H + pos[i]) * lp.H + pos[j]]
            off = _ptr(h * h).tolist()
            for b, (t, hb) in enumerate(zip(lp.internal.tolist(), h.tolist())):
                mats[t] = flat[off[b] : off[b + 1]].reshape(hb, hb)
        vh_ptr = self.vh_ptr.tolist()
        return {
            t: NodeDistances(t, self.vh_flat[vh_ptr[t] : vh_ptr[t + 1]], mats[t])
            for t in range(len(mats))
        }

    # -------------------------- leaves ----------------------------- #

    def _dirty_nodes(self, dirty_edges: np.ndarray) -> np.ndarray:
        """Boolean mask over tree nodes: leaves containing a changed edge
        plus all their ancestors (the shortcut root paths)."""
        lo = np.searchsorted(self._edge_sorted, dirty_edges, side="left")
        hi = np.searchsorted(self._edge_sorted, dirty_edges, side="right")
        owner, k = _segments(hi - lo)
        dirty = np.zeros(self.node_h.shape[0], dtype=bool)
        dirty[self.leaf_nodes[self._edge_sorted_row[lo[owner] + k]]] = True
        # deepest level first: a level's marks are complete before they
        # move up to its parents
        for lp in self.levels:
            up = self.parent[lp.nodes[dirty[lp.nodes]]]
            dirty[up[up >= 0]] = True
        return dirty

    def _run_leaves(
        self,
        graph: WeightedDigraph,
        semiring: Semiring,
        heap: np.ndarray,
        leaf_diam: np.ndarray,
        dirty_nodes: np.ndarray | None,
        rounds: np.ndarray | None,
    ) -> None:
        """Batched leaf APSP + min-weight diameters (the ℓ of Thm 3.1)."""
        P = self.P
        L = self.leaf_nodes.shape[0]
        leaves = heap[: L * P * P].reshape(L, P, P)
        sel = np.ones(L, dtype=bool) if dirty_nodes is None else dirty_nodes[self.leaf_nodes]
        rows = np.nonzero(sel)[0]
        K = rows.shape[0]
        if K == 0:
            return
        hsel = self.leaf_h[rows]
        ar = np.arange(P)
        real = (ar[None, :] < hsel[:, None])  # (K, P) row/col validity
        if dirty_nodes is None:
            stack = leaves  # the cold heap already holds the identity
        else:
            stack = np.full((K, P, P), semiring.zero, dtype=semiring.dtype)
            stack.reshape(K, P * P)[:, :: P + 1] = np.where(real, semiring.one, semiring.zero)
        emask = sel[self.le_row]
        row_map = np.cumsum(sel) - 1  # old leaf row -> compact stack row
        e_rows = row_map[self.le_row[emask]]
        e_w = graph.weight[self.le_edge[emask]].astype(semiring.dtype)
        if e_rows.size:
            semiring.scatter_min(
                stack, (e_rows, self.le_src[emask], self.le_dst[emask]), e_w
            )
        if rounds is not None:
            rounds[self.leaf_nodes[rows]] = _closure_rounds(stack, hsel)
        if semiring.name in ("min-plus", "hops"):
            hops = np.where(np.isfinite(stack), 1.0, np.inf)
            hops[:, ar, ar] = 0.0
            hops[stack == np.inf] = np.inf
            for k in range(P):
                cand = stack[:, :, k][:, :, None] + stack[:, k, :][:, None, :]
                cand_h = hops[:, :, k][:, :, None] + hops[:, k, :][:, None, :]
                better = cand < stack
                # fewest hops among optimal paths: min over ties, reset on
                # a strictly better weight
                np.minimum(hops, np.where(cand == stack, cand_h, np.inf), out=hops)
                np.copyto(hops, cand_h, where=better)
                np.copyto(stack, cand, where=better)
            diag = stack[:, ar, ar]
            has_bad = ((diag < semiring.one) & real).any(axis=1)
            finite = np.isfinite(hops) & real[:, :, None] & real[:, None, :]
            diam = np.where(finite, hops, -np.inf).max(axis=(1, 2))
            diam = np.where(diam == -np.inf, 0.0, diam).astype(np.int64)
            diam[has_bad] = 0  # a leaf on a negative cycle reports diameter 0
            leaf_diam[rows] = diam
        else:
            for k in range(P):
                semiring.add(
                    stack,
                    semiring.mul(stack[:, :, k][:, :, None], stack[:, k, :][:, None, :]),
                    out=stack,
                )
            # Non-min-plus diagonals never improve on 1̄ (⊕ keeps 1̄ best),
            # so no leaf is ever on a "negative cycle" here.
            for r in range(K):
                h = int(hsel[r])
                if h > 1:
                    # le_row is sorted: this leaf's edges are one run
                    span = slice(*np.searchsorted(self.le_row, [rows[r], rows[r] + 1]))
                    sub = WeightedDigraph(
                        h,
                        self.le_src[span],
                        self.le_dst[span],
                        graph.weight[self.le_edge[span]],
                    )
                    leaf_diam[rows[r]] = min_weight_diameter(sub, semiring=semiring)
                else:
                    leaf_diam[rows[r]] = 0
        if stack is not leaves:
            leaves[rows] = stack

    # -------------------------- internals --------------------------- #

    def _run_levels(
        self,
        semiring: Semiring,
        heap: np.ndarray,
        dirty_nodes: np.ndarray | None,
        rounds: np.ndarray | None,
    ) -> None:
        zero, one = semiring.zero, semiring.one
        for lp in self.levels:
            B, H, S = lp.internal.shape[0], lp.H, lp.S
            if B == 0:
                continue
            W = heap[lp.off : lp.off + B * H * H].reshape(B, H, H)
            rows: slice | np.ndarray = slice(None)
            if dirty_nodes is not None:
                # identity init of the dirty nodes (the cold heap holds it)
                rows = np.nonzero(dirty_nodes[lp.internal])[0]
                if not rows.size:
                    continue
                W[rows] = zero
                W.reshape(B, H * H)[rows, :: H + 1] = np.where(lp.real[rows], one, zero)
            # ⊕-combine child blocks, one vectorized pass per child
            # position; clean parents take a bitwise no-op
            for ti, si in lp.passes:
                heap[ti] = semiring.add(heap[ti], heap[si])
            # separator-clique APSP on a copy, then the three-hop product
            # Direct[:, S] ⊗ D_S ⊗ Direct[S, :] ⊕-ed into the block
            blk = W[rows]
            ds = blk[:, :S, :S].copy()
            if rounds is not None:
                rounds[lp.internal] = _closure_rounds(ds, self.sep_len[lp.internal])
            for k in range(S):
                semiring.add(
                    ds,
                    semiring.mul(ds[:, :, k][:, :, None], ds[:, k, :][:, None, :]),
                    out=ds,
                )
            left = _product(semiring, blk[:, :, :S], ds)
            semiring.add(blk, _product(semiring, left, blk[:, :S, :]), out=blk)
            if dirty_nodes is not None:
                W[rows] = blk

    def _check_cycles(
        self,
        semiring: Semiring,
        heap: np.ndarray,
        raise_on_negative_cycle: bool,
    ) -> None:
        """Report the first negative cycle in Algorithm 4.1's walk order:
        levels deepest first, nodes in index order, first offending vertex
        in label order.  The diag slots are concatenated in exactly that
        order, so the first set bit of one vectorized ``improves`` is the
        verdict.  (A base augmentation exists only if it was cycle-free,
        so on the sparse path any offending diagonal necessarily belongs
        to a dirty node.)"""
        if not raise_on_negative_cycle or semiring.name not in ("min-plus", "hops"):
            return
        bad = semiring.improves(heap[self.diag_slot], semiring.one)
        if bad.any():
            p = int(np.argmax(bad))
            raise NegativeCycleDetected(int(self.diag_node[p]), int(self.diag_vertex[p]))

    # -------------------------- ledger ------------------------------ #

    def _charge(self, ledger: Ledger, rounds: np.ndarray | None) -> None:
        """Charge each level as one parallel region (``leaves-up-level``)
        of per-node branches (``node``): a leaf's APSP costs ``h³`` work
        and ``log2ceil(h)²`` depth; an internal node's clique APSP ``s³``
        and ``log2ceil(s)²`` plus the products ``h·s²``, ``s²·h``,
        ``h·s·h`` at ``reduce_depth(s)`` each.  Under the boolean semiring
        both APSPs are repeated-squaring closures, ``k^ω`` per round, and
        ``rounds`` carries each node's round count."""
        if ledger is NULL_LEDGER:
            return
        reduce = _log2ceil if pram_model() != "CRCW" else np.ones_like
        omega = charged_omega()
        for lp in self.levels:
            t = lp.nodes
            leaf = self.is_leaf[t]
            # a leaf's APSP is over h vertices, an internal node's over s
            k = np.where(leaf, self.node_h[t], self.sep_len[t]).astype(np.float64)
            if rounds is None:
                work = k**3
                depth = _log2ceil(k) ** 2
            else:
                # repeated squaring: one k^ω product per round, added up
                # round by round as the closure kernel charges them
                step = np.array([float(x) ** omega for x in k.tolist()])
                work = np.zeros_like(k)
                depth = np.zeros_like(k)
                for r in range(int(rounds[t].max(initial=0))):
                    more = rounds[t] > r
                    work = work + np.where(more, step, 0.0)
                    depth = depth + np.where(more, reduce(k), 0.0)
            h = self.node_h[t].astype(np.float64)
            d_mm = reduce(k)
            work = np.where(leaf, work, ((work + h * k * k) + k * k * h) + h * k * h)
            depth = np.where(leaf, depth, ((depth + d_mm) + d_mm) + d_mm)
            # an internal node with an empty separator takes no step
            depth[~leaf & (k == 0)] = 0.0
            branches = []
            for w, d in zip(work.tolist(), depth.tolist()):
                b = Ledger()
                b.charge(w, d, label="node")
                branches.append(b)
            ledger.merge_parallel(branches, label="leaves-up-level")

    # -------------------------- assembly ---------------------------- #

    def _assemble(self, semiring: Semiring, heap: np.ndarray) -> np.ndarray:
        """⊕ of every vertex pair's multiset (0̄ where no node has a path)."""
        # Full vectorized re-reduction of the pair multiset.  A per-node
        # "touched chunks only" variant was measured slower: a spread-out
        # delta dirties most of the multiset mass, and the bookkeeping
        # (inverse permutations, interleaved reduceat) costs more than the
        # single pair-ordered gather + reduceat below.
        if not self.asm_starts.size:
            return np.empty(0, dtype=semiring.dtype)
        return semiring.add.reduceat(heap[self.asm_gather], self.asm_starts)

    # -------------------------- schedule ---------------------------- #

    def ensure_schedule_cache(self, aug: Augmentation) -> None:
        """Keep the weight-independent §3.2 layout of ``aug``'s E⁺ pair
        structure (the one its schedule is bound to, if compiled), so every
        later :meth:`run` binds weights to it instead of compiling."""
        layout = getattr(aug._schedule, "layout", None)
        if layout is not None and layout is self._layout:
            return  # the usual case: aug was bound by this plan
        if self._layout is not None and self._layout.matches(aug):
            return
        if layout is None or not layout.matches(aug):
            from .scheduler import ScheduleLayout  # local: avoids import cycle

            layout = ScheduleLayout.build(aug)
        self._layout = layout


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #


def _concat_i64(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks])


def _ptr(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, k)`` enumerating ``k in range(counts[owner])`` for every
    segment in order — the flat form of a per-segment ``arange``."""
    ptr = _ptr(np.asarray(counts, dtype=np.int64))
    dt = np.int32 if ptr[-1] < 2**31 else np.int64
    owner = np.repeat(np.arange(ptr.shape[0] - 1, dtype=dt), counts)
    k = np.arange(owner.shape[0], dtype=dt)
    k -= ptr[:-1].astype(dt)[owner]
    return owner, k


def _product(semiring: Semiring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ``a ⊗ b``: ``out[t,i,j] = ⊕_k a[t,i,k] ⊗ b[t,k,j]``,
    accumulated one ``k`` at a time over ``(nodes, i, j)`` slabs (a 4-D
    broadcast temporary was 2× slower)."""
    out = semiring.mul(a[:, :, 0, None], b[:, None, 0, :])
    for k in range(1, a.shape[2]):
        semiring.add(out, semiring.mul(a[:, :, k, None], b[:, None, k, :]), out=out)
    return out


def _outer(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major pairs of every segment's ``sizes[s]²`` outer product, as
    ``(segment, i, j)`` with ``i``/``j`` indexing the concatenation of the
    segments."""
    seg, q = _segments(sizes**2)
    i, j = np.divmod(q, sizes[seg].astype(q.dtype))
    del q
    start = _ptr(sizes)[:-1].astype(i.dtype)[seg]
    i += start
    j += start
    return seg, i, j


def _log2ceil(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`~repro.pram.machine.log2ceil`."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x <= 2, 1.0, np.ceil(np.log2(np.maximum(x, 2.0))))


def _closure_rounds(stack: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Squarings :func:`~repro.kernels.boolmat.bool_closure` performs on
    each ``(sizes[b], sizes[b])`` leading block of a padded boolean stack:
    square until nothing changes (that round counts too), at most
    ``⌈log₂ max(2, size)⌉`` rounds.  Padding rows and columns reach nothing
    and so never change the count."""
    cap = np.maximum(1, np.ceil(np.log2(np.maximum(sizes, 2)))).astype(np.int64)
    c = stack.astype(np.float32)
    ar = np.arange(c.shape[1])
    c[:, ar, ar] = 1.0
    rounds = np.zeros(c.shape[0], dtype=np.int64)
    live = np.ones(c.shape[0], dtype=bool)
    for r in range(1, int(cap.max(initial=0)) + 1):
        nxt = np.matmul(c, c) > 0
        rounds += live
        live &= ~(nxt == (c > 0)).all(axis=(1, 2)) & (cap > r)
        if not live.any():
            break
        c = nxt.astype(np.float32)
    return rounds

