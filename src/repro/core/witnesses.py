"""Witness-tracked augmentation: explicit paths for every certified pair.

Paper comment (ii): "The algorithm as stated computes only distances, but
it can be easily adapted to explicitly find minimum weight paths."  The
tight-edge tree of :mod:`repro.core.paths` already recovers per-source
trees; this module does the per-*pair* adaptation: Algorithm 4.1 is re-run
with argmin *witnesses* recorded at every ⊕, so any node-certified distance
— in particular every E⁺ edge — expands into an explicit vertex path of
original edges, recursively:

* a leaf pair expands through its Floyd–Warshall ``via`` matrix down to
  original edges;
* an internal pair is either DIRECT (inherited from a child: recurse into
  the child) or VIA (a first/last separator hit ``s₁, s₂``: expand
  ``i → s₁`` (child), ``s₁ ⇝ s₂`` (the separator-clique APSP, whose own FW
  ``via`` entries decompose into child segments), ``s₂ → j`` (child)).

The per-node storage is a constant number of integer matrices the size of
the distance matrix.  :class:`WitnessOracle` combines node expansion with
query-time argmins of the :class:`repro.apps.routing.DistanceOracle`
recursion to answer *arbitrary* pair-path queries — negative weights
included, no per-source pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.floyd_warshall import floyd_warshall_with_parents
from ..pram.machine import NULL_LEDGER, Ledger
from .digraph import WeightedDigraph
from .septree import SeparatorTree, SepTreeNode

__all__ = ["WitnessedNode", "WitnessOracle", "build_witnessed_augmentation"]

_DIRECT0 = 0  # achieved by child 0 (or a leaf / original edge)
_DIRECT1 = 1  # achieved by child 1
_VIA = 2  # achieved through separator waypoints (s1, s2)
_SELF = 3  # trivial (i == j)


@dataclass
class WitnessedNode:
    """Distances over the node's label set plus expansion witnesses."""

    node_idx: int
    vertices: np.ndarray  # sorted global ids (V_H for internal, V(t) for leaf)
    matrix: np.ndarray  # dist_{G(t)} on vertices × vertices
    is_leaf: bool
    # Leaf: FW via matrix (-1 = direct edge).  Internal: attribution arrays.
    leaf_via: np.ndarray | None = None
    kind: np.ndarray | None = None  # one of _DIRECT0/_DIRECT1/_VIA/_SELF
    via_s1: np.ndarray | None = None  # local S-position of the first hit
    via_s2: np.ndarray | None = None  # local S-position of the last hit
    sep_positions: np.ndarray | None = None  # S(t) positions within vertices
    ds_via: np.ndarray | None = None  # FW via matrix of the separator clique
    ds_kind: np.ndarray | None = None  # child attribution of W_S base edges


class WitnessError(RuntimeError):
    pass


def _min_with_witness(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(elementwise min, mask-where-b-strictly-wins)."""
    better = b < a
    return np.where(better, b, a), better


def build_witnessed_augmentation(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> dict[int, WitnessedNode]:
    """Algorithm 4.1 with witness recording (min-plus only)."""
    results: dict[int, WitnessedNode] = {}
    for level_nodes in tree.levels_desc():
        for t in level_nodes:
            if t.is_leaf:
                results[t.idx] = _witness_leaf(graph, t)
            else:
                results[t.idx] = _witness_internal(tree, t, results)
    ledger.charge(work=1.0, depth=1.0, label="witnesses")
    return results


def _witness_leaf(graph: WeightedDigraph, t: SepTreeNode) -> WitnessedNode:
    sub, mapping = graph.induced_subgraph(t.vertices)
    dist, via = floyd_warshall_with_parents(sub.dense_weights())
    return WitnessedNode(
        node_idx=t.idx, vertices=mapping, matrix=dist, is_leaf=True, leaf_via=via
    )


def _witness_internal(
    tree: SeparatorTree, t: SepTreeNode, results: dict[int, WitnessedNode]
) -> WitnessedNode:
    vh = np.union1d(t.separator, t.boundary)
    h = vh.shape[0]
    pos_s = np.searchsorted(vh, t.separator)
    direct = np.full((h, h), np.inf)
    np.fill_diagonal(direct, 0.0)
    direct_kind = np.full((h, h), _DIRECT0, dtype=np.int8)
    np.fill_diagonal(direct_kind, _SELF)
    for slot, c in enumerate(t.children):
        child = results[c]
        cb = tree.nodes[c].boundary
        common, pos_vh, pos_child_in_b = np.intersect1d(
            vh, cb, assume_unique=True, return_indices=True
        )
        if common.size == 0:
            continue
        child_pos = np.searchsorted(child.vertices, cb[pos_child_in_b])
        block = child.matrix[np.ix_(child_pos, child_pos)]
        tgt = direct[np.ix_(pos_vh, pos_vh)]
        merged, better = _min_with_witness(tgt, block)
        direct[np.ix_(pos_vh, pos_vh)] = merged
        kind_block = direct_kind[np.ix_(pos_vh, pos_vh)]
        kind_block[better] = _DIRECT0 if slot == 0 else _DIRECT1
        direct_kind[np.ix_(pos_vh, pos_vh)] = kind_block

    if pos_s.size == 0:
        return WitnessedNode(
            node_idx=t.idx, vertices=vh, matrix=direct, is_leaf=False,
            kind=direct_kind, via_s1=None, via_s2=None,
            sep_positions=pos_s, ds_via=None, ds_kind=None,
        )

    # Separator clique: W_S = Direct[S,S]; FW with via; base-edge kinds are
    # Direct's attributions on S×S.
    w_s = direct[np.ix_(pos_s, pos_s)]
    d_s, ds_via = floyd_warshall_with_parents(w_s)
    ds_kind = direct_kind[np.ix_(pos_s, pos_s)].copy()

    k = pos_s.shape[0]
    # L[i, s2] = min_{s1} Direct[i, s1] + D_S[s1, s2], with argmin s1.
    expanded = direct[:, pos_s][:, :, None] + d_s[None, :, :]  # (h, s1, s2)
    l_arg = np.argmin(expanded, axis=1)  # (h, s2)
    l_val = np.take_along_axis(expanded, l_arg[:, None, :], axis=1)[:, 0, :]
    # T[i, j] = min_{s2} L[i, s2] + Direct[s2, j], with argmin s2.
    three = l_val[:, :, None] + direct[pos_s, :][None, :, :]  # (h, s2, j)
    t_arg = np.argmin(three, axis=1)  # (h, j)
    t_val = np.take_along_axis(three, t_arg[:, None, :], axis=1)[:, 0, :]

    matrix, via_better = _min_with_witness(direct, t_val)
    kind = direct_kind.copy()
    kind[via_better] = _VIA
    via_s2 = t_arg.astype(np.int32)
    via_s1 = np.zeros((h, h), dtype=np.int32)
    # s1 for pair (i, j) is l_arg[i, s2(i, j)].
    via_s1[...] = np.take_along_axis(l_arg, via_s2, axis=1)

    # Cross assignments for exact S rows/cols: M[:, S] ⊕ L and M[S, :] ⊕ R.
    # L[i, s2] itself is a VIA path with last hit s2 (and first hit s1).
    cur = matrix[:, pos_s]
    better = l_val < cur
    matrix[:, pos_s] = np.where(better, l_val, cur)
    kind_cols = kind[:, pos_s]
    kind_cols[better] = _VIA
    kind[:, pos_s] = kind_cols
    s2_cols = via_s2[:, pos_s]
    s2_cols[better] = np.broadcast_to(np.arange(k, dtype=np.int32), (h, k))[better]
    via_s2[:, pos_s] = s2_cols
    s1_cols = via_s1[:, pos_s]
    s1_cols[better] = l_arg.astype(np.int32)[better]
    via_s1[:, pos_s] = s1_cols

    # R[s1, j] = min_{s2} D_S[s1, s2] + Direct[s2, j]: argmin from `three`
    # restricted to i ∈ S with L replaced... simpler: recompute directly.
    expanded_r = d_s[:, :, None] + direct[pos_s, :][None, :, :]  # (s1, s2, j)
    r_arg = np.argmin(expanded_r, axis=1)  # (s1, j)
    r_val = np.take_along_axis(expanded_r, r_arg[:, None, :], axis=1)[:, 0, :]
    cur = matrix[pos_s, :]
    better = r_val < cur
    matrix[pos_s, :] = np.where(better, r_val, cur)
    kind_rows = kind[pos_s, :]
    kind_rows[better] = _VIA
    kind[pos_s, :] = kind_rows
    s1_rows = via_s1[pos_s, :]
    s1_rows[better] = np.broadcast_to(
        np.arange(k, dtype=np.int32)[:, None], (k, h)
    )[better]
    via_s1[pos_s, :] = s1_rows
    s2_rows = via_s2[pos_s, :]
    s2_rows[better] = r_arg.astype(np.int32)[better]
    via_s2[pos_s, :] = s2_rows

    return WitnessedNode(
        node_idx=t.idx, vertices=vh, matrix=matrix, is_leaf=False,
        kind=kind, via_s1=via_s1, via_s2=via_s2,
        sep_positions=pos_s, ds_via=ds_via, ds_kind=ds_kind,
    )


class WitnessOracle:
    """Pair-path oracle: exact distances *and* explicit paths for any
    vertex pair, from the witnessed Algorithm 4.1 run."""

    def __init__(self, graph: WeightedDigraph, tree: SeparatorTree) -> None:
        self.graph = graph
        self.tree = tree
        self.nodes = build_witnessed_augmentation(graph, tree)

    # ------------------------------------------------------------------ #
    # Node-level expansion
    # ------------------------------------------------------------------ #

    def _expand_node_pair(self, t: SepTreeNode, u: int, v: int, out: list[int]) -> None:
        """Append the vertex sequence of an optimal ``u→v`` path within
        ``G(t)`` (excluding ``u``, including ``v``)."""
        wn = self.nodes[t.idx]
        iu = int(np.searchsorted(wn.vertices, u))
        iv = int(np.searchsorted(wn.vertices, v))
        if not (wn.vertices[iu] == u and wn.vertices[iv] == v):
            raise WitnessError(f"pair ({u},{v}) not certified at node {t.idx}")
        if not np.isfinite(wn.matrix[iu, iv]):
            raise WitnessError(f"no path for certified pair ({u},{v})")
        self._expand_local(t, wn, iu, iv, out)

    def _expand_local(self, t: SepTreeNode, wn: WitnessedNode, iu: int, iv: int,
                      out: list[int], depth: int = 0) -> None:
        if depth > 4 * self.graph.n:
            raise WitnessError("witness expansion runaway")
        if iu == iv:
            return
        if wn.is_leaf:
            self._expand_leaf(wn, iu, iv, out)
            return
        k = int(wn.kind[iu, iv])
        if k == _SELF:
            return
        if k in (_DIRECT0, _DIRECT1):
            child = self.tree.nodes[t.children[k]]
            self._expand_node_pair(child, int(wn.vertices[iu]), int(wn.vertices[iv]), out)
            return
        # VIA: u → s1 (direct), s1 ⇝ s2 (separator clique), s2 → v (direct).
        s1 = int(wn.sep_positions[wn.via_s1[iu, iv]])
        s2 = int(wn.sep_positions[wn.via_s2[iu, iv]])
        self._expand_direct(t, wn, iu, s1, out, depth)
        self._expand_sep(t, wn, int(wn.via_s1[iu, iv]), int(wn.via_s2[iu, iv]), out, depth)
        self._expand_direct(t, wn, s2, iv, out, depth)

    def _expand_direct(self, t: SepTreeNode, wn: WitnessedNode, i: int, j: int,
                       out: list[int], depth: int) -> None:
        """Expand a Direct (child-inherited) entry ``i→j``."""
        if i == j:
            return
        k = int(wn.kind[i, j]) if wn.kind is not None else _DIRECT0
        if k == _VIA:
            # A Direct factor is, by construction, never attributed VIA —
            # but the ⊕ in the matrix may have replaced it.  Recompute from
            # the child matrices instead.
            k = self._direct_child_of(t, wn, i, j)
        child = self.tree.nodes[t.children[k]]
        self._expand_node_pair(child, int(wn.vertices[i]), int(wn.vertices[j]), out)

    def _direct_child_of(self, t: SepTreeNode, wn: WitnessedNode, i: int, j: int) -> int:
        u, v = int(wn.vertices[i]), int(wn.vertices[j])
        best, slot = np.inf, 0
        for s, c in enumerate(t.children):
            cn = self.nodes[c]
            pu = int(np.searchsorted(cn.vertices, u))
            pv = int(np.searchsorted(cn.vertices, v))
            if (
                pu < cn.vertices.shape[0] and cn.vertices[pu] == u
                and pv < cn.vertices.shape[0] and cn.vertices[pv] == v
                and cn.matrix[pu, pv] < best
            ):
                best, slot = cn.matrix[pu, pv], s
        return slot

    def _expand_sep(self, t: SepTreeNode, wn: WitnessedNode, si: int, sj: int,
                    out: list[int], depth: int) -> None:
        """Expand a separator-clique entry ``S[si] ⇝ S[sj]`` through the FW
        via matrix, bottoming out at W_S base edges (child segments)."""
        if si == sj:
            return
        mid = int(wn.ds_via[si, sj])
        if mid < 0:
            # Base edge of H_S: a child-inherited segment.
            i = int(wn.sep_positions[si])
            j = int(wn.sep_positions[sj])
            k = int(wn.ds_kind[si, sj])
            if k == _SELF:
                return
            child = self.tree.nodes[t.children[k if k in (0, 1) else 0]]
            self._expand_node_pair(child, int(wn.vertices[i]), int(wn.vertices[j]), out)
            return
        self._expand_sep(t, wn, si, mid, out, depth + 1)
        self._expand_sep(t, wn, mid, sj, out, depth + 1)

    def _expand_leaf(self, wn: WitnessedNode, iu: int, iv: int, out: list[int]) -> None:
        mid = int(wn.leaf_via[iu, iv])
        if mid < 0:
            out.append(int(wn.vertices[iv]))
            return
        self._expand_leaf(wn, iu, mid, out)
        self._expand_leaf(wn, mid, iv, out)

    # ------------------------------------------------------------------ #
    # Global pair queries (the DistanceOracle recursion with argmins)
    # ------------------------------------------------------------------ #

    def path(self, u: int, v: int) -> list[int] | None:
        """Explicit minimum-weight ``u→v`` path in ``G`` (vertex list), or
        ``None`` when unreachable."""
        u, v = int(u), int(v)
        if u == v:
            return [u]
        dist, out = self._pair_path(self.tree.root, u, v)
        if not np.isfinite(dist):
            return None
        return [u] + out

    def distance(self, u: int, v: int) -> float:
        """Exact ``dist_G(u, v)`` via the witness recursion."""
        d, _ = self._pair_path(self.tree.root, int(u), int(v))
        return float(d)

    def _labeled(self, t: SepTreeNode, x: int) -> int | None:
        wn = self.nodes[t.idx]
        p = int(np.searchsorted(wn.vertices, x))
        if p < wn.vertices.shape[0] and wn.vertices[p] == x:
            return p
        return None

    def _child_containing(self, t: SepTreeNode, x: int) -> SepTreeNode:
        for c in t.children:
            child = self.tree.nodes[c]
            p = int(np.searchsorted(child.vertices, x))
            if p < child.vertices.shape[0] and child.vertices[p] == x:
                return child
        raise KeyError(x)

    def _to_boundary(self, t: SepTreeNode, x: int) -> np.ndarray:
        """dist_{G(t)}(x, b) over b ∈ B(t); paths recoverable via
        `_expand_to_boundary`."""
        wn = self.nodes[t.idx]
        p = self._labeled(t, x)
        bpos = np.searchsorted(wn.vertices, t.boundary)
        if p is not None:
            return wn.matrix[p, bpos]
        c = self._child_containing(t, x)
        vec = self._to_boundary(c, x)
        if vec.size == 0:
            return np.full(t.boundary.shape[0], np.inf)
        mid = wn.matrix[np.ix_(np.searchsorted(wn.vertices, c.boundary), bpos)]
        return np.min(vec[:, None] + mid, axis=0)

    def _from_boundary(self, t: SepTreeNode, x: int) -> np.ndarray:
        wn = self.nodes[t.idx]
        p = self._labeled(t, x)
        bpos = np.searchsorted(wn.vertices, t.boundary)
        if p is not None:
            return wn.matrix[bpos, p]
        c = self._child_containing(t, x)
        vec = self._from_boundary(c, x)
        if vec.size == 0:
            return np.full(t.boundary.shape[0], np.inf)
        mid = wn.matrix[np.ix_(bpos, np.searchsorted(wn.vertices, c.boundary))]
        return np.min(mid + vec[None, :], axis=1)

    def _expand_to_boundary(self, t: SepTreeNode, x: int, b_idx: int, out: list[int]) -> None:
        """Append an optimal path ``x → B(t)[b_idx]`` within G(t)."""
        p = self._labeled(t, x)
        b = int(t.boundary[b_idx])
        if p is not None:
            self._expand_node_pair(t, x, b, out)
            return
        c = self._child_containing(t, x)
        vec = self._to_boundary(c, x)
        wn = self.nodes[t.idx]
        mid = wn.matrix[
            np.ix_(
                np.searchsorted(wn.vertices, c.boundary),
                np.searchsorted(wn.vertices, t.boundary),
            )
        ]
        j = int(np.argmin(vec + mid[:, b_idx]))
        self._expand_to_boundary(c, x, j, out)
        self._expand_node_pair(t, int(c.boundary[j]), b, out)

    def _expand_from_boundary(self, t: SepTreeNode, b_idx: int, x: int, out: list[int]) -> None:
        p = self._labeled(t, x)
        b = int(t.boundary[b_idx])
        if p is not None:
            self._expand_node_pair(t, b, x, out)
            return
        c = self._child_containing(t, x)
        vec = self._from_boundary(c, x)
        wn = self.nodes[t.idx]
        mid = wn.matrix[
            np.ix_(
                np.searchsorted(wn.vertices, t.boundary),
                np.searchsorted(wn.vertices, c.boundary),
            )
        ]
        j = int(np.argmin(mid[b_idx, :] + vec))
        self._expand_node_pair(t, b, int(c.boundary[j]), out)
        self._expand_from_boundary(c, j, x, out)

    def _pair_path(self, t: SepTreeNode, u: int, v: int) -> tuple[float, list[int]]:
        """(dist_{G(t)}(u, v), path-suffix after u)."""
        wn = self.nodes[t.idx]
        iu, iv = self._labeled(t, u), self._labeled(t, v)
        if iu is not None and iv is not None:
            d = float(wn.matrix[iu, iv])
            out: list[int] = []
            if np.isfinite(d) and u != v:
                self._expand_node_pair(t, u, v, out)
            return d, out
        if iu is not None:
            c = self._child_containing(t, v)
            head = wn.matrix[iu, np.searchsorted(wn.vertices, c.boundary)]
            tail = self._from_boundary(c, v)
            if head.size == 0 or not np.isfinite((head + tail).min(initial=np.inf)):
                return np.inf, []
            j = int(np.argmin(head + tail))
            out = []
            self._expand_node_pair(t, u, int(c.boundary[j]), out)
            self._expand_from_boundary(c, j, v, out)
            return float((head + tail)[j]), out
        if iv is not None:
            c = self._child_containing(t, u)
            head = self._to_boundary(c, u)
            tail = wn.matrix[np.searchsorted(wn.vertices, c.boundary), iv]
            if head.size == 0 or not np.isfinite((head + tail).min(initial=np.inf)):
                return np.inf, []
            j = int(np.argmin(head + tail))
            out = []
            self._expand_to_boundary(c, u, j, out)
            self._expand_node_pair(t, int(c.boundary[j]), v, out)
            return float((head + tail)[j]), out
        cu = self._child_containing(t, u)
        cv = self._child_containing(t, v)
        if cu.idx == cv.idx:
            inner_d, inner_path = self._pair_path(cu, u, v)
        else:
            inner_d, inner_path = np.inf, []
        head = self._to_boundary(cu, u)
        tail = self._from_boundary(cv, v)
        via_d = np.inf
        b1 = b2 = -1
        if head.size and tail.size:
            wnm = wn.matrix[
                np.ix_(
                    np.searchsorted(wn.vertices, cu.boundary),
                    np.searchsorted(wn.vertices, cv.boundary),
                )
            ]
            total = head[:, None] + wnm + tail[None, :]
            flat = int(np.argmin(total))
            b1, b2 = np.unravel_index(flat, total.shape)
            via_d = float(total[b1, b2])
        if inner_d <= via_d:
            return inner_d, inner_path
        out = []
        self._expand_to_boundary(cu, u, int(b1), out)
        self._expand_node_pair(t, int(cu.boundary[int(b1)]), int(cv.boundary[int(b2)]), out)
        self._expand_from_boundary(cv, int(b2), v, out)
        return via_d, out
