"""Point-to-point distance oracle over the separator decomposition.

Paper §6 builds a *compact routing table* representation of all-pairs
shortest paths and answers k pair queries with O(k log n) extra work.  The
general-graph analog shipped here uses the per-node distance matrices the
augmentation already certifies (``dist_{G(t)}`` on ``(S(t) ∪ B(t))²``,
Propositions 4.2/4.5) and answers a ``dist(u, v)`` query by recursing down
the tree:

* ``dist_{G(t)}(u, v)`` with both endpoints labeled at ``t`` is a matrix
  lookup;
* an interior endpoint is projected to its child's boundary —
  Prop 2.1(ii): every path entering or leaving ``V(c)`` crosses ``B(c)``,
  so ``dist_{G(t)}(u, ·) = min_{b∈B(c)} dist_{G(c)}(u, b) +
  dist_{G(t)}(b, ·)`` — and the recursion bottoms out at leaf APSP.

A query touches one root-leaf path per endpoint and multiplies O(|B|)-sized
vectors: O(n^{2μ} log n) time, no per-pair preprocessing — the analog of the
paper's k-pair bound (O(q² log q + n log²n) preprocessing + O(k log n)
queries) with the hammock factor replaced by the boundary factor.
"""

from __future__ import annotations

import numpy as np

from ..core.augment import Augmentation
from ..core.semiring import Semiring
from ..core.septree import SeparatorTree, SepTreeNode

__all__ = ["DistanceOracle"]


class DistanceOracle:
    """k-pair distance oracle built on a kept-matrices augmentation."""

    def __init__(self, aug: Augmentation) -> None:
        if not aug.node_distances:
            raise ValueError(
                "augmentation was built with keep_node_distances=False; "
                "rebuild with keep_node_distances=True"
            )
        self.aug = aug
        self.tree: SeparatorTree = aug.tree
        self.semiring: Semiring = aug.semiring
        self._nd = aug.node_distances

    # -------------------------------------------------------------- #

    @classmethod
    def build(cls, graph, tree, *, semiring=None) -> "DistanceOracle":
        from ..core.leaves_up import augment_leaves_up
        from ..core.semiring import MIN_PLUS

        return cls(augment_leaves_up(graph, tree, semiring or MIN_PLUS, keep_node_distances=True))

    def with_new_weights(self, weight=None, *, weight_delta=None) -> "DistanceOracle":
        """A fresh pair oracle for new edge weights on the same skeleton —
        the certified per-node matrices are replayed through the build's
        retained provenance (:class:`~repro.core.reweight.ReweightPlan`),
        never re-derived from a separator recursion.  Pass either
        ``weight`` (the full edge-order vector) or ``weight_delta`` (a
        ``{edge_id: new_weight}`` mapping or ``(edge_ids, new_weights)``
        pair of absolute assignments, per
        :func:`~repro.core.reweight.apply_weight_delta`).  The plan is
        captured from graph and tree, so any lineage replays.
        """
        from ..core.reweight import ReweightPlan, apply_weight_delta

        if (weight is None) == (weight_delta is None):
            raise ValueError("pass exactly one of weight or weight_delta")
        g = self.aug.graph
        dirty = None
        if weight_delta is not None:
            new_graph, dirty = apply_weight_delta(g, weight_delta)
        else:
            new_graph = type(g)(g.n, g.src, g.dst, np.asarray(weight, dtype=g.weight.dtype))
        # the retained heap carries its plan; without one, capture it and
        # run densely (the result then carries both)
        base_state = getattr(self.aug, "_reweight_state", None)
        if base_state is not None:
            plan = base_state.plan
        else:
            plan = ReweightPlan.capture(g, self.tree)
            dirty = None
        aug = plan.run(
            new_graph,
            self.semiring,
            base_state=base_state,
            dirty_edges=dirty,
            keep_node_distances=True,
        )
        aug.weights_epoch = getattr(self.aug, "weights_epoch", 0) + 1
        return DistanceOracle(aug)

    # -------------------------------------------------------------- #

    def distance(self, u: int, v: int) -> float:
        """Exact ``dist_G(u, v)``."""
        return float(self._pair(self.tree.root, int(u), int(v)))

    def distances(self, pairs) -> np.ndarray:
        """Distances for an iterable of ``(u, v)`` pairs."""
        return np.array([self.distance(u, v) for u, v in pairs], dtype=self.semiring.dtype)

    def path(self, u: int, v: int, *, atol: float = 1e-9) -> list[int] | None:
        """An explicit minimum-weight ``u→v`` path over original edges,
        recovered greedily: from ``x``, follow any edge ``(x, y)`` with
        ``w(x, y) + dist(y, v) = dist(x, v)`` (such an edge always exists on
        a shortest path).  Costs O(path length · out-degree) point queries —
        the routing-table usage pattern of §6.  Min-plus semirings only."""
        if self.semiring.name not in ("min-plus", "hops"):
            raise ValueError("path extraction requires a min-plus-like semiring")
        u, v = int(u), int(v)
        remaining = self.distance(u, v)
        if not np.isfinite(remaining):
            return None
        path = [u]
        adj = self.aug.graph.out_adj
        x = u
        for _ in range(self.aug.graph.n * 2):
            if x == v and abs(remaining) <= atol:
                return path
            nbrs = adj.neighbors(x)
            ws = adj.neighbor_weights(x)
            nxt = -1
            for y, w in zip(nbrs.tolist(), ws.tolist()):
                tail = self.distance(y, v)
                if np.isfinite(tail) and abs(w + tail - remaining) <= atol + 1e-12 * abs(remaining):
                    # Prefer strict progress (positive-weight step) to avoid
                    # pacing around zero-weight cycles.
                    nxt = y
                    remaining_next = tail
                    if w > atol:
                        break
            if nxt < 0:
                raise AssertionError("tight-edge walk stalled (inconsistent oracle)")
            path.append(nxt)
            x = nxt
            remaining = remaining_next
        raise AssertionError("tight-edge walk exceeded 2n steps (zero-weight cycle)")

    # -------------------------------------------------------------- #
    # Internals — all distances below are within G(t) for the node t at
    # hand; the root call therefore answers the global query.
    # -------------------------------------------------------------- #

    def _labeled_index(self, t: SepTreeNode, u: int) -> int | None:
        """Position of ``u`` in the node's certified matrix, or None."""
        nd = self._nd[t.idx]
        pos = int(np.searchsorted(nd.vertices, u))
        if pos < nd.vertices.shape[0] and nd.vertices[pos] == u:
            return pos
        return None

    def _child_containing(self, t: SepTreeNode, u: int) -> SepTreeNode:
        for c in t.children:
            child = self.tree.nodes[c]
            pos = int(np.searchsorted(child.vertices, u))
            if pos < child.vertices.shape[0] and child.vertices[pos] == u:
                return child
        raise KeyError(f"vertex {u} not in any child of node {t.idx}")

    def _to_boundary(self, t: SepTreeNode, u: int) -> np.ndarray:
        """Vector ``dist_{G(t)}(u, b)`` over ``b ∈ B(t)`` (in B(t) order)."""
        sr = self.semiring
        nd = self._nd[t.idx]
        iu = self._labeled_index(t, u)
        if iu is not None:
            return nd.matrix[iu, nd.index_of(t.boundary)]
        if t.is_leaf:
            raise KeyError(f"vertex {u} missing from leaf {t.idx}")
        c = self._child_containing(t, u)
        vec = self._to_boundary(c, u)  # over B(c)
        if vec.size == 0:
            return np.full(t.boundary.shape[0], sr.zero, dtype=sr.dtype)
        mid = nd.submatrix(c.boundary, t.boundary)  # dist_{G(t)} on B(c)×B(t)
        return sr.add_reduce(sr.mul(vec[:, None], mid), axis=0)

    def _from_boundary(self, t: SepTreeNode, v: int) -> np.ndarray:
        """Vector ``dist_{G(t)}(b, v)`` over ``b ∈ B(t)``."""
        sr = self.semiring
        nd = self._nd[t.idx]
        iv = self._labeled_index(t, v)
        if iv is not None:
            return nd.matrix[nd.index_of(t.boundary), iv]
        if t.is_leaf:
            raise KeyError(f"vertex {v} missing from leaf {t.idx}")
        c = self._child_containing(t, v)
        vec = self._from_boundary(c, v)
        if vec.size == 0:
            return np.full(t.boundary.shape[0], sr.zero, dtype=sr.dtype)
        mid = nd.submatrix(t.boundary, c.boundary)
        return sr.add_reduce(sr.mul(mid, vec[None, :]), axis=1)

    def _pair(self, t: SepTreeNode, u: int, v: int):
        """``dist_{G(t)}(u, v)``; both vertices must lie in ``V(t)``."""
        sr = self.semiring
        nd = self._nd[t.idx]
        iu, iv = self._labeled_index(t, u), self._labeled_index(t, v)
        if iu is not None and iv is not None:
            return nd.matrix[iu, iv]
        if t.is_leaf:  # pragma: no cover - labeled_index covers all leaf vertices
            raise KeyError("leaf query fell through")
        def reduce_or_zero(arr: np.ndarray):
            return sr.add_reduce(arr.ravel()) if arr.size else sr.zero

        if iu is not None:
            # v is interior to a child c; the path's suffix stays in G(c)
            # after its last B(c) crossing.
            c = self._child_containing(t, v)
            head = nd.matrix[iu, nd.index_of(c.boundary)]  # dist_{G(t)}(u, B(c))
            tail = self._from_boundary(c, v)
            return reduce_or_zero(sr.mul(head, tail))
        if iv is not None:
            c = self._child_containing(t, u)
            head = self._to_boundary(c, u)
            tail = nd.matrix[nd.index_of(c.boundary), iv]
            return reduce_or_zero(sr.mul(head, tail))
        cu = self._child_containing(t, u)
        cv = self._child_containing(t, v)
        head = self._to_boundary(cu, u)
        tail = self._from_boundary(cv, v)
        mid = nd.submatrix(cu.boundary, cv.boundary)
        via = reduce_or_zero(sr.mul(sr.mul(head[:, None], mid), tail[None, :]))
        if cu.idx == cv.idx:
            # Paths that never leave the child are not forced through B(c).
            inner = self._pair(cu, u, v)
            return sr.add(via, inner)
        return via
