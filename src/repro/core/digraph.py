"""Weighted directed graph substrate.

Edge-array representation tuned for the vectorized kernels in this package:
the graph is three parallel numpy arrays ``(src, dst, weight)`` plus the
vertex count.  CSR-style adjacency indexes (out- and in-) and the undirected
skeleton are built lazily and cached, since separator construction only needs
the skeleton while the shortest-path kernels only need the edge arrays.

Vertices are integers ``0..n-1``.  Parallel edges are allowed in the input
(queries see the minimum-weight one by construction of the relaxation
kernels); self loops are allowed but never useful for min-plus queries unless
negative, in which case they are a negative cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["WeightedDigraph", "CSRAdjacency"]


@dataclass(frozen=True)
class CSRAdjacency:
    """Compressed sparse row adjacency: neighbors/weights of vertex ``v`` are
    ``indices[indptr[v]:indptr[v+1]]`` / ``weights[indptr[v]:indptr[v+1]]``,
    and ``edge_ids`` gives the position of each entry in the owning graph's
    edge arrays."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    edge_ids: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacent vertex ids of ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Number of incident entries at ``v`` in this direction."""
        return int(self.indptr[v + 1] - self.indptr[v])


def _build_csr(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> CSRAdjacency:
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(
        indptr=indptr,
        indices=dst[order],
        weights=weight[order],
        edge_ids=order,
    )


class WeightedDigraph:
    """A weighted digraph ``G = (V, E)`` with real edge weights.

    Parameters
    ----------
    n:
        Number of vertices.
    src, dst:
        Integer arrays of equal length ``m``; edge ``i`` is ``src[i]->dst[i]``.
    weight:
        Float array of length ``m``; ``None`` means unit weights.
    """

    __slots__ = ("n", "src", "dst", "weight", "_out", "_in", "_skeleton", "_rest")

    def __init__(
        self,
        n: int,
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        weight: np.ndarray | Sequence[float] | None = None,
    ) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if weight is None:
            weight = np.ones(src.shape[0], dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != src.shape:
                raise ValueError("weight must match src/dst length")
        if src.size and (src.min(initial=0) < 0 or dst.min(initial=0) < 0):
            raise ValueError("negative vertex id")
        if src.size and (src.max(initial=-1) >= n or dst.max(initial=-1) >= n):
            raise ValueError("vertex id out of range")
        self.n = int(n)
        self.src = src
        self.dst = dst
        self.weight = weight
        self._out: CSRAdjacency | None = None
        self._in: CSRAdjacency | None = None
        self._skeleton: CSRAdjacency | None = None
        #: Last ``G ∖ S`` component labelling (:func:`repro.core.septree.rest_labels`).
        self._rest: tuple | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int] | tuple[int, int, float]]
    ) -> "WeightedDigraph":
        """Build from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
        src, dst, w = [], [], []
        for e in edges:
            src.append(e[0])
            dst.append(e[1])
            w.append(e[2] if len(e) > 2 else 1.0)
        return cls(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(w))

    @classmethod
    def from_networkx(cls, g) -> "WeightedDigraph":
        """Build from a networkx (Di)Graph with integer nodes ``0..n-1``;
        undirected edges become one edge per direction."""
        import networkx as nx

        n = g.number_of_nodes()
        if set(g.nodes) != set(range(n)):
            raise ValueError("networkx graph must have nodes 0..n-1")
        src, dst, w = [], [], []
        for u, v, data in g.edges(data=True):
            wt = float(data.get("weight", 1.0))
            src.append(u)
            dst.append(v)
            w.append(wt)
            if not isinstance(g, nx.DiGraph):
                src.append(v)
                dst.append(u)
                w.append(wt)
        return cls(n, src, dst, w)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "WeightedDigraph":
        """Build from a dense weight matrix; ``inf`` entries mean no edge and
        the diagonal is ignored."""
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        n = a.shape[0]
        mask = np.isfinite(a)
        np.fill_diagonal(mask, False)
        src, dst = np.nonzero(mask)
        return cls(n, src, dst, a[mask])

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.src.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedDigraph(n={self.n}, m={self.m})"

    def has_negative_weights(self) -> bool:
        """Whether any edge weight is negative."""
        return bool(self.m and self.weight.min() < 0)

    # ------------------------------------------------------------------ #
    # Cached adjacency structures
    # ------------------------------------------------------------------ #

    @property
    def out_adj(self) -> CSRAdjacency:
        if self._out is None:
            self._out = _build_csr(self.n, self.src, self.dst, self.weight)
        return self._out

    @property
    def in_adj(self) -> CSRAdjacency:
        if self._in is None:
            self._in = _build_csr(self.n, self.dst, self.src, self.weight)
        return self._in

    @property
    def skeleton(self) -> CSRAdjacency:
        """Undirected, unweighted skeleton (each edge in both directions).

        The separator decomposition depends only on this structure
        (paper comment (iv)); weights in the returned CSR are all 1.
        """
        if self._skeleton is None:
            s = np.concatenate([self.src, self.dst])
            d = np.concatenate([self.dst, self.src])
            w = np.ones(s.shape[0], dtype=np.float64)
            self._skeleton = _build_csr(self.n, s, d, w)
        return self._skeleton

    # ------------------------------------------------------------------ #
    # Subgraphs and views
    # ------------------------------------------------------------------ #

    def edge_membership(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean mask over edges with *both* endpoints in ``vertices``."""
        member = np.zeros(self.n, dtype=bool)
        member[vertices] = True
        return member[self.src] & member[self.dst]

    def induced_subgraph(self, vertices: np.ndarray) -> tuple["WeightedDigraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, vertices)`` where the subgraph's vertex ``i``
        corresponds to ``vertices[i]`` in ``self`` (the mapping array is the
        sorted unique copy actually used).
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[vertices] = np.arange(vertices.shape[0])
        mask = self.edge_membership(vertices)
        sub = WeightedDigraph(
            vertices.shape[0], relabel[self.src[mask]], relabel[self.dst[mask]], self.weight[mask]
        )
        return sub, vertices

    def dense_weights(self) -> np.ndarray:
        """Dense min-plus weight matrix: ``W[u, v]`` is the minimum weight of
        a ``u->v`` edge, ``0`` on the diagonal, ``inf`` elsewhere."""
        w = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(w, 0.0)
        np.minimum.at(w, (self.src, self.dst), self.weight)
        return w

    def reverse(self) -> "WeightedDigraph":
        """Graph with every edge reversed (shares the underlying arrays)."""
        return WeightedDigraph(self.n, self.dst, self.src, self.weight)

    def with_extra_edges(
        self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> "WeightedDigraph":
        """New graph with extra edges appended (used for ``G+ = G ∪ E+``)."""
        return WeightedDigraph(
            self.n,
            np.concatenate([self.src, np.asarray(src, dtype=np.int64)]),
            np.concatenate([self.dst, np.asarray(dst, dtype=np.int64)]),
            np.concatenate([self.weight, np.asarray(weight, dtype=np.float64)]),
        )

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """networkx DiGraph view (parallel edges collapsed to min weight)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        for u, v, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()):
            if g.has_edge(u, v):
                if w < g[u][v]["weight"]:
                    g[u][v]["weight"] = w
            else:
                g.add_edge(u, v, weight=w)
        return g

    def to_scipy_csr(self):
        """Min-plus collapsed sparse matrix (parallel edges take min weight).

        Note: scipy sparse sums duplicates, which is wrong for min-plus, so we
        deduplicate explicitly first.
        """
        import scipy.sparse as sp

        key = self.src * self.n + self.dst
        order = np.lexsort((self.weight, key))
        key_sorted = key[order]
        first = np.ones(key_sorted.shape[0], dtype=bool)
        first[1:] = key_sorted[1:] != key_sorted[:-1]
        idx = order[first]
        return sp.csr_matrix(
            (self.weight[idx], (self.src[idx], self.dst[idx])), shape=(self.n, self.n)
        )
