"""The augmentation ``E⁺`` (paper §3.1) — shared data structures.

For every tree node ``t``, ``E_t = B(t)×B(t) ∪ S(t)×S(t)`` weighted with
exact distances *inside the node's subgraph* ``G(t)``; the augmentation is
``E⁺ = ⋃_t E_t`` (parallel edges collapsed to minimum weight).  Theorem 3.1:
``G⁺ = (V, E ∪ E⁺)`` preserves all distances and has minimum-weight diameter
at most ``4·d_G + 2ℓ + 1``.

Two algorithms produce the node distance matrices.  Algorithm 4.3
(:mod:`.doubling`) delivers a :class:`NodeDistances` per node and this
module assembles and deduplicates the edge set; Algorithm 4.1
(:mod:`.leaves_up`) runs as one stacked sweep per tree level
(:mod:`.reweight`) that assembles E⁺ itself, in the same order.  Either
way the result is an :class:`Augmentation` carrying the per-node matrices
(for path reconstruction and the planar pipeline) when asked to keep them,
and a negative cycle raises :class:`NegativeCycleDetected`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pram.machine import NULL_LEDGER, Ledger
from .digraph import WeightedDigraph
from .semiring import MIN_PLUS, Semiring
from .septree import SeparatorTree

__all__ = ["NodeDistances", "Augmentation", "assemble_augmentation", "NegativeCycleDetected"]


class NegativeCycleDetected(ValueError):
    """A negative-weight cycle was certified during augmentation."""

    def __init__(self, node_idx: int, vertex: int):
        self.node_idx = node_idx
        self.vertex = vertex
        super().__init__(
            f"negative cycle through vertex {vertex} detected at tree node {node_idx}"
        )


@dataclass
class NodeDistances:
    """Distances within ``G(t)`` restricted to the node's labeled vertices.

    ``vertices`` is sorted (global ids); ``matrix[i, j]`` is
    ``dist_{G(t)}(vertices[i], vertices[j])`` — exact at least on the pairs
    promised by the producing algorithm (``B×B ∪ S×S`` for Algorithm 4.1,
    all of ``(S∪B)²`` for Algorithm 4.3).
    """

    node_idx: int
    vertices: np.ndarray
    matrix: np.ndarray

    def index_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Positions of ``global_ids`` within ``vertices`` (must be present)."""
        pos = np.searchsorted(self.vertices, global_ids)
        if pos.size and (
            (pos >= self.vertices.shape[0]).any() or (self.vertices[pos] != global_ids).any()
        ):
            raise KeyError("vertex not labeled at this node")
        return pos

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distance block for the given global-id rows × cols."""
        return self.matrix[np.ix_(self.index_of(rows), self.index_of(cols))]


@dataclass
class Augmentation:
    """The assembled augmentation of a graph w.r.t. a separator tree."""

    graph: WeightedDigraph
    tree: SeparatorTree
    semiring: Semiring
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    #: exact per-leaf min-weight diameters; ℓ of Theorem 3.1 is their max.
    leaf_diameters: dict[int, int]
    node_distances: dict[int, NodeDistances] = field(default_factory=dict)
    method: str = ""
    #: Kernel preference (``OracleConfig.kernel``) threaded into every
    #: relaxer and schedule built from this augmentation; ``None`` defers
    #: to the process default (``$REPRO_KERNEL`` /
    #: :func:`~repro.kernels.dispatch.set_default_kernel`).
    kernel: str | None = field(default=None, compare=False)
    #: Monotone counter invalidating per-source distance-row caches (see
    #: :class:`repro.core.query.QueryEngine`): bumped by
    #: ``ShortestPathOracle.with_new_weights`` along a reweighting lineage,
    #: and to be bumped manually by anyone mutating ``weight`` in place.
    weights_epoch: int = field(default=0, compare=False)
    #: The :class:`~repro.pram.shm.ShmArena` hosting the edge arrays when
    #: this augmentation was loaded arena-backed (``repro.io`` /
    #: ``repro.cache``); ``None`` for ordinary private-memory builds.
    arena: object = field(default=None, repr=False, compare=False)
    # Query-path caches: G⁺, its full-edge relaxer and the §3.2 schedule are
    # pure functions of the fields above and expensive to rebuild, so they
    # are constructed at most once per augmentation (every query used to
    # rebuild all three — serialization+setup dominated light query loads).
    _gplus: object = field(default=None, init=False, repr=False, compare=False)
    _relaxer: object = field(default=None, init=False, repr=False, compare=False)
    _schedule: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        """|E⁺| after deduplication."""
        return int(self.src.shape[0])

    @property
    def ell(self) -> int:
        return max(self.leaf_diameters.values(), default=0)

    @property
    def diameter_bound(self) -> int:
        """Theorem 3.1(ii): diam(G⁺) ≤ 4·d_G + 2ℓ + 1."""
        return 4 * self.tree.height + 2 * self.ell + 1

    def augmented_graph(self) -> WeightedDigraph:
        """``G⁺ = (V, E ∪ E⁺)`` (built once, then cached)."""
        if self._gplus is None:
            self._gplus = self.graph.with_extra_edges(self.src, self.dst, self.weight)
        return self._gplus

    def relaxer(self):
        """Full-edge-set :class:`~repro.kernels.bellman_ford.EdgeRelaxer`
        over G⁺ (built once, then cached — sorting its edge layouts would
        otherwise dominate every naive query)."""
        if self._relaxer is None:
            from ..kernels.bellman_ford import EdgeRelaxer  # local: avoids cycle

            self._relaxer = EdgeRelaxer.from_graph(
                self.augmented_graph(), self.semiring, kernel=self.kernel
            )
        return self._relaxer

    def schedule(self):
        """The §3.2 :class:`~repro.core.scheduler.PhaseSchedule` for this
        augmentation (compiled once, then cached)."""
        if self._schedule is None:
            from .scheduler import build_schedule  # local: avoids import cycle

            self._schedule = build_schedule(self)
        return self._schedule

    def combined_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, weight, is_augmented)`` over ``E ∪ E⁺``."""
        g = self.graph
        src = np.concatenate([g.src, self.src])
        dst = np.concatenate([g.dst, self.dst])
        w = np.concatenate([g.weight.astype(self.semiring.dtype), self.weight])
        is_aug = np.zeros(src.shape[0], dtype=bool)
        is_aug[g.m :] = True
        return src, dst, w, is_aug

    def stats(self) -> dict[str, float]:
        """Size/bound summary of the augmentation (plus the separator
        quality of the tree it was built from — see
        :meth:`~repro.core.septree.SeparatorTree.separator_stats`)."""
        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "eplus": self.size,
            "height": self.tree.height,
            "ell": self.ell,
            "diameter_bound": self.diameter_bound,
            "method": self.method,
            "separators": self.tree.separator_stats(),
        }

    def verify_edges(
        self, sample_size: int = 64, rng: np.random.Generator | None = None
    ) -> float:
        """Self-check: recompute a sample of E⁺ edge weights from scratch
        (Bellman–Ford inside the owning node's subgraph) and return the
        maximum absolute deviation.  0 for a healthy augmentation; used by
        failure-injection tests and available to paranoid callers.

        Requires min-plus-like semirings (weights are compared numerically).
        """
        from ..kernels.bellman_ford import bellman_ford

        if self.size == 0:
            return 0.0
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(self.size, size=min(sample_size, self.size), replace=False)
        # Soundness: no E⁺ edge may *under*estimate the true distance
        # (Theorem 3.1(i)'s easy direction) — an underestimate would leak
        # into every query touching the edge.
        sources = np.unique(self.src[idx])
        dist = bellman_ford(self.graph, sources)
        pos = np.searchsorted(sources, self.src[idx])
        under = np.maximum(
            0.0, dist[pos, self.dst[idx]] - self.weight[idx].astype(np.float64)
        )
        # Completeness: *scheduled* queries from sampled sources must
        # reproduce plain Bellman–Ford on G.  (The schedule gives each E⁺
        # edge O(1) scans, so an overestimated shortcut that a query relies
        # on surfaces here; naive capped BF would self-heal via original
        # edges and hide it.)
        from .sssp import sssp_scheduled

        q_sources = np.unique(rng.choice(self.graph.n, size=min(4, self.graph.n), replace=False))
        want = bellman_ford(self.graph, q_sources)
        got = sssp_scheduled(self, q_sources, schedule=self.schedule())
        both_inf = np.isinf(want) & np.isinf(got)
        dev = np.where(both_inf, 0.0, np.abs(got.astype(np.float64) - want))
        dev_max = float(np.nanmax(dev)) if dev.size else 0.0
        return float(max(under.max(initial=0.0), dev_max))


def edges_from_node_matrix(
    nd: NodeDistances,
    boundary: np.ndarray,
    separator: np.ndarray,
    semiring: Semiring,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the ``E_t = B×B ∪ S×S`` weighted pairs from a node's distance
    matrix, dropping 0̄ entries (no path) and self pairs."""
    chunks_s, chunks_d, chunks_w = [], [], []
    for group in (boundary, separator):
        if group.shape[0] < 2:
            continue
        idx = nd.index_of(group)
        block = nd.matrix[np.ix_(idx, idx)]
        k = group.shape[0]
        rows = np.repeat(group, k)
        cols = np.tile(group, k)
        w = block.reshape(-1)
        keep = rows != cols
        if semiring.dtype == np.dtype(bool):
            keep &= w.astype(bool)
        else:
            keep &= w != semiring.zero
        chunks_s.append(rows[keep])
        chunks_d.append(cols[keep])
        chunks_w.append(w[keep])
    if not chunks_s:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=semiring.dtype)
    return (
        np.concatenate(chunks_s),
        np.concatenate(chunks_d),
        np.concatenate(chunks_w),
    )


def dedupe_edges(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    semiring: Semiring,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse parallel edges, keeping the ⊕-best weight per (src, dst)
    (the paper keeps only the minimum-weight parallel edge in E⁺)."""
    if src.size == 0:
        return src, dst, weight
    key = src.astype(np.int64) * n + dst
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    w_s = weight[order]
    boundaries = np.ones(key_s.shape[0], dtype=bool)
    boundaries[1:] = key_s[1:] != key_s[:-1]
    starts = np.nonzero(boundaries)[0]
    best = semiring.add.reduceat(w_s, starts)
    uniq = key_s[starts]
    return (uniq // n).astype(np.int64), (uniq % n).astype(np.int64), best


def assemble_augmentation(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    node_distances: dict[int, NodeDistances],
    leaf_diameters: dict[int, int],
    semiring: Semiring = MIN_PLUS,
    *,
    method: str,
    keep_node_distances: bool = True,
    ledger: Ledger = NULL_LEDGER,
) -> Augmentation:
    """Collect every node's ``E_t`` and deduplicate into ``E⁺``."""
    all_s, all_d, all_w = [], [], []
    for t in tree.nodes:
        nd = node_distances.get(t.idx)
        if nd is None:
            continue
        s, d, w = edges_from_node_matrix(nd, t.boundary, t.separator, semiring)
        all_s.append(s)
        all_d.append(d)
        all_w.append(w)
    if all_s:
        src = np.concatenate(all_s)
        dst = np.concatenate(all_d)
        wgt = np.concatenate(all_w)
    else:  # pragma: no cover - degenerate single-leaf tree
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        wgt = np.empty(0, dtype=semiring.dtype)
    src, dst, wgt = dedupe_edges(graph.n, src, dst, wgt, semiring)
    ledger.charge(work=max(1.0, float(src.shape[0])), depth=1.0, label="assemble-eplus")
    return Augmentation(
        graph=graph,
        tree=tree,
        semiring=semiring,
        src=src,
        dst=dst,
        weight=wgt,
        leaf_diameters=leaf_diameters,
        node_distances=node_distances if keep_node_distances else {},
        method=method,
    )
