"""Hammock decompositions (Frederickson; paper §6).

A *hammock decomposition* splits a planar graph with all vertices on ``q``
faces into O(q) *hammocks*: outerplanar subgraphs attached to the rest of
the graph through at most four *attachment vertices* each, with total size
O(n).  The paper plugs its separator machinery into the O(q)-size graph
``G'`` built from hammock-contracted distances.

Full Frederickson machinery (linear-time decomposition of arbitrary
embedded graphs) is out of scope; per the substitution rule we (a) provide a
*generator* that composes explicit hammock structures — so the q-face family
is available with ground truth — and (b) recover decompositions of
cut-vertex-glued instances via biconnected components, verifying the
defining invariants (coverage, ≤4 attachments, outerplanar interiors) in
:meth:`HammockDecomposition.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.digraph import WeightedDigraph
from .outerplanar import is_outerplanar, random_outerplanar_digraph

__all__ = [
    "Hammock",
    "HammockDecomposition",
    "ring_of_hammocks",
    "chain_of_hammocks",
    "recover_hammocks",
]


@dataclass
class Hammock:
    """One hammock: its vertex set and ≤4 attachment vertices (global ids).
    Non-attachment vertices are *interior* and belong to no other hammock."""

    vertices: np.ndarray
    attachments: np.ndarray

    @property
    def interior(self) -> np.ndarray:
        return np.setdiff1d(self.vertices, self.attachments, assume_unique=False)


@dataclass
class HammockDecomposition:
    graph: WeightedDigraph
    hammocks: list[Hammock]

    @property
    def q(self) -> int:
        return len(self.hammocks)

    def attachment_vertices(self) -> np.ndarray:
        """Sorted union of all hammocks' attachment vertices."""
        if not self.hammocks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([h.attachments for h in self.hammocks]))

    def validate(self) -> list[str]:
        """Check the defining invariants; returns the violations."""
        problems: list[str] = []
        g = self.graph
        covered = np.zeros(g.n, dtype=np.int64)
        interior_owner = np.full(g.n, -1, dtype=np.int64)
        for i, h in enumerate(self.hammocks):
            if h.attachments.shape[0] > 4:
                problems.append(f"hammock {i}: {h.attachments.shape[0]} > 4 attachments")
            if not np.isin(h.attachments, h.vertices).all():
                problems.append(f"hammock {i}: attachments not in vertex set")
            covered[h.vertices] += 1
            inter = h.interior
            owned = interior_owner[inter]
            if (owned >= 0).any():
                problems.append(f"hammock {i}: interior overlaps hammock {owned.max()}")
            interior_owner[inter] = i
            sub, _ = g.induced_subgraph(h.vertices)
            if not is_outerplanar(sub):
                problems.append(f"hammock {i}: not outerplanar")
        if (covered == 0).any():
            problems.append("some vertices belong to no hammock")
        # Interiors must touch the rest of the graph only through attachments.
        member = np.full(g.n, -1, dtype=np.int64)
        for i, h in enumerate(self.hammocks):
            member[h.interior] = i
        for u, v in zip(g.src.tolist(), g.dst.tolist()):
            mu, mv = member[u], member[v]
            if mu >= 0 and mv >= 0 and mu != mv:
                problems.append(f"edge {u}->{v} joins interiors of hammocks {mu} and {mv}")
            if mu >= 0 and mv < 0 and interior_owner[v] < 0:
                # v is an attachment (interior nowhere); it must be an
                # attachment *of hammock mu*.
                if v not in self.hammocks[mu].attachments:
                    problems.append(f"edge {u}->{v} leaves hammock {mu} off-attachment")
        return problems


def ring_of_hammocks(
    q: int,
    hammock_size: int,
    rng: np.random.Generator,
    *,
    chord_fraction: float = 0.5,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> tuple[WeightedDigraph, HammockDecomposition]:
    """Compose ``q`` random outerplanar hammocks into a ring, adjacent
    hammocks sharing one attachment vertex.

    The result is planar with all vertices on O(q) faces (each hammock's
    outer face plus the ring face), which is exactly the §6 input family;
    the ground-truth decomposition is returned alongside.
    """
    if q < 2:
        raise ValueError("need at least two hammocks")
    if hammock_size < 3:
        raise ValueError("hammock_size must be >= 3")
    blocks = [random_outerplanar_digraph(hammock_size, rng, chord_fraction=chord_fraction, weight_range=weight_range) for _ in range(q)]
    # Global ids: hammock i occupies a contiguous chunk, then adjacent
    # chunks are glued by identifying the last vertex of block i with the
    # first vertex of block i+1 (mod q).
    sizes = [b.n for b in blocks]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    total = int(sum(sizes))
    # Union-find style identification of shared attachment vertices.
    alias = np.arange(total, dtype=np.int64)
    for i in range(q):
        last_of_i = offsets[i] + sizes[i] - 1
        first_of_next = offsets[(i + 1) % q]
        alias[last_of_i] = first_of_next if (i + 1) % q != 0 else offsets[0]
    # The wrap-around gluing aliases the last vertex of the last block to
    # the first vertex of block 0.
    # Compact relabeling.
    roots = alias.copy()
    for _ in range(2):  # alias chains have length ≤ 2
        roots = alias[roots]
    uniq, compact = np.unique(roots, return_inverse=True)
    n = uniq.shape[0]
    src_parts, dst_parts, w_parts = [], [], []
    hammocks: list[Hammock] = []
    for i, b in enumerate(blocks):
        glob = compact[offsets[i] : offsets[i] + b.n]
        src_parts.append(glob[b.src])
        dst_parts.append(glob[b.dst])
        w_parts.append(b.weight)
        att = np.unique(np.array([glob[0], glob[b.n - 1]], dtype=np.int64))
        hammocks.append(Hammock(vertices=np.unique(glob), attachments=att))
    g = WeightedDigraph(
        n, np.concatenate(src_parts), np.concatenate(dst_parts), np.concatenate(w_parts)
    )
    return g, HammockDecomposition(graph=g, hammocks=hammocks)


def chain_of_hammocks(
    q: int,
    hammock_size: int,
    rng: np.random.Generator,
    *,
    chord_fraction: float = 0.5,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> tuple[WeightedDigraph, HammockDecomposition]:
    """Like :func:`ring_of_hammocks` but glued in an open chain.

    Shared vertices of a *chain* are articulation points, so this is the
    family :func:`recover_hammocks` can rediscover without hints (in a ring
    the whole graph is biconnected and block decomposition sees one block).
    """
    if q < 1:
        raise ValueError("need at least one hammock")
    blocks = [
        random_outerplanar_digraph(
            hammock_size, rng, chord_fraction=chord_fraction, weight_range=weight_range
        )
        for _ in range(q)
    ]
    sizes = [b.n for b in blocks]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    total = int(sum(sizes))
    alias = np.arange(total, dtype=np.int64)
    for i in range(q - 1):
        alias[offsets[i] + sizes[i] - 1] = offsets[i + 1]
    roots = alias[alias]
    uniq, compact = np.unique(roots, return_inverse=True)
    n = uniq.shape[0]
    src_parts, dst_parts, w_parts = [], [], []
    hammocks: list[Hammock] = []
    for i, b in enumerate(blocks):
        glob = compact[offsets[i] : offsets[i] + b.n]
        src_parts.append(glob[b.src])
        dst_parts.append(glob[b.dst])
        w_parts.append(b.weight)
        att: list[int] = []
        if i > 0:
            att.append(int(glob[0]))
        if i < q - 1:
            att.append(int(glob[b.n - 1]))
        if not att:
            att = [int(glob[0])]
        hammocks.append(
            Hammock(vertices=np.unique(glob), attachments=np.unique(np.array(att, dtype=np.int64)))
        )
    graph = WeightedDigraph(
        n, np.concatenate(src_parts), np.concatenate(dst_parts), np.concatenate(w_parts)
    )
    return graph, HammockDecomposition(graph=graph, hammocks=hammocks)


def recover_hammocks(g: WeightedDigraph) -> HammockDecomposition:
    """Recover a hammock decomposition of a planar graph whose hammocks are
    glued at cut vertices (the :func:`chain_of_hammocks` family): hammocks
    are the biconnected blocks, attachments their articulation vertices.
    Ring-glued instances are biconnected as a whole, so block decomposition
    cannot split them — use the generator's ground truth there."""
    import networkx as nx

    und = nx.Graph()
    und.add_nodes_from(range(g.n))
    und.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
    arts = set(nx.articulation_points(und))
    hammocks = []
    for block in nx.biconnected_components(und):
        verts = np.array(sorted(block), dtype=np.int64)
        att = np.array(sorted(set(block) & arts), dtype=np.int64)
        if att.size == 0:
            # A lone block (whole component); treat up to 4 arbitrary
            # vertices as attachments so the G' pipeline stays uniform.
            att = verts[: min(4, verts.shape[0])]
        hammocks.append(Hammock(vertices=verts, attachments=att))
    return HammockDecomposition(graph=g, hammocks=hammocks)
