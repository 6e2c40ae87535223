"""Shard plans: cutting the separator tree into K shards plus a spine.

A *shard plan* picks a frontier of K tree nodes (every root-to-leaf path
crosses the frontier exactly once) and makes each frontier node ``t`` a
shard: the shard serves the induced subgraph ``G(t)`` with its own local
separator decomposition (the subtree rooted at ``t``, relabeled).  The
*spine* is the union of the shards' boundaries ``B(t)`` — by Proposition
2.1(ii) these are the only vertices through which a path can enter or
leave a shard, so:

* every edge of ``G`` lies inside some shard's ``V(t)`` (an edge crossing
  a frontier split would contradict the separator property);
* the shard *interiors* ``V(t) ∖ spine`` partition ``V ∖ spine`` (two
  shards overlap only inside an ancestor separator, which is spine);
* for any two spine vertices, some shortest path decomposes into
  within-shard segments between boundary vertices — so the tiny *spine
  graph* whose edges are the boundary cliques ``B(t) × B(t)`` weighted by
  exact in-shard distances ``d_{G(t)}`` preserves all spine-to-spine
  distances of ``G`` (the routing argument behind
  :mod:`repro.shard.router`; see DESIGN.md §8).

:func:`make_shard_plan` grows the frontier from the root by repeatedly
splitting the largest splittable node until K shards exist — the same
greedy balance heuristic as nested dissection itself — and verifies the
structural invariants above before returning.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import DecompositionError, SeparatorTree, SepTreeNode

__all__ = ["Shard", "ShardPlan", "make_shard_plan", "extract_subtree"]


@dataclass
class Shard:
    """One shard of a plan: a frontier node's subgraph, relabeled locally.

    Vertex id spaces: ``vertices`` / ``boundary`` / ``interior`` hold sorted
    *global* ids; ``graph`` and ``tree`` are over *local* ids ``0..n_t-1``
    with ``vertices[local] == global`` (so ``local = searchsorted(vertices,
    global)``).
    """

    id: int
    node: int
    vertices: np.ndarray
    boundary: np.ndarray
    interior: np.ndarray
    graph: WeightedDigraph
    tree: SeparatorTree
    boundary_local: np.ndarray = field(init=False)
    interior_local: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.boundary_local = np.searchsorted(self.vertices, self.boundary)
        self.interior_local = np.searchsorted(self.vertices, self.interior)

    @property
    def n(self) -> int:
        """Number of vertices the shard serves (|V(t)|)."""
        return int(self.vertices.shape[0])

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Local ids of global vertices that must belong to this shard."""
        return np.searchsorted(self.vertices, np.asarray(global_ids, dtype=np.int64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(id={self.id}, node={self.node}, |V|={self.n}, "
            f"|B|={self.boundary.shape[0]}, |interior|={self.interior.shape[0]})"
        )


@dataclass
class ShardPlan:
    """A complete sharding of one graph: shards, spine, and vertex → home map.

    Attributes
    ----------
    shards:
        The K shards, id order (ids are dense ``0..K-1``).
    spine:
        Sorted global ids of all spine vertices (union of shard boundaries).
    spine_index:
        Length-``n`` array mapping a global vertex to its spine position,
        or −1 for interior vertices.
    home:
        Length-``n`` array assigning every vertex a *home shard* whose
        subgraph contains it (the lowest shard id, for spine vertices that
        live in several); used to route a query source to one shard.
    """

    graph: WeightedDigraph
    tree: SeparatorTree
    shards: list[Shard]
    spine: np.ndarray
    spine_index: np.ndarray
    home: np.ndarray

    @property
    def k(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def fingerprint(self) -> str:
        """Content hash of the plan (graph skeleton + weights + cut).

        Two plans with equal fingerprints shard the same weighted graph the
        same way — the key under which per-shard cache entries and router
        telemetry are grouped.
        """
        h = hashlib.sha256()
        h.update(f"plan:v1:n={self.graph.n}:k={self.k}".encode())
        for arr in (self.graph.src, self.graph.dst, self.graph.weight):
            h.update(np.ascontiguousarray(arr).tobytes())
        for shard in self.shards:
            h.update(f":{shard.node}:".encode())
            h.update(np.ascontiguousarray(shard.vertices).tobytes())
        return h.hexdigest()

    def stats(self) -> dict:
        """Plan-shape numbers for logs and the router's ``stats()``."""
        return {
            "k": self.k,
            "spine_vertices": int(self.spine.shape[0]),
            "shard_sizes": [s.n for s in self.shards],
            "boundary_sizes": [int(s.boundary.shape[0]) for s in self.shards],
            "fingerprint": self.fingerprint()[:16],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardPlan(k={self.k}, n={self.graph.n}, "
            f"spine={self.spine.shape[0]})"
        )


def extract_subtree(
    tree: SeparatorTree, root_idx: int, vertices: np.ndarray
) -> SeparatorTree:
    """The subtree rooted at ``root_idx`` as a standalone local tree.

    ``vertices`` must be the sorted global vertex ids of the subtree root
    (``tree.nodes[root_idx].vertices``); all node labels are relabeled into
    that local id space.  Boundaries are *recomputed* from the local root
    down (``B(root) = ∅``, ``B(t) = (S(p) ∪ B(p)) ∩ V(t)``): the global
    boundary includes separators of ancestors above the cut, which are not
    part of the shard's own decomposition.
    """
    old_nodes = tree.nodes
    subtree: list[int] = []
    stack = [root_idx]
    while stack:
        i = stack.pop()
        subtree.append(i)
        stack.extend(old_nodes[i].children)
    # Global idx order is parent-before-child (children are created after
    # their parent), which SeparatorTree requires of the local node list.
    subtree.sort()
    local_of = {gi: li for li, gi in enumerate(subtree)}
    base_level = old_nodes[root_idx].level
    nodes: list[SepTreeNode] = []
    empty = np.empty(0, dtype=np.int64)
    for li, gi in enumerate(subtree):
        t = old_nodes[gi]
        parent = -1 if gi == root_idx else local_of[t.parent]
        verts = np.searchsorted(vertices, t.vertices)
        sep = np.searchsorted(vertices, t.separator)
        if parent < 0:
            boundary = empty
        else:
            p = nodes[parent]
            boundary = np.intersect1d(
                np.union1d(p.separator, p.boundary), verts, assume_unique=False
            )
        nodes.append(
            SepTreeNode(
                idx=li,
                level=t.level - base_level,
                parent=parent,
                vertices=verts,
                separator=sep,
                boundary=boundary,
                children=tuple(local_of[c] for c in t.children),
            )
        )
    return SeparatorTree(nodes, int(vertices.shape[0]))


def _cut_frontier(tree: SeparatorTree, k: int) -> list[int]:
    """Node indices of the cut: grow from the root, always splitting the
    largest splittable frontier node, until K nodes (or no node splits)."""
    frontier = [0]
    while len(frontier) < k:
        splittable = [i for i in frontier if not tree.nodes[i].is_leaf]
        if not splittable:
            break
        pick = max(splittable, key=lambda i: (tree.nodes[i].size, -i))
        pos = frontier.index(pick)
        frontier[pos : pos + 1] = list(tree.nodes[pick].children)
    return sorted(frontier)


def _verify_plan(plan: ShardPlan) -> None:
    """Structural invariants every downstream routing step relies on."""
    g, n = plan.graph, plan.graph.n
    if plan.home.min(initial=0) < 0:
        raise DecompositionError("shard plan: some vertex belongs to no shard")
    covered = np.zeros(g.m, dtype=bool)
    interior_count = np.zeros(n, dtype=np.int64)
    for shard in plan.shards:
        in_v = np.zeros(n, dtype=bool)
        in_v[shard.vertices] = True
        covered |= in_v[g.src] & in_v[g.dst]
        interior_count[shard.interior] += 1
        if shard.boundary.size and (plan.spine_index[shard.boundary] < 0).any():
            raise DecompositionError("shard plan: boundary vertex not on the spine")
    if g.m and not covered.all():
        raise DecompositionError(
            "shard plan: some edge crosses every shard (separator property broken)"
        )
    if (interior_count > 1).any():
        raise DecompositionError("shard plan: shard interiors overlap")
    if (interior_count[plan.spine] > 0).any():
        raise DecompositionError("shard plan: spine vertex counted as interior")
    outside = interior_count == 0
    outside[plan.spine] = False
    if outside.any():
        raise DecompositionError("shard plan: vertex in neither spine nor interior")


def make_shard_plan(
    graph: WeightedDigraph, tree: SeparatorTree, k: int
) -> ShardPlan:
    """Derive a K-shard plan from a separator decomposition of ``graph``.

    ``k`` is a target: the frontier stops growing early when the tree runs
    out of splittable nodes (tiny graphs may yield fewer shards; ``k=1``
    degenerates to a single shard covering the whole graph with an empty
    spine).  The returned plan is verified against the invariants the
    three-leg router depends on and raises
    :class:`~repro.core.septree.DecompositionError` otherwise.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tree.n != graph.n:
        raise ValueError("tree and graph disagree on the vertex count")
    frontier = _cut_frontier(tree, int(k))
    spine = (
        np.unique(np.concatenate([tree.nodes[i].boundary for i in frontier]))
        if len(frontier) > 1
        else np.empty(0, dtype=np.int64)
    )
    spine_index = np.full(graph.n, -1, dtype=np.int64)
    spine_index[spine] = np.arange(spine.shape[0])
    on_spine = np.zeros(graph.n, dtype=bool)
    on_spine[spine] = True
    shards: list[Shard] = []
    for sid, node_idx in enumerate(frontier):
        t = tree.nodes[node_idx]
        sub, mapping = graph.induced_subgraph(t.vertices)
        if not np.array_equal(mapping, np.sort(t.vertices)):
            raise DecompositionError("induced subgraph relabeling disagrees")
        shards.append(
            Shard(
                id=sid,
                node=node_idx,
                vertices=mapping,
                boundary=np.sort(t.boundary),
                interior=mapping[~on_spine[mapping]],
                graph=sub,
                tree=extract_subtree(tree, node_idx, mapping),
            )
        )
    home = np.full(graph.n, -1, dtype=np.int64)
    for shard in reversed(shards):  # lowest shard id wins shared vertices
        home[shard.vertices] = shard.id
    plan = ShardPlan(
        graph=graph,
        tree=tree,
        shards=shards,
        spine=spine,
        spine_index=spine_index,
        home=home,
    )
    _verify_plan(plan)
    return plan
