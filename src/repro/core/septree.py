"""Separator decomposition trees (paper §2.3).

A separator decomposition tree ``T_G`` of (the undirected skeleton of) a
graph ``G`` is a rooted binary tree whose nodes ``t`` carry two vertex sets:
``V(t)`` (the subgraph at the node; the root carries all of ``V``) and a
separator ``S(t) ⊆ V(t)`` of the induced subgraph ``G(t)``.  The children of
``t`` carry the two sides of the partition induced by ``S(t)``.  Each node
also has a *boundary* ``B(t)``: ``B(root) = ∅`` and
``B(t) = (S(parent) ∪ B(parent)) ∩ V(t)`` — the ancestors' separator
vertices still present in ``V(t)`` (Proposition 2.1 i), which separate
``V(t) ∖ B(t)`` from the rest of ``G`` (Proposition 2.1 ii).

Following the paper's terminology, graph vertices are "vertices" and tree
vertices are "nodes".

Child inclusion rule
--------------------
The paper defines ``V(t_i) = V_i ∪ (S(t) ∩ N(V_i))``; Algorithm 4.1's
correctness argument, however, uses ``S(t) ⊆ B(t₁) ∩ B(t₂)``.  We therefore
default to including *all* of ``S(t)`` in both children (the standard nested
dissection convention, which makes that precondition unconditional) and keep
the neighborhood-restricted rule as an option for the A1 ablation — with a
safety net that re-adds any separator vertex that would otherwise be missing
from both children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .digraph import WeightedDigraph

__all__ = [
    "FlatTree",
    "SepTreeNode",
    "SeparatorTree",
    "SeparatorFn",
    "build_separator_tree",
    "DecompositionError",
    "split_components",
    "rest_labels",
    "undirected_components",
]

#: A separator oracle: given the induced (sub)graph and the global ids of its
#: vertices, return *local* indices (into the subgraph) of a separator.
SeparatorFn = Callable[[WeightedDigraph, np.ndarray], np.ndarray]


class DecompositionError(ValueError):
    """Raised when a separator oracle fails to make progress or an invariant
    of the decomposition is violated."""


class InseparableSubgraph(Exception):
    """Signal from a separator oracle: the subgraph has *no* separator (its
    skeleton is complete — removing any vertex subset leaves the rest
    connected).  The builder then makes the subgraph a leaf even though it
    exceeds ``leaf_size``; the theory degrades gracefully (the leaf-diameter
    term ℓ absorbs it), which is the honest behavior of the paper's
    algorithm outside its separator-friendly families."""


@dataclass
class SepTreeNode:
    """One node ``t`` of the tree with its ``V(t)``, ``S(t)``, ``B(t)``
    labels (sorted global vertex ids).  Leaves have an empty separator."""

    idx: int
    level: int
    parent: int
    vertices: np.ndarray
    separator: np.ndarray
    boundary: np.ndarray
    children: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return int(self.vertices.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SepTreeNode(idx={self.idx}, level={self.level}, |V|={self.size}, "
            f"|S|={self.separator.shape[0]}, |B|={self.boundary.shape[0]})"
        )


class SeparatorTree:
    """A fully-labeled separator decomposition tree.

    The constructor derives the paper's ``level: V → {0..d_G}`` and
    ``node: V → T_G`` functions (§3.1): ``level(v)`` is the minimum level of
    a node whose separator contains ``v`` (−1 encodes *undefined*, i.e. the
    vertex never appears in a separator), and ``node(v)`` is the unique node
    realizing the minimum, or the leaf containing ``v`` when undefined.
    """

    def __init__(
        self, nodes: Sequence[SepTreeNode], n: int, flat: "FlatTree | None" = None
    ) -> None:
        if not nodes or nodes[0].parent != -1:
            raise DecompositionError("nodes[0] must be the root (parent == -1)")
        self.nodes: list[SepTreeNode] = list(nodes)
        self.n = int(n)
        #: The labels as flat arrays (builders that hold them pass them in).
        self.flat = flat if flat is not None else FlatTree.of(self.nodes)
        self.height: int = int(self.flat.meta[:, 0].max())
        #: Stats record left by the flow refinement pass (None = unrefined).
        self.refinement: dict | None = None
        #: Engine-selection record left by multi-engine builders
        #: (``quality.best_first_pass``, ``api.build`` auto-mode gating):
        #: per-candidate scores plus why this tree won (None = direct build).
        self.selection: dict | None = None
        #: Nodes built before a budgeted :func:`build_separator_tree` stopped
        #: recursing (None = complete tree).
        self.cut_at: int | None = None
        self.vertex_level = np.full(n, -1, dtype=np.int64)
        self.vertex_node = np.full(n, -1, dtype=np.int64)
        levels = self.flat.meta[:, 0]
        ids = np.fromiter((t.idx for t in self.nodes), dtype=np.int64, count=len(self.nodes))
        # Every separator membership, ordered by (level, node position): the
        # first occurrence of a vertex is its min-level node, the earliest
        # listed one on a tie.
        members, owner = self.flat.members("separators")
        order = np.lexsort((owner, levels[owner]))
        verts, first = np.unique(members[order], return_index=True)
        self.vertex_level[verts] = levels[owner[order[first]]]
        self.vertex_node[verts] = ids[owner[order[first]]]
        # A vertex in no separator belongs to its leaf (the last listed one,
        # should leaves overlap).
        members, owner = self.flat.members("vertices", self.flat.meta[:, 2] < 0)
        undef = self.vertex_level[members] < 0
        members, owner = members[undef][::-1], owner[undef][::-1]
        verts, last = np.unique(members, return_index=True)
        self.vertex_node[verts] = ids[owner[last]]

    @classmethod
    def from_flat(cls, flat: "FlatTree", n: int) -> "SeparatorTree":
        """The tree of ``flat``, each node's labels slices of its arrays."""
        vo, so, bo = flat.voff.tolist(), flat.soff.tolist(), flat.boff.tolist()
        v, s, b = flat.vertices, flat.separators, flat.boundaries
        # Positional arguments: keyword calls double the cost of this loop.
        nodes = [
            SepTreeNode(i, level, parent, v[v0:v1], s[s0:s1], b[b0:b1],
                        () if c0 < 0 else (c0,) if c1 < 0 else (c0, c1))
            for i, (level, parent, c0, c1), v0, v1, s0, s1, b0, b1 in zip(
                range(len(vo) - 1), flat.meta.tolist(), vo, vo[1:], so, so[1:], bo, bo[1:]
            )
        ]
        return cls(nodes, n, flat)

    # -------------------------------------------------------------- #
    # Traversal helpers
    # -------------------------------------------------------------- #

    @property
    def root(self) -> SepTreeNode:
        return self.nodes[0]

    def leaves(self) -> list[SepTreeNode]:
        """All leaf nodes."""
        return [t for t in self.nodes if t.is_leaf]

    def levels_desc(self) -> Iterator[list[SepTreeNode]]:
        """Node groups by level, deepest first — the bottom-up processing
        order of Algorithm 4.1 (all nodes of a level are independent, hence a
        parallel phase)."""
        by_level: dict[int, list[SepTreeNode]] = {}
        for t in self.nodes:
            by_level.setdefault(t.level, []).append(t)
        for lvl in sorted(by_level, reverse=True):
            yield by_level[lvl]

    def max_leaf_size(self) -> int:
        """Largest |V(t)| over leaves (the paper's O(1) constant)."""
        return max(t.size for t in self.leaves())

    def ell_bound(self) -> int:
        """Upper bound on ℓ (max min-weight diameter over leaf subgraphs):
        a leaf with ``k`` vertices has diameter ≤ ``k − 1`` absent negative
        cycles."""
        return max(0, self.max_leaf_size() - 1)

    def separator_sizes(self) -> np.ndarray:
        """|S(t)| of every internal node."""
        return np.array([t.separator.shape[0] for t in self.nodes if not t.is_leaf], dtype=np.int64)

    def total_label_size(self) -> int:
        """Σ_t |V(t)| — the storage the decomposition itself occupies."""
        return sum(t.size for t in self.nodes)

    def separator_stats(self) -> dict:
        """JSON-safe separator-quality summary: per-level |S| histogram,
        achieved balance α (worst and mean child/parent vertex ratio over
        internal nodes), separator totals, and — when the tree went through
        the flow refiner — the refinement delta record."""
        per_level: dict[str, dict] = {}
        ratios: list[float] = []
        for t in self.nodes:
            if t.is_leaf:
                continue
            lvl = per_level.setdefault(
                str(t.level), {"nodes": 0, "sep_total": 0, "sep_max": 0}
            )
            lvl["nodes"] += 1
            s = int(t.separator.shape[0])
            lvl["sep_total"] += s
            lvl["sep_max"] = max(lvl["sep_max"], s)
            for c in t.children:
                ratios.append(self.nodes[c].size / t.size)
        sizes = self.separator_sizes()
        return {
            "levels": per_level,
            "sep_total": int(sizes.sum()) if sizes.size else 0,
            "sep_max": int(sizes.max()) if sizes.size else 0,
            "internal_nodes": int(sizes.shape[0]),
            "balance_worst": float(max(ratios)) if ratios else 0.0,
            "balance_mean": float(np.mean(ratios)) if ratios else 0.0,
            "refinement": self.refinement,
            "selection": self.selection,
        }

    # -------------------------------------------------------------- #
    # Validation (Proposition 2.1 and construction invariants)
    # -------------------------------------------------------------- #

    def validate(self, g: WeightedDigraph, *, strict: bool = True) -> list[str]:
        """Check structural invariants against the graph; returns the list
        of violations (and raises on any, unless ``strict=False``)."""
        problems: list[str] = []
        u, v = _skeleton_edges(g.skeleton)
        root = self.root
        if root.size != self.n or not np.array_equal(root.vertices, np.arange(self.n)):
            problems.append("root must carry every vertex exactly once")
        for t in self.nodes:
            in_v = np.zeros(self.n, dtype=bool)
            in_v[t.vertices] = True
            if t.separator.size and not in_v[t.separator].all():
                problems.append(f"node {t.idx}: S(t) ⊄ V(t)")
            if t.boundary.size and not in_v[t.boundary].all():
                problems.append(f"node {t.idx}: B(t) ⊄ V(t)")
            if t.parent >= 0:
                p = self.nodes[t.parent]
                expected = np.intersect1d(
                    np.union1d(p.separator, p.boundary), t.vertices, assume_unique=False
                )
                if not np.array_equal(expected, t.boundary):
                    problems.append(f"node {t.idx}: B(t) != (S(p) ∪ B(p)) ∩ V(t)")
            if not t.is_leaf:
                kids = [self.nodes[c] for c in t.children]
                covered = np.union1d(kids[0].vertices, kids[1].vertices) if len(kids) == 2 else kids[0].vertices
                if not np.array_equal(np.union1d(covered, t.separator), t.vertices):
                    problems.append(f"node {t.idx}: children ∪ S(t) != V(t)")
                for k in kids:
                    if k.size >= t.size:
                        problems.append(f"node {t.idx}: child {k.idx} did not shrink")
                # S(t) must separate the child interiors inside G(t).
                if len(kids) == 2:
                    side = np.zeros(self.n, dtype=np.int8)
                    interior0 = np.setdiff1d(kids[0].vertices, t.separator, assume_unique=False)
                    interior1 = np.setdiff1d(kids[1].vertices, t.separator, assume_unique=False)
                    side[interior0] = 1
                    side[interior1] = 2
                    if np.intersect1d(interior0, interior1).size:
                        problems.append(f"node {t.idx}: child interiors overlap")
                    cross = (side[u] == 1) & (side[v] == 2)
                    if cross.any():
                        problems.append(f"node {t.idx}: S(t) does not separate the children")
            # Prop 2.1(ii): B(t) separates V(t) ∖ B(t) from V ∖ V(t) in G.
            inside = np.zeros(self.n, dtype=bool)
            inside[t.vertices] = True
            inside[t.boundary] = False
            outside = ~np.zeros(self.n, dtype=bool)
            outside[t.vertices] = False
            leak = (inside[u] & outside[v]) | (outside[u] & inside[v])
            if leak.any():
                problems.append(f"node {t.idx}: B(t) does not shield V(t) from the rest of G")
        if problems and strict:
            raise DecompositionError("; ".join(problems))
        return problems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SeparatorTree(n={self.n}, nodes={len(self.nodes)}, height={self.height}, "
            f"max_leaf={self.max_leaf_size()})"
        )


@dataclass(frozen=True)
class FlatTree:
    """A tree's node columns and labels as flat arrays: ``meta`` holds one
    ``(level, parent, first child, second child)`` row per node (−1 = none),
    and the vertices, separators and boundaries of node ``i`` are
    ``vertices[voff[i]:voff[i+1]]`` and so on.  This is the layout
    :func:`repro.io.save_tree` persists and
    :func:`repro.cache.augmentation_key` hashes."""

    meta: np.ndarray
    voff: np.ndarray
    vertices: np.ndarray
    soff: np.ndarray
    separators: np.ndarray
    boff: np.ndarray
    boundaries: np.ndarray

    @classmethod
    def of(cls, nodes: Sequence[SepTreeNode]) -> "FlatTree":
        """Flatten ``nodes`` (label arrays keep their dtype)."""
        meta = np.array(
            [(t.level, t.parent, *(tuple(t.children) + (-1, -1))[:2]) for t in nodes],
            dtype=np.int64,
        ).reshape(-1, 4)
        parts = {}
        for name, field in (("vertices", "vertices"), ("separators", "separator"),
                            ("boundaries", "boundary")):
            chunks = [getattr(t, field) for t in nodes]
            ptr = np.zeros(len(chunks) + 1, dtype=np.int64)
            np.cumsum([c.shape[0] for c in chunks], out=ptr[1:])
            parts[_OFFSETS[name]], parts[name] = ptr, np.concatenate(chunks)
        return cls(meta=meta, **parts)

    def members(
        self, name: str, which: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(members, owner)``: the ``name`` labels (``"vertices"``,
        ``"separators"`` or ``"boundaries"``) of the nodes the boolean mask
        ``which`` selects (default all), concatenated in node order as
        int64, and per entry the node it came from."""
        ptr, values = getattr(self, _OFFSETS[name]), getattr(self, name)
        nodes = np.arange(ptr.shape[0] - 1) if which is None else np.flatnonzero(which)
        lens = ptr[nodes + 1] - ptr[nodes]
        owner = np.repeat(nodes, lens)
        pos = np.arange(owner.shape[0]) + np.repeat(ptr[nodes] - np.cumsum(lens) + lens, lens)
        return values[pos].astype(np.int64, copy=False), owner


#: The offset table of each label array of a :class:`FlatTree`.
_OFFSETS = {"vertices": "voff", "separators": "soff", "boundaries": "boff"}


def _skeleton_edges(skel) -> tuple[np.ndarray, np.ndarray]:
    """Skeleton CSR back to (u, v) arrays (each undirected edge appears in
    both orientations, which is fine for separation checks)."""
    indptr, indices = skel.indptr, skel.indices
    u = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    return u, indices


# ------------------------------------------------------------------ #
# Construction
# ------------------------------------------------------------------ #


def undirected_components(
    n: int, src: np.ndarray, dst: np.ndarray, keep: np.ndarray | None = None
) -> tuple[int, np.ndarray]:
    """``(count, labels)`` of the connected components of the undirected
    graph on ``n`` vertices with edges ``{src[i], dst[i]}``; with a boolean
    ``keep`` mask, edges touching a dropped vertex are ignored (dropped
    vertices become singletons).

    Shiloach–Vishkin style: every vertex points at a smaller member of its
    component; each round hooks the larger root of every edge joining two
    trees onto the smaller root (min-label hooking), then jumps pointers
    until every vertex points straight at its root.  A root is the smallest
    member of its tree, so components are numbered in order of their
    smallest vertex — exactly ``scipy.sparse.csgraph.connected_components``'
    numbering."""
    if keep is not None:
        live = keep[src] & keep[dst]
        src, dst = src[live], dst[live]
    parent = np.arange(n, dtype=np.int64)
    a, b = src, dst  # the roots of each edge's endpoints: every vertex, at first
    while True:
        cross = a != b
        if not cross.any():
            break
        # Edges inside one tree stay inside it: only crossing edges remain.
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if not (grand != parent).any():
                break
            parent = grand
        a, b = parent[src], parent[dst]
    is_root = parent == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[parent]


def rest_labels(sub: WeightedDigraph, local_separator: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of ``sub ∖ S`` (each vertex of ``S`` a singleton).  The
    graph keeps its last answer, so a separator oracle's progress check and
    the builder's split of the same cut share one labelling pass."""
    keep = np.ones(sub.n, dtype=bool)
    keep[local_separator] = False
    memo = sub._rest
    if memo is None or not np.array_equal(memo[0], keep):
        memo = sub._rest = (keep, *undirected_components(sub.n, sub.src, sub.dst, keep))
    return memo[1], memo[2]


def split_components(
    sub: WeightedDigraph, local_separator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the non-separator vertices of ``sub`` into two groups
    ``(V₁, V₂)`` of local indices, each a union of connected components of
    ``sub ∖ S`` balanced greedily by size (largest component first).

    Raises :class:`DecompositionError` when ``S`` leaves a single component
    covering everything (the oracle made no progress).
    """
    keep = np.ones(sub.n, dtype=bool)
    keep[local_separator] = False
    rest = np.nonzero(keep)[0]
    if rest.size == 0:
        return rest, rest.copy()
    ncomp, labels = rest_labels(sub, local_separator)
    comp_of_rest = labels[rest]
    comp_ids, counts = np.unique(comp_of_rest, return_counts=True)
    if comp_ids.shape[0] == 1 and local_separator.size == 0:
        raise DecompositionError("empty separator on a connected subgraph")
    order = np.argsort(counts)[::-1]
    side = np.zeros(ncomp, dtype=np.int64)
    load = [0, 0]
    for ci in order:
        pick = 0 if load[0] <= load[1] else 1
        side[comp_ids[ci]] = pick
        load[pick] += int(counts[ci])
    which = side[comp_of_rest]
    return rest[which == 0], rest[which == 1]


def build_separator_tree(
    g: WeightedDigraph,
    separator_fn: SeparatorFn,
    *,
    leaf_size: int = 8,
    full_separator_inclusion: bool = True,
    alpha: float = 0.95,
    budget: int | None = None,
) -> SeparatorTree:
    """Recursively decompose ``g`` with ``separator_fn``.

    Parameters
    ----------
    leaf_size:
        Subgraphs of at most this many vertices become leaves (the paper
        assumes O(1)-size leaves; this is the constant).
    full_separator_inclusion:
        Children get all of ``S(t)`` (default; see module docstring) versus
        only ``S(t) ∩ N(V_i)`` (paper's literal rule, ablation A1).
    alpha:
        Sanity bound: each child must satisfy ``|V(child)| ≤ α·|V(t)| +
        |S(t)|``; a violation means the oracle is not producing balanced
        separators and raises.
    budget:
        Cap on the clique terms Σ_t (|S(t)|² + |B(t)|²) of E⁺
        (:func:`repro.separators.quality.eplus_score`), summed over the
        nodes built so far and the boundaries of the subproblems queued.
        Once the sum passes it, every queued subproblem becomes a leaf,
        oversized or not: the result is a valid tree whose score exceeds
        ``budget``, with ``cut_at`` set.  The sum only ever counts terms of
        the complete tree, so a tree whose complete score stays within the
        budget is built exactly as without one.  ``None`` = no cap.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    nodes: list[SepTreeNode] = []
    score = 0  # Σ |S|² over ``nodes`` + Σ |B|² over ``nodes`` and ``stack``
    cut_at: int | None = None
    # Work stack of (parent_idx, level, global_vertices, boundary).
    stack: list[tuple[int, int, np.ndarray, np.ndarray]] = [
        (-1, 0, np.arange(g.n, dtype=np.int64), np.empty(0, dtype=np.int64))
    ]
    while stack:
        parent, level, verts, boundary = stack.pop()
        idx = len(nodes)
        if parent >= 0:
            p = nodes[parent]
            p.children = p.children + (idx,)
        if cut_at is None and budget is not None and score > budget:
            cut_at = idx
        local_sep = None
        if verts.shape[0] > leaf_size and cut_at is None:
            sub, mapping = g.induced_subgraph(verts)
            try:
                local_sep = np.unique(np.asarray(separator_fn(sub, mapping), dtype=np.int64))
            except InseparableSubgraph:
                pass  # No separator exists (complete skeleton): oversized leaf.
        if local_sep is None:
            nodes.append(
                SepTreeNode(
                    idx=idx,
                    level=level,
                    parent=parent,
                    vertices=verts,
                    separator=np.empty(0, dtype=np.int64),
                    boundary=boundary,
                )
            )
            continue
        if local_sep.size and (local_sep.min() < 0 or local_sep.max() >= sub.n):
            raise DecompositionError("separator oracle returned out-of-range local index")
        v1_local, v2_local = split_components(sub, local_sep)
        sep_global = mapping[local_sep]
        score += int(sep_global.shape[0]) ** 2
        node = SepTreeNode(
            idx=idx,
            level=level,
            parent=parent,
            vertices=verts,
            separator=sep_global,
            boundary=boundary,
        )
        nodes.append(node)
        sides_local = [v1_local, v2_local]
        if full_separator_inclusion:
            attach = [local_sep, local_sep]
        else:
            attach = [_adjacent_separator(sub, local_sep, s) for s in sides_local]
            # Safety net: a separator vertex must land in at least one child,
            # or its distances would be lost to the parent's Algorithm 4.1.
            seen = np.union1d(attach[0], attach[1])
            orphans = np.setdiff1d(local_sep, seen, assume_unique=False)
            if orphans.size:
                attach = [np.union1d(attach[0], orphans), np.union1d(attach[1], orphans)]
        new_bound_pool = np.union1d(sep_global, boundary)
        for side_local, att in zip(sides_local, attach):
            child_verts = np.union1d(mapping[side_local], mapping[att])
            if child_verts.shape[0] >= verts.shape[0]:
                raise DecompositionError(
                    f"node {idx}: child of size {child_verts.shape[0]} does not shrink "
                    f"parent of size {verts.shape[0]} (bad separator oracle)"
                )
            if child_verts.shape[0] > alpha * verts.shape[0] + sep_global.shape[0]:
                raise DecompositionError(
                    f"node {idx}: unbalanced split ({child_verts.shape[0]} of {verts.shape[0]})"
                )
            child_boundary = np.intersect1d(new_bound_pool, child_verts, assume_unique=False)
            score += int(child_boundary.shape[0]) ** 2
            stack.append((idx, level + 1, child_verts, child_boundary))
    tree = SeparatorTree(nodes, g.n)
    tree.cut_at = cut_at
    return tree


def _adjacent_separator(
    sub: WeightedDigraph, local_sep: np.ndarray, side: np.ndarray
) -> np.ndarray:
    """``S ∩ N(side)`` in local indices (paper's literal inclusion rule)."""
    in_side = np.zeros(sub.n, dtype=bool)
    in_side[side] = True
    in_sep = np.zeros(sub.n, dtype=bool)
    in_sep[local_sep] = True
    touched = np.zeros(sub.n, dtype=bool)
    hits = in_sep[sub.src] & in_side[sub.dst]
    touched[sub.src[hits]] = True
    hits = in_sep[sub.dst] & in_side[sub.src]
    touched[sub.dst[hits]] = True
    return np.nonzero(touched)[0]
