"""Flow-based separator refinement — minimum vertex cuts on the frontier.

Every cost in the pipeline (|E⁺|, preprocessing work, spine size, per-query
min-plus volume) is quadratic in separator sizes, yet the first-pass engines
stop at their first balanced cut.  This module re-solves each tree node's
cut as a minimum *vertex* cut via the classic split-node max-flow
construction: every vertex ``v`` becomes an arc ``in_v → out_v`` whose
capacity is 1 when ``v`` may join the separator and ∞ when it is pinned to
a side, and every skeleton edge ``{u, w}`` becomes the pair of ∞-capacity
arcs ``out_u → in_w`` / ``out_w → in_u``.  By max-flow/min-cut the saturated
unit arcs of a maximum flow are a minimum vertex cut between the two sides.

The flow is *constrained to the frontier*: only the proposed separator and
its immediate skeleton neighborhood ``S ∪ N(S)`` get unit capacity, while
everything deeper inside either side is pinned (∞).  That caps the max-flow
iterations at |S| (every augmenting path crosses a unit arc of the old
separator) and bounds how far the refined cut can drift — balance is then
enforced explicitly: a refined cut that violates the builder's α-bound, or
a refined tree that fails the full verifier, falls back to the unrefined
proposal/tree.  The solver is pure numpy (level-synchronous BFS augmenting,
Dinic-style unit bottlenecks); networkx is only ever a test oracle.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import (
    DecompositionError,
    InseparableSubgraph,
    SeparatorFn,
    SeparatorTree,
    SepTreeNode,
    split_components,
)
from .bfs_levels import expand_ranges
from .common import has_two_sides

__all__ = [
    "DEFAULT_REFINE_MAX_NODES",
    "min_vertex_cut",
    "refine_cut",
    "flow_separator_fn",
    "refine_tree",
    "decompose_flow",
    "new_refinement_record",
]

#: Auto-skip threshold: nodes whose subgraph exceeds this many vertices keep
#: their unrefined cut (``OracleConfig.refine_max_nodes`` overrides it).
DEFAULT_REFINE_MAX_NODES = 20_000

#: "Infinite" arc capacity — larger than any achievable flow (≤ n).
_INF = np.int64(1) << np.int64(60)


def new_refinement_record() -> dict:
    """A fresh mutable stats record threaded through the refinement pass."""
    return {
        "engine": "flow",
        "nodes_refined": 0,
        "nodes_unchanged": 0,
        "nodes_skipped": 0,
        "nodes_rebalanced": 0,
        "nodes_free": 0,
        "sep_before": 0,
        "sep_after": 0,
        "flow_wall_s": 0.0,
        "wall_s": 0.0,
        "fallback": None,
    }


# ------------------------------------------------------------------ #
# The numpy max-flow solver
# ------------------------------------------------------------------ #


class _FlowNetwork:
    """Residual network in the paired-arc representation (``rev = i ^ 1``)
    with a CSR index by tail node for the vectorized BFS."""

    def __init__(self, n_nodes: int, tails: np.ndarray, heads: np.ndarray, caps: np.ndarray):
        m = tails.shape[0]
        self.n_nodes = n_nodes
        self.tail = np.empty(2 * m, dtype=np.int64)
        self.head = np.empty(2 * m, dtype=np.int64)
        self.cap = np.empty(2 * m, dtype=np.int64)
        self.tail[0::2], self.head[0::2], self.cap[0::2] = tails, heads, caps
        self.tail[1::2], self.head[1::2], self.cap[1::2] = heads, tails, 0
        self.order = np.argsort(self.tail, kind="stable")
        counts = np.bincount(self.tail, minlength=n_nodes)
        self.indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])

    def bfs(self, source: int, sink: int) -> tuple[np.ndarray, bool]:
        """Level-synchronous BFS over residual arcs; returns the parent-arc
        array (−2 at the source, −1 unreached) and whether the sink was hit."""
        parent = np.full(self.n_nodes, -1, dtype=np.int64)
        parent[source] = -2
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            slots = expand_ranges(starts, counts)
            if slots.size == 0:
                break
            arcs = self.order[slots]
            arcs = arcs[self.cap[arcs] > 0]
            heads = self.head[arcs]
            fresh = parent[heads] == -1
            arcs, heads = arcs[fresh], heads[fresh]
            if heads.size == 0:
                break
            uheads, first = np.unique(heads, return_index=True)
            parent[uheads] = arcs[first]
            if parent[sink] != -1:
                return parent, True
            frontier = uheads
        return parent, False

    def augment(self, parent: np.ndarray, sink: int) -> int:
        """Push the bottleneck along the parent-arc path into the residual."""
        path = []
        node = sink
        while True:
            a = parent[node]
            if a == -2:
                break
            path.append(a)
            node = self.tail[a]
        arcs = np.asarray(path, dtype=np.int64)
        bottleneck = int(self.cap[arcs].min())
        self.cap[arcs] -= bottleneck
        self.cap[arcs ^ 1] += bottleneck
        return bottleneck


def min_vertex_cut(
    sub: WeightedDigraph,
    side_a: np.ndarray,
    side_b: np.ndarray,
    candidates: np.ndarray,
) -> np.ndarray:
    """Minimum vertex cut (local indices, a subset of ``candidates``)
    disconnecting ``side_a`` from ``side_b`` in the skeleton of ``sub``.

    Split-node construction: vertex ``v`` is the arc ``v → n+v`` with
    capacity 1 for candidates and ∞ for everything else; each skeleton edge
    contributes the two ∞ arcs ``out_u → in_w`` and ``out_w → in_u``; a
    super-source feeds every ``side_a`` in-node and every ``side_b``
    out-node drains into the super-sink.  After the max flow, the cut is
    the candidates whose in-node is residual-reachable from the source but
    whose out-node is not.

    ``side_a``/``side_b``/``candidates`` must be disjoint; the cut value
    never exceeds the number of candidate vertices every a→b path crosses.
    """
    n = sub.n
    side_a = np.asarray(side_a, dtype=np.int64)
    side_b = np.asarray(side_b, dtype=np.int64)
    candidates = np.unique(np.asarray(candidates, dtype=np.int64))
    if side_a.size == 0 or side_b.size == 0:
        return np.empty(0, dtype=np.int64)
    source, sink = 2 * n, 2 * n + 1
    split_caps = np.full(n, _INF, dtype=np.int64)
    split_caps[candidates] = 1
    tails = [np.arange(n, dtype=np.int64), n + sub.src, n + sub.dst,
             np.full(side_a.shape[0], source, dtype=np.int64), n + side_b]
    heads = [n + np.arange(n, dtype=np.int64), sub.dst, sub.src,
             side_a, np.full(side_b.shape[0], sink, dtype=np.int64)]
    caps = [split_caps] + [
        np.full(a.shape[0], _INF, dtype=np.int64) for a in tails[1:]
    ]
    net = _FlowNetwork(
        2 * n + 2, np.concatenate(tails), np.concatenate(heads), np.concatenate(caps)
    )
    limit = candidates.shape[0] + 1
    for _ in range(limit):
        parent, found = net.bfs(source, sink)
        if not found:
            break
        net.augment(parent, sink)
    else:  # pragma: no cover - the frontier cap makes this unreachable
        raise RuntimeError("max-flow exceeded the candidate bound")
    reached = parent != -1
    return candidates[reached[candidates] & ~reached[n + candidates]]


# ------------------------------------------------------------------ #
# Cut refinement
# ------------------------------------------------------------------ #


def _frontier_candidates(
    sub: WeightedDigraph, proposal: np.ndarray, hops: int = 1
) -> np.ndarray:
    """The ``hops``-hop skeleton neighborhood of the proposal — the zone the
    refined cut may occupy (``hops=1`` → ``S ∪ N(S)``)."""
    zone = np.zeros(sub.n, dtype=bool)
    zone[proposal] = True
    for _ in range(hops):
        grown = zone.copy()
        grown[sub.dst[zone[sub.src]]] = True
        grown[sub.src[zone[sub.dst]]] = True
        zone = grown
    return np.nonzero(zone)[0]


def refine_cut(
    sub: WeightedDigraph,
    proposal: np.ndarray,
    *,
    alpha: float = 0.95,
    max_nodes: int = DEFAULT_REFINE_MAX_NODES,
    hops: int = 1,
    record: dict | None = None,
) -> np.ndarray:
    """A separator of ``sub`` at most as large as ``proposal``.

    Runs :func:`min_vertex_cut` between the two sides induced by the
    proposal, with candidates on the frontier ``S ∪ N(S)`` (retried with
    ``S`` alone when a side has no interior beyond the frontier).  The
    refined cut is accepted only when it is strictly smaller, still splits
    the subgraph, and keeps every child within the builder's α-balance
    bound — otherwise the proposal comes back unchanged (the fallback rule).
    """
    rec = record if record is not None else new_refinement_record()
    proposal = np.unique(np.asarray(proposal, dtype=np.int64))
    if proposal.size == 0:
        return proposal
    if sub.n > max_nodes:
        rec["nodes_skipped"] += 1
        return proposal
    t0 = time.perf_counter()
    try:
        side_a, side_b = split_components(sub, proposal)
    except DecompositionError:
        return proposal  # a non-progressing proposal is the caller's problem
    if side_a.size == 0 or side_b.size == 0:
        return proposal
    candidates = _frontier_candidates(sub, proposal, hops)
    in_cand = np.zeros(sub.n, dtype=bool)
    in_cand[candidates] = True
    term_a, term_b = side_a[~in_cand[side_a]], side_b[~in_cand[side_b]]
    if term_a.size == 0 or term_b.size == 0:
        # A side lies entirely on the frontier: pin the sides, cut within S.
        candidates, term_a, term_b = proposal, side_a, side_b
    cut = min_vertex_cut(sub, term_a, term_b, candidates)
    rec["flow_wall_s"] += time.perf_counter() - t0
    rec["sep_before"] += int(proposal.shape[0])
    if cut.shape[0] >= proposal.shape[0]:
        rec["nodes_unchanged"] += 1
        rec["sep_after"] += int(proposal.shape[0])
        return proposal
    try:
        v1, v2 = split_components(sub, cut)
    except DecompositionError:
        rec["nodes_rebalanced"] += 1
        rec["sep_after"] += int(proposal.shape[0])
        return proposal
    # Builder bound with full separator inclusion: |side ∪ C| ≤ α·n + |C|.
    if v1.size == 0 or v2.size == 0 or max(v1.size, v2.size) > alpha * sub.n:
        rec["nodes_rebalanced"] += 1
        rec["sep_after"] += int(proposal.shape[0])
        return proposal
    rec["nodes_refined"] += 1
    rec["sep_after"] += int(cut.shape[0])
    return cut


def flow_separator_fn(
    base: SeparatorFn | None = None,
    *,
    alpha: float = 0.95,
    max_nodes: int = DEFAULT_REFINE_MAX_NODES,
    record: dict | None = None,
) -> SeparatorFn:
    """A separator oracle that refines ``base``'s cuts through the flow
    solver (``base=None`` → the spectral engine)."""
    if base is None:
        from .spectral import spectral_separator_fn

        base = spectral_separator_fn()

    def fn(sub: WeightedDigraph, global_vertices: np.ndarray) -> np.ndarray:
        proposal = np.unique(np.asarray(base(sub, global_vertices), dtype=np.int64))
        return refine_cut(
            sub, proposal, alpha=alpha, max_nodes=max_nodes, record=record
        )

    return fn


# ------------------------------------------------------------------ #
# Whole-tree refinement (template replay)
# ------------------------------------------------------------------ #


def _contained_in(verts: np.ndarray, superset: np.ndarray) -> bool:
    """Whether sorted ``verts`` ⊆ sorted ``superset``."""
    if verts.shape[0] > superset.shape[0]:
        return False
    pos = np.searchsorted(superset, verts)
    if pos.size and pos[-1] >= superset.shape[0]:
        return False
    return bool(np.array_equal(superset[pos], verts))


def _refine_pass(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    *,
    alpha: float,
    max_nodes: int,
    base_fn: SeparatorFn,
    leaf_size: int | None,
    hops: int,
    record: dict,
) -> SeparatorTree | None:
    """One template-replay rebuild of ``tree`` with every node's cut
    flow-refined inside its ``hops``-hop frontier zone.

    The recursion *replays the template*: as long as a node's vertex set is
    contained in a template node, the template separator (intersected with
    the current vertices) is the proposal the flow solver shrinks.  A node
    that drifts outside the template (or whose template proposal no longer
    splits it) falls back to ``base_fn`` and is still flow-refined.  The
    finished tree must pass the full structural verifier; any violation —
    or any construction failure — returns ``None``, with the reason in
    ``record["fallback"]``.
    """
    free_leaf_size = max(1, int(leaf_size) if leaf_size else tree.max_leaf_size())
    nodes: list[SepTreeNode] = []
    # Work stack of (parent, level, vertices, boundary, template idx | -1).
    stack: list[tuple[int, int, np.ndarray, np.ndarray, int]] = [
        (-1, 0, np.arange(graph.n, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
    ]
    try:
        while stack:
            parent, level, verts, boundary, tidx = stack.pop()
            idx = len(nodes)
            if parent >= 0:
                p = nodes[parent]
                p.children = p.children + (idx,)
            tnode = tree.nodes[tidx] if tidx >= 0 else None
            # A drifted vertex set can shrink far below its template node —
            # stop at the leaf threshold regardless of what the template says.
            is_leaf = verts.shape[0] <= free_leaf_size or (
                tnode is not None and tnode.is_leaf
            )
            if is_leaf:
                nodes.append(SepTreeNode(
                    idx=idx, level=level, parent=parent, vertices=verts,
                    separator=np.empty(0, dtype=np.int64), boundary=boundary,
                ))
                continue
            sub, mapping = graph.induced_subgraph(verts)
            proposal = np.empty(0, dtype=np.int64)
            if tnode is not None:
                prop_global = np.intersect1d(tnode.separator, mapping, assume_unique=True)
                proposal = np.searchsorted(mapping, prop_global)
            if proposal.size == 0 or not has_two_sides(sub, proposal):
                try:
                    proposal = np.unique(
                        np.asarray(base_fn(sub, mapping), dtype=np.int64)
                    )
                except (DecompositionError, InseparableSubgraph):
                    nodes.append(SepTreeNode(  # oversized leaf, as the builder
                        idx=idx, level=level, parent=parent, vertices=verts,
                        separator=np.empty(0, dtype=np.int64), boundary=boundary,
                    ))
                    continue
                except Exception as exc:
                    # An engine crash on a drifted subgraph must not take the
                    # whole build down — it demotes this pass to a fallback.
                    raise DecompositionError(
                        f"base engine failed on node {idx}: {exc!r}"
                    ) from exc
                record["nodes_free"] += 1
                tnode, tidx = None, -1
            refined = refine_cut(
                sub, proposal, alpha=alpha, max_nodes=max_nodes, hops=hops,
                record=record,
            )
            v1_local, v2_local = split_components(sub, refined)
            sep_global = mapping[refined]
            nodes.append(SepTreeNode(
                idx=idx, level=level, parent=parent, vertices=verts,
                separator=sep_global, boundary=boundary,
            ))
            new_pool = np.union1d(sep_global, boundary)
            template_kids = (
                [tree.nodes[c] for c in tnode.children] if tnode is not None else []
            )
            for side_local in (v1_local, v2_local):
                child_verts = np.union1d(mapping[side_local], sep_global)
                if child_verts.shape[0] >= verts.shape[0]:
                    raise DecompositionError(
                        f"refined node {idx}: child does not shrink"
                    )
                if child_verts.shape[0] > alpha * verts.shape[0] + sep_global.shape[0]:
                    raise DecompositionError(
                        f"refined node {idx}: unbalanced split "
                        f"({child_verts.shape[0]} of {verts.shape[0]})"
                    )
                child_tidx = -1
                for kid in template_kids:
                    if _contained_in(child_verts, kid.vertices):
                        child_tidx = kid.idx
                        break
                child_boundary = np.intersect1d(
                    new_pool, child_verts, assume_unique=True
                )
                stack.append((idx, level + 1, child_verts, child_boundary, child_tidx))
        refined_tree = SeparatorTree(nodes, graph.n)
    except (DecompositionError, InseparableSubgraph) as exc:
        record["fallback"] = f"construction: {exc}"
        return None
    problems = refined_tree.validate(graph, strict=False)
    if problems:
        record["fallback"] = f"verifier: {problems[0]}"
        return None
    return refined_tree


def refine_tree(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    *,
    alpha: float = 0.95,
    max_nodes: int = DEFAULT_REFINE_MAX_NODES,
    base_fn: SeparatorFn | None = None,
    leaf_size: int | None = None,
    hop_sweep: tuple[int, ...] = (1, 2),
) -> tuple[SeparatorTree, dict]:
    """Flow-refine every cut of ``tree``, keeping the result only when it
    is a *global* improvement.

    Runs one :func:`_refine_pass` per frontier width in ``hop_sweep`` (the
    tight ``S ∪ N(S)`` zone finds different optima than the wider two-hop
    zone — neither dominates across graph families) and scores each
    finished tree with :func:`~repro.separators.quality.eplus_score`, the
    Σ(|S|² + |B|²) clique proxy for |E⁺|.  Locally smaller cuts can steer
    the recursion into globally *worse* trees, so the best-scoring
    candidate replaces the input only when it strictly beats it; otherwise
    the original tree comes back with ``record["fallback"]`` saying why.

    Returns ``(tree, record)``; the record also lands on the refined tree's
    ``refinement`` attribute so build stats can surface it.
    """
    from .quality import eplus_score

    t_start = time.perf_counter()
    record = new_refinement_record()
    record["max_nodes"] = int(max_nodes)
    if all(t.is_leaf for t in tree.nodes):
        record["wall_s"] = time.perf_counter() - t_start
        return tree, record
    if base_fn is None:
        from .spectral import spectral_separator_fn

        base_fn = spectral_separator_fn()
    score0 = eplus_score(tree)
    record["score_before"] = score0
    attempts: list[dict] = []
    best: tuple[int, SeparatorTree, dict, int] | None = None
    for hops in hop_sweep:
        rec = new_refinement_record()
        cand = _refine_pass(
            graph, tree, alpha=alpha, max_nodes=max_nodes, base_fn=base_fn,
            leaf_size=leaf_size, hops=hops, record=rec,
        )
        if cand is None:
            attempts.append({"hops": hops, "fallback": rec["fallback"]})
            continue
        score = eplus_score(cand)
        attempts.append({"hops": hops, "score": score})
        if best is None or score < best[0]:
            best = (score, cand, rec, hops)
    record["attempts"] = attempts
    if best is None or best[0] >= score0:
        record["fallback"] = (
            "score: no pass beat the unrefined tree"
            if best is not None
            else "; ".join(a["fallback"] for a in attempts)
        )
        record["wall_s"] = time.perf_counter() - t_start
        return tree, record
    score, refined_tree, rec, hops = best
    for key in (
        "nodes_refined", "nodes_unchanged", "nodes_skipped",
        "nodes_rebalanced", "nodes_free", "sep_before", "sep_after",
        "flow_wall_s",
    ):
        record[key] = rec[key]
    record["hops"] = hops
    record["score_after"] = score
    record["sep_total_before"] = int(tree.separator_sizes().sum())
    record["sep_total_after"] = int(refined_tree.separator_sizes().sum())
    record["wall_s"] = time.perf_counter() - t_start
    refined_tree.refinement = record
    return refined_tree, record


def decompose_flow(
    graph: WeightedDigraph,
    *,
    leaf_size: int = 8,
    alpha: float = 0.95,
    max_nodes: int = DEFAULT_REFINE_MAX_NODES,
    engines: tuple[str, ...] = ("spectral", "multilevel"),
) -> SeparatorTree:
    """The standalone ``separator="flow"`` engine: build first-pass trees
    with the candidate ``engines``, keep the one :func:`~repro.separators.
    quality.best_first_pass` scores cheapest, and flow-refine it."""
    from .quality import best_first_pass

    name, first = best_first_pass(graph, leaf_size=leaf_size, engines=engines)
    refined, rec = refine_tree(
        graph, first, alpha=alpha, max_nodes=max_nodes, leaf_size=leaf_size
    )
    rec["first_pass"] = name
    if refined.refinement is None:  # fallback returned the first-pass tree
        refined.refinement = rec
    if refined.selection is None:  # carry the engine decision onto the result
        refined.selection = first.selection
    return refined
