"""Negative-weight cycle detection and extraction (paper comment (i)).

"Note that if negative weight cycles are present, some of the distances are
not defined.  It is simple, however, to adopt the algorithm to detect
negative weight cycles within the same resource bounds."

Detection happens in two places:

* *inside the augmentation* — every node-level APSP checks its diagonal
  (:class:`repro.core.augment.NegativeCycleDetected` carries the tree node
  and a witness vertex); a negative cycle always shows up on the diagonal of
  the lowest node whose separator (or leaf) the cycle touches, so the check
  costs nothing extra;
* *standalone* — :func:`has_negative_cycle` is the classic n-phase
  Bellman–Ford criterion, used as the independent oracle in tests and by
  the direct tier (:mod:`repro.core.direct`, which has no tree to check),
  and :func:`find_negative_cycle` extracts an explicit cycle for
  diagnostics.
"""

from __future__ import annotations

import numpy as np

from ..kernels.bellman_ford import EdgeRelaxer, relax_fixpoint
from .digraph import WeightedDigraph
from .semiring import MIN_PLUS

__all__ = ["has_negative_cycle", "find_negative_cycle", "cycle_weight"]


def has_negative_cycle(g: WeightedDigraph) -> bool:
    """True iff ``g`` contains a negative-weight cycle (anywhere: the one
    distance row starts at 0 everywhere — a virtual super-source with a
    zero-weight edge to every vertex — so reachability from a particular
    vertex does not mask the cycle).  Without a cycle every entry settles
    within ``n - 1`` phases, so an ``n``-th phase that still improves is
    the certificate."""
    if not g.m:
        return False
    dist = np.zeros((1, g.n))
    _, active = relax_fixpoint(EdgeRelaxer.from_graph(g, MIN_PLUS), dist, g.n)
    return bool(active.size)


def find_negative_cycle(g: WeightedDigraph) -> list[int] | None:
    """An explicit negative cycle as a vertex list ``[v₀, …, v_k ≡ v₀]``, or
    ``None``.  Scalar Bellman–Ford with parent pointers — diagnostic use."""
    dist = np.zeros(g.n)  # virtual super-source: every vertex starts at 0
    parent = np.full(g.n, -1, dtype=np.int64)
    src, dst, w = g.src, g.dst, g.weight
    candidate = -1
    for it in range(g.n):
        improved = False
        cand = dist[src] + w
        better = cand < dist[dst] - 1e-12
        if not better.any():
            break
        # Sequential application keeps parent pointers consistent.
        for e in np.nonzero(better)[0].tolist():
            if dist[src[e]] + w[e] < dist[dst[e]] - 1e-12:
                dist[dst[e]] = dist[src[e]] + w[e]
                parent[dst[e]] = src[e]
                improved = True
                if it == g.n - 1:
                    candidate = int(dst[e])
        if not improved:
            break
    if candidate < 0:
        return None
    # Walk parents n times to guarantee landing inside the cycle.
    v = candidate
    for _ in range(g.n):
        v = int(parent[v])
    cycle = [v]
    u = int(parent[v])
    while u != v:
        cycle.append(u)
        u = int(parent[u])
    cycle.append(v)
    cycle.reverse()
    return cycle


def cycle_weight(g: WeightedDigraph, cycle: list[int]) -> float:
    """Total weight of a closed vertex walk, using minimum parallel edges."""
    best: dict[tuple[int, int], float] = {}
    for u, v, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
        key = (u, v)
        if key not in best or w < best[key]:
            best[key] = w
    return sum(best[(a, b)] for a, b in zip(cycle[:-1], cycle[1:]))
