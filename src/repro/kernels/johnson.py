"""Johnson's algorithm: multi-source shortest paths with real (possibly
negative) edge weights, the O(mn + n² log n)-style sequential baseline the
paper compares against (§1).

A Bellman–Ford pass from a virtual super-source computes a potential
``h(v)``; reweighting ``w'(u,v) = w(u,v) + h(u) - h(v)`` is nonnegative, so
each requested source runs Dijkstra on the reweighted graph and distances are
recovered as ``d(s,v) = d'(s,v) - h(s) + h(v)``.
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from .bellman_ford import bellman_ford
from .dijkstra import dijkstra

__all__ = ["johnson", "johnson_potential"]


def johnson_potential(g: WeightedDigraph) -> np.ndarray:
    """Feasible potential ``h`` with ``w + h[u] - h[v] >= 0`` on every edge.

    Raises :class:`NegativeCycleError` when none exists.
    """
    # Virtual source n with a zero-weight edge to every vertex.
    aug = WeightedDigraph(
        g.n + 1,
        np.concatenate([g.src, np.full(g.n, g.n, dtype=np.int64)]),
        np.concatenate([g.dst, np.arange(g.n, dtype=np.int64)]),
        np.concatenate([g.weight, np.zeros(g.n)]),
    )
    h = bellman_ford(aug, g.n, check_negative_cycle=True)
    return h[: g.n]


def johnson(g: WeightedDigraph, sources) -> np.ndarray:
    """Distances from each source, shape ``(s, n)``; supports negative
    weights, raises :class:`NegativeCycleError` on a negative cycle."""
    sources = [int(s) for s in sources]
    if not g.has_negative_weights():
        h = np.zeros(g.n)
        rew = g
    else:
        h = johnson_potential(g)
        # Edges out of vertices unreachable from the super-source cannot
        # exist (every vertex is reachable), so h is finite everywhere.
        rew = WeightedDigraph(g.n, g.src, g.dst, g.weight + h[g.src] - h[g.dst])
    out = np.empty((len(sources), g.n))
    for i, s in enumerate(sources):
        d = dijkstra(rew, s)
        out[i] = d - h[s] + h
    return out
