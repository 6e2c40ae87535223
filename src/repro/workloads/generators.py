"""Workload generators for the experiments.

Every generator takes an explicit ``numpy.random.Generator`` and returns a
:class:`~repro.core.digraph.WeightedDigraph` (plus family-specific extras).
Negative weights are produced with the *potential trick*: sample a vertex
potential ``p`` and set ``w(u→v) = base(u→v) + p[u] − p[v]`` with
``base ≥ 0``; every cycle then has nonnegative total weight, so instances
are negative-edge-rich yet guaranteed free of negative cycles (the shape the
paper's algorithms must handle, per its §1 scope: "real-valued edge
weights").
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph

__all__ = [
    "grid_digraph",
    "path_digraph",
    "random_tree_digraph",
    "gnm_digraph",
    "expander_digraph",
    "delaunay_digraph",
    "overlap_digraph",
    "apply_potential_weights",
]


def _random_weights(m: int, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, size=m)


def apply_potential_weights(
    g: WeightedDigraph, rng: np.random.Generator, *, scale: float = 5.0
) -> WeightedDigraph:
    """Reweight ``g`` so many edges are negative but no cycle is
    (``w' = w + p[u] − p[v]`` for a random potential ``p``)."""
    p = rng.uniform(0.0, scale, size=g.n)
    return WeightedDigraph(g.n, g.src, g.dst, g.weight + p[g.src] - p[g.dst])


def grid_digraph(
    shape: tuple[int, ...],
    rng: np.random.Generator | None = None,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
    symmetric_weights: bool = False,
) -> WeightedDigraph:
    """d-dimensional grid with both orientations of every lattice edge.

    With ``symmetric_weights`` the two orientations share a weight;
    otherwise each direction draws independently (a genuinely directed
    instance, which the paper's digraph setting requires).
    """
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape))
    idx = np.arange(n).reshape(shape)
    srcs, dsts = [], []
    for axis in range(len(shape)):
        if shape[axis] < 2:
            continue
        lo = np.take(idx, range(shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, shape[axis]), axis=axis).ravel()
        srcs.extend([lo, hi])
        dsts.extend([hi, lo])
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    if rng is None:
        w = np.ones(src.shape[0])
    elif symmetric_weights:
        # Draw one weight per undirected edge via a canonical key.
        key = np.minimum(src, dst) * n + np.maximum(src, dst)
        uniq, inverse = np.unique(key, return_inverse=True)
        per_edge = _random_weights(uniq.shape[0], rng, *weight_range)
        w = per_edge[inverse]
    else:
        w = _random_weights(src.shape[0], rng, *weight_range)
    return WeightedDigraph(n, src, dst, w)


def path_digraph(
    n: int,
    rng: np.random.Generator | None = None,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> WeightedDigraph:
    """Bidirected path — the μ = 0 (single-vertex separator) family."""
    return grid_digraph((n,), rng, weight_range=weight_range)


def random_tree_digraph(
    n: int,
    rng: np.random.Generator,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> WeightedDigraph:
    """Bidirected random recursive tree — another μ = 0 family (treewidth 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    kids = np.arange(1, n)
    parents = np.array([int(rng.integers(0, k)) for k in range(1, n)], dtype=np.int64)
    src = np.concatenate([parents, kids])
    dst = np.concatenate([kids, parents])
    w = _random_weights(src.shape[0], rng, *weight_range)
    return WeightedDigraph(n, src, dst, w)


def gnm_digraph(
    n: int,
    m: int,
    rng: np.random.Generator,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> WeightedDigraph:
    """Uniform random digraph with ``m`` edges (no structure — the regime
    where separator methods should *not* win; used as a control)."""
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    return WeightedDigraph(n, src[keep], dst[keep], _random_weights(int(keep.sum()), rng, *weight_range))


def expander_digraph(
    n: int,
    rng: np.random.Generator,
    *,
    degree: int = 8,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> WeightedDigraph:
    """Random ``degree``-out digraph plus a Hamiltonian cycle — an expander
    whp, i.e. *no* sublinear separator exists.  The regime where E⁺ blows
    up and the direct tier (:mod:`repro.core.direct`) serves G instead; the
    cycle guarantees strong connectivity so every distance is finite."""
    if n < 2:
        raise ValueError("n must be >= 2")
    degree = min(int(degree), n - 1)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    dst = rng.integers(0, n - 1, size=n * degree)
    dst[dst >= src] += 1  # uniform over the n-1 non-self targets
    cyc_src = np.arange(n, dtype=np.int64)
    cyc_dst = np.roll(cyc_src, -1)
    src = np.concatenate([src, cyc_src])
    dst = np.concatenate([dst, cyc_dst])
    # Drop parallel duplicates (a resampled target may repeat).
    key = src * n + dst
    _, keep = np.unique(key, return_index=True)
    keep.sort()
    src, dst = src[keep], dst[keep]
    w = _random_weights(src.shape[0], rng, *weight_range)
    return WeightedDigraph(n, src, dst, w)


def delaunay_digraph(
    n: int,
    rng: np.random.Generator,
    *,
    euclidean_weights: bool = True,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> tuple[WeightedDigraph, np.ndarray]:
    """Random planar digraph: Delaunay triangulation of ``n`` uniform points
    (both orientations per edge).  Returns ``(graph, points)`` — the points
    feed the geometric separator oracle.
    """
    from scipy.spatial import Delaunay

    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    tri = Delaunay(pts)
    edges = set()
    for simplex in tri.simplices:
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        for u, v in ((a, b), (b, c), (a, c)):
            edges.add((min(u, v), max(u, v)))
    und = np.array(sorted(edges), dtype=np.int64)
    src = np.concatenate([und[:, 0], und[:, 1]])
    dst = np.concatenate([und[:, 1], und[:, 0]])
    if euclidean_weights:
        d = np.linalg.norm(pts[und[:, 0]] - pts[und[:, 1]], axis=1)
        w = np.concatenate([d, d])
    else:
        w = _random_weights(src.shape[0], rng, *weight_range)
    return WeightedDigraph(n, src, dst, w), pts


def overlap_digraph(
    n: int,
    rng: np.random.Generator,
    *,
    dim: int = 2,
    degree_target: float = 6.0,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> tuple[WeightedDigraph, np.ndarray]:
    """Geometric (r-overlap-style) digraph: connect points within radius
    ``r`` chosen so expected degree ≈ ``degree_target``.  Returns
    ``(graph, points)``.  In d dimensions this family has
    O(n^{(d−1)/d}) separators (Miller–Teng–Vavasis, paper §1).
    """
    import math

    from scipy.spatial import cKDTree

    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    # Expected neighbors within radius r is n·V_d·r^d; solve for r.
    vd = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    r = (degree_target / (n * vd)) ** (1.0 / dim)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r, output_type="ndarray")
    if pairs.shape[0] == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    w = _random_weights(src.shape[0], rng, *weight_range)
    return WeightedDigraph(n, src, dst, w), pts
