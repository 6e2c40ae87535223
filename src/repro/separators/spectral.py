"""Spectral (Fiedler-vector) vertex separators — the general-purpose engine.

The paper takes the decomposition as *input* (comment (iv)); for graph
families without a closed-form oracle we use spectral bisection, which on
bounded-degree planar graphs yields O(√n) edge cuts (Spielman–Teng), turned
into vertex separators by taking the smaller endpoint set of the cut edges.

The sweep cut scans thresholds of the Fiedler vector and keeps the cheapest
candidate whose removal actually splits the subgraph (progress and
disconnected-input handling come from :mod:`repro.separators.common`).
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import SeparatorFn, SeparatorTree, build_separator_tree
from .common import BALANCE, component_aware, has_two_sides, laplacian, vertex_separator_from_cut

__all__ = ["fiedler_vector", "spectral_separator_fn", "decompose_spectral"]


def fiedler_vector(g: WeightedDigraph, *, dense_cutoff: int = 512, seed: int = 0) -> np.ndarray:
    """Eigenvector of the second-smallest Laplacian eigenvalue of the
    skeleton (connected input assumed; callers pass one component).  The
    sparse solve starts from a ``seed``-derived vector, so it is as
    deterministic as the dense one."""
    pairs = np.unique(np.concatenate([g.src * g.n + g.dst, g.dst * g.n + g.src]))
    lap = laplacian(
        g.n, pairs // g.n, pairs % g.n, np.ones(pairs.shape[0]), dense=g.n <= dense_cutoff
    )
    if g.n <= dense_cutoff:
        _, vecs = np.linalg.eigh(lap)
        return vecs[:, 1]
    from scipy.sparse.linalg import eigsh, lobpcg

    rng = np.random.default_rng(seed)
    try:
        v0 = rng.uniform(-1.0, 1.0, g.n)
        _, vecs = eigsh(lap, k=2, sigma=-1e-4, which="LM", maxiter=5000, v0=v0)
        return vecs[:, 1]
    except Exception:
        # Robust fallback: LOBPCG with a deterministic random start,
        # deflating the constant vector.
        x = rng.standard_normal((g.n, 2))
        x[:, 0] = 1.0
        vals, vecs = lobpcg(lap, x, largest=False, maxiter=2000, tol=1e-6)
        order = np.argsort(vals)
        return vecs[:, order[1]]


def spectral_separator_fn(*, dense_cutoff: int = 512, seed: int = 0) -> SeparatorFn:
    """Separator oracle: sweep cut of the Fiedler vector, then vertex cover
    of the crossing edges."""

    def core(sub: WeightedDigraph, global_vertices: np.ndarray) -> np.ndarray:
        fied = fiedler_vector(sub, dense_cutoff=dense_cutoff, seed=seed)
        order = np.argsort(fied, kind="stable")
        n = sub.n
        lo = max(1, int(np.floor(n * (1 - BALANCE))))
        hi = min(n - 1, int(np.ceil(n * BALANCE)))
        candidates = np.unique(np.linspace(lo, hi, num=min(17, max(1, hi - lo + 1)), dtype=np.int64))
        best: np.ndarray | None = None
        for split in candidates.tolist():
            in_a = np.zeros(n, dtype=bool)
            in_a[order[:split]] = True
            sep = vertex_separator_from_cut(sub, in_a)
            if sep.size == 0 or (best is not None and sep.shape[0] >= best.shape[0]):
                continue
            if has_two_sides(sub, sep):
                best = sep
        if best is None:
            return np.empty(0, dtype=np.int64)  # common fallback takes over
        return best

    return component_aware(core)


def decompose_spectral(
    graph: WeightedDigraph,
    *,
    leaf_size: int = 8,
    dense_cutoff: int = 512,
    seed: int = 0,
    full_separator_inclusion: bool = True,
    budget: int | None = None,
) -> SeparatorTree:
    """Separator decomposition of an arbitrary sparse graph via spectral
    nested dissection."""
    return build_separator_tree(
        graph,
        spectral_separator_fn(dense_cutoff=dense_cutoff, seed=seed),
        leaf_size=leaf_size,
        full_separator_inclusion=full_separator_inclusion,
        budget=budget,
    )
