"""Shared machinery for separator oracles.

Every engine needs the same scaffolding:

* *component awareness* — a disconnected subgraph whose largest component is
  already balanced needs no separator at all (the empty set splits it);
  otherwise the engine should separate inside the largest component;
* *progress guarantee* — a set ``S`` only makes the recursion shrink when
  ``sub ∖ S`` has at least two connected components (otherwise one child
  equals the whole subgraph).  :func:`ensure_progress` verifies this and
  falls back to a neighborhood separator (``N(v)`` of a minimum-degree
  vertex isolates ``{v}`` from the rest) before giving up with a clear
  error — which is the *correct* outcome for graphs that admit no separator
  at all (e.g. cliques, per the paper's §1 definition).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import DecompositionError, InseparableSubgraph, SeparatorFn, rest_labels

__all__ = [
    "BALANCE",
    "rest_components",
    "has_two_sides",
    "laplacian",
    "cut_endpoints",
    "vertex_separator_from_cut",
    "neighborhood_separator",
    "ensure_progress",
    "component_aware",
]

#: Default balance target: no side above two thirds.
BALANCE = 2.0 / 3.0


def rest_components(sub: WeightedDigraph, sep_local: np.ndarray) -> tuple[int, int]:
    """``(number of components, largest component size)`` of ``sub ∖ S``."""
    ncomp, labels = rest_labels(sub, sep_local)
    counts = np.bincount(labels, minlength=ncomp)
    counts[labels[sep_local]] = 0  # S's vertices are singletons, not components
    counts = counts[counts > 0]
    return (int(counts.shape[0]), int(counts.max())) if counts.size else (0, 0)


def has_two_sides(sub: WeightedDigraph, sep_local: np.ndarray) -> bool:
    """Whether removing ``S`` leaves ≥2 components (recursion progress)."""
    ncomp, _ = rest_components(sub, sep_local)
    return ncomp >= 2


def laplacian(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, *, dense: bool):
    """``D − A`` for the symmetric adjacency ``A[rows, cols] = data`` (the
    ``(rows, cols)`` pairs unique): a dense array for the small ``eigh``
    solves, CSR for ``eigsh``.  Both hold the same float entries."""
    if dense:
        a = np.zeros((n, n))
        a[rows, cols] = data
        return np.diag(a.sum(axis=1)) - a
    import scipy.sparse as sp

    a = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return sp.diags(np.asarray(a.sum(axis=1)).ravel()) - a


def cut_endpoints(g: WeightedDigraph, in_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The A-side and B-side endpoint sets of the edges crossing the (A, B)
    vertex split, smaller first (A first on a tie)."""
    cross = in_a[g.src] != in_a[g.dst]
    a_side = np.union1d(g.src[cross & in_a[g.src]], g.dst[cross & in_a[g.dst]])
    b_side = np.union1d(g.src[cross & ~in_a[g.src]], g.dst[cross & ~in_a[g.dst]])
    return (a_side, b_side) if a_side.shape[0] <= b_side.shape[0] else (b_side, a_side)


def vertex_separator_from_cut(g: WeightedDigraph, in_a: np.ndarray) -> np.ndarray:
    """Smaller endpoint set of the edges crossing the (A, B) vertex split."""
    return cut_endpoints(g, in_a)[0]


def neighborhood_separator(sub: WeightedDigraph) -> np.ndarray:
    """``N(v)`` of a minimum-skeleton-degree vertex: isolates ``{v}`` from
    everything outside ``N[v]`` — the last-resort separator (very
    unbalanced, but always progresses when the graph is not complete)."""
    skel = sub.skeleton
    degrees = np.diff(skel.indptr)
    v = int(np.argmin(degrees))
    sep = np.unique(skel.neighbors(v))
    sep = sep[sep != v]
    if sep.shape[0] + 1 >= sub.n:
        # The min-degree closed neighborhood covers everything ⟺ the
        # skeleton is complete ⟺ no separator exists (paper §1 definition).
        raise InseparableSubgraph(sub.n)
    return sep


def ensure_progress(sub: WeightedDigraph, sep_local: np.ndarray) -> np.ndarray:
    """Return ``sep_local`` if it genuinely splits ``sub``, otherwise the
    neighborhood fallback (or raise when even that cannot progress)."""
    if sep_local.size and has_two_sides(sub, sep_local):
        return sep_local
    fallback = neighborhood_separator(sub)
    if has_two_sides(sub, fallback):
        return fallback
    raise DecompositionError(
        f"no progressing separator found for subgraph of size {sub.n}"
    )


def component_aware(core: Callable[[WeightedDigraph, np.ndarray], np.ndarray]) -> SeparatorFn:
    """Wrap a connected-case oracle with the disconnected-graph protocol:

    * largest component already ≤ BALANCE · n → empty separator;
    * otherwise run ``core`` on the largest component and lift its local
      indices back, then verify progress.
    """

    def fn(sub: WeightedDigraph, global_vertices: np.ndarray) -> np.ndarray:
        ncomp, labels = rest_labels(sub, np.empty(0, dtype=np.int64))
        counts = np.bincount(labels, minlength=ncomp)
        big = int(np.argmax(counts))
        if ncomp > 1 and counts[big] <= BALANCE * sub.n:
            return np.empty(0, dtype=np.int64)
        if ncomp > 1:
            comp = np.nonzero(labels == big)[0]
            inner, _ = sub.induced_subgraph(comp)
            sep = comp[ensure_progress(inner, core(inner, global_vertices[comp]))]
            return sep  # progress inside the component implies progress here
        return ensure_progress(sub, core(sub, global_vertices))

    return fn
