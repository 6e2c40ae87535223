"""Decomposition quality metrics — which μ a tree actually achieved.

Paper §5 assumes |S(t)| = O(|V(t)|^μ), geometric child shrinkage, and O(1)
leaves.  Experiments must report the decomposition they actually ran on, so
this module fits μ̂ by least squares on log |S(t)| vs log |V(t)| over
internal nodes, and summarizes balance and height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.septree import SeparatorTree

__all__ = [
    "FIRST_PASS_ENGINES",
    "DecompositionQuality",
    "assess",
    "best_first_pass",
    "eplus_score",
    "separability_score",
]


@dataclass(frozen=True)
class DecompositionQuality:
    n: int
    num_nodes: int
    height: int
    max_leaf_size: int
    mu_hat: float
    mu_intercept: float
    max_separator: int
    worst_balance: float
    height_over_log2n: float

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"n={self.n} nodes={self.num_nodes} height={self.height} "
            f"(={self.height_over_log2n:.2f}·log₂n) μ̂={self.mu_hat:.3f} "
            f"max|S|={self.max_separator} worst-balance={self.worst_balance:.3f} "
            f"max-leaf={self.max_leaf_size}"
        )


def assess(tree: SeparatorTree) -> DecompositionQuality:
    """Measure the tree against the §5 assumptions."""
    sizes, seps, balances = [], [], []
    for t in tree.nodes:
        if t.is_leaf:
            continue
        sizes.append(t.size)
        seps.append(max(1, t.separator.shape[0]))
        kid_sizes = [tree.nodes[c].size for c in t.children]
        balances.append(max(kid_sizes) / t.size if kid_sizes else 0.0)
    if sizes:
        x = np.log(np.asarray(sizes, dtype=np.float64))
        y = np.log(np.asarray(seps, dtype=np.float64))
        if np.ptp(x) > 1e-9:
            mu, intercept = np.polyfit(x, y, 1)
        else:
            mu, intercept = 0.0, float(y.mean())
    else:
        mu, intercept = 0.0, 0.0
    log2n = max(1.0, np.log2(max(2, tree.n)))
    return DecompositionQuality(
        n=tree.n,
        num_nodes=len(tree.nodes),
        height=tree.height,
        max_leaf_size=tree.max_leaf_size(),
        mu_hat=float(mu),
        mu_intercept=float(intercept),
        max_separator=int(max(seps)) if seps else 0,
        worst_balance=float(max(balances)) if balances else 0.0,
        height_over_log2n=tree.height / log2n,
    )


def eplus_score(tree: SeparatorTree) -> int:
    """Σ_t (|S(t)|² + |B(t)|²) — the clique terms of |E⁺| (§3.2:
    E_t = B(t)×B(t) ∪ S(t)×S(t)), the cost the flow refiner exists to
    shrink.  A cheap tree-only proxy for the real |E⁺|; lower is better."""
    return int(
        sum(
            int(t.separator.shape[0]) ** 2 + int(t.boundary.shape[0]) ** 2
            for t in tree.nodes
        )
    )


def separability_score(tree: SeparatorTree) -> float:
    """How separator-friendly the graph looks through this tree, in
    ``[0, 1]``: ``1 − min(1, eplus_score / n²)``.

    A good decomposition (|S(t)| ≪ |V(t)|) keeps the clique terms
    near-linear, so the score approaches 1; an expander or dense digraph
    forces Θ(n)-size top separators, the quadratic terms dominate n², and
    the score collapses toward 0.  ``mode="auto"`` compares it against
    :data:`repro.core.api.DIRECT_GATE` to choose between the exact E⁺
    build and the direct tier (plain G, no preprocessing).

    The score is flat at 0 once the clique terms reach n², so a tree cut
    by a ``budget`` of n² (:func:`best_first_pass`) scores exactly what
    its complete build would: 0.0."""
    n = max(1, tree.n)
    return float(1.0 - min(1.0, eplus_score(tree) / float(n * n)))


#: The candidate engines of :func:`best_first_pass` (and so of the
#: ``mode="auto"`` gate, whose tree-cache key hashes this tuple).
FIRST_PASS_ENGINES: tuple[str, ...] = ("spectral", "multilevel")


def best_first_pass(
    graph: WeightedDigraph,
    *,
    leaf_size: int = 8,
    engines: tuple[str, ...] = FIRST_PASS_ENGINES,
    budget: int | None = None,
) -> tuple[str, SeparatorTree]:
    """Build one tree per candidate engine and keep the cheapest by
    :func:`eplus_score`.  Engines that fail on this graph are skipped; if
    every candidate fails, the last error propagates.

    With a ``budget`` (only the default engines take one), each engine
    stops recursing once its running :func:`eplus_score` passes it
    (``build_separator_tree(budget=...)``).
    A cut tree scores above the budget, so it loses to any complete one;
    its candidate entry records ``eplus_score_at_least`` and ``cut_at``
    (nodes built) instead of ``eplus_score``.  With ``budget ≥ n²`` — the
    auto gate's — a cut tree's :func:`separability_score` is exactly its
    complete build's, 0.0, and every complete tree is the unbudgeted one.

    The winning tree carries the full decision on ``tree.selection`` —
    per-engine scores, failures, and why the winner won — so the choice is
    observable downstream (``Augmentation.stats()["separators"]`` and the
    server ``stats`` RPC) instead of silently discarded."""
    from . import decompose

    extra = {} if budget is None else {"budget": budget}
    best: tuple[str, SeparatorTree] | None = None
    best_score = 0
    last_error: Exception | None = None
    candidates: list[dict] = []
    for name in engines:
        try:
            tree = decompose(graph, name, leaf_size=leaf_size, **extra)
        except Exception as exc:  # noqa: BLE001 — any engine may reject a family
            last_error = exc
            candidates.append(
                {"engine": name, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        score = eplus_score(tree)
        cut = tree.cut_at is not None
        entry = {"engine": name, ("eplus_score_at_least" if cut else "eplus_score"): score}
        entry["separability"] = separability_score(tree)
        if cut:
            entry["cut_at"] = tree.cut_at
        candidates.append(entry)
        if best is None or score < best_score:
            best, best_score = (name, tree), score
    if best is None:
        raise last_error if last_error is not None else ValueError("no engines given")
    name, tree = best
    tree.selection = {
        "chosen": name,
        "why": (
            f"lowest eplus_score ({'≥' if tree.cut_at is not None else ''}"
            f"{best_score}) among "
            f"{len(engines)} first-pass engine(s)"
        ),
        "candidates": candidates,
    }
    return best
