"""Reachability and transitive closure via the boolean specialization.

Paper §5: "the computation of the set E⁺ for the reachability problem can be
performed in O(log²n) time and O(n log³n) work if ωμ = 1, and
O(M(n^μ)log²n + n log²n) work otherwise."  All of Algorithms 4.1/4.3 run
unchanged over the boolean semiring; the node-level APSPs become boolean
closures, charged as repeated squaring with the M(r) kernel (see
:mod:`repro.kernels.boolmat`).
"""

from __future__ import annotations

import numpy as np

from ..pram.machine import NULL_LEDGER, Ledger
from .augment import Augmentation
from .digraph import WeightedDigraph
from .leaves_up import augment_leaves_up
from .semiring import BOOLEAN
from .septree import SeparatorTree
from .sssp import sssp_scheduled

__all__ = ["reachability_augmentation", "reachable_from", "transitive_closure"]


def reachability_augmentation(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> Augmentation:
    """Boolean E⁺ for ``graph`` by Algorithm 4.1 (edge weights are ignored;
    ``augment_doubling(graph, tree, BOOLEAN)`` is Algorithm 4.3's)."""
    return augment_leaves_up(graph, tree, BOOLEAN, ledger=ledger)


def reachable_from(
    aug: Augmentation,
    sources,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Boolean matrix ``(s, n)``: which vertices each source reaches (the
    scheduled query engine over the boolean semiring)."""
    if aug.semiring.name != "boolean":
        raise ValueError("augmentation must be boolean; use reachability_augmentation")
    return sssp_scheduled(aug, sources, ledger=ledger)


def transitive_closure(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Full n×n reachability matrix (reflexive)."""
    aug = reachability_augmentation(graph, tree, ledger=ledger)
    closure = reachable_from(aug, np.arange(graph.n), ledger=ledger)
    np.fill_diagonal(closure, True)
    return closure
