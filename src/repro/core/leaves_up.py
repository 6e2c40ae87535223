"""Algorithm 4.1 — computing E⁺ from the leaves up (paper §4.1).

The tree is processed one level at a time, deepest first; all nodes of a
level are independent and form one parallel step.

Per leaf: APSP of the O(1)-size leaf subgraph (Floyd–Warshall), plus the
leaf's exact minimum-weight diameter (the ℓ of Theorem 3.1).

Per internal node ``t`` with children ``t₁, t₂`` (paper Algorithm 4.1):

i.   ``H_S``: complete graph on ``S(t)`` weighted with the ⊕ of the two
     children's distances (every separator vertex is a boundary vertex of
     both children, so those distances are available).
ii.  APSP on ``H_S`` → exact ``dist_{G(t)}`` on ``S×S`` (Prop 4.2).
iii. The tripartite graph ``H`` on ``B(t) ∪ S(t)`` with child distances as
     ``B↔S`` edge weights and ``dist_{H_S}`` as ``S×S`` weights.
iv.  3-limited distances in ``H`` — realized as the dense triple product
     ``Direct[:,S] ⊗ D_S ⊗ Direct[S,:]`` (one row/column per boundary
     vertex, exactly the paper's per-vertex 3-phase Bellman–Ford).
v.   ⊕ with the direct child distances → exact ``dist_{G(t)}`` on ``B×B``.

As a byproduct the same products make *every* pair of ``B(t) ∪ S(t)`` exact
(the first/last-separator-hit decomposition in the proof of Prop 4.2 covers
the cross pairs too), which the planar pipeline and path reconstruction
reuse; Algorithm 4.3 certifies the same matrix, which test I3 exploits.

The build takes "one level is one parallel step" literally: it captures a
:class:`~repro.core.reweight.ReweightPlan` for the skeleton and runs it
with every node dirty, so each level is one stacked ``(nodes × P × P)``
min-plus step and the plan is left on the result (``_reweight_state``) for
later incremental reweights.
"""

from __future__ import annotations

from ..kernels.dispatch import resolve_kernel
# ``semiring_matmul`` stays importable here: the perfbench tracer wraps it
# by this module's name.
from ..kernels.minplus import semiring_matmul  # noqa: F401
from ..pram.machine import NULL_LEDGER, Ledger
from .augment import Augmentation
from .digraph import WeightedDigraph
from .doubling import dense_semiring_weights  # noqa: F401  (re-exported)
from .reweight import ReweightPlan
from .semiring import MIN_PLUS, SEMIRINGS, Semiring
from .septree import SeparatorTree

__all__ = ["augment_leaves_up", "dense_semiring_weights"]


def augment_leaves_up(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring = MIN_PLUS,
    *,
    ledger: Ledger = NULL_LEDGER,
    keep_node_distances: bool = True,
    raise_on_negative_cycle: bool = True,
    kernel: str | None = None,
) -> Augmentation:
    """Compute the augmentation with Algorithm 4.1 (one parallel step per
    tree level, deepest first), charging its PRAM costs to ``ledger``.

    ``kernel`` is the kernel preference recorded on the result (see
    :mod:`repro.kernels.dispatch`); a spec this install cannot run — an
    unknown name, or ``jit`` without numba — fails the build here rather
    than the first query.
    """
    if semiring.name not in SEMIRINGS:
        raise ValueError("semiring must be one of the registered instances")
    resolve_kernel(kernel, 1, 1, 1)
    return ReweightPlan.capture(graph, tree).run(
        graph,
        semiring,
        keep_node_distances=keep_node_distances,
        raise_on_negative_cycle=raise_on_negative_cycle,
        kernel=kernel,
        ledger=ledger,
    )
