"""The direct tier: exact frontier Bellman–Ford on G, with no preprocessing.

Cohen's E⁺ pays off only when the separators are small.  A graph without
them (an expander, a dense digraph — ``mode="auto"`` measures this with
:func:`repro.separators.quality.separability_score`) is served as plain G
instead (``mode="direct"``).  :class:`DirectAugmentation` is an
:class:`~repro.core.augment.Augmentation` with no E⁺ edges over the one-leaf
:func:`trivial_tree`, so every consumer of an augmentation — the query
engine and its executors, the server, save/load, reweighting — serves it
unchanged:

* ``diameter_bound`` is ``n`` (a shortest path has at most ``n - 1``
  edges), the cap of the naive engine;
* ``schedule()`` is ``n`` phases of the one G relaxer, which
  :func:`~repro.kernels.bellman_ford.run_phases` frontier-prunes and leaves
  at convergence, so both engines compute the same exact distances;
* a reweight over the same skeleton binds the new weights to the prior G
  relaxer's layout (two gathers, no sort) — there is nothing to replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.bellman_ford import EdgeRelaxer
from .augment import Augmentation, NegativeCycleDetected
from .digraph import WeightedDigraph
from .negcycle import find_negative_cycle, has_negative_cycle
from .scheduler import PhaseSchedule
from .semiring import MIN_PLUS, Semiring
from .septree import SeparatorTree, SepTreeNode

__all__ = ["DirectAugmentation", "direct_augmentation", "trivial_tree"]


def trivial_tree(n: int) -> SeparatorTree:
    """The degenerate one-node decomposition (a single all-vertex leaf):
    the honest tree for a graph we decided not to separate."""
    empty = np.empty(0, dtype=np.int64)
    root = SepTreeNode(
        idx=0,
        level=0,
        parent=-1,
        vertices=np.arange(n, dtype=np.int64),
        separator=empty,
        boundary=empty.copy(),
    )
    return SeparatorTree([root], n)


@dataclass
class DirectAugmentation(Augmentation):
    """An :class:`~repro.core.augment.Augmentation` with no extra edges:
    queries relax G itself to convergence and answer exactly."""

    @property
    def diameter_bound(self) -> int:
        """``n``: Bellman–Ford on G converges within ``n - 1`` phases."""
        return self.graph.n

    def schedule(self):
        """The cached :class:`~repro.core.scheduler.PhaseSchedule`: ``n``
        phases of the one G relaxer, shared *by identity* so every executor
        frontier-prunes them as one fixpoint loop."""
        if self._schedule is None:
            n = self.diameter_bound
            self._schedule = PhaseSchedule(
                relaxers=[self.relaxer()] * n,
                labels=["bf"] * n,
                edge_scans=n * self.graph.m,
                aug_edge_phase_counts=np.empty(0, dtype=np.int64),
            )
        return self._schedule

    def stats(self) -> dict:
        """Inherited augmentation stats plus ``mode="direct"``."""
        out = super().stats()
        out["mode"] = "direct"
        return out


def direct_augmentation(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring = MIN_PLUS,
    *,
    prior: DirectAugmentation | None = None,
) -> DirectAugmentation:
    """The direct tier over ``graph``, hung off ``tree`` (a
    :func:`trivial_tree`, which may carry the ``mode="auto"`` decision).

    Raises :class:`~repro.core.augment.NegativeCycleDetected` when a
    shortest-path semiring meets a negative cycle, as the exact build does.
    ``prior`` (a direct augmentation over the same edge skeleton, e.g. the
    one a reweight replaces) lends its G relaxer layout, so the new weights
    are bound by gathering instead of re-sorting the edges.
    """
    if (
        semiring.name in ("min-plus", "hops")
        and (graph.weight < 0).any()
        and has_negative_cycle(graph)
    ):
        cycle = find_negative_cycle(graph)
        raise NegativeCycleDetected(0, cycle[0] if cycle else -1)
    empty = np.empty(0, dtype=np.int64)
    aug = DirectAugmentation(
        graph=graph,
        tree=tree,
        semiring=semiring,
        src=empty,
        dst=empty.copy(),
        weight=np.empty(0, dtype=semiring.dtype),
        leaf_diameters={},
        method="direct",
    )
    old = prior._relaxer if prior is not None else None
    if old is not None:
        gplus = aug.augmented_graph()
        if old.layout.matches(gplus.src, gplus.dst):
            weight = np.asarray(gplus.weight, dtype=semiring.dtype)
            aug._relaxer = EdgeRelaxer.from_layout(old.layout, weight, semiring)
    return aug
