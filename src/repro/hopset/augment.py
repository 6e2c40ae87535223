"""Hopset-as-augmentation: slotting ``H`` into the E⁺-shaped pipeline.

The entire serving stack — ``augmented_graph()``, :class:`~repro.kernels.
bellman_ford.EdgeRelaxer`, :class:`~repro.core.query.QueryEngine`, the shm
workers, the server's reweight RPC — consumes an :class:`~repro.core.
augment.Augmentation` through three touch points: the extra edge arrays,
``diameter_bound`` (the naive-phase cap) and ``schedule()`` (the scheduled
path).  :class:`HopsetAugmentation` is therefore a small subclass that

* stores the hopset's shortcuts as the ``src``/``dst``/``weight`` arrays
  (``G⁺ = G ∪ H`` falls out of the inherited ``augmented_graph()``),
* hangs the augmentation off a :func:`trivial_tree` (one all-vertex leaf —
  there *is* no useful separator decomposition, that is the point),
* caps both query paths at ``hopset.hop_cap`` — ``diameter_bound`` for the
  naive engine, a :class:`HopSchedule` of ``hop_cap`` repeated full-edge
  phases for the scheduled engine.  ``run_phases`` frontier-prunes the
  repeated relaxer, so the schedule is a capped Bellman–Ford fixpoint loop
  over G ∪ H that early-exits on convergence; both engine modes produce
  identical distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.augment import Augmentation
from ..core.septree import SeparatorTree, SepTreeNode
from ..kernels.bellman_ford import EdgeRelaxer, run_phases
from ..pram.machine import NULL_LEDGER, Ledger
from .construct import Hopset

__all__ = ["HopSchedule", "HopsetAugmentation", "trivial_tree"]


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
class HopSchedule:
    """Schedule-shaped wrapper over a capped Bellman–Ford fixpoint loop:
    ``hop_cap`` phases of one shared full-edge relaxer over G ∪ H.  Mirrors
    :class:`~repro.core.scheduler.PhaseSchedule` (``relaxers``/``labels``/
    ``edge_scans``/``run``) so ``sssp_scheduled`` and the query engine's
    scheduled path run it unmodified."""

    relaxers: list
    labels: list[str]
    #: worst-case edge scans of one pass (frontier pruning usually stops
    #: far earlier — this is the budget, not the typical cost).
    edge_scans: int
    aug_edge_phase_counts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def num_phases(self) -> int:
        return len(self.relaxers)

    def run(self, dist: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> np.ndarray:
        """Relax ``dist`` to the hop-capped fixpoint (``run_phases`` groups
        the identical relaxers and frontier-prunes with early exit)."""
        return run_phases(self.relaxers, dist, ledger=ledger)


@dataclass
class HopsetAugmentation(Augmentation):
    """An :class:`~repro.core.augment.Augmentation` whose extra edges are a
    ``(1+ε)`` hopset rather than exact E⁺ shortcuts — every inherited
    consumer works unchanged, but served distances are approximate:
    ``d ≤ d̂ ≤ (1+ε)·d`` (see :mod:`repro.hopset.construct`)."""

    hopset: Hopset | None = None

    @property
    def eps(self) -> float:
        return self.hopset.eps if self.hopset is not None else 0.0

    @property
    def diameter_bound(self) -> int:
        """The query-phase cap: ``β_q`` hop-limited phases over G ∪ H
        instead of Theorem 3.1's exact-diameter bound."""
        if self.hopset is None:  # pragma: no cover - defensive
            return super().diameter_bound
        return self.hopset.hop_cap

    def reuse_layout(self, prior: "HopsetAugmentation") -> None:
        """Bind this augmentation's G ∪ H weights to ``prior``'s relaxer
        layout when H kept its edges (a replay over the same skeleton
        usually does), so a reweight skips the sorts."""
        old = prior._relaxer
        if old is None or self._relaxer is not None:
            return
        gplus = self.augmented_graph()
        if old.layout.matches(gplus.src, gplus.dst):
            weight = np.asarray(gplus.weight, dtype=self.semiring.dtype)
            self._relaxer = EdgeRelaxer.from_layout(old.layout, weight, self.semiring)

    def schedule(self):
        """The cached :class:`HopSchedule`: ``hop_cap`` phases of one
        shared G∪H relaxer (shared *by identity*, so pickled workers keep
        the frontier-pruning fast path after dedup)."""
        if self._schedule is None:
            relaxer = self.relaxer()
            cap = self.diameter_bound
            self._schedule = HopSchedule(
                relaxers=[relaxer] * cap,
                labels=[f"hop-{i + 1}" for i in range(cap)],
                edge_scans=cap * (self.graph.m + self.size),
            )
        return self._schedule

    def stats(self) -> dict:
        """Inherited augmentation stats plus ``mode``/``eps`` and the
        hopset's own record (pivot counts, budgets, hop_cap, build wall)."""
        out = super().stats()
        out["mode"] = "approx"
        out["eps"] = self.eps
        out["hopset"] = self.hopset.stats() if self.hopset is not None else None
        return out

    def verify_edges(self, sample_size: int = 64, rng=None) -> float:
        """Hopset shortcuts are hop-limited (they may legitimately
        *over*estimate when the budget truncates a ball), so the exact-E⁺
        verifier's overestimate check does not apply; check soundness only:
        no shortcut may underestimate the true distance."""
        from ..kernels.bellman_ford import bellman_ford

        if self.size == 0:
            return 0.0
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(self.size, size=min(sample_size, self.size), replace=False)
        sources = np.unique(self.src[idx])
        dist = bellman_ford(self.graph, sources)
        pos = np.searchsorted(sources, self.src[idx])
        under = np.maximum(
            0.0, dist[pos, self.dst[idx]] - self.weight[idx].astype(np.float64)
        )
        return float(under.max(initial=0.0))
