"""The spine graph: boundary cliques with exact weights, relaxed to exactness.

The spine holds every shard-boundary vertex.  Its edge set is the union of
the shards' boundary cliques ``B(t) × B(t)``, each edge ``(a, b)`` weighted
by the exact in-shard distance ``d_{G(t)}(a, b)`` — columns of the shard's
boundary-row matrix.  This is the fleet-level analogue of the paper's E⁺
construction, and it is *distance-preserving*: any ``G``-path between spine
vertices splits at its spine visits into within-shard segments whose
endpoints lie in that shard's boundary, and each segment is dominated by
one clique edge (see DESIGN.md §8 for the full argument).

:meth:`SpineSolver.solve` runs seeded Bellman–Ford over those edges.  The
hop count of an optimal spine path is at most its number of shard-segment
switches; by the Theorem 3.1 diameter argument applied shard-wise that is
O(cut depth) — a handful of phases — and :class:`~repro.kernels.
bellman_ford.EdgeRelaxer`'s frontier pruning stops each source row the
moment it converges.  A hard cap of ``|spine| + 1`` phases guards the loop
(only a negative cycle, excluded upstream, could reach it).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.augment import dedupe_edges
from ..core.semiring import Semiring
from ..kernels.bellman_ford import EdgeRelaxer, relax_fixpoint

__all__ = ["SpineSolver"]


class SpineSolver:
    """Seeded Bellman–Ford over the boundary-clique spine graph.

    Parameters
    ----------
    plan:
        The :class:`~repro.shard.partition.ShardPlan`.
    boundary_rows:
        Per shard id, its boundary-row matrix ``(|B(t)|, n_t)`` from
        :meth:`~repro.shard.engine.ShardEngine.boundary_matrix`.
    semiring:
        The path algebra (same instance the shard engines relax under).
    """

    def __init__(
        self,
        plan,
        boundary_rows: list[np.ndarray],
        semiring: Semiring,
    ) -> None:
        self.semiring = semiring
        self.n_spine = int(plan.spine.shape[0])
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        for shard, rows in zip(plan.shards, boundary_rows):
            b = shard.boundary.shape[0]
            if b == 0:
                continue
            sidx = plan.spine_index[shard.boundary]
            w = rows[:, shard.boundary_local]  # (b, b): d_{G(t)}(a, ·) on B(t)
            src = np.repeat(sidx, b)
            dst = np.tile(sidx, b)
            wf = np.ascontiguousarray(w).reshape(-1)
            keep = (src != dst) & (wf != semiring.zero)
            src_parts.append(src[keep])
            dst_parts.append(dst[keep])
            w_parts.append(wf[keep])
        if src_parts:
            src = np.concatenate(src_parts)
            dst = np.concatenate(dst_parts)
            w = np.concatenate(w_parts)
            # Boundaries overlap across shards (shared ancestor separators):
            # the same (a, b) pair may arrive from several cliques — keep the
            # ⊕-best weight once.
            src, dst, w = dedupe_edges(self.n_spine, src, dst, w, semiring)
        else:
            src = dst = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=semiring.dtype)
        self.m = int(src.shape[0])
        self._relaxer = EdgeRelaxer(src, dst, w, semiring)
        self.phases_last = 0
        self.phases_max = 0

    def solve(self, seeds: np.ndarray) -> np.ndarray:
        """Relax ``seeds`` (shape ``(s, |spine|)``) to the exact fixpoint in
        place and return it.

        Each row must hold, for its source ``v``, the exact home-shard
        distances ``d_{G(home(v))}(v, b)`` at that shard's boundary columns
        and 0̄ elsewhere; the fixpoint is then the exact global
        ``d_G(v, ·)`` on the spine.
        """
        if self.n_spine == 0 or seeds.shape[0] == 0:
            self.phases_last = 0
            return seeds
        cap = self.n_spine + 1
        phases, active = relax_fixpoint(self._relaxer, seeds, cap)
        if active.size:  # pragma: no cover - negative cycles are excluded upstream
            raise RuntimeError(
                f"spine relaxation did not converge within {cap} phases"
            )
        self.phases_last = phases
        self.phases_max = max(self.phases_max, phases)
        return seeds

    def stats(self) -> dict[str, Any]:
        """Spine-graph shape and relaxation telemetry."""
        return {
            "vertices": self.n_spine,
            "edges": self.m,
            "phases_last": self.phases_last,
            "phases_max": self.phases_max,
        }
