"""Shortest-path queries over the augmented graph (paper §3.2).

Two query strategies, both O(polylog) parallel time once E⁺ exists:

* :func:`sssp_naive` — generic Bellman–Ford on G⁺ run for (at most) the
  Theorem 3.1 diameter bound of phases, scanning every edge each phase:
  O((ℓ + d_G)·(|E| + |E⁺|)) work per source.
* :func:`sssp_scheduled` — the level schedule, scanning each E⁺ edge O(1)
  times: O(ℓ·|E| + |E⁺|) work per source (ablation A3 measures the gap).

Both accept many sources at once; rows of the distance matrix relax
simultaneously (the PRAM's per-source independence).
"""

from __future__ import annotations

import numpy as np

from ..kernels.bellman_ford import (
    initial_distances,
    phases_to_convergence,
    relax_fixpoint,
)
from ..pram.machine import NULL_LEDGER, Ledger
from .augment import Augmentation
from .scheduler import PhaseSchedule

__all__ = [
    "sssp_naive",
    "sssp_scheduled",
    "measured_diameter",
]


def _as_source_array(sources) -> tuple[np.ndarray, bool]:
    single = isinstance(sources, (int, np.integer))
    arr = np.atleast_1d(np.asarray([sources] if single else sources, dtype=np.int64))
    return arr, single


def sssp_naive(
    aug: Augmentation,
    sources,
    *,
    phases: int | None = None,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Distances from each source via full-scan Bellman–Ford on G⁺.

    ``phases`` defaults to the Theorem 3.1 diameter bound; convergence can
    (and usually does) stop the loop earlier.  G⁺ and its relaxer are cached
    on the augmentation, so repeated calls skip reconstruction.
    """
    srcs, single = _as_source_array(sources)
    semiring = aug.semiring
    dist = initial_distances(aug.graph.n, srcs, semiring)
    cap = aug.diameter_bound if phases is None else phases
    relax_fixpoint(aug.relaxer(), dist, cap, ledger=ledger)
    return dist[0] if single else dist


#: Default number of sources relaxed together.  One phase materializes an
#: (s_block, edges-in-phase) candidate array; blocking keeps that temporary
#: cache-sized so large batches don't thrash memory bandwidth.
SOURCE_BLOCK = 64


def sssp_scheduled(
    aug: Augmentation,
    sources,
    *,
    schedule: PhaseSchedule | None = None,
    ledger: Ledger = NULL_LEDGER,
    source_block: int = SOURCE_BLOCK,
) -> np.ndarray:
    """Distances from each source via the §3.2 level schedule (one pass).

    Sources are processed in blocks of ``source_block`` (PRAM semantics are
    unaffected — rows are independent; the blocking only bounds the
    per-phase temporaries).  When ``schedule`` is omitted the augmentation's
    cached schedule is used, so repeated calls compile it exactly once."""
    srcs, single = _as_source_array(sources)
    if schedule is None:
        schedule = aug.schedule()
    dist = initial_distances(aug.graph.n, srcs, aug.semiring)
    block = max(1, source_block)
    for start in range(0, srcs.shape[0], block):
        schedule.run(dist[start : start + block], ledger=ledger)
    return dist[0] if single else dist


def measured_diameter(aug: Augmentation) -> int:
    """Empirical minimum-weight diameter of G⁺ — the quantity Theorem
    3.1(ii) bounds by ``4·d_G + 2ℓ + 1``.

    Runs the all-pairs Jacobi iteration to its fixpoint; O(n·|E∪E⁺|·diam)
    work, intended for validation scale.
    """
    gplus = aug.augmented_graph()
    dist = initial_distances(gplus.n, np.arange(gplus.n), aug.semiring)
    return phases_to_convergence(gplus, dist, semiring=aug.semiring)
