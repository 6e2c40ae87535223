"""Sampled-pivot (1+ε) hopset construction for non-separable digraphs.

When the separator engines report poor quality (dense digraphs, expanders,
social-graph-like inputs), E⁺ blows up and the Cohen pipeline is a bad fit.
This module builds a *hopset* ``H`` instead — a set of weighted shortcut
edges such that bounded-hop Bellman–Ford over ``G ∪ H`` answers every query
within a ``(1+ε)`` multiplicative error:

* **Pivot sampling** (Ullman–Yannakakis / Fineman-style): sample ``P₀`` at
  rate ``min(1, 3·ln n / k)`` so that every ``k``-hop window of every
  shortest path contains a pivot with high probability, then nest
  geometrically coarser scales ``P_{j+1} ⊂ P_j`` (rate ½) with doubled hop
  budgets ``k_{j+1} = 2·k_j`` — the coarse scales shorten chains on long
  paths without re-paying the dense scale-0 balls.
* **Ball growing**: per scale, ``k_j`` frontier-pruned multi-source
  Bellman–Ford phases from ``P_j`` (one shared
  :class:`~repro.kernels.bellman_ford.EdgeRelaxer` over ``G``).
  After ``h`` phases row ``p`` holds exactly the best weight over ≤h-edge
  paths from ``p``, so each emitted ``p → q`` shortcut carries a *real path
  weight*: ``H`` can never underestimate a distance, giving ``d ≤ d̂``
  deterministically.
* **Geometric rounding**: with non-negative weights each positive shortcut
  weight is rounded *up* to the next power of ``(1+ε)``.  Per-edge
  multiplicative rounding does not compound along a chain
  (``Σ (1+ε)·wᵢ = (1+ε)·Σ wᵢ``), so the shortcut chain covering a shortest
  path weighs at most ``(1+ε)·d`` — that is the entire error budget, hence
  ``d̂ ≤ (1+ε)·d``.  Rounding is disabled when any weight is negative (the
  multiplicative bound is meaningless against ``d ≤ 0``); the shortcuts are
  then exact and the observed error is 0.

Query side: a shortest path decomposes into ≤k hops to the first pivot, a
pivot→pivot shortcut chain, and ≤k hops from the last pivot; every window
of ``k`` hops contains a pivot, so the chain has ≤ ``⌈n/k⌉`` shortcut hops
(fewer with the coarse scales).  :func:`hop_cap_for` turns that into the
phase budget ``β_q = min(n+1, 2k + 2⌈n/k⌉ + 2)`` — the ``n+1`` fallback is
plain Bellman–Ford convergence, so the cap is always safe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.augment import dedupe_edges
from ..core.digraph import WeightedDigraph
from ..core.semiring import MIN_PLUS, Semiring
from ..kernels.bellman_ford import (
    EdgeRelaxer,
    RelaxerLayout,
    initial_distances,
    relax_fixpoint,
)

__all__ = [
    "Hopset",
    "build_hopset",
    "replay_hopset",
    "default_hop_budget",
    "hop_cap_for",
]

#: Oversampling constant: pivot rate ``C·ln n / k`` ⇒ a fixed k-hop window
#: misses every pivot with probability ≤ n^{-C}.
PIVOT_OVERSAMPLE = 3.0

#: Stop nesting coarser scales once a pivot set is this small (a handful of
#: pivots cannot shorten chains enough to pay for another ball pass).
MIN_SCALE_PIVOTS = 4


@dataclass(frozen=True)
class Hopset:
    """A built ``(1+ε)`` hopset: the shortcut edges plus everything needed
    to *replay* the construction under new weights (same pivots, same
    budgets — the reweight analogue of :class:`~repro.core.reweight.
    ReweightPlan`'s provenance capture)."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    #: Per-scale pivot vertex sets, finest (P₀) first; nested.
    pivots: tuple[np.ndarray, ...]
    #: Per-scale hop budgets ``k_j`` (doubles per scale).
    budgets: tuple[int, ...]
    eps: float
    #: The base hop budget ``k`` actually used (resolved from
    #: ``hopset_beta`` or the ``√(n·ln n)`` default).
    beta: int
    #: Whether geometric weight rounding was applied (False ⇒ shortcuts are
    #: exact hop-limited distances; happens for eps=0 or negative weights).
    rounded: bool
    #: Query-side phase budget over G ∪ H (see :func:`hop_cap_for`).
    hop_cap: int
    seed: int
    build_wall_s: float
    #: The weight-independent relaxer layout of G the balls ran on; a
    #: replay over the same skeleton binds new weights to it (not saved).
    graph_layout: RelaxerLayout | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        """|H| after deduplication."""
        return int(self.src.shape[0])

    def stats(self) -> dict:
        """Size/shape record: edge count, per-scale pivot counts and hop
        budgets, the ε/β/seed knobs, and the build wall-clock."""
        return {
            "edges": self.size,
            "scales": len(self.pivots),
            "pivots": [int(p.shape[0]) for p in self.pivots],
            "budgets": [int(b) for b in self.budgets],
            "eps": self.eps,
            "beta": self.beta,
            "rounded": self.rounded,
            "hop_cap": self.hop_cap,
            "seed": self.seed,
            "build_wall_s": self.build_wall_s,
        }


def default_hop_budget(n: int) -> int:
    """The work-balancing default ``k ≈ √(n·ln n)``: |P₀| ≈ 3·ln n·n/k ≈ 3k
    pivots each grow a k-phase ball, so construction work ≈ 3k²·m/n ≈
    3·m·ln n — near-linear — while ``hop_cap`` stays O(√(n·ln n))."""
    return max(4, math.ceil(math.sqrt(n * max(1.0, math.log(max(2, n))))))


def hop_cap_for(n: int, k: int) -> int:
    """Phase budget for queries over ``G ∪ H``: ≤k hops into the pivot
    chain, ≤⌈n/k⌉ shortcut hops (one per k-hop window), ≤k hops out, with
    a 2× safety margin on each term, never exceeding plain Bellman–Ford
    convergence (``n+1`` phases)."""
    if n <= 1:
        return 2
    k = max(1, int(k))
    return int(min(n + 1, 2 * k + 2 * math.ceil(n / k) + 2))


def _sample_scales(
    n: int, k: int, rng: np.random.Generator
) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """Nested pivot scales: P₀ at rate ``min(1, C·ln n / k)``, then halve
    the set and double the budget while the set stays useful."""
    rate = min(1.0, PIVOT_OVERSAMPLE * math.log(max(2, n)) / k)
    base = np.flatnonzero(rng.random(n) < rate).astype(np.int64)
    if base.size == 0:
        return (), ()
    pivots = [base]
    budgets = [k]
    while pivots[-1].size > MIN_SCALE_PIVOTS and budgets[-1] < n:
        nxt = pivots[-1][rng.random(pivots[-1].size) < 0.5]
        if nxt.size == 0:
            break
        pivots.append(nxt)
        budgets.append(min(n, budgets[-1] * 2))
    return tuple(pivots), tuple(budgets)


def _ball_distances(
    relaxer: EdgeRelaxer,
    n: int,
    pivots: np.ndarray,
    hops: int,
    semiring: Semiring,
) -> np.ndarray:
    """Hop-limited multi-source Bellman–Ford: after the loop,
    ``dist[i, v]`` is the exact best weight over ≤``hops``-edge paths
    ``pivots[i] → v`` (frontier-pruned; converged rows drop out early)."""
    dist = initial_distances(n, pivots, semiring)
    relax_fixpoint(relaxer, dist, hops)
    return dist


def _round_weights(weight: np.ndarray, eps: float) -> np.ndarray:
    """Round each positive weight *up* to the next integer power of
    ``(1+ε)`` (geometric buckets).  Guarantees ``w ≤ w' ≤ (1+ε)·w`` —
    ``np.maximum`` guards the lower bound against log/pow float error."""
    base = 1.0 + eps
    out = weight.astype(np.float64).copy()
    pos = out > 0
    if pos.any():
        exp = np.ceil(np.log(out[pos]) / math.log(base))
        out[pos] = np.maximum(out[pos], np.power(base, exp))
    return out


def _construct(
    graph: WeightedDigraph,
    semiring: Semiring,
    *,
    eps: float,
    k: int,
    pivots: tuple[np.ndarray, ...],
    budgets: tuple[int, ...],
    seed: int,
    graph_layout: RelaxerLayout | None = None,
) -> Hopset:
    t0 = time.perf_counter()
    if graph_layout is None or not graph_layout.matches(graph.src, graph.dst):
        relaxer = EdgeRelaxer.from_graph(graph, semiring)
    else:
        weight = np.asarray(graph.weight, dtype=semiring.dtype)
        relaxer = EdgeRelaxer.from_layout(graph_layout, weight, semiring)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []
    for pv, budget in zip(pivots, budgets):
        dist = _ball_distances(relaxer, graph.n, pv, budget, semiring)
        block = dist[:, pv]
        keep = np.isfinite(block)
        np.fill_diagonal(keep, False)
        rows, cols = np.nonzero(keep)
        src_parts.append(pv[rows])
        dst_parts.append(pv[cols])
        w_parts.append(block[rows, cols])
    if src_parts:
        h_src = np.concatenate(src_parts)
        h_dst = np.concatenate(dst_parts)
        h_w = np.concatenate(w_parts).astype(semiring.dtype)
    else:
        h_src = np.empty(0, dtype=np.int64)
        h_dst = np.empty(0, dtype=np.int64)
        h_w = np.empty(0, dtype=semiring.dtype)
    rounded = bool(
        eps > 0.0 and graph.m > 0 and float(graph.weight.min()) >= 0.0
    )
    if rounded and h_w.size:
        h_w = _round_weights(h_w, eps)
    h_src, h_dst, h_w = dedupe_edges(graph.n, h_src, h_dst, h_w, semiring)
    return Hopset(
        src=h_src,
        dst=h_dst,
        weight=h_w,
        pivots=pivots,
        budgets=budgets,
        eps=float(eps),
        beta=int(k),
        rounded=rounded,
        hop_cap=hop_cap_for(graph.n, k),
        seed=int(seed),
        build_wall_s=time.perf_counter() - t0,
        graph_layout=relaxer.layout,
    )


def _check_semiring(semiring: Semiring) -> None:
    if semiring.name != MIN_PLUS.name:
        raise ValueError(
            f"hopset construction supports only the {MIN_PLUS.name!r} semiring "
            f"(got {semiring.name!r}); the (1+ε) bound is a statement about "
            f"numeric path weights"
        )


def build_hopset(
    graph: WeightedDigraph,
    semiring: Semiring = MIN_PLUS,
    *,
    eps: float = 0.1,
    beta: int = 0,
    seed: int = 0,
) -> Hopset:
    """Build a ``(1+ε)`` hopset over ``graph``.

    ``beta`` overrides the base hop budget ``k`` (0 ⇒
    :func:`default_hop_budget`); ``seed`` fixes the pivot sample so builds
    are reproducible and cacheable.
    """
    _check_semiring(semiring)
    if eps < 0:
        raise ValueError(f"eps must be >= 0 (got {eps})")
    k = int(beta) if beta else default_hop_budget(graph.n)
    k = max(1, min(k, max(1, graph.n)))
    rng = np.random.default_rng(seed)
    pivots, budgets = _sample_scales(graph.n, k, rng)
    # With no pivots sampled (tiny graph) H is empty and hop_cap_for
    # degrades to plain capped Bellman–Ford over G, which is exact.
    return _construct(
        graph, semiring, eps=eps, k=k, pivots=pivots, budgets=budgets, seed=seed
    )


def replay_hopset(
    graph: WeightedDigraph,
    prior: Hopset,
    *,
    semiring: Semiring = MIN_PLUS,
) -> Hopset:
    """Rebuild shortcut weights under new edge weights, *reusing the prior
    pivot sample and budgets* — the hopset analogue of an incremental
    reweight: the expensive structural decision (which pivots, which
    scales) is replayed, only the ball growing re-runs."""
    _check_semiring(semiring)
    return _construct(
        graph,
        semiring,
        eps=prior.eps,
        k=prior.beta,
        pivots=prior.pivots,
        budgets=prior.budgets,
        seed=prior.seed,
        graph_layout=prior.graph_layout,
    )
