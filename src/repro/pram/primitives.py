"""Instrumented EREW-PRAM primitives.

Small library of classic PRAM building blocks, each executing a real
(vectorized) computation while charging the ledger with the textbook
work/depth.  It is a cost-model library: it documents the model concretely,
and the tests pin its accounting (e.g. prefix sums must charge O(n) work,
O(log n) depth — not n log n).  No module of the package imports it; the
§3.2 and §4 code charges the ledger directly (``repro.kernels``,
``repro.core.reweight``).
"""

from __future__ import annotations

import numpy as np

from .machine import NULL_LEDGER, Ledger, log2ceil

__all__ = ["parallel_reduce", "prefix_sum", "pointer_jump_roots", "list_rank", "pairwise_min"]


def parallel_reduce(values: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> float:
    """Balanced-tree reduction: O(n) work, O(log n) depth."""
    values = np.asarray(values)
    ledger.charge(work=float(max(1, values.size)), depth=log2ceil(values.size), label="reduce")
    return float(values.sum())


def pairwise_min(a: np.ndarray, b: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> np.ndarray:
    """Elementwise min: O(n) work, O(1) depth."""
    out = np.minimum(a, b)
    ledger.charge(work=float(max(1, a.size)), depth=1.0, label="pairwise-min")
    return out


def prefix_sum(values: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> np.ndarray:
    """Exclusive prefix sums via the Blelloch up/down sweep: O(n) work,
    O(log n) depth (the ledger charge); numpy's cumsum does the arithmetic."""
    values = np.asarray(values)
    out = np.zeros_like(values)
    if values.size:
        np.cumsum(values[:-1], out=out[1:])
    ledger.charge(
        work=2.0 * max(1, values.size), depth=2 * log2ceil(values.size), label="prefix-sum"
    )
    return out


def pointer_jump_roots(parent: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> np.ndarray:
    """Root of every vertex in a forest by pointer jumping: O(n log n) work,
    O(log n) depth.  ``parent[v] == v`` marks roots."""
    p = np.array(parent, dtype=np.int64, copy=True)
    n = p.shape[0]
    rounds = 0
    while True:
        rounds += 1
        nxt = p[p]
        if np.array_equal(nxt, p):
            break
        p = nxt
    ledger.charge(work=float(n) * rounds, depth=float(rounds), label="pointer-jump")
    return p


def list_rank(nxt: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> np.ndarray:
    """Distance of each element to the end of its linked list (−1-terminated
    ``nxt`` pointers) by rank doubling: O(n log n) work, O(log n) depth."""
    n = nxt.shape[0]
    rank = np.where(nxt >= 0, 1, 0).astype(np.int64)
    ptr = np.array(nxt, dtype=np.int64, copy=True)
    rounds = 0
    while (ptr >= 0).any():
        rounds += 1
        has = np.nonzero(ptr >= 0)[0]
        tgt = ptr[has]
        rank[has] += rank[tgt]
        ptr[has] = ptr[tgt]
    ledger.charge(work=float(n) * max(1, rounds), depth=float(max(1, rounds)), label="list-rank")
    return rank
