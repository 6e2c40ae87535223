"""Dense semiring matrix products (min-plus "distance product" and friends).

These are the inner kernels of the augmentation algorithms (paper §4): step
(iv) of Algorithm 4.1 is a 3-hop product, and step ii(1) of Algorithm 4.3 is
a path-doubling (squaring) step.  The paper plugs in Han–Pan–Reif parallel
APSP for O(|S|³) work; we substitute numpy-vectorized cubic kernels, which
have the same work exponent (DESIGN.md §5), and charge the PRAM ledger with
the model quantities: ``work = l·k·m`` scalar ⊕/⊗ operations and
``depth = ⌈log₂ k⌉`` for the reduction tree — independent of which code path
executed (the ledger is the cost model; the paths are execution detail).

:func:`semiring_matmul` picks one of two bit-identical paths by product size:

* ``l·k·m ≤`` :data:`AUTO_SMALL_OPS` — the broadcast product
  (:func:`_matmul_reference`): an ``(rows, k, m)`` intermediate per row
  block sized to :data:`BUDGET`, ⊕-reduced densely;
* larger — the pruned product (:func:`_matmul_pruned`): per row panel, ``k``
  columns that are all 0̄ in ``A`` (or whose ``B`` row is all 0̄) are
  compressed away before multiplying; 0̄ is ⊗-annihilating and the
  ⊕-identity, so the result is unchanged bit for bit.  A panel with nothing
  worth pruning is ⊕-accumulated over cache-sized ``(k, m)`` panels.

Both agree to the bit because every shipped ``⊕`` (min / max / or) is an
exact, order-independent selection: re-associating the reduction over ``k``
cannot change a single bit (see ``tests/test_kernel_dispatch.py``).
"""

from __future__ import annotations

import numpy as np

from ..core.semiring import MIN_PLUS, Semiring
from ..pram.machine import NULL_LEDGER, Ledger, reduce_depth

__all__ = ["semiring_matmul", "semiring_square", "semiring_closure"]

#: Cap on any product temporary, in float64 elements (~64 MiB).
BUDGET = 8 * 1024 * 1024

#: Up to this many ⊗-operations the broadcast product runs (masking and
#: panel-loop overhead beat any pruning savings on tiny products).
AUTO_SMALL_OPS = 1 << 15

#: Rows per panel of the pruned product.
BLOCK_L = 48
#: ``(k, m)`` panel shape of the dense-panel ⊕-accumulation.
BLOCK_K = 128
BLOCK_M = 128
#: A row panel is pruned when at least this share of its ``k`` terms is dead.
DEAD_FRAC = 0.0625


def _row_block(k: int, m: int, budget: int) -> int:
    denom = max(1, k * m)
    return max(1, budget // denom)


def _bool_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product via a witness-count GEMM, thresholded.

    Counts are accumulated in a float dtype wide enough to be exact: float32
    represents integers exactly up to 2²⁴, float64 up to 2⁵³.  (A uint8 GEMM
    accumulates mod 256, so a vertex pair with a multiple-of-256 witness
    count would silently test ``> 0`` as False — the k ≥ 256 overflow bug.)
    """
    dt = np.float32 if a.shape[1] < (1 << 24) else np.float64
    return (a.astype(dt) @ b.astype(dt)) > 0


def _panel_product(ablk: np.ndarray, bblk: np.ndarray, semiring: Semiring) -> np.ndarray:
    """⊕-reduced ``ablk ⊗ bblk`` of one panel pair (the primitive of the
    pruned product)."""
    if semiring.name == "boolean":
        return _bool_gemm(ablk, bblk)
    ext = semiring.mul(ablk[:, :, None], bblk[None, :, :])
    return semiring.add_reduce(ext, axis=1)


def _combine(out_view: np.ndarray, red: np.ndarray, semiring: Semiring, accumulate: bool) -> None:
    if accumulate:
        semiring.add(out_view, red, out=out_view)
    else:
        out_view[...] = red


def _matmul_reference(
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    out: np.ndarray,
    accumulate: bool,
) -> np.ndarray:
    l, k = a.shape
    m = b.shape[1]
    if semiring.name == "boolean":
        _combine(out, _bool_gemm(a, b), semiring, accumulate)
        return out
    block = _row_block(k, m, BUDGET)
    for start in range(0, l, block):
        stop = min(l, start + block)
        # (rows, k, m) broadcast of A-rows against all of B, then ⊕-reduce
        # over the middle (path-concatenation) axis.
        ext = semiring.mul(a[start:stop, :, None], b[None, :, :])
        red = semiring.add_reduce(ext, axis=1)
        _combine(out[start:stop], red, semiring, accumulate)
    return out


def _accumulate_panels(
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    out: np.ndarray,
    accumulate: bool,
) -> None:
    """⊕-accumulate ``a ⊗ b`` into ``out`` over (k, m) panels; ``a`` is one
    row panel.  Re-associating the ⊕ over k panels is exact for the shipped
    semirings (min/max/or select a value, they never round)."""
    rows, k = a.shape
    m = b.shape[1]
    bk, bm = BLOCK_K, BLOCK_M
    while rows * bk * bm > BUDGET and bm > 1:  # never exceed the memory budget
        bm = max(1, bm // 2)
    for j0 in range(0, m, bm):
        j1 = min(m, j0 + bm)
        acc: np.ndarray | None = None
        for k0 in range(0, k, bk):
            k1 = min(k, k0 + bk)
            red = _panel_product(a[:, k0:k1], b[k0:k1, j0:j1], semiring)
            if acc is None:
                acc = red
            else:
                semiring.add(acc, red, out=acc)
        _combine(out[:, j0:j1], acc, semiring, accumulate)


def _matmul_pruned(
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    out: np.ndarray,
    accumulate: bool,
) -> np.ndarray:
    l, k = a.shape
    m = b.shape[1]
    zero = semiring.zero
    # Liveness masks: a k term contributes 0̄ to every ⊕ (hence nothing)
    # whenever A[:, k] is 0̄ for the whole row panel or B[k, :] is all 0̄.
    if semiring.dtype == np.dtype(bool):
        nz_a = a
        b_live = b.any(axis=1)
    else:
        nz_a = a != zero
        b_live = (b != zero).any(axis=1)
    for i0 in range(0, l, BLOCK_L):
        i1 = min(l, i0 + BLOCK_L)
        panel_nz = nz_a[i0:i1]
        live = panel_nz.any(axis=0) & b_live
        kk = int(live.sum())
        if kk == 0:
            # Empty ⊕ over k: the whole output panel is 0̄.
            if not accumulate:
                out[i0:i1] = zero
            continue
        if kk <= (1.0 - DEAD_FRAC) * k:
            idx = np.nonzero(live)[0]
            a2 = a[i0:i1][:, idx]  # fancy index: a fresh contiguous copy
            b2 = b[idx]
            rows = i1 - i0
            mchunk = max(1, min(m, BUDGET // max(1, rows * kk)))
            for j0 in range(0, m, mchunk):
                j1 = min(m, j0 + mchunk)
                red = _panel_product(a2, b2[:, j0:j1], semiring)
                _combine(out[i0:i1, j0:j1], red, semiring, accumulate)
        else:
            # Dense panel: nothing worth pruning, accumulate over panels.
            _accumulate_panels(a[i0:i1], b, semiring, out[i0:i1], accumulate)
    return out


# ------------------------------------------------------------------ #
# Public entry points
# ------------------------------------------------------------------ #


def semiring_matmul(
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    *,
    out: np.ndarray | None = None,
    accumulate: bool = False,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """``C = A ⊗ B`` in the given semiring: ``C[i,j] = ⊕_k A[i,k] ⊗ B[k,j]``.

    ``out`` is an optional output array; with ``accumulate=True`` the
    product is ⊕-combined into ``out`` instead of overwriting it (the idiom
    for ``W ← W ⊕ (W ⊗ W)`` doubling steps).  The code path is chosen by
    product size (see the module docstring); both are bit-identical.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    l, k = a.shape
    m = b.shape[1]
    if out is None:
        out = semiring.empty_matrix(l, m)
        accumulate = True  # combining into all-zero is plain assignment
    if float(l) * k * m <= AUTO_SMALL_OPS:
        _matmul_reference(a, b, semiring, out, accumulate)
    else:
        _matmul_pruned(a, b, semiring, out, accumulate)
    ledger.charge(work=float(l) * k * m, depth=reduce_depth(k), label="semiring-matmul")
    return out


def semiring_square(
    w: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """One path-doubling step ``W ← W ⊕ (W ⊗ W)``, in place, returning ``W``.

    If ``W`` holds best weights over paths of ≤h hops (with 1̄ diagonal), the
    result holds best weights over ≤2h hops.
    """
    prod = semiring_matmul(w, w, semiring, ledger=ledger)
    semiring.add(w, prod, out=w)
    return w


def semiring_closure(
    w: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring: ⌈log₂ n⌉ doublings
    of the one-hop matrix (diagonal forced to 1̄).  Returns a new matrix.

    For min-plus with a negative cycle the closure is not well defined; the
    caller should check for a ⊕-improving diagonal afterwards
    (:func:`repro.core.negcycle.diagonal_witnesses`).
    """
    n = w.shape[0]
    c = np.array(w, dtype=semiring.dtype, copy=True)
    diag = np.einsum("ii->i", c)
    semiring.add(diag, np.full(n, semiring.one, dtype=semiring.dtype), out=diag)
    steps = max(1, int(np.ceil(np.log2(max(2, n)))))
    for _ in range(steps):
        semiring_square(c, semiring, ledger=ledger)
    return c
