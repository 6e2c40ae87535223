"""Parallel (Jacobi-style) Bellman–Ford relaxation.

Paper §2.2: on a graph with minimum-weight diameter ``diam(G)``, single
source shortest paths take O(diam·log n) PRAM time and O(m·diam) work by
running ``diam`` synchronous phases, each scanning every edge.  This module
implements that phase engine in vectorized form; all sources are relaxed
simultaneously as rows of an ``(s, n)`` matrix, which is exactly the PRAM's
per-source independence.

A phase reads only the ``(row, vertex)`` entries that can change a head:
the entries that strictly improved in the previous phase of the same
relaxer, or — on a relaxer's first phase — every non-0̄ entry (0̄ is the
⊗-annihilator, so a 0̄ tail yields no candidate; an entry that did not
improve last phase already had its candidates ⊕-ed into every head).  Each
phase then takes the cheaper of two paths:

* **push** — expand the frontier entries through a tail-sorted CSR and
  ⊕-scatter the candidates that beat their head;
* **pull** — for every row with a frontier entry, ⊕-reduce each head's
  in-edges over a degree-sorted *slot* layout: slot ``k`` holds the
  ``k``-th in-edge of every head with in-degree > ``k``, so it covers a
  prefix of the heads, and a run of equal-width slots reduces as one 2-D
  block.

A phase pushes iff Σ out-degree over its frontier × :data:`PUSH_COST` is
below ``rows · m``.  Both paths read every value before writing any (a
synchronous Jacobi phase) and every shipped ⊕ is an exact selection, so
results are bit-identical to a dense scan (up to the sign of a zero, see
below) and ``k`` phases still hold the best ≤k-edge paths.

The *scheduled* variant of §3.2 — which scans different edge subsets in
different phases — reuses :class:`EdgeRelaxer` with one relaxer per phase
group (see :mod:`repro.core.scheduler`).  The layouts are weight-
independent (:class:`RelaxerLayout`), so a reweighting binds new weights to
them by gathering.

Most of a §3.2 pass is phases whose relaxer runs once (the middle phases).
Nothing reads the frontier or the improved rows such a phase would leave,
so :func:`run_phases` relaxes each stretch of them on one vertex-major
``(n, s)`` copy of the block with an untracked phase — the same push/pull
rule, candidates gathered by whole rows (``np.take``), heads written back
by row — and keeps the frontier for runs of a repeated relaxer.

At one row those phases cost their numpy calls, not their edges, so a
block of at most :data:`ROW_PASS_ROWS` rows runs the pass one 1-D row at a
time.  A single phase of at most :data:`ROW_PHASE_EDGES` edges is then the
*one-row phase*: one ⊗-gather over ``pull_src`` and one ⊕-scatter of every
candidate into the row — no vertex-major copy, no live check, no slab
loop.  A larger one takes the block phase on the row as an ``(n, 1)``
view, whose live check and push beat a dense scan of a sparsely reached
phase.  A run of a repeated relaxer is a row fixpoint: each phase pushes
the vertices the one before improved, or runs the one-row phase, by the
same :data:`PUSH_COST` rule, and the run stops at the first phase that
improves nothing.

⊕ ties between −0.0 and +0.0 resolve by reduction order, which differs
between push, pull and the one-row phase, so rows agree under IEEE equality
and may differ in the sign of a zero.  Only the bottleneck semirings can
make a −0.0 (from ±0 weights); min-plus rows started at 1̄ = +0.0 never hold
one.

A phase charges ``work = s·(edges scanned)`` and ``depth = ⌈log₂ n⌉`` to the
ledger (the ⊕-reduction tree per head vertex) — the model cost of a full
scan of its rows, whichever path ran.
"""

from __future__ import annotations

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.semiring import MIN_PLUS, Semiring
from ..pram.machine import NULL_LEDGER, Ledger, reduce_depth

__all__ = [
    "EdgeRelaxer",
    "Frontier",
    "RelaxerLayout",
    "bellman_ford",
    "initial_distances",
    "phases_to_convergence",
    "min_weight_diameter",
    "relax_fixpoint",
    "run_phases",
    "NegativeCycleError",
]

#: Cost of one pushed candidate relative to one ``row × edge`` of the pull
#: path: a phase pushes iff ``Σ out-degree over its frontier × PUSH_COST <
#: rows · m``.  Measured by forcing each path on every phase of 64-row
#: batches (see DESIGN §5, "Relaxation kernel").
PUSH_COST = 4.0

#: Blocks of at most this many rows run :func:`run_phases` one 1-D row at
#: a time (see DESIGN §5, "Relaxation kernel").
ROW_PASS_ROWS = 3

#: A single phase over one row takes the one-row phase (a dense pull) up to
#: this many edges, and the block phase above it.
ROW_PHASE_EDGES = 12000


def _narrow(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` (values ``<= bound``) as int32 when they fit."""
    return a.astype(np.int32) if bound <= np.iinfo(np.int32).max else a


def _sort_key(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` (values in ``[0, bound)``) in the narrowest unsigned dtype that
    holds it, up to 16 bits: numpy's stable sort is a radix sort there."""
    if bound <= 1 << 8:
        return a.astype(np.uint8)
    return a.astype(np.uint16) if bound <= 1 << 16 else a


def _grouped_order(
    key: np.ndarray, low: np.ndarray, base: int, group: np.ndarray, groups: int
) -> np.ndarray:
    """The stable order of ``key = group·base + low`` (``low`` in ``[0,
    base)``, ``group`` in ``[0, groups)``): one radix pass over ``key`` when
    it fits 16 bits, else two, least significant first."""
    if groups * base <= 1 << 16:
        return np.argsort(_sort_key(key, groups * base), kind="stable")
    order = np.argsort(_sort_key(low, base), kind="stable")
    if groups > 1:
        order = order[np.argsort(_sort_key(group[order], groups), kind="stable")]
    return order


class NegativeCycleError(ValueError):
    """Raised when a relaxation is asked to certify distances but a negative
    cycle is reachable from some source."""


class RelaxerLayout:
    """The weight-independent edge permutations of one relaxer.

    * pull: ``heads`` (in-degree descending) and ``slot_ptr`` (slot ``k``
      is ``pull_src[slot_ptr[k]:slot_ptr[k+1]]`` and covers the first
      ``slot_ptr[k+1] - slot_ptr[k]`` heads);
    * push: ``out_ptr`` (tail-sorted CSR row pointers over vertex ids) and
      ``push_dst``.

    ``pull_perm``/``push_perm`` map each layout position to an edge id of
    the weight array the layout is bound to (:meth:`EdgeRelaxer.
    from_layout`); a layout rebuilt from shipped arrays has neither.
    """

    __slots__ = (
        "m", "pull_perm", "pull_src", "heads", "slot_ptr",
        "push_perm", "push_dst", "out_ptr", "tails", "tail_deg", "slabs",
        "_pull_dst",
    )

    #: the arrays :meth:`EdgeRelaxer.compiled` ships besides the weights.
    SHIPPED = ("pull_src", "heads", "slot_ptr", "push_dst", "out_ptr")

    @classmethod
    def build(cls, src: np.ndarray, dst: np.ndarray) -> "RelaxerLayout":
        """Layout of the edges ``src[i] → dst[i]``, bound later to a weight
        array indexed by ``i``."""
        return cls.build_groups(src, dst, np.zeros(np.shape(src)[0], dtype=np.int64), 1)[0]

    @classmethod
    def build_groups(
        cls, src: np.ndarray, dst: np.ndarray, group: np.ndarray, groups: int
    ) -> list["RelaxerLayout"]:
        """One layout per group ``0..groups-1``: group ``g`` holds the edges
        ``i`` with ``group[i] == g``, in input order, exactly as
        :meth:`build` would lay them out alone, except that its permutations
        index the whole input (``i``).  The pull and push orders of every
        group come from two stable sorts over all edges at once."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        group = np.asarray(group, dtype=np.int64)
        m = int(src.shape[0])
        nv = int(max(src.max(initial=0), dst.max(initial=0))) + 1
        # Pull: edges grouped by (group, head), a head's in-edges in input
        # order; heads ranked by in-degree, descending, ties by head id.
        head_key = group * nv + dst
        by_head = _grouped_order(head_key, dst, nv, group, groups)
        head_key = head_key[by_head]
        new_head = np.ones(m, dtype=bool)
        new_head[1:] = head_key[1:] != head_key[:-1]
        first = np.flatnonzero(new_head)
        indeg = np.diff(np.append(first, m))
        head_group, heads = np.divmod(head_key[first], nv)
        start = np.searchsorted(head_key, np.arange(groups + 1) * nv)
        head_start = np.searchsorted(head_group, np.arange(groups + 1))
        top = int(indeg.max(initial=0))
        order = _grouped_order(head_group * (top + 1) + top - indeg, top - indeg, top + 1,
                               head_group, groups)
        rank = np.empty(first.shape[0], dtype=np.int64)
        rank[order] = np.arange(first.shape[0]) - head_start[head_group[order]]
        # Slot k of a group holds the k-th in-edge of each head with
        # in-degree > k, by rank: the heads of rank < width[k].
        by_deg = np.bincount(head_group * (top + 1) + indeg, minlength=groups * (top + 1))
        width = np.cumsum(by_deg.reshape(groups, top + 1)[:, :0:-1], axis=1)[:, ::-1]
        slot_ptr = np.zeros((groups, top + 1), dtype=np.int64)
        np.cumsum(width, axis=1, out=slot_ptr[:, 1:])
        slot_base = (slot_ptr[:, :-1] + start[:-1, None]).ravel()
        # An edge's slot: group·top + its position among its head's edges.
        slot = np.arange(m) + np.repeat(head_group * top - first, indeg)
        pull = np.empty(m, dtype=np.int64)
        pull[slot_base[slot] + np.repeat(rank, indeg)] = by_head
        # Push: edges grouped by (group, tail), and per group CSR row
        # pointers over the vertex ids up to its largest, which ends its
        # tail-sorted and its head-sorted edge order.
        push = _grouped_order(group * nv + src, src, nv, group, groups)
        src_pushed = src[push]
        sizes = np.diff(start)
        last = start[1:][sizes > 0] - 1
        nv_g = np.zeros(groups, dtype=np.int64)
        nv_g[sizes > 0] = np.maximum(src_pushed[last], head_key[last] % nv) + 1
        # Arrays used as indices (pull_src, heads, and the permutations a
        # reweight gathers through) stay int64: numpy converts any other
        # index dtype on every call.  push_dst and out_ptr are only read as
        # values, and int32 halves what they keep.
        pull_src, heads = src[pull], heads[order]
        push_dst = _narrow(dst, nv)[push]
        slots = np.count_nonzero(width, axis=1).tolist()
        start, head_start, nv_g = start.tolist(), head_start.tolist(), nv_g.tolist()
        layouts = []
        for g in range(groups):
            a, b = start[g], start[g + 1]
            out_ptr = np.zeros(nv_g[g] + 1, dtype=np.int64)
            np.cumsum(np.bincount(src_pushed[a:b], minlength=nv_g[g]), out=out_ptr[1:])
            arrays = {
                "pull_src": pull_src[a:b],
                "heads": heads[head_start[g] : head_start[g + 1]],
                "slot_ptr": slot_ptr[g, : slots[g] + 1],
                "push_dst": push_dst[a:b],
                "out_ptr": _narrow(out_ptr, b - a),
            }
            layouts.append(cls.from_arrays(arrays, pull[a:b], push[a:b]))
        return layouts

    def pull_dst(self) -> np.ndarray:
        """Each pull entry's head vertex (derived on first use; only the
        one-row phase needs it)."""
        if self._pull_dst is None:
            width = np.diff(self.slot_ptr)
            pos = np.arange(self.m) - np.repeat(self.slot_ptr[:-1], width)
            self._pull_dst = self.heads[pos]
        return self._pull_dst

    def matches(self, src: np.ndarray, dst: np.ndarray) -> bool:
        """Whether this layout, bound by edge id, describes the edges
        ``src[i] → dst[i]`` (so new weights for them can be bound to it)."""
        return (
            self.pull_perm is not None
            and src.shape[0] == dst.shape[0] == self.m
            and np.array_equal(src[self.pull_perm], self.pull_src)
            and np.array_equal(dst[self.push_perm], self.push_dst)
        )

    @classmethod
    def from_arrays(
        cls,
        arrays: dict[str, np.ndarray],
        pull_perm: np.ndarray | None = None,
        push_perm: np.ndarray | None = None,
    ) -> "RelaxerLayout":
        """Rebuild from the :data:`SHIPPED` arrays (used as-is, so shared-
        memory views stay zero-copy) and derive the frontier tails and the
        slot blocks."""
        lay = cls.__new__(cls)
        for name in cls.SHIPPED:
            setattr(lay, name, arrays[name])
        lay.pull_perm, lay.push_perm = pull_perm, push_perm
        lay.m = int(lay.pull_src.shape[0])
        lay._pull_dst = None
        out_deg = np.diff(lay.out_ptr)
        lay.tails = np.flatnonzero(out_deg)
        lay.tail_deg = out_deg[lay.tails]
        # Runs of equal-width slots, as (width, slots, start, stop): each run
        # is one (slots, width) block of pull_src.
        ptr = lay.slot_ptr.tolist()
        width = np.diff(lay.slot_ptr).tolist()
        lay.slabs = []
        k = 0
        while k < len(width):
            j = k + 1
            while j < len(width) and width[j] == width[k]:
                j += 1
            lay.slabs.append(
                (width[k], j - k, ptr[k], ptr[j])
            )
            k = j
        return lay


class Frontier:
    """Where a relaxer's next phase has to look: the ``(r, v)`` entries of a
    2-D ``dist`` that strictly improved in ``owner``'s last phase.  A fresh
    frontier, or one another relaxer left behind, means every non-0̄ entry
    of the rows passed."""

    __slots__ = ("owner", "r", "v")

    def __init__(self) -> None:
        self.owner: EdgeRelaxer | None = None
        self.r: np.ndarray | None = None
        self.v: np.ndarray | None = None


class EdgeRelaxer:
    """Relaxation engine for a fixed edge set (see the module docstring for
    the push/pull phase)."""

    __slots__ = ("semiring", "m", "layout", "_pull_w", "_push_w")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        semiring: Semiring = MIN_PLUS,
    ) -> None:
        layout = RelaxerLayout.build(src, dst)
        weight = np.asarray(weight, dtype=semiring.dtype)
        self._bind(layout, weight[layout.pull_perm], weight[layout.push_perm], semiring)

    def _bind(self, layout, pull_w, push_w, semiring) -> None:
        self.semiring = semiring
        self.layout = layout
        self.m = layout.m
        self._pull_w = pull_w
        self._push_w = push_w

    @classmethod
    def from_layout(
        cls,
        layout: RelaxerLayout,
        weight: np.ndarray,
        semiring: Semiring = MIN_PLUS,
    ) -> "EdgeRelaxer":
        """Bind a weight array (indexed by the layout's edge ids, already in
        ``semiring.dtype``) to a shared layout — two gathers, no sorting."""
        obj = cls.__new__(cls)
        obj._bind(layout, weight[layout.pull_perm], weight[layout.push_perm], semiring)
        return obj

    @classmethod
    def from_graph(
        cls,
        g: WeightedDigraph,
        semiring: Semiring = MIN_PLUS,
    ) -> "EdgeRelaxer":
        """Relaxer over all edges of ``g``."""
        return cls(g.src, g.dst, g.weight, semiring)

    def compiled(self) -> dict[str, np.ndarray]:
        """The layout and weight arrays of this relaxer, for shipping across
        a process boundary without redoing the sorts — feed to
        :meth:`from_compiled` on the other side.  The arrays may be
        published to shared memory and passed as descriptors."""
        out = {name: getattr(self.layout, name) for name in RelaxerLayout.SHIPPED}
        out["pull_w"] = self._pull_w
        out["push_w"] = self._push_w
        return out

    @classmethod
    def from_compiled(
        cls,
        arrays: dict[str, np.ndarray],
        semiring: Semiring = MIN_PLUS,
    ) -> "EdgeRelaxer":
        """Rebuild a relaxer from :meth:`compiled` output (zero sorting; the
        arrays are used as-is, so shared-memory views stay zero-copy)."""
        obj = cls.__new__(cls)
        obj._bind(RelaxerLayout.from_arrays(arrays), arrays["pull_w"],
                  arrays["push_w"], semiring)
        return obj

    def relax(self, dist: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> bool:
        """One synchronous phase over ``dist`` of shape ``(..., n)``, in
        place.  Returns whether any entry strictly improved."""
        if not self.m:
            return False
        view = dist.reshape(-1, dist.shape[-1])
        block = view.T.copy()  # vertex-major, (n, rows)
        self._relax_block(block, ledger=ledger)
        if np.array_equal(block.T, view):
            return False
        dist[...] = block.T.reshape(dist.shape)
        return True

    def relax_rows(
        self,
        dist: np.ndarray,
        rows: np.ndarray,
        *,
        ledger: Ledger = NULL_LEDGER,
        frontier: Frontier | None = None,
    ) -> np.ndarray:
        """One phase restricted to the given source rows of a 2-D ``dist``;
        returns the (global) indices of rows that strictly improved.

        This is the frontier-pruning primitive: rows are independent
        single-source relaxations, so a row this relaxer did not improve is
        at this relaxer's fixpoint and re-relaxing it can never change it —
        iterate with ``rows = relax_rows(dist, rows, frontier=f)`` until
        empty (:func:`relax_fixpoint`).  A :class:`Frontier` carried across
        the iterations narrows each phase further, to the entries that
        improved in the phase before; it is rewritten in place.  The
        ledger is charged the model work of the rows scanned,
        ``|rows|·m``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not self.m or rows.size == 0:
            return rows[:0]
        ledger.charge(
            work=float(rows.size) * self.m,
            depth=reduce_depth(dist.shape[-1]),
            label="bf-phase",
        )
        if dist.flags.c_contiguous:
            return self._phase(dist, rows, frontier)
        work = np.ascontiguousarray(dist)  # the kernel indexes a flat view
        changed = self._phase(work, rows, frontier)
        dist[...] = work
        return changed

    # ------------------------------------------------------------------ #

    def _relax_block(self, block: np.ndarray, *, ledger: Ledger = NULL_LEDGER) -> None:
        """One Jacobi phase over every row of a C-contiguous vertex-major
        ``(n, s)`` ``block``, in place, with no frontier and no list of
        improved rows: the untracked phase of :func:`run_phases`'s
        once-per-pass relaxers.  Same push/pull rule and ledger charge as
        :meth:`relax_rows` over all ``s`` rows."""
        n, s = block.shape
        if not self.m or not s:
            return
        ledger.charge(work=float(s) * self.m, depth=reduce_depth(n), label="bf-phase")
        sr, lay = self.semiring, self.layout
        tail = block if lay.tails.shape[0] == n else np.take(block, lay.tails, axis=0)
        live = tail != sr.zero
        work = int(lay.tail_deg @ live.sum(axis=1))
        if work == 0:
            return
        if work * PUSH_COST < s * self.m:
            # Expand the live (tail, row) entries and ⊕-scatter the
            # candidates that beat their head at ``v*s + row``.
            at = np.flatnonzero(live)  # grouped by tail
            tt = at // s
            deg = lay.tail_deg[tt]
            ends = np.add.accumulate(deg)
            e = np.repeat(lay.out_ptr[lay.tails[tt]] - (ends - deg), deg) + np.arange(work)
            cand = sr.mul(np.repeat(tail.reshape(-1)[at], deg), self._push_w[e])
            key = lay.push_dst[e].astype(np.int64) * s + np.repeat(at - tt * s, deg)
            flat = block.reshape(-1)
            better = sr.improves(cand, flat[key])
            sr.scatter_min(flat, key[better], cand[better])
            return
        # Vertex-major rows gather whole: the candidates come out edge-major,
        # (m, s), so each slot block is a run of contiguous rows.
        cand = np.take(block, lay.pull_src, axis=0)
        sr.mul(cand, self._pull_w[:, None], out=cand)
        acc = self._reduce_slabs(cand)
        sr.add(acc, np.take(block, lay.heads, axis=0), out=acc)
        block[lay.heads] = acc

    def _reduce_slabs(self, cand: np.ndarray) -> np.ndarray:
        """⊕-reduce edge-major candidates ``(m, rows)`` over the slot
        layout into one ``(heads, rows)`` accumulator (overwrites ``cand``)."""
        sr, nrows = self.semiring, cand.shape[1]
        acc = None
        for width, nslots, a, b in self.layout.slabs:
            blk = cand[a:b]
            if nslots > 1:
                blk = sr.add_reduce(blk.reshape(nslots, width, nrows), axis=0)
            if acc is None:
                acc = blk  # the first slab spans every head
            else:
                sr.add(acc[:width], blk, out=acc[:width])
        return acc

    def _phase(
        self, dist: np.ndarray, rows: np.ndarray, frontier: Frontier | None
    ) -> np.ndarray:
        """One Jacobi phase over ``rows`` of a C-contiguous 2-D ``dist``;
        returns the rows that improved and, when given, rewrites
        ``frontier``."""
        sr, lay = self.semiring, self.layout
        n = dist.shape[1]
        full = rows.size == dist.shape[0] and bool(
            (rows == np.arange(rows.size)).all()
        )
        flat = dist.reshape(-1)
        sub = None
        if frontier is not None and frontier.owner is self:
            r, u = frontier.r, frontier.v
            start = lay.out_ptr[u]
            deg = lay.out_ptr[u + 1] - start
            work = int(deg.sum())
        else:
            sub = dist if full else dist[rows]
            tail = sub if lay.tails.shape[0] == n else sub[:, lay.tails]
            live = tail != sr.zero
            work = int(live.sum(axis=0) @ lay.tail_deg)
        if work == 0:
            r = v = rows[:0]
        elif work * PUSH_COST < rows.size * self.m:
            if sub is None:
                vals = flat[r * n + u]
            else:
                at = np.flatnonzero(live)
                rr = at // tail.shape[1]
                tt = at - rr * tail.shape[1]
                r, vals, deg = rows[rr], tail.reshape(-1)[at], lay.tail_deg[tt]
                start = lay.out_ptr[lay.tails[tt]]
            r, v = self._push(flat, n, r, start, vals, deg, np.add.accumulate(deg))
            if frontier is not None and r.size > 1:
                # one entry per (row, head): several candidates may improve it
                key = r * n + v
                pos = np.arange(key.size)
                slot = np.empty(flat.shape[0], dtype=np.int64)
                slot[key] = pos
                once = slot[key] == pos
                r, v = r[once], v[once]
        else:
            if sub is None:
                sub = dist if full else dist[rows]
            r, v = self._pull(flat, n, sub, rows)
        if frontier is not None:
            frontier.owner, frontier.r, frontier.v = self, r, v
        if not r.size:
            return rows[:0]
        if rows.size == 1:
            return rows
        first = np.empty(r.size, dtype=bool)
        first[0] = True
        np.not_equal(r[1:], r[:-1], out=first[1:])
        return r[first]  # entries come grouped by row

    def _push(self, flat, n, r, start, vals, deg, ends):
        """Expand frontier entries in rows ``r`` (values ``vals``, out-edges
        ``start[i]`` onwards in the tail-sorted CSR, ``deg[i]`` of them,
        ``ends`` their running sum) and ⊕-scatter the candidates that beat
        their head into ``flat`` (the flattened ``dist``).  Returns the
        improved entries, grouped by row, possibly repeated."""
        sr, lay = self.semiring, self.layout
        e = np.repeat(start - (ends - deg), deg) + np.arange(int(ends[-1]))
        cand = sr.mul(np.repeat(vals, deg), self._push_w[e])
        r = np.repeat(r, deg)
        v = lay.push_dst[e]
        key = r * n + v
        better = sr.improves(cand, flat[key])
        key, cand = key[better], cand[better]
        sr.scatter_min(flat, key, cand)
        return r[better], v[better]

    def _pull(self, flat, n, sub, rows):
        """⊕-reduce every head's in-edges for the rows of ``sub`` (=
        ``dist[rows]``) over the slot layout and write the improved entries
        to ``flat`` (the flattened ``dist``).  Returns them, grouped by
        row."""
        sr, lay = self.semiring, self.layout
        if sub.shape[0] == 1:
            r = rows[0]
            row = flat[r * n : (r + 1) * n]
            old = row.copy()
            self._pull_row(row)
            v = (row != old).nonzero()[0]
            return np.full(v.size, r), v
        # Edge-major candidates, (m, rows): a slot block is then a run of
        # whole contiguous rows, reduced over its slots in one call.
        cand = sub.T[lay.pull_src]
        sr.mul(cand, self._pull_w[:, None], out=cand)
        acc = self._reduce_slabs(cand)
        better = sr.improves(acc, sub.T[lay.heads])
        rr, hh = np.nonzero(better.T)  # grouped by row
        r, v = rows[rr], lay.heads[hh]
        flat[r * n + v] = acc[hh, rr]
        return r, v

    def _pull_row(self, row: np.ndarray) -> None:
        """The one-row phase: a dense pull over a contiguous 1-D ``row``, in
        place — one ⊗-gather over ``pull_src`` and one ⊕-scatter of the
        candidates into their heads.  Every candidate is read before any is
        written, so the phase is synchronous; no live check, no slab loop,
        no list of improved vertices."""
        sr, lay = self.semiring, self.layout
        sr.scatter_min(row, lay.pull_dst(), sr.mul(row[lay.pull_src], self._pull_w))

    def _push_row(self, row: np.ndarray, u: np.ndarray, deg: np.ndarray, ends: np.ndarray) -> None:
        """Push the vertices ``u`` of a contiguous 1-D ``row`` (out-degrees
        ``deg``, ``ends`` their running sum) through the tail-sorted CSR and
        ⊕-scatter every candidate into its head, in place (candidates are
        read before any is written)."""
        sr, lay = self.semiring, self.layout
        e = np.repeat(lay.out_ptr[u] - (ends - deg), deg) + np.arange(int(ends[-1]))
        cand = sr.mul(np.repeat(row[u], deg), self._push_w[e])
        sr.scatter_min(row, lay.push_dst[e], cand)

    def _relax_row(self, row: np.ndarray) -> None:
        """One untracked phase over a contiguous 1-D ``row``, in place: the
        one-row phase while this relaxer has at most
        :data:`ROW_PHASE_EDGES` edges, else the block phase on the row as an
        ``(n, 1)`` view (its live check and push win on large, sparsely
        reached phases).  Charges no ledger."""
        if self.m <= ROW_PHASE_EDGES:
            self._pull_row(row)
        elif self.m:
            self._relax_block(row.reshape(-1, 1))

    def _row_fixpoint(self, row: np.ndarray, max_phases: int) -> tuple[int, bool]:
        """Up to ``max_phases`` phases of this relaxer over a contiguous 1-D
        ``row``, in place, stopping after the first phase that improves
        nothing.  The first phase reads every non-0̄ entry, each later one
        the vertices the phase before changed (found by comparing the row
        with its copy, so each vertex once); a phase pushes them iff their
        out-degree × :data:`PUSH_COST` is below ``m`` (the 2-D rule at one
        row), else runs the one-row phase.  Returns ``(phases run, whether
        the last one improved)``.  Charges no ledger."""
        if max_phases < 1:
            return 0, True  # no phase ran, so the row counts as active
        if not self.m:
            return 1, False
        sr, lay = self.semiring, self.layout
        if lay.tails.shape[0] == row.shape[0]:  # every vertex is a tail
            u = (row != sr.zero).nonzero()[0]
            deg = lay.tail_deg[u]
        else:
            live = (row[lay.tails] != sr.zero).nonzero()[0]
            u, deg = lay.tails[live], lay.tail_deg[live]
        for phase in range(1, max_phases + 1):
            if phase > 1:
                deg = lay.out_ptr[u + 1] - lay.out_ptr[u]
            ends = np.add.accumulate(deg)
            if not ends.size or not ends[-1]:
                return phase, False
            old = row.copy()
            if ends[-1] * PUSH_COST < self.m:
                self._push_row(row, u, deg, ends)
            else:
                self._pull_row(row)
            u = (row != old).nonzero()[0]
            if not u.size:
                return phase, False
        return max_phases, True


def relax_fixpoint(
    relaxer: EdgeRelaxer,
    dist: np.ndarray,
    max_phases: int,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> tuple[int, np.ndarray]:
    """Relax ``dist`` (1-D or 2-D, in place) with one relaxer until no row
    improves or ``max_phases`` phases ran, each phase reading only the
    entries the phase before improved.

    Returns ``(phases run, rows that improved in the last phase)``; no rows
    means the fixpoint was reached (the last phase changed nothing).  After
    ``k`` phases every entry holds the best path of at most ``k`` relaxer
    edges on top of the initial values.  A single row runs as a 1-D row
    fixpoint (:meth:`EdgeRelaxer._row_fixpoint`, through a contiguous copy
    when the row is strided), charged as :meth:`EdgeRelaxer.relax_rows`
    charges it.
    """
    view = dist[None, :] if dist.ndim == 1 else dist
    if view.shape[0] == 1:
        row = view[0]
        one = row if row.flags.c_contiguous else row.copy()
        phases, improved = relaxer._row_fixpoint(one, max_phases)
        if one is not row:
            row[...] = one
        _charge_run(ledger, relaxer, [phases], dist.shape[-1])
        return phases, np.arange(1 if improved else 0)
    active = np.arange(view.shape[0])
    frontier = Frontier() if max_phases > 1 else None
    phases = 0
    while active.size and phases < max_phases:
        active = relaxer.relax_rows(view, active, ledger=ledger, frontier=frontier)
        phases += 1
    return phases, active


def _charge_run(ledger: Ledger, relaxer: EdgeRelaxer, phases: list[int], n: int) -> None:
    """Charge a run of one relaxer whose rows ran ``phases[i]`` phases each,
    as the 2-D fixpoint charges it: one ``bf-phase`` per phase, with the
    work of the rows still active in it."""
    if ledger is NULL_LEDGER or not relaxer.m:
        return
    depth = reduce_depth(n)
    for k in range(1, max(phases, default=0) + 1):
        rows = sum(1 for p in phases if p >= k)
        ledger.charge(work=float(rows) * relaxer.m, depth=depth, label="bf-phase")


def run_phases(
    relaxers: list["EdgeRelaxer"],
    dist: np.ndarray,
    *,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Run a sequence of relaxation phases over ``dist`` in place, frontier-
    pruning *consecutive runs of the same relaxer object*.

    Such a run (e.g. the ℓ prefix/suffix full-edge phases of the §3.2
    schedule, or a capped Bellman–Ford loop) is one :func:`relax_fixpoint`:
    a row the relaxer left unchanged is at that relaxer's fixpoint and drops
    out, and within a row only the entries the last phase improved are
    read.  Distinct relaxers start from every non-0̄ entry (a row converged
    under one edge subset may still improve under another).

    A run of one phase has no later phase to read its frontier, so each
    maximal stretch of such runs (the §3.2 middle phases) is relaxed on one
    vertex-major ``(n, s)`` copy of ``dist``, written back once, by an
    untracked phase that builds neither frontier nor improved-row list.

    A block of at most :data:`ROW_PASS_ROWS` rows instead runs the whole
    pass one 1-D row at a time: single phases through
    :meth:`EdgeRelaxer._relax_row`, runs through the row fixpoint.

    Results are bit-identical to relaxing every row every phase (up to the
    sign of a zero, see the module docstring); the ledger is charged
    ``rows·m`` for every row a phase scans, exactly as
    :meth:`EdgeRelaxer.relax_rows` charges.
    """
    n = dist.shape[-1]
    view = dist[None, :] if dist.ndim == 1 else dist.reshape(-1, n)
    runs = []  # (relaxer, phases) for each maximal run of one relaxer
    for r in relaxers:
        if runs and runs[-1][0] is r:
            runs[-1][1] += 1
        else:
            runs.append([r, 1])
    if 0 < view.shape[0] <= ROW_PASS_ROWS:
        _row_pass(runs, view, ledger)
    else:
        _block_pass(runs, view, ledger)
    if not np.may_share_memory(view, dist):  # reshape had to copy
        dist[...] = view.reshape(dist.shape)
    return dist


def _block_pass(runs: list, view: np.ndarray, ledger: Ledger) -> None:
    """The pass over a 2-D ``view``: stretches of single phases on one
    vertex-major block, runs through :func:`relax_fixpoint`."""
    block = None  # the vertex-major copy a stretch of single phases relaxes
    for r, phases in runs:
        if phases == 1:
            if block is None:
                block = np.ascontiguousarray(view.T)
            r._relax_block(block, ledger=ledger)
        else:
            if block is not None:
                view[...] = block.T
                block = None
            relax_fixpoint(r, view, phases, ledger=ledger)
    if block is not None:
        view[...] = block.T


def _row_pass(runs: list, view: np.ndarray, ledger: Ledger) -> None:
    """The pass over a few rows of a 2-D ``view``, one row at a time, then
    the ledger charges of every phase in pass order."""
    spent = [[] for _ in runs]  # phases each row ran, per run
    for row in view:
        one = row if row.flags.c_contiguous else row.copy()
        for (r, phases), took in zip(runs, spent):
            if phases > 1:
                took.append(r._row_fixpoint(one, phases)[0])
            else:
                r._relax_row(one)
        if one is not row:
            row[...] = one
    if ledger is NULL_LEDGER:
        return
    n, s = view.shape[1], view.shape[0]
    for (r, phases), took in zip(runs, spent):
        if phases > 1:
            _charge_run(ledger, r, took, n)
        elif r.m:
            ledger.charge(work=float(s) * r.m, depth=reduce_depth(n), label="bf-phase")


def initial_distances(
    n: int, sources: np.ndarray | list[int], semiring: Semiring = MIN_PLUS
) -> np.ndarray:
    """``(s, n)`` matrix with 1̄ at each source column, 0̄ elsewhere."""
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full((sources.shape[0], n), semiring.zero, dtype=semiring.dtype)
    dist[np.arange(sources.shape[0]), sources] = semiring.one
    return dist


def bellman_ford(
    g: WeightedDigraph,
    sources: np.ndarray | list[int] | int,
    *,
    semiring: Semiring = MIN_PLUS,
    max_phases: int | None = None,
    check_negative_cycle: bool = False,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Distances from each source, shape ``(s, n)`` (or ``(n,)`` for a single
    int source).

    Runs until a fixpoint or ``max_phases``.  With ``max_phases=None`` the
    phase count is capped at ``n`` (fixpoint is reached within ``n-1`` phases
    unless a negative cycle is reachable; the extra phase is the standard
    detection margin when ``check_negative_cycle`` is set).
    """
    single = isinstance(sources, (int, np.integer))
    srcs = [int(sources)] if single else list(sources)
    dist = initial_distances(g.n, srcs, semiring)
    relaxer = EdgeRelaxer.from_graph(g, semiring)
    cap = g.n if max_phases is None else max_phases
    _, active = relax_fixpoint(relaxer, dist, cap, ledger=ledger)
    if check_negative_cycle and active.size and relaxer.relax(dist.copy()):
        raise NegativeCycleError("negative-weight cycle reachable from a source")
    return dist[0] if single else dist


def phases_to_convergence(
    g: WeightedDigraph,
    dist: np.ndarray,
    *,
    semiring: Semiring = MIN_PLUS,
    cap: int | None = None,
    ledger: Ledger = NULL_LEDGER,
) -> int:
    """Number of full-scan phases until ``dist`` (modified in place) stops
    improving.  ``cap`` guards against negative cycles (default ``n + 1``).

    With ``dist = initial_distances(n, range(n))`` this measures the
    *minimum-weight diameter* of §2.2: the Jacobi iteration after ``h``
    phases holds exactly the best weight over ≤h-edge paths, so the first
    all-pairs fixpoint phase count equals ``diam(G)``.
    """
    relaxer = EdgeRelaxer.from_graph(g, semiring)
    cap = g.n + 1 if cap is None else cap
    phases, active = relax_fixpoint(relaxer, dist, cap, ledger=ledger)
    if active.size:
        raise NegativeCycleError("no fixpoint within cap (negative cycle?)")
    return max(0, phases - 1)  # the last phase only confirmed the fixpoint


def min_weight_diameter(g: WeightedDigraph, *, semiring: Semiring = MIN_PLUS) -> int:
    """Empirical minimum-weight diameter diam(G) of §2.2 (max over all
    ordered pairs of the fewest edges among optimal paths).

    O(n·m·diam) work — intended for validation at test/bench scale, not as a
    production primitive.
    """
    dist = initial_distances(g.n, np.arange(g.n), semiring)
    return phases_to_convergence(g, dist, semiring=semiring)
