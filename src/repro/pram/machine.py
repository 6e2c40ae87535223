"""EREW-PRAM work/depth cost model.

The paper states its bounds on an EREW PRAM: an algorithm is characterized by
*work* (total operations) and *time* (parallel depth / critical path).  No
PRAM hardware exists, so we make those quantities *measurable*: every kernel
in this package optionally charges its theoretical work and depth to a
:class:`Ledger`.  Benchmarks then report ledger totals and fit scaling
exponents against the paper's Table 1, independent of Python constant factors
and of how many real cores the host machine has.

Sequential composition adds both work and depth.  Parallel composition
(:meth:`Ledger.parallel`) adds the *sum* of branch work but only the *max* of
branch depth — exactly Brent's accounting.  Nested parallel regions are
supported by giving each branch its own sub-ledger.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Ledger",
    "NULL_LEDGER",
    "log2ceil",
    "reduce_depth",
    "set_pram_model",
    "pram_model",
]


def log2ceil(x: float) -> float:
    """``max(1, ceil(log2 x))`` — the depth of a balanced reduction tree over
    ``x`` items (never less than one step)."""
    if x <= 2:
        return 1.0
    return float(math.ceil(math.log2(x)))


#: Current PRAM variant for depth charges.  The paper states its main
#: bounds on the EREW PRAM but invokes CRCW results (Gazit–Miller planar
#: separators, §1) and CREW ones (Pantziou et al., §6); the model only
#: changes the depth of an ⊕-reduction over k items:
#:   EREW / CREW — ⌈log₂ k⌉ (binary tree; CREW differs from EREW in
#:   *read* concurrency, which our charges don't distinguish),
#:   CRCW — ⌈log log k⌉-ish; we charge the standard O(1) of the
#:   arbitrary-write min with quadratically many processors, the variant
#:   the cited separator results assume.
_MODEL = "EREW"


def set_pram_model(model: str) -> None:
    """Select the machine variant for subsequent depth charges."""
    global _MODEL
    if model not in ("EREW", "CREW", "CRCW"):
        raise ValueError("model must be EREW, CREW or CRCW")
    _MODEL = model


def pram_model() -> str:
    """The machine variant currently charged."""
    return _MODEL


def reduce_depth(k: float) -> float:
    """Depth of a ⊕-reduction over ``k`` items under the current model."""
    if _MODEL == "CRCW":
        return 1.0
    return log2ceil(k)


@dataclass
class _Tally:
    work: float = 0.0
    depth: float = 0.0
    calls: int = 0


class Ledger:
    """Accumulates PRAM work and depth, with per-label breakdowns.

    Use :meth:`charge` for a sequential step and :meth:`parallel` for a
    fork-join region::

        ledger.charge(work=n, depth=log2ceil(n), label="reduce")
        with ledger.parallel("per-node") as region:
            for node in nodes:
                branch = region.branch()
                expensive(node, ledger=branch)
        # region exit adds sum-of-work / max-of-depth to ``ledger``.
    """

    def __init__(self) -> None:
        self.work: float = 0.0
        self.depth: float = 0.0
        self._by_label: dict[str, _Tally] = {}

    # -------------------------------------------------------------- #

    def charge(self, work: float, depth: float = 1.0, label: str = "") -> None:
        """Charge a sequentially-composed step."""
        self.work += work
        self.depth += depth
        if label:
            t = self._by_label.setdefault(label, _Tally())
            t.work += work
            t.depth += depth
            t.calls += 1

    @contextmanager
    def parallel(self, label: str = ""):
        """Fork-join region: branches run conceptually in parallel."""
        region = _ParallelRegion()
        yield region
        self.charge(region.total_work, region.max_depth, label=label or "parallel")

    def merge_parallel(self, branches: list["Ledger"], label: str = "") -> None:
        """Merge already-populated sub-ledgers as parallel branches.

        Used when branch work was computed elsewhere (e.g. on a process
        pool) and the sub-ledger objects come back by value.
        """
        if not branches:
            return
        work = sum(b.work for b in branches)
        depth = max(b.depth for b in branches)
        self.charge(work, depth, label=label or "parallel")
        for b in branches:
            for lbl, t in b._by_label.items():
                mine = self._by_label.setdefault(lbl, _Tally())
                mine.work += t.work
                mine.calls += t.calls
                # Depth per label inside a merged parallel region is reported
                # as the max across branches (best-effort attribution).
                mine.depth = max(mine.depth, t.depth)

    def spawn(self) -> "Ledger":
        """Fresh empty ledger (for a parallel branch executed out-of-line)."""
        return Ledger()

    # -------------------------------------------------------------- #

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-label totals, for reports."""
        return {
            k: {"work": t.work, "depth": t.depth, "calls": t.calls}
            for k, t in sorted(self._by_label.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ledger(work={self.work:.3g}, depth={self.depth:.3g})"


class _ParallelRegion:
    def __init__(self) -> None:
        self._branches: list[Ledger] = []

    def branch(self) -> Ledger:
        b = Ledger()
        self._branches.append(b)
        return b

    @property
    def total_work(self) -> float:
        return sum(b.work for b in self._branches)

    @property
    def max_depth(self) -> float:
        return max((b.depth for b in self._branches), default=0.0)


class _NullLedger(Ledger):
    """Ledger that ignores all charges — the default when callers don't ask
    for accounting, so hot paths stay branch-free."""

    def charge(self, work: float, depth: float = 1.0, label: str = "") -> None:
        pass

    def merge_parallel(self, branches, label: str = "") -> None:
        pass

    def spawn(self) -> "Ledger":
        return self


NULL_LEDGER = _NullLedger()
