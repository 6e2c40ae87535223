"""In-memory span recorder and the layer entry points it wraps.

A traced run replaces a set of public layer functions with thin wrappers
that record one span per call: ``(id, parent, name, start_ns, end_ns,
request_id, phase, thread, attrs)``.  Each name is wrapped where its caller
looks it up (the module global or class attribute the caller resolves at
call time), so the program itself is unchanged and an untraced run pays
nothing.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager

#: (target, attribute, span name).  ``target`` is ``module`` or
#: ``module:Class``; every entry is a call site the program resolves at
#: call time.
WRAPPED = [
    ("repro.separators.grid", "decompose_grid", "separators.decompose"),
    ("repro.separators", "decompose", "separators.decompose"),
    ("repro.separators.quality", "best_first_pass", "quality.best_first_pass"),
    ("repro.core.api", "augment_leaves_up", "augment.build"),
    ("repro.core.leaves_up", "semiring_matmul", "kernels.matmul"),
    ("repro.core.doubling", "semiring_matmul", "kernels.matmul"),
    ("repro.core.doubling_shared", "semiring_matmul", "kernels.matmul"),
    ("repro.kernels.minplus", "semiring_matmul", "kernels.matmul"),
    ("repro.kernels.bellman_ford:EdgeRelaxer", "relax", "kernels.relax"),
    ("repro.kernels.bellman_ford:EdgeRelaxer", "relax_rows", "kernels.relax"),
    ("repro.core.augment:Augmentation", "schedule", "schedule.compile"),
    ("repro.hopset.augment:HopsetAugmentation", "schedule", "schedule.compile"),
    ("repro.core.query:QueryEngine", "submit", "engine.submit"),
    ("repro.core.query:QueryEngine", "reweight", "reweight.flip"),
    ("repro.core.reweight:ReweightPlan", "capture", "reweight.plan_capture"),
    ("repro.core.reweight:ReweightPlan", "ensure_schedule_cache", "reweight.plan_capture"),
    ("repro.core.reweight:ReweightPlan", "run", "reweight.replay"),
    ("repro.hopset", "replay_hopset", "reweight.replay"),
    ("repro.hopset", "build_hopset", "hopset.build"),
    ("repro.cache.store:AugmentationCache", "store", "cache.store"),
    ("repro.cache.store:AugmentationCache", "load", "cache.load"),
    ("repro.server.server", "encode", "server.encode"),
    ("repro.server.metrics:ServerMetrics", "record_batch", "server.batch"),
    # The client side of a served request, for ``server.overhead_p50_ms``;
    # it is no layer of the program, so :meth:`Tracer.coverage` skips it.
    ("repro.server.client:OracleClient", "distances", "client.distances"),
]

#: Span-name prefixes of the program's layers: the spans
#: :meth:`Tracer.coverage` counts.
LAYERS = ("separators.", "quality.", "augment.", "kernels.", "schedule.", "engine.",
          "reweight.", "cache.", "server.", "hopset.")
#: Phases whose wall :meth:`Tracer.coverage` divides by.
COVERED_PHASES = ("setup", "restart", "query")


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts taken from a wrapped call's arguments or return value, at
    the boundary where the work happened."""
    if name == "separators.decompose":
        return {"sep_vertices": int(result.separator_sizes().sum())}
    if name == "quality.best_first_pass":
        return {"sep_vertices": int(result[1].separator_sizes().sum())}
    if name == "augment.build":
        return {"eplus_edges": int(result.size)}
    if name == "server.encode":
        return {"bytes": len(result)}
    if name == "engine.submit":
        info = result[1]
        return {"rows": info["rows"], "cached_rows": info["cached_rows"]}
    if name == "server.batch":
        # ServerMetrics.record_batch(self, n_requests, rows, shards, wall_s, waits)
        return {"requests": int(args[1]), "wall_s": float(args[4]),
                "waits": [float(w) for w in args[5]]}
    return None


class Tracer:
    """Records spans from any thread; parents follow the per-thread stack
    and a span inherits its parent's request id unless given one."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: label of the benchmark phase in progress; stamped on every span.
        self.label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def request(self, rid):
        """Give spans opened in the block (in this thread) request id
        ``rid`` without recording a span of its own."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        stack.append((parent, rid))
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def phase(self, label: str):
        """A benchmark phase (``setup.0``, ``query`` ...): stamps its label
        on every span opened meanwhile, in any thread, and records itself
        as a ``phase`` span, the wall :meth:`coverage` divides by.  Phases
        are sequential: the benchmark opens them from one thread."""
        self.label = label
        sid = next(self._ids)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((sid, 0, "phase", t0, time.perf_counter_ns(), None, label,
                               threading.get_ident(), None))
            self.label = ""

    def wrap(self, name: str, fn):
        """``fn`` wrapped to record a span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, rid = stack[-1] if stack else (0, None)
            sid = next(self._ids)
            stack.append((sid, rid))
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1, rid, self.label,
                 threading.get_ident(), _attrs(name, args, result))
            )
            return result

        return traced

    # ------------------------------------------------------------ #

    def install(self) -> None:
        """Replace every :data:`WRAPPED` entry point with a recording
        wrapper (undo with :meth:`uninstall`)."""
        if self._saved:
            return
        for target, attr, name in WRAPPED:
            mod_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore the original entry points."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "rid", "phase",
                "thread", "attrs")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    # ------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------ #

    def select(self, name: str, phase: str | None = None) -> list[tuple]:
        """Spans called ``name``; with ``phase``, only those stamped with
        that phase label or a ``<phase>.<k>`` instance of it."""
        out = []
        for s in self.spans:
            if s[2] != name:
                continue
            if phase is not None and s[6] != phase and not s[6].startswith(phase + "."):
                continue
            out.append(s)
        return out

    def per_instance(self, name: str, phase: str, value=None) -> list[float]:
        """One number per ``<phase>.<k>`` instance: the summed duration
        (seconds) of its ``name`` spans, or the summed ``value(span)``."""
        sums: dict[str, float] = {}
        for s in self.spans:
            if s[6].startswith(phase + "."):
                sums.setdefault(s[6], 0.0)
                if s[2] == name:
                    sums[s[6]] += (s[4] - s[3]) / 1e9 if value is None else value(s)
        return [sums[k] for k in sorted(sums)]

    def within(self, name: str, ancestor: str, phase: str) -> list[tuple]:
        """The :meth:`select` spans called ``name`` that were opened, in
        the same thread, inside a span called ``ancestor``."""
        by_id = {s[0]: s for s in self.spans}
        out = []
        for s in self.select(name, phase):
            p = by_id.get(s[1])
            while p is not None and p[2] != ancestor:
                p = by_id.get(p[1])
            if p is not None:
                out.append(s)
        return out

    def coverage(self) -> float:
        """Share of the wall of the set-up, restart and query phases that
        spans of the program's :data:`LAYERS` opened inside them cover,
        from any thread."""

        def covered_phase(label: str) -> bool:
            return any(label == p or label.startswith(p + ".") for p in COVERED_PHASES)

        wall = sum(s[4] - s[3] for s in self.spans if s[2] == "phase" and covered_phase(s[6]))
        if not wall:
            return 0.0
        layer = [(s[3], s[4]) for s in self.spans
                 if s[2].startswith(LAYERS) and covered_phase(s[6])]
        return _union_ns(layer) / wall


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total
