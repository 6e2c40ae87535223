"""Persistent batched query engine over the augmentation (§3.2 at scale).

:func:`~repro.core.sssp.sssp_scheduled` answers one batch correctly, but a
serving workload asks *many* batches against the *same* augmentation — and
rebuilding G⁺, the edge relaxers and the phase schedule per call costs more
than the relaxation itself.  :class:`QueryEngine` is the amortized form:

* **build once** — G⁺, the full-edge relaxer and the §3.2 schedule come
  from the augmentation's caches (constructed at most once per
  augmentation, shared with :mod:`repro.core.sssp`);
* **publish once** — on the ``shm`` backend the compiled phase arrays
  (push/pull edge layouts and their weights) are written to a
  shared-memory arena a single time; per-query task payloads carry only
  descriptors and row ranges — O(1) bytes per shard;
* **relax in parallel** — a batch of ``s`` sources is an ``(s, n)``
  distance matrix whose rows are independent (the PRAM's per-source
  parallelism), so the batch is sharded row-wise across the pool; each
  worker relaxes its rows against the shared edge arrays and writes them
  into the shared distance block in place;
* **one pass** — each shard runs the §3.2 schedule once, which is exact
  by Theorem 3.1, through :func:`~repro.kernels.bellman_ford.run_phases`:
  the ℓ prefix and suffix keep their frontier fixpoint, and the
  once-per-pass middle phases relax one vertex-major copy of the shard's
  rows.

Worker processes memoize the compiled relaxers per engine (keyed by an
engine token), so repeated batches touch no setup code anywhere.

    >>> oracle = ShortestPathOracle.build(g, tree)
    >>> with oracle.query_engine(OracleConfig(executor="shm:4")) as eng:
    ...     d1 = eng.query(batch1)       # (s, n) distances
    ...     d2 = eng.query(batch2)       # same pool, zero new setup
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from typing import Any

import numpy as np

from ..kernels.bellman_ford import EdgeRelaxer, initial_distances, run_phases
from ..pram.executor import SerialExecutor, get_executor
from .augment import Augmentation
from .config import OracleConfig
from .semiring import SEMIRINGS
from .sssp import SOURCE_BLOCK, _as_source_array

__all__ = ["QueryEngine"]

_TOKENS = itertools.count()

#: Worker-side memo of compiled relaxer lists, keyed by engine token; bounded
#: (cleared wholesale when it grows past a handful of engines).
_ENGINE_CACHE: dict[str, list[EdgeRelaxer]] = {}
_ENGINE_CACHE_MAX = 8


def _shard_relaxers(spec: dict[str, Any]) -> list[EdgeRelaxer]:
    """Worker-side: compiled relaxers for an engine spec, memoized by token.

    Phases sharing one compiled-array dict (the ℓ prefix/suffix full-edge
    phases — pickle preserves the sharing) are rebuilt as *one* relaxer
    object repeated, so :func:`~repro.kernels.bellman_ford.run_phases` can
    frontier-prune across the repetitions worker-side too."""
    relaxers = _ENGINE_CACHE.get(spec["token"])
    if relaxers is None:
        semiring = SEMIRINGS[spec["semiring"]]
        built: dict[int, EdgeRelaxer] = {}
        relaxers = []
        for ph in spec["phases"]:
            r = built.get(id(ph))
            if r is None:
                r = EdgeRelaxer.from_compiled(ph, semiring)
                built[id(ph)] = r
            relaxers.append(r)
        if len(_ENGINE_CACHE) >= _ENGINE_CACHE_MAX:
            _ENGINE_CACHE.clear()
        _ENGINE_CACHE[spec["token"]] = relaxers
    return relaxers


def _shard_worker(payload: dict[str, Any]) -> int:
    """Relax one shard of distance rows to completion in place (module
    level for pickling); returns the phase count.

    The shard is a row range of the shared distance block ``dist``;
    results are written in place and not returned.  Rows run the one
    exact §3.2 pass in blocks of :data:`~repro.core.sssp.SOURCE_BLOCK`.
    """
    relaxers = _shard_relaxers(payload["engine"])
    rows = payload["dist"][payload["row_start"] : payload["row_stop"]]
    for start in range(0, rows.shape[0], SOURCE_BLOCK):
        run_phases(relaxers, rows[start : start + SOURCE_BLOCK])
    return len(relaxers)


class QueryEngine:
    """Amortized multi-source distance queries over one augmentation.

    :meth:`repro.core.api.ShortestPathOracle.query_engine` passes its
    ``config`` straight through; with none the engine runs on
    ``OracleConfig()`` (``executor="serial"``).

    Parameters
    ----------
    aug:
        The augmentation to serve queries for; its cached G⁺ / relaxer /
        schedule are (re)used, never rebuilt.
    config:
        An :class:`~repro.core.config.OracleConfig`; its ``executor`` and
        ``row_cache`` fields are consumed here (build fields ride along
        untouched).  ``executor`` is a spec or instance per
        :func:`repro.pram.executor.get_executor`: ``"shm:N"`` gives
        zero-copy sharding; ``"thread:N"`` shards in threads (numpy
        releases the GIL); ``"serial"`` runs inline.
    """

    def __init__(self, aug: Augmentation, config: OracleConfig | None = None) -> None:
        config = config if config is not None else OracleConfig()
        self.config = config
        executor = config.executor
        self.aug = aug
        self._exe = get_executor(executor)
        self._owns_exe = isinstance(executor, str) and not isinstance(self._exe, SerialExecutor)
        self._use_shm = getattr(self._exe, "uses_shared_memory", False)
        self._closed = False
        # Build-once structures (cached on the augmentation itself), plus
        # the publish-once compiled arrays on the shm backend — one
        # *generation* of serving state; reweight() compiles the next
        # generation and flips.
        self._dist_ref = None
        self._dist_view = None
        self.schedule, self._arena, self._spec = self._compile_generation(aug)
        # Telemetry.  The lock makes submissions (and the counters) safe to
        # drive from multiple threads — the asyncio server submits batches
        # from its engine thread while ``stats`` requests read the
        # counters from the event loop's default executor.
        self.queries_served = 0
        self.rows_served = 0
        self.last_batch: dict[str, Any] | None = None
        self._lock = threading.Lock()
        # Per-source distance-row LRU (config.row_cache rows; 0 = off).
        # Keyed by source id, valid for one weights epoch: a reweighting
        # lineage bumps ``aug.weights_epoch`` and the next submit clears the
        # cache wholesale.  Relaxation is deterministic, so serving repeated
        # sources from here is bit-identical, hence exact.
        self.row_cache_capacity = int(config.row_cache)
        self._row_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._row_epoch = int(getattr(aug, "weights_epoch", 0))
        self.row_hits = 0
        self.row_misses = 0
        # Epoch telemetry (see reweight() / _check_epoch()).
        self.reweights = 0
        self.row_epoch_invalidations = 0
        self.rows_epoch_dropped = 0

    def _compile_generation(self, aug: Augmentation):
        """Build one generation of serving state for ``aug``: its schedule,
        plus — on the shm backend — a new arena holding the
        published compiled arrays and the worker spec that names them under
        a fresh engine token.  The arena's segments are tagged
        ``g<weights_epoch>`` so ``/dev/shm`` listings (and the leak checker)
        attribute every segment to its generation."""
        schedule = aug.schedule()
        if not self._use_shm:
            return schedule, None, None
        from ..pram.shm import ShmArena

        arena = ShmArena(tag=f"g{int(getattr(aug, 'weights_epoch', 0))}")
        spec = {
            "token": f"qe{os.getpid()}_{next(_TOKENS)}",
            "semiring": aug.semiring.name,
            "phases": self._publish_phases(schedule.relaxers, arena),
        }
        return schedule, arena, spec

    @staticmethod
    def _publish_phases(relaxers, arena) -> list[dict[str, Any]]:
        """Publish each *distinct* relaxer object's compiled arrays once;
        repeated phases share the resulting dict.  The sharing is what lets
        workers frontier-prune the repeated prefix/suffix phases, and it
        publishes the full edge set once instead of 2ℓ times."""
        published: dict[int, dict[str, Any]] = {}
        phases = []
        for r in relaxers:
            d = published.get(id(r))
            if d is None:
                d = {k: arena.publish(v) for k, v in r.compiled().items()}
                published[id(r)] = d
            phases.append(d)
        return phases

    def reweight(self, aug: Augmentation) -> None:
        """Hot-swap to a reweighted augmentation with zero downtime.

        The next generation (schedule and — on the shm
        backend — a freshly published arena under a new engine token) is
        compiled *outside* the engine lock, so concurrent :meth:`submit`
        batches keep serving the old epoch while it builds.  The flip
        itself is a pointer swap under the lock: any in-flight batch
        finishes on the old epoch, every later submit runs on the new one,
        and no batch ever mixes the two.  The old arena generation is
        unlinked after the flip (its ``g<epoch>`` segments disappear from
        ``/dev/shm``); the row LRU is dropped wholesale via the usual
        epoch check.
        """
        if aug.graph.n != self.aug.graph.n:
            raise ValueError("reweight() needs an augmentation over the same vertex set")
        if aug.semiring.name != self.aug.semiring.name:
            raise ValueError("reweight() cannot change the semiring")
        schedule, arena, spec = self._compile_generation(aug)
        with self._lock:
            if self._closed:
                if arena is not None:
                    arena.close()
                raise ValueError("engine is closed")
            old_arena = self._arena
            self.aug = aug
            self.schedule = schedule
            self._arena = arena
            self._spec = spec
            # The reusable distance block lived in the old generation's
            # arena; the next batch re-allocates it in the new one.
            self._dist_ref = None
            self._dist_view = None
            self.reweights += 1
            self._check_epoch()
        if old_arena is not None:
            old_arena.close()

    # -------------------------------------------------------------- #

    def _run_inline(self, rows: np.ndarray) -> None:
        """Relax ``rows`` in the calling thread (serial path / small batch),
        one schedule pass per block of ``SOURCE_BLOCK`` rows."""
        for start in range(0, rows.shape[0], SOURCE_BLOCK):
            self.schedule.run(rows[start : start + SOURCE_BLOCK])

    def _shards(self, s: int) -> list[tuple[int, int]]:
        """Split ``s`` rows into one contiguous range per worker."""
        workers = max(1, getattr(self._exe, "workers", 1))
        per = -(-s // workers)
        return [(a, min(s, a + per)) for a in range(0, s, per)]

    def _ensure_dist_block(self, s: int, n: int, dtype) -> None:
        """Grow (never shrink) the reusable shared distance block."""
        if self._dist_view is not None and self._dist_view.shape[0] >= s:
            return
        rows = max(s, 2 * (self._dist_view.shape[0] if self._dist_view is not None else 0))
        self._dist_ref, self._dist_view = self._arena.alloc((rows, n), dtype)

    def _relax_matrix(self, dist: np.ndarray) -> int:
        """Relax the ``(s, n)`` row matrix in place (inline or sharded
        across the pool, exactly as :meth:`submit` always did); returns the
        shard count.  Caller holds the engine lock."""
        s, n = dist.shape
        workers = max(1, getattr(self._exe, "workers", 1))
        if workers <= 1 or s < 2:
            self._run_inline(dist)
            return 1
        shards = self._shards(s)
        if self._use_shm:
            self._ensure_dist_block(s, n, self.aug.semiring.dtype)
            self._dist_view[:s] = dist
            payloads = [
                {"engine": self._spec, "dist": self._dist_ref,
                 "row_start": a, "row_stop": b}
                for a, b in shards
            ]
            self._exe.map(_shard_worker, payloads)
            dist[...] = self._dist_view[:s]
        else:  # thread pool: shared address space, relax shards in place
            self._exe.map(lambda ab: self._run_inline(dist[ab[0] : ab[1]]), shards)
        return len(shards)

    def _check_epoch(self) -> None:
        """Drop every cached row if the augmentation's weights epoch moved
        (reweighting lineage, or a manual bump after in-place weight
        mutation).  Caller holds the engine lock."""
        epoch = int(getattr(self.aug, "weights_epoch", 0))
        if epoch != self._row_epoch:
            self.row_epoch_invalidations += 1
            self.rows_epoch_dropped += len(self._row_cache)
            self._row_cache.clear()
            self._row_epoch = epoch

    def clear_row_cache(self) -> None:
        """Drop all cached distance rows (counters are kept)."""
        with self._lock:
            self._row_cache.clear()

    @property
    def weights_epoch(self) -> int:
        """The weights epoch currently served (the augmentation's) — part
        of the :class:`~repro.core.protocols.ServingBackend` contract."""
        return int(getattr(self.aug, "weights_epoch", 0))

    def query(self, sources) -> np.ndarray:
        """Distance rows for each source: ``(s, n)``, or ``(n,)`` for a bare
        int — bit-identical to :func:`repro.core.sssp.sssp_scheduled` on
        the same augmentation."""
        return self.submit(sources)[0]

    def submit(self, sources) -> tuple[np.ndarray, dict[str, Any]]:
        """Batch-submission hook: like :meth:`query`, but also returns the
        per-batch execution record ``{"rows", "shards", "wall_s",
        "cached_rows"}`` — what a serving layer needs for coalesce-factor /
        fan-out metrics without re-deriving the sharding.  Thread-safe:
        concurrent submitters are serialized on the engine lock (shards of
        *one* batch still run in parallel across the pool).

        With ``config.row_cache > 0``, rows whose source is in the LRU (or
        repeats an earlier source of the same batch) are filled without
        relaxation; only first-occurrence misses are relaxed.
        """
        srcs, single = _as_source_array(sources)
        n = self.aug.graph.n
        semiring = self.aug.semiring
        s = srcs.shape[0]
        with self._lock:
            if self._closed:
                raise ValueError("engine is closed")
            t0 = time.perf_counter()
            self.queries_served += 1
            self.rows_served += s
            cap = self.row_cache_capacity
            cached_rows = 0
            if cap <= 0:
                dist = initial_distances(n, srcs, semiring)
                nshards = self._relax_matrix(dist)
            else:
                self._check_epoch()
                dist = np.empty((s, n), dtype=semiring.dtype)
                miss_first: dict[int, int] = {}  # source -> first row index
                for i, v in enumerate(srcs.tolist()):
                    row = self._row_cache.get(v)
                    if row is not None:
                        dist[i] = row
                        self._row_cache.move_to_end(v)
                        cached_rows += 1
                    elif v not in miss_first:
                        miss_first[v] = i
                nshards = 0
                if miss_first:
                    miss_srcs = np.fromiter(
                        miss_first, dtype=np.int64, count=len(miss_first)
                    )
                    sub = initial_distances(n, miss_srcs, semiring)
                    nshards = self._relax_matrix(sub)
                    for j, (v, i) in enumerate(miss_first.items()):
                        dist[i] = sub[j]
                        # A private copy: the row handed to callers (inside
                        # ``dist``) stays theirs to mutate, and caching the
                        # copy instead of ``sub[j]`` avoids pinning the whole
                        # (k, n) block while one row lives in the LRU.
                        self._row_cache[v] = sub[j].copy()
                        if len(self._row_cache) > cap:
                            self._row_cache.popitem(last=False)
                # Duplicate misses: served from the first occurrence.
                for i, v in enumerate(srcs.tolist()):
                    j = miss_first.get(v)
                    if j is not None and j != i:
                        dist[i] = dist[j]
                        cached_rows += 1
                self.row_hits += cached_rows
                self.row_misses += len(miss_first)
            info = {
                "rows": int(s),
                "shards": int(nshards),
                "wall_s": time.perf_counter() - t0,
                "cached_rows": int(cached_rows),
            }
            self.last_batch = info
        return (dist[0] if single else dist), info

    def stats(self) -> dict[str, Any]:
        """Serving counters and amortization-relevant sizes (reentrant:
        safe to call from any thread while another thread submits).

        Carries the canonical :data:`~repro.core.protocols.
        SERVING_STATS_KEYS` schema; the engine relaxes synchronously under
        its lock, so ``queue_depth`` is 0 and ``queue_wait_ms`` is zeros —
        queueing lives in the server tier above it."""
        from .protocols import serving_stats

        with self._lock:
            looked_up = self.row_hits + self.row_misses
            base = serving_stats(
                backend=getattr(self._exe, "name", "?"),
                workers=getattr(self._exe, "workers", 1),
                queue_depth=0,
                weights_epoch=int(getattr(self.aug, "weights_epoch", 0)),
                queries_served=self.queries_served,
                rows_served=self.rows_served,
            )
            base.update({
                "engine": "scheduled",
                "phases": self.schedule.num_phases,
                "shared_bytes": self._arena.allocated_bytes if self._arena else 0,
                "last_batch": None if self.last_batch is None else dict(self.last_batch),
                "reweights": self.reweights,
                "row_cache": {
                    "capacity": self.row_cache_capacity,
                    "size": len(self._row_cache),
                    "hits": self.row_hits,
                    "misses": self.row_misses,
                    "hit_rate": (self.row_hits / looked_up) if looked_up else 0.0,
                    "epoch": self._row_epoch,
                    "epoch_invalidations": self.row_epoch_invalidations,
                    "rows_epoch_dropped": self.rows_epoch_dropped,
                },
            })
            return base

    def close(self) -> None:
        """Release the shared arena (if any) and an owned pool (if any);
        idempotent.  Thread-safe: taking the engine lock means a close
        issued from one thread (e.g. the server's event loop) waits for an
        in-flight :meth:`submit` on another before unlinking the arena.
        The augmentation's caches survive for the next engine."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._row_cache.clear()
            if self._arena is not None:
                self._arena.close()
        if self._owns_exe:
            self._exe.close()

    def __enter__(self) -> "QueryEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the engine."""
        self.close()
