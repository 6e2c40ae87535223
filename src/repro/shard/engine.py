"""One warm per-shard engine: build + serve a shard's subgraph.

A :class:`~repro.shard.ShardRouter` holds K of them in-process.  A shard
engine runs the ordinary oracle pipeline on the shard subgraph — which
means a shard build participates in the content-addressed augmentation
cache (:mod:`repro.cache`) exactly like a full build does: each shard's
subgraph + subtree hash to their own store entry, so a re-created router
over the same plan is a warm start, not a rebuild.
"""

from __future__ import annotations

import logging
import time
from typing import Any

import numpy as np

from ..core.config import OracleConfig

__all__ = ["ShardEngine", "shard_build_config"]

_log = logging.getLogger(__name__)


def shard_build_config(config: OracleConfig | None) -> OracleConfig:
    """The per-shard build/serve config derived from a router config.

    Shards relax serially, never keep per-node matrices, and never
    re-validate the already-validated decomposition; ``shards`` is zeroed
    so a shard cannot recursively shard itself, and separator refinement
    is zeroed too (the shard's subtree was cut from the router's tree,
    which was refined — or not — at partition time; re-refining per shard
    would desynchronize the spine).  Cache mode/dir pass through — that
    is what makes a re-created router warm.
    """
    cfg = config if config is not None else OracleConfig()
    return cfg.replace(
        executor="serial",
        keep_node_distances=False,
        validate=False,
        row_cache=0,
        shards=0,
        refine_separators=False,
    )


class ShardEngine:
    """Warm engine over one shard: local distances on demand.

    Parameters
    ----------
    shard_id:
        Router-wide shard id (for logs and telemetry).
    graph, tree:
        The shard's local subgraph and its relabeled separator subtree
        (see :class:`~repro.shard.partition.Shard`).
    boundary_local:
        Local ids of the shard's boundary vertices ``B(t)``.
    config:
        Router :class:`~repro.core.config.OracleConfig`; build fields
        (method, semiring, cache mode/dir) are honored via
        :func:`shard_build_config`.
    """

    def __init__(
        self,
        shard_id: int,
        graph,
        tree,
        boundary_local: np.ndarray,
        config: OracleConfig | None = None,
    ) -> None:
        from ..core.api import ShortestPathOracle
        from ..core.query import QueryEngine

        cfg = shard_build_config(config)
        self.shard_id = int(shard_id)
        self.boundary_local = np.asarray(boundary_local, dtype=np.int64)
        t0 = time.perf_counter()
        self.oracle = ShortestPathOracle.build(graph, tree, config=cfg)
        self.build_s = time.perf_counter() - t0
        self.cache_status = self.oracle.cache_info.get("status", "off")
        self.engine = QueryEngine(self.oracle.augmentation, cfg)
        self.queries = 0
        self.rows = 0
        self.wall_s = 0.0
        self.reweights = 0
        _log.debug(
            "shard %d: engine up (n=%d, m=%d, |E+|=%d, build %.3fs, cache %s)",
            self.shard_id, graph.n, graph.m, self.oracle.augmentation.size,
            self.build_s, self.cache_status,
        )

    @property
    def n(self) -> int:
        """Local vertex count of the shard."""
        return int(self.oracle.graph.n)

    @property
    def weights_epoch(self) -> int:
        """The weights epoch this shard currently serves (router-wide
        reweights keep every shard on one agreed epoch; the router checks
        it on every leg)."""
        return int(getattr(self.oracle.augmentation, "weights_epoch", 0))

    def reweight(
        self, weight: np.ndarray, epoch: int, dirty_local=None
    ) -> dict[str, Any]:
        """Hot-swap this shard to new local edge weights at ``epoch``.

        ``weight`` is the full local weight vector (shard edge order);
        ``dirty_local`` optionally narrows it to the shard-local ids of
        the edges that actually changed, enabling the sparse
        provenance-replay path once the shard's lineage holds a retained
        heap.  The serving engine flips atomically (in-flight rows finish
        on the old epoch).
        """
        t0 = time.perf_counter()
        weight = np.asarray(weight, dtype=self.oracle.graph.weight.dtype)
        if dirty_local is not None:
            dirty_local = np.asarray(dirty_local, dtype=np.int64)
            new_oracle = self.oracle.with_new_weights(
                weight_delta=(dirty_local, weight[dirty_local])
            )
        else:
            new_oracle = self.oracle.with_new_weights(weight)
        new_oracle.augmentation.weights_epoch = int(epoch)
        self.engine.reweight(new_oracle.augmentation)
        self.oracle = new_oracle
        self.reweights += 1
        wall = time.perf_counter() - t0
        _log.debug(
            "shard %d: reweighted to epoch %d in %.3fs (%s)",
            self.shard_id, int(epoch), wall,
            "sparse" if dirty_local is not None else "dense",
        )
        return {"epoch": self.weights_epoch, "wall_s": wall}

    def boundary_matrix(self) -> np.ndarray:
        """Exact in-shard distances from every boundary vertex:
        ``(|B(t)|, n_t)`` — the rows that weight the spine's clique edges
        and compose leg 3 of the router."""
        if self.boundary_local.size == 0:
            return np.empty((0, self.n), dtype=self.oracle.semiring.dtype)
        return self.query_rows(self.boundary_local)

    def query_rows(self, sources_local: np.ndarray) -> np.ndarray:
        """Distance rows ``(s, n_t)`` from local source ids (leg 1)."""
        srcs = np.asarray(sources_local, dtype=np.int64)
        if srcs.size == 0:
            return np.empty((0, self.n), dtype=self.oracle.semiring.dtype)
        t0 = time.perf_counter()
        dist, _ = self.engine.submit(srcs)
        self.wall_s += time.perf_counter() - t0
        self.queries += 1
        self.rows += int(srcs.shape[0])
        return dist if dist.ndim == 2 else dist[None, :]

    def stats(self) -> dict[str, Any]:
        """Per-shard serving counters (fan into the router's ``stats``)."""
        return {
            "shard": self.shard_id,
            "n": self.n,
            "boundary": int(self.boundary_local.shape[0]),
            "queries": self.queries,
            "rows": self.rows,
            "wall_s": self.wall_s,
            "build_s": self.build_s,
            "cache_status": self.cache_status,
            "weights_epoch": self.weights_epoch,
            "reweights": self.reweights,
        }

    def close(self) -> None:
        """Release the engine (idempotent)."""
        self.engine.close()
