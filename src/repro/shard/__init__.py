"""Separator shards: the three-leg route (paper §6's reduction to a small G′).

The separator decomposition is a ready-made *sharding plan*: cutting the
tree at a frontier of K nodes yields K shard subtrees whose only interface
to the rest of the graph is their boundary ``B(t)`` (Proposition 2.1 ii),
and §3's boundary cliques carry exact distances across that interface
(Theorem 3.1).  This package turns that observation into an in-process
query route:

* :mod:`~repro.shard.partition` — derive a :class:`~repro.shard.partition.
  ShardPlan` from a :class:`~repro.core.septree.SeparatorTree`: the vertex →
  shard map, per-shard boundaries, and the *spine* (the union of shard
  boundaries, connected by exact-distance clique edges);
* :mod:`~repro.shard.engine` — one warm per-shard engine (build + serve a
  shard subgraph through the ordinary oracle pipeline, per-shard cache
  entries included);
* :mod:`~repro.shard.spine` — the tiny spine graph and its seeded
  Bellman–Ford (Theorem 3.1 keeps this a handful of phases);
* :mod:`~repro.shard.router` — three-leg query answering (source shard →
  boundary rows → spine relaxation → target shards), drop-in compatible
  with :class:`~repro.core.query.QueryEngine`'s ``submit/query/stats/close``
  protocol so the coalescing :class:`~repro.server.OracleServer` can serve
  the route unchanged.

All K shard engines live in the calling process.  On a multi-CPU host a
batch reaches the other CPUs through the direct engine's own
``thread:N``/``shm:N`` executor, which matched or beat a one-process-per-
shard fleet on every E-shard graph.

Entry point: :meth:`repro.core.api.ShortestPathOracle.shard_fleet` (or
``repro-spsp serve --shards K``).
"""

from .partition import Shard, ShardPlan, extract_subtree, make_shard_plan
from .router import ShardRouter

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardRouter",
    "extract_subtree",
    "make_shard_plan",
]
