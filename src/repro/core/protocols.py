"""The formal serving contract: :class:`ServingBackend`.

Two tiers serve queries — the single
:class:`~repro.core.query.QueryEngine` and the sharded
:class:`~repro.shard.router.ShardRouter`.  Both speak the same verbs, and
this module writes that contract down instead of leaving it to docstrings
and ``hasattr`` checks in :class:`~repro.server.OracleServer`:

* :class:`ServingBackend` — a runtime-checkable :class:`typing.Protocol`
  naming the five serving verbs (``submit`` / ``stats`` / ``reweight`` /
  ``close`` plus the ``weights_epoch`` marker and the ``query``
  convenience).  ``QueryEngine`` and ``ShardRouter`` are its declared
  implementations; anything an ``engine_factory`` returns is checked
  against it at server startup (:func:`ensure_serving_backend`), so a
  missing method is a clear startup error naming the method instead of a
  mid-request ``AttributeError``.
* the **unified stats schema** — every backend's ``stats()`` carries the
  same canonical keys (:data:`SERVING_STATS_KEYS`): execution ``backend``,
  ``workers``, supervisor-side ``queue_depth``, ``queue_wait_ms`` p50/p99
  (zeros in both tiers: queueing lives in the server), the served
  ``weights_epoch``, lifetime ``queries_served`` / ``rows_served``, and a
  ``per_shard`` breakdown (empty for a single engine).  Tier-specific keys
  ride along (``engine`` and ``phases`` on the engine, ``plan`` and
  ``spine`` on the router, …); the router's per-shard list lives only
  under ``per_shard``.

The signatures intentionally differ per tier where the *payload* differs
(``QueryEngine.reweight`` takes an :class:`~repro.core.augment.
Augmentation`, ``ShardRouter.reweight`` a full weight vector): the
contract is the verb set and its semantics — epoch-guarded hot swap,
thread-safe submit, idempotent close — not one universal argument type,
which is why the protocol members are declared with permissive signatures.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = [
    "SERVING_STATS_KEYS",
    "SERVING_VERBS",
    "ServingBackend",
    "ensure_serving_backend",
    "serving_stats",
]

#: The callable members of the serving contract (``weights_epoch`` is a
#: data member and is checked separately).
SERVING_VERBS = ("submit", "query", "stats", "reweight", "close")

#: Canonical keys every :meth:`ServingBackend.stats` dict carries.
SERVING_STATS_KEYS = (
    "backend",
    "workers",
    "queue_depth",
    "queue_wait_ms",
    "weights_epoch",
    "queries_served",
    "rows_served",
    "per_shard",
)


@runtime_checkable
class ServingBackend(Protocol):
    """What the coalescing server (and anything else that serves queries)
    may assume about an engine: the five verbs plus the epoch marker.

    Declared implementations: :class:`~repro.core.query.QueryEngine` and
    :class:`~repro.shard.router.ShardRouter`.  The check is structural
    (``isinstance`` with this runtime-checkable protocol verifies member
    *presence*), so third-party engine factories participate by simply
    growing the members.
    """

    weights_epoch: int

    def submit(self, *args: Any, **kwargs: Any) -> tuple[Any, dict[str, Any]]:
        """Answer one batch; returns ``(result, info)`` where ``info`` has
        at least ``rows`` / ``shards`` / ``wall_s``."""
        ...  # pragma: no cover - protocol stub

    def query(self, *args: Any, **kwargs: Any) -> Any:
        """:meth:`submit` without the info record."""
        ...  # pragma: no cover - protocol stub

    def stats(self) -> dict[str, Any]:
        """Serving counters carrying :data:`SERVING_STATS_KEYS`."""
        ...  # pragma: no cover - protocol stub

    def reweight(self, *args: Any, **kwargs: Any) -> Any:
        """Epoch-guarded hot swap to new edge weights (zero downtime)."""
        ...  # pragma: no cover - protocol stub

    def close(self) -> None:
        """Release workers/arenas; idempotent."""
        ...  # pragma: no cover - protocol stub


def ensure_serving_backend(obj: Any, *, context: str = "engine") -> Any:
    """Assert ``obj`` satisfies :class:`ServingBackend`; returns ``obj``.

    Raises :class:`TypeError` naming every missing (or non-callable) member
    — the startup-time replacement for a mid-request ``AttributeError``.
    """
    missing = [
        verb
        for verb in SERVING_VERBS
        if not callable(getattr(obj, verb, None))
    ]
    if not hasattr(obj, "weights_epoch"):
        missing.append("weights_epoch")
    if missing:
        raise TypeError(
            f"{context} {type(obj).__name__!r} does not satisfy the "
            f"ServingBackend protocol: missing {missing} "
            f"(required: {list(SERVING_VERBS) + ['weights_epoch']}; see "
            "repro.core.protocols.ServingBackend)"
        )
    return obj


def serving_stats(
    *,
    backend: str,
    workers: int,
    queue_depth: int,
    weights_epoch: int,
    queries_served: int,
    rows_served: int,
    per_shard: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """The canonical stats skeleton (:data:`SERVING_STATS_KEYS`); backends
    build on this so the schema cannot drift tier by tier again."""
    return {
        "backend": str(backend),
        "workers": int(workers),
        "queue_depth": int(queue_depth),
        "queue_wait_ms": {"p50": 0.0, "p99": 0.0},
        "weights_epoch": int(weights_epoch),
        "queries_served": int(queries_served),
        "rows_served": int(rows_served),
        "per_shard": [] if per_shard is None else per_shard,
    }
