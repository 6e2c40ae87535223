"""Async batched query serving over a warm
:class:`~repro.core.query.QueryEngine` (the ROADMAP's socket front end).

* :class:`~repro.server.server.OracleServer` — asyncio TCP/Unix-socket
  server with request coalescing, bounded-queue backpressure, per-request
  timeouts and drain-then-close shutdown;
* :class:`~repro.server.client.OracleClient` — blocking client (JSON-line
  requests; replies are JSON-header frames carrying raw row arrays);
* :class:`~repro.server.server.ServerConfig` — coalescing/limit knobs;
* :class:`~repro.server.metrics.ServerMetrics` — per-request/per-batch
  telemetry (queue wait, coalesce factor, shard fan-out, p50/p99).

Start one from the CLI with ``repro-spsp serve`` or in-process::

    async with OracleServer(oracle, server=ServerConfig(path=sock)) as srv:
        ...

See DESIGN.md §6 for the architecture.
"""

from .client import OracleClient
from .metrics import ServerMetrics
from .protocol import ServerError
from .server import OracleServer, ServerConfig

__all__ = [
    "OracleServer",
    "OracleClient",
    "ServerConfig",
    "ServerMetrics",
    "ServerError",
]
