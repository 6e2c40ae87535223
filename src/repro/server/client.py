"""Blocking client for the query server: :class:`OracleClient`.

A thin synchronous wrapper over the wire protocol of
:mod:`repro.server.protocol` (JSON-line requests, JSON-header frames with
raw array bytes back) — one socket, one request in flight at a time,
responses matched by id.  Intended for worker
processes, notebooks and the CLI; concurrency comes from many clients (the
server coalesces them), not from pipelining inside one client.

    >>> with OracleClient("/tmp/oracle.sock") as c:
    ...     d = c.distances([0, 17])          # (2, n) ndarray
    ...     who, dist = c.nearest_source([3, 9])
    ...     hops = c.path(0, 35)
    ...     c.stats()["server"]["coalesce_factor"]
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any

import numpy as np

from .protocol import UNAVAILABLE, ServerError, encode, read_frame

__all__ = ["OracleClient"]


class OracleClient:
    """Blocking connection to an :class:`~repro.server.OracleServer`.

    Every request op is idempotent — the row ops are read-only, and
    ``reweight`` *assigns* absolute weights (it never increments), so
    replaying it lands on the same weights — which is what lets the
    client transparently retry a call once when the connection drops
    mid-flight (``ConnectionResetError`` / a server that closed the
    socket) or the server answers 503 while draining — a short backoff,
    a reconnect when the socket died, and one resend.  Anything else
    (400s, 429, timeouts, a second failure) propagates to the caller.

    Parameters
    ----------
    address:
        A unix-socket path (``str``) or a ``(host, port)`` tuple.
    timeout:
        Socket timeout in seconds for each call (also sent to the server
        as the request's ``timeout_ms`` so both sides agree).
    connect_retry_s:
        Keep retrying the initial connection for this long — covers the
        race of a client starting before the server finished binding.
    retries:
        How many times a dropped-connection/503 call is retried
        (default 1; 0 disables the retry).
    retry_backoff_s:
        Sleep before each retry (scaled by the attempt number).
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        timeout: float = 30.0,
        connect_retry_s: float = 5.0,
        retries: int = 1,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.address = address
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.retry_backoff_s = float(retry_backoff_s)
        self._connect_retry_s = float(connect_retry_s)
        self._ids = itertools.count()
        self._sock = self._connect(address, connect_retry_s)
        self._sock.settimeout(self.timeout)
        self._file = self._sock.makefile("rwb")

    @staticmethod
    def _connect(address, retry_s: float) -> socket.socket:
        deadline = time.monotonic() + max(0.0, retry_s)
        while True:
            try:
                if isinstance(address, str):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(address)
                    return sock
                return socket.create_connection(tuple(address))
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)

    # ------------------------------------------------------------ #

    def _reconnect(self) -> None:
        """Drop the dead socket and dial the server again."""
        self.close()
        self._sock = self._connect(self.address, self._connect_retry_s)
        self._sock.settimeout(self.timeout)
        self._file = self._sock.makefile("rwb")

    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        """One request/response round trip, with the idempotent-retry
        policy of the class docstring (reset/503 → backoff, retry once)."""
        for attempt in range(self.retries + 1):
            try:
                return self._call_once(op, **fields)
            except ConnectionError:
                # Covers ConnectionResetError / BrokenPipeError and the
                # explicit "server closed the connection": the socket is
                # dead, so a retry must redial first.
                if attempt >= self.retries:
                    raise
                time.sleep(self.retry_backoff_s * (attempt + 1))
                self._reconnect()
            except ServerError as exc:
                # 503: the server is draining — possibly a restart; give a
                # replacement a moment, then retry on a fresh connection.
                if exc.code != UNAVAILABLE or attempt >= self.retries:
                    raise
                time.sleep(self.retry_backoff_s * (attempt + 1))
                self._reconnect()
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(self, op: str, **fields: Any) -> dict[str, Any]:
        req_id = next(self._ids)
        req = {"id": req_id, "op": op, "timeout_ms": self.timeout * 1e3, **fields}
        self._file.write(encode(req))
        self._file.flush()
        resp = read_frame(self._file)
        if resp.get("id") != req_id:
            raise ServerError(500, f"response id mismatch: {resp.get('id')!r}")
        if not resp.get("ok"):
            raise ServerError(resp.get("code", 500), resp.get("error", "unknown error"))
        return resp["result"]

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._call("ping").get("pong"))

    def distances(self, sources) -> np.ndarray:
        """Distance rows for each source: ``(s, n)``, or ``(n,)`` for a
        bare int — the server-side equivalent of
        :meth:`QueryEngine.query`, as writable float64 views of the
        received frame."""
        single = isinstance(sources, (int, np.integer))
        srcs = [int(sources)] if single else [int(s) for s in sources]
        out = self._call("distances", sources=srcs)["distances"]
        return out[0] if single else out

    def nearest_source(self, sources) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex closest source and its distance (multi-depot
        assignment); unreachable vertices get source −1 and +inf."""
        res = self._call("nearest_source", sources=[int(s) for s in sources])
        return res["assigned"], res["distance"]

    def path(self, source: int, target: int) -> list[int] | None:
        """An explicit minimum-weight path (original edges), or ``None``."""
        return self._call("path", source=int(source), target=int(target))["path"]

    def path_with_distance(self, source: int, target: int) -> tuple[list[int] | None, float]:
        """``(path, distance)`` in one round trip."""
        res = self._call("path", source=int(source), target=int(target))
        return res["path"], float(res["distance"])

    def stats(self) -> dict[str, Any]:
        """Server + engine telemetry snapshot (see
        :class:`~repro.server.metrics.ServerMetrics`)."""
        return self._call("stats")

    def reweight(self, weight=None, *, delta=None) -> dict[str, Any]:
        """Hot-swap the server to new edge weights; returns
        ``{"weights_epoch", "mode", "wall_s"}``.

        Pass either ``weight`` (the full edge-order weight vector) or
        ``delta`` (a ``{edge_id: new_weight}`` mapping, or an
        ``(edge_ids, new_weights)`` pair) — absolute assignment, so the
        class's one-shot retry is safe for this op too.  Every row op
        answered after this returns observes the new weights.
        """
        if (weight is None) == (delta is None):
            raise ValueError("pass exactly one of weight or delta")
        if weight is not None:
            return self._call("reweight", weight=[float(w) for w in np.asarray(weight)])
        if isinstance(delta, dict):
            edges = [int(e) for e in delta]
            values = [float(delta[e]) for e in delta]
        else:
            idx, vals = delta
            edges = [int(e) for e in np.asarray(idx)]
            values = [float(v) for v in np.asarray(vals)]
        return self._call("reweight", delta={"edges": edges, "weights": values})

    # ------------------------------------------------------------ #

    def close(self) -> None:
        """Close the socket (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "OracleClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the socket."""
        self.close()
