"""Wire protocol of the query server: JSON-header frames over a stream socket.

Requests are JSON lines: one JSON object per line, framed by a single
``\\n``.  A response is a *frame*: a JSON header line, then the raw bytes
of its arrays.  Each array-valued field of the result appears in the
header as ``{"dtype": "<f8"|"<i8", "shape": [...]}``, and the header
carries ``"payload": <bytes>``, the total length of the little-endian,
C-order array bytes that follow the newline, in result-field order::

    {"id":3,"ok":true,"result":{"sources":[0,17],"distances":
     {"dtype":"<f8","shape":[2,1600]}},"payload":25600}\\n<25600 raw bytes>

A header without arrays has no ``payload`` key and nothing follows it, so
errors, ``stats``, ``path`` and every request are plain JSON lines.  Raw
``<f8`` keeps every bit of a row, ``inf`` and ``-0.0`` included.  Both sides
are Python, so the non-finite scalars that remain in JSON (a ``path``
distance) travel as the ``json`` module's ``Infinity`` / ``-Infinity``
literals, a documented deviation from strict JSON.  Rows never do.

Request shape::

    {"id": <any>, "op": "distances", "sources": [0, 17]}
    {"id": <any>, "op": "nearest_source", "sources": [3, 9, 12]}
    {"id": <any>, "op": "path", "source": 0, "target": 35}
    {"id": <any>, "op": "stats"}
    {"id": <any>, "op": "ping"}
    {"id": <any>, "op": "reweight", "weight": [w_0, ..., w_{m-1}]}
    {"id": <any>, "op": "reweight", "delta": {"edges": [3, 17],
                                              "weights": [2.5, 9.0]}}

``reweight`` hot-swaps the serving stack to new edge weights without
dropping queries: exactly one of ``weight`` (the full edge-order vector)
or ``delta`` (absolute new weights for the named edge ids — *assignment*,
not increment, so retrying the same request is idempotent).  The result is
``{"weights_epoch": <int>, "mode": "engine"|"fleet", "wall_s": <float>}``;
every row op answered after the response observes the new weights, and no
response ever mixes two epochs.

Response shape (``distances``: ``(s, n)`` ``<f8``; ``nearest_source``:
``assigned`` ``(n,)`` ``<i8`` and ``distance`` ``(n,)`` ``<f8``)::

    {"id": <same>, "ok": true,  "result": {...}[, "payload": <bytes>]}
    {"id": <same>, "ok": false, "code": 429, "error": "..."}

``id`` is opaque to the server and echoed verbatim — clients use it to
match responses (the server answers each connection's requests as they
complete, which is not necessarily arrival order once batches coalesce).

The ``stats`` result carries, alongside the ``server`` counter snapshot
(which includes ``cached_rows_total`` and ``row_cache_hit_rate``) and the
``engine`` stats (with their ``row_cache`` hit/miss section), a ``cache``
section summarizing both caches of the serving stack::

    "cache": {
        "build":        {...},   # oracle.cache_info: augmentation-store
                                 # mode/status ("off"|"bypass"|"miss"|
                                 # "hit"|"stored"), tree (the same values
                                 # for the tree entry), key, dir, timings
                                 # (load_s, store_s, tree_load_s)
        "row_hit_rate": 0.42,    # fraction of served rows from the row LRU
        "row_cache":    {...}    # engine row-LRU capacity/size/hits/misses
    }
"""

from __future__ import annotations

import json
import math
from typing import Any, BinaryIO

import numpy as np

__all__ = [
    "OK",
    "BAD_REQUEST",
    "OVERLOADED",
    "INTERNAL",
    "UNAVAILABLE",
    "TIMEOUT",
    "ROW_OPS",
    "ServerError",
    "encode",
    "decode",
    "read_frame",
    "ok_response",
    "error_response",
]

#: Status codes, HTTP-flavored so dashboards read them without a legend.
OK = 200
BAD_REQUEST = 400
OVERLOADED = 429        # bounded-queue shed (backpressure)
INTERNAL = 500
UNAVAILABLE = 503       # server is draining for shutdown
TIMEOUT = 504

#: Ops whose answer needs distance rows — these are the ones the server
#: coalesces into shared :meth:`QueryEngine.submit` batches.
ROW_OPS = ("distances", "nearest_source", "path")


class ServerError(RuntimeError):
    """A non-ok response, surfaced client-side with its status code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = int(code)
        self.message = message


#: The array dtypes a frame may carry.
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def encode(obj: dict[str, Any]) -> bytes:
    """The whole frame for ``obj``, ready to write: a compact JSON line,
    followed by the raw bytes of every :class:`numpy.ndarray` field of
    ``obj["result"]`` (floats as ``<f8``, integers as ``<i8``)."""
    arrays = []
    result = obj.get("result")
    if isinstance(result, dict) and any(isinstance(v, np.ndarray) for v in result.values()):
        result = dict(result)
        for key, value in result.items():
            if isinstance(value, np.ndarray):
                dt = _DTYPES["<i8" if value.dtype.kind in "iu" else "<f8"]
                arr = np.ascontiguousarray(value, dtype=dt)
                result[key] = {"dtype": dt.str, "shape": list(arr.shape)}
                arrays.append(arr)
        obj = {**obj, "result": result, "payload": sum(a.nbytes for a in arrays)}
    header = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    return b"".join([header, *(memoryview(a).cast("B") for a in arrays)])


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one received line; raises :class:`ServerError` (400) on junk."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServerError(BAD_REQUEST, f"malformed JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServerError(BAD_REQUEST, "request must be a JSON object")
    return obj


def read_frame(stream: BinaryIO) -> dict[str, Any]:
    """Read one frame from a blocking binary stream: the header, with
    every array field replaced by a writable, C-contiguous view into one
    ``bytearray`` that holds exactly ``payload`` bytes.

    EOF before the header or inside the payload raises
    :class:`ConnectionError`; a payload whose length disagrees with the
    declared shapes and dtypes raises :class:`ServerError` (500).
    """
    line = stream.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    obj = decode(line)
    if "payload" not in obj:
        return obj
    size = obj["payload"]
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise ServerError(INTERNAL, f"bad payload length {size!r}")
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        k = stream.readinto(view[got:])
        if not k:
            raise ConnectionError(
                f"server closed the connection after {got} of {size} payload bytes"
            )
        got += k
    result = obj.get("result")
    try:
        specs = [
            (key, _DTYPES[spec["dtype"]], tuple(int(d) for d in spec["shape"]))
            for key, spec in (result.items() if isinstance(result, dict) else ())
            if isinstance(spec, dict) and spec.keys() == {"dtype", "shape"}
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServerError(INTERNAL, f"bad array header: {exc!r}") from exc
    counts = [math.prod(shape) for _, _, shape in specs]
    if (any(min(shape, default=0) < 0 for _, _, shape in specs)
            or sum(c * dt.itemsize for c, (_, dt, _) in zip(counts, specs)) != size):
        raise ServerError(
            INTERNAL, f"payload of {size} bytes disagrees with the declared shapes"
        )
    offset = 0
    for (key, dt, shape), count in zip(specs, counts):
        result[key] = np.frombuffer(buf, dt, count, offset).reshape(shape)
        offset += count * dt.itemsize
    return obj


def ok_response(req_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """Success envelope for ``req_id``."""
    return {"id": req_id, "ok": True, "result": result}


def error_response(req_id: Any, code: int, message: str) -> dict[str, Any]:
    """Failure envelope for ``req_id``."""
    return {"id": req_id, "ok": False, "code": int(code), "error": message}
