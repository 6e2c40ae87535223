"""One shard, one process: the fleet worker and its parent-side handle.

A worker process owns exactly one :class:`~repro.shard.engine.ShardEngine`
and one :class:`~repro.pram.shm.ShmArena` tagged with its shard id (segment
names ``psps<shard>_<pid>_…``).  Distance results are written into *its
own* arena and returned to the supervisor as ~100-byte
:class:`~repro.pram.shm.ArrayRef` descriptors — with ``pin`` the worker is
bound to one CPU via ``os.sched_setaffinity`` first, so under a
first-touch NUMA policy the pages holding a shard's rows live on the node
of the CPU that computes them (the ROADMAP's NUMA-aware sharding item).

The wire protocol over the duplex pipe is ``(op, arg)`` → ``("ok",
payload)`` / ``("err", message)``:

======== =============================== ================================
op        arg                             ok payload
======== =============================== ================================
ping      —                               ``{"pid": …}``
boundary  —                               ``{"ref", "rows"}`` (arena ref)
query     local source ids (ndarray)      ``{"ref", "rows", "wall_s",
                                          "epoch"}``
reweight  ``{"weight", "epoch",           ``{"epoch", "wall_s"}`` (engine
          "dirty"}``                      hot-swapped; see ShardEngine.
                                          reweight)
stats     —                               engine counters
close     —                               ``None`` (worker then exits)
crash     —                               *no reply*: ``os._exit(1)``
                                          without cleanup (test hook for
                                          the supervisor's restart +
                                          stale-segment sweep)
======== =============================== ================================

A crashed worker (SIGKILL, ``crash`` op, or a bug) cannot unlink its arena
segments; the parent-side :class:`WorkerHandle` knows the worker's name
prefix and sweeps ``/dev/shm`` on restart — the leak invariant of
:mod:`repro.pram.shm` extended across process death.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
import traceback
from typing import Any

import numpy as np

from ..core.config import OracleConfig
from ..pram.shm import as_array, orphaned_segments

__all__ = ["WorkerHandle", "WorkerCrash"]

_log = logging.getLogger(__name__)

#: Generous default for one worker call — covers a cold shard build.
CALL_TIMEOUT_S = 300.0


class WorkerCrash(RuntimeError):
    """The worker process died or stopped answering mid-call."""


def _pin_to_cpu(cpu: int | None) -> int | None:
    """Bind this process to one CPU (best effort); returns the CPU or
    ``None`` when pinning is unsupported/failed."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    try:
        os.sched_setaffinity(0, {int(cpu)})
        return int(cpu)
    except OSError:  # pragma: no cover - cpu went offline
        _log.warning("shard worker: could not pin to cpu %d", cpu)
        return None


def _worker_main(
    conn,
    shard_id: int,
    graph,
    tree,
    boundary_local: np.ndarray,
    config_dict: dict[str, Any],
    epoch: int,
    pin_cpu: int | None,
    tag: str,
    log_level: int,
) -> None:
    """Worker process entry point: build the shard engine, then serve the
    pipe protocol until ``close`` (module level for picklability)."""
    logging.basicConfig(
        level=log_level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    from ..pram.shm import ShmArena
    from .engine import ShardEngine

    pinned = _pin_to_cpu(pin_cpu)
    arena = ShmArena(tag=tag)
    engine = None
    block_ref = block_view = None
    try:
        engine = ShardEngine(
            shard_id, graph, tree, boundary_local, OracleConfig.from_dict(config_dict)
        )
        # A respawn after a fleet reweight rebuilds from already-updated
        # payload weights: stamp the agreed epoch so the router's per-leg
        # epoch guard accepts the fresh worker.
        engine.set_epoch(epoch)
        conn.send(("ready", {
            "epoch": engine.weights_epoch,
            "pid": os.getpid(),
            "build_s": engine.build_s,
            "cache_status": engine.cache_status,
            "pinned_cpu": pinned,
        }))
    except Exception:
        conn.send(("err", traceback.format_exc()))
        arena.close()
        return
    _log.info(
        "shard %d worker %d: serving (pinned cpu %s, cache %s)",
        shard_id, os.getpid(), pinned, engine.cache_status,
    )
    while True:
        try:
            op, arg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if op == "ping":
                conn.send(("ok", {"pid": os.getpid()}))
            elif op == "boundary":
                mat = engine.boundary_matrix()
                ref = arena.publish(mat)
                conn.send(("ok", {
                    "ref": ref,
                    "rows": int(mat.shape[0]),
                    "epoch": engine.weights_epoch,
                }))
            elif op == "query":
                t0 = time.perf_counter()
                rows = engine.query_rows(arg)
                if block_view is None or block_view.shape[0] < rows.shape[0]:
                    grown = max(
                        rows.shape[0],
                        2 * (block_view.shape[0] if block_view is not None else 0),
                    )
                    block_ref, block_view = arena.alloc(
                        (grown, engine.n), rows.dtype
                    )
                block_view[: rows.shape[0]] = rows
                conn.send(("ok", {
                    "ref": block_ref,
                    "rows": int(rows.shape[0]),
                    "wall_s": time.perf_counter() - t0,
                    "epoch": engine.weights_epoch,
                }))
            elif op == "reweight":
                conn.send(("ok", engine.reweight(
                    arg["weight"], int(arg["epoch"]), arg.get("dirty")
                )))
            elif op == "stats":
                conn.send(("ok", engine.stats()))
            elif op == "close":
                conn.send(("ok", None))
                break
            elif op == "crash":  # deliberate unclean death (restart tests)
                os._exit(1)
            else:
                conn.send(("err", f"unknown worker op {op!r}"))
        except Exception:
            conn.send(("err", traceback.format_exc()))
    _log.info("shard %d worker %d: draining", shard_id, os.getpid())
    engine.close()
    arena.close()
    conn.close()


class WorkerHandle:
    """Parent-side proxy of one shard worker process.

    Holds the spawn payload so the supervisor can respawn after a crash;
    :meth:`clean_stale_segments` sweeps arena segments a dead worker left
    in ``/dev/shm`` (their names carry the worker's tag and pid).
    """

    def __init__(
        self,
        shard_id: int,
        graph,
        tree,
        boundary_local: np.ndarray,
        config: OracleConfig,
        *,
        pin_cpu: int | None = None,
        log_level: int | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.tag = f"s{self.shard_id}"
        self.pin_cpu = pin_cpu
        self._payload = (graph, tree, boundary_local, config.to_dict())
        self.epoch = 0
        self._log_level = (
            log_level if log_level is not None else logging.getLogger("repro").level
        ) or logging.WARNING
        self.process: multiprocessing.Process | None = None
        self._conn = None
        self.pid: int | None = None
        self.ready_info: dict[str, Any] | None = None
        self.restarts = 0
        #: Requests sent and not yet answered — the supervisor-side queue
        #: depth the fleet reports per shard.
        self.inflight = 0
        #: Last successful ``stats`` payload, kept so supervisors can
        #: report a crashed/busy worker without blocking on its pipe.
        self.last_stats: dict[str, Any] | None = None
        # Serializes pipe access so a stats probe from another thread can
        # never interleave with (and steal the response of) a query round
        # trip; probes use a non-blocking acquire and degrade to
        # ``last_stats`` instead of stalling behind a long relaxation.
        self.io_lock = threading.Lock()

    # ---------------------------------------------------------- #

    def spawn(self) -> None:
        """Start the worker process (does not wait for the shard build —
        pair with :meth:`wait_ready`)."""
        graph, tree, boundary_local, cfg_dict = self._payload
        try:
            # Start the resource tracker *before* forking so the worker
            # inherits it: with one shared tracker, the worker's
            # create-time registration and unlink-time unregistration pair
            # up with the supervisor's attach-time registration.  A worker
            # that lazily spawns its own tracker instead leaves the
            # supervisor's tracker warning about "leaked" (long-unlinked)
            # segments at shutdown.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is an optimization
            pass
        self._conn, child = multiprocessing.Pipe(duplex=True)
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(
                child, self.shard_id, graph, tree, boundary_local,
                cfg_dict, self.epoch, self.pin_cpu, self.tag, self._log_level,
            ),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child.close()  # parent keeps one end only
        self.pid = self.process.pid
        self.ready_info = None
        self.inflight = 0

    def set_weights(self, weight: np.ndarray, epoch: int) -> None:
        """Fold new local edge weights into the respawn payload and record
        the fleet-agreed epoch, so a worker that crashes *after* a
        reweight is rebuilt at the new weights (and stamped with the new
        epoch) instead of resurrecting the old ones."""
        graph, tree, boundary_local, cfg_dict = self._payload
        graph = type(graph)(graph.n, graph.src, graph.dst, weight)
        self._payload = (graph, tree, boundary_local, cfg_dict)
        self.epoch = int(epoch)

    def wait_ready(self, timeout: float = CALL_TIMEOUT_S) -> dict[str, Any]:
        """Block until the worker finished its (possibly cache-warm) build."""
        kind, payload = self._recv(timeout)
        if kind != "ready":
            raise WorkerCrash(
                f"shard {self.shard_id} worker failed to start: {payload}"
            )
        self.ready_info = payload
        return payload

    @property
    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process is not None and self.process.is_alive()

    def try_stats(self, timeout: float = 5.0) -> dict[str, Any] | None:
        """Probe the worker's engine counters *without* risking the pipe.

        Returns ``None`` — instead of blocking or desyncing the
        request/response pairing — whenever the worker is dead, has a
        response in flight, or another thread holds the pipe.  On success
        the payload is also cached in :attr:`last_stats` so aggregators can
        report a degraded worker at its last-known depth.
        """
        if not self.io_lock.acquire(blocking=False):
            return None
        try:
            if not self.alive or self.inflight != 0:
                return None
            try:
                self._conn.send(("stats", None))
                # Account for the outstanding reply *before* waiting: if the
                # wait below times out the reply is still owed, and a raised
                # ``inflight`` makes the next probe decline instead of
                # desyncing.
                self.inflight += 1
                if not self._conn.poll(timeout):  # pragma: no cover - wedged
                    return None
                kind, payload = self._conn.recv()
                self.inflight -= 1
            except (EOFError, OSError, ValueError, BrokenPipeError):
                return None
            if kind != "ok":
                return None
            self.last_stats = payload
            return payload
        finally:
            self.io_lock.release()

    def send_request(self, op: str, arg: Any = None) -> None:
        """Issue one request without waiting (overlap across workers)."""
        with self.io_lock:
            try:
                self._conn.send((op, arg))
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise WorkerCrash(
                    f"shard {self.shard_id} worker pipe closed on send: {exc}"
                ) from exc
            self.inflight += 1

    def _recv(self, timeout: float) -> tuple[str, Any]:
        try:
            if not self._conn.poll(timeout):
                raise WorkerCrash(
                    f"shard {self.shard_id} worker unresponsive after {timeout:.0f}s"
                )
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrash(
                f"shard {self.shard_id} worker died mid-call: {exc}"
            ) from exc

    def recv_response(self, timeout: float = CALL_TIMEOUT_S) -> Any:
        """Collect one response; raises :class:`WorkerCrash` on a dead
        worker and :class:`RuntimeError` on a worker-side exception."""
        kind, payload = self._recv(timeout)
        with self.io_lock:
            self.inflight = max(0, self.inflight - 1)
        if kind == "err":
            raise RuntimeError(f"shard {self.shard_id} worker error:\n{payload}")
        return payload

    def call(self, op: str, arg: Any = None, timeout: float = CALL_TIMEOUT_S) -> Any:
        """``send_request`` + ``recv_response`` in one round trip."""
        self.send_request(op, arg)
        return self.recv_response(timeout)

    def fetch_rows(self, payload: dict[str, Any]) -> np.ndarray:
        """Materialize a worker result: attach its arena block and copy the
        row range out (the copy frees the block for the next request)."""
        view = as_array(payload["ref"])
        return np.array(view[: payload["rows"]])

    # ---------------------------------------------------------- #

    def clean_stale_segments(self) -> list[str]:
        """Unlink segments a dead worker left behind (matched by its
        ``psp<tag>_<pid>_`` name prefix); returns the names removed."""
        if self.pid is None:
            return []
        from multiprocessing import shared_memory

        prefix = f"psp{self.tag}_{self.pid}_"
        stale = orphaned_segments(prefix)
        for name in stale:
            try:
                seg = shared_memory.SharedMemory(name=name)
                seg.unlink()
                seg.close()
            except FileNotFoundError:  # pragma: no cover - raced another sweep
                pass
        if stale:
            _log.warning(
                "shard %d: swept %d stale segment(s) of dead worker %d",
                self.shard_id, len(stale), self.pid,
            )
        return stale

    def kill(self) -> None:
        """Hard-kill the worker (SIGKILL; used by supervisors and tests)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(10)

    def close(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: ask the worker to drain, then reap it; falls
        back to kill + stale-segment sweep when it does not comply."""
        if self.process is None:
            return
        try:
            self.call("close", timeout=timeout)
        except (WorkerCrash, RuntimeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - drain timeout
            _log.warning("shard %d: worker %s did not drain; killing", self.shard_id, self.pid)
            self.kill()
        self.clean_stale_segments()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
