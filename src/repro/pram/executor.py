"""Execution backends for the rows of a batched query.

The paper's algorithms expose three sources of parallelism: all tree nodes
of a level are independent in Algorithm 4.1, all nodes are independent
within one doubling round of Algorithm 4.3, and all sources of a batched
§3.2 query relax disjoint rows of the distance matrix.  Only the last one
runs on a pool here: :class:`~repro.core.query.QueryEngine` fans a batch's
rows out over its executor.  The builders run their nodes in the calling
thread and charge each level or round to the ledger as one parallel step;
on a 2-vCPU host no pool beat serial on a build (EXPERIMENTS.md,
E-exec-rows).  A batch runs serially, on a thread pool (numpy releases the
GIL inside its loops), or on the zero-copy shared-memory process pool (true
parallelism with O(1) bytes of task traffic — see :mod:`repro.pram.shm`).
Each one wins at least one measured batch size or graph.

Spec grammar
------------
:func:`get_executor` resolves a *spec* to a backend instance::

    spec      ::=  None | instance | name [":" workers]
    name      ::=  "serial" | "thread" | "shm"
    workers   ::=  positive integer (default: min(8, cpu_count))

Examples: ``"serial"``, ``"thread:4"``, ``"shm"``, ``"shm:8"``.
``None`` means serial; an existing executor instance passes through
unchanged (the caller keeps ownership and must ``close()`` it).

Worker-function contract
------------------------
* ``serial`` / ``thread`` — any callable and payload.
* ``shm`` — module-level functions and picklable payloads; any
  :class:`~repro.pram.shm.ArrayRef` inside a payload (dicts/lists/tuples,
  arbitrarily nested) is resolved to a zero-copy numpy view *before* the
  function runs.  Orchestrators publish large arrays into a
  :class:`~repro.pram.shm.ShmArena` and put only the descriptors in the
  payload; workers write results into pre-allocated arena blocks and
  return scalars.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from .shm import resolve

__all__ = [
    "SerialExecutor",
    "ThreadExecutor",
    "ShmExecutor",
    "get_executor",
]


class SerialExecutor:
    """Run tasks in the calling thread (the default)."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each payload, preserving order."""
        return [fn(p) for p in payloads]

    def close(self) -> None:
        """No resources to release."""


class ThreadExecutor:
    """Thread-pool backend; effective when the work is numpy-heavy."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers or min(8, os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` on the thread pool, preserving order."""
        return list(self._pool.map(fn, payloads))

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks."""
        self._pool.shutdown(wait=True)


def _resolving_call(item: tuple[Callable[[Any], Any], Any]) -> Any:
    """Worker-side trampoline: resolve shared-memory descriptors in the
    payload, then run the task (module level so it pickles)."""
    fn, payload = item
    return fn(resolve(payload))


class ShmExecutor:
    """Persistent process pool whose payloads travel as shared-memory
    descriptors instead of pickled arrays.

    Worker functions must be module level and payloads picklable; every
    :class:`~repro.pram.shm.ArrayRef` found inside a payload is resolved to
    a zero-copy view in the worker before the task function runs.

    The pool persists across ``map`` calls — algorithms publish their big
    arrays once per run (to a :class:`~repro.pram.shm.ShmArena` they own)
    and reuse the warm workers for every subsequent phase or query batch.

    Because payloads are descriptor-sized, tasks are dispatched in chunks
    (several payloads per IPC round trip) — the per-task pool overhead that
    dominates fine-grained levels is amortized away without duplicating any
    array bytes.
    """

    name = "shm"
    #: Orchestrators check this to switch payload construction from
    #: array-carrying to descriptor-carrying.
    uses_shared_memory = True

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers or min(8, os.cpu_count() or 1)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` on the pool with descriptor resolution, preserving
        order.  Payloads are shipped several-per-task (cheap: descriptors,
        not arrays) so fine-grained levels aren't dispatch-bound."""
        chunk = max(1, len(payloads) // (self.workers * 4))
        return list(
            self._pool.map(_resolving_call, [(fn, p) for p in payloads], chunksize=chunk)
        )

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks.

        Arenas are owned by the orchestrators that created them, not the
        executor; closing the pool releases worker-side segment mappings.
        """
        self._pool.shutdown(wait=True)


def get_executor(spec) -> SerialExecutor | ThreadExecutor | ShmExecutor:
    """Resolve an executor spec (see the module docstring's grammar).

    ``None`` → serial; ``"name[:N]"`` → a fresh backend with ``N`` workers;
    an instance → passed through unchanged (caller keeps ownership).  The
    retired ``"process[:N]"`` raises a :class:`ValueError` naming its
    replacements.
    """
    if spec is None:
        return SerialExecutor()
    if not isinstance(spec, str):
        return spec
    name, _, count = spec.partition(":")
    workers = int(count) if count else None
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    if name == "shm":
        return ShmExecutor(workers)
    retired = (
        "the 'process' executor (a pickling process pool) was removed; use "
        "'thread:N' or 'shm:N'. " if name == "process" else ""
    )
    raise ValueError(
        f"{retired}unknown executor spec {spec!r}; valid specs: serial, "
        f"thread[:N], shm[:N]"
    )
