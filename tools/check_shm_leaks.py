#!/usr/bin/env python
"""Shared-memory leak checker for the ``shm`` executor.

The zero-copy plane (:mod:`repro.pram.shm`) promises that every segment it
creates in ``/dev/shm`` is unlinked when its arena closes — even across
pool worker crashes.  This tool verifies that promise on a live machine:

* ``--scan`` (default): list any ``psp*`` segments currently present and
  exit non-zero if any exist.  Run it after a test session or a bench run;
  a clean tree prints nothing.  Plain arenas name segments
  ``psp_<pid>_<hex>``; query engines name theirs ``pspg<epoch>_<pid>_<hex>``
  (see :class:`repro.pram.shm.ShmArena`'s ``tag``) — the report annotates
  which weights-epoch generation and owner pid a leaked segment belonged
  to.
* ``--exercise``: a batch, a reweight and a batch on an ``shm:2`` query
  engine, then a crashing ``shm`` pool task — and scan.
* ``--clean``: unlink whatever stale ``psp_*`` segments are found (e.g.
  after a SIGKILL'd orchestrator, where no finalizer could run).
* ``--cache-dir DIR``: also scan the augmentation store (:mod:`repro.cache`)
  for *stale* ``<key>.lock`` build locks (owner pid dead, or older than the
  staleness bound) and orphaned ``*.tmp-*`` write files — the debris a
  SIGKILL'd builder leaves behind; ``--clean`` removes those too.

Exit code 0 = no leaks (after cleaning, if requested).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


#: Segment-name shape: ``psp[g<epoch>]_<pid>_<hex>`` (plain arenas carry no
#: tag; query engines tag each arena *generation* with its weights epoch, so
#: a leaked segment tells you which reweight generation failed to unlink).
_SEGMENT_RE = re.compile(r"^psp(?:g(\d+))?_(\d+)_[0-9a-f]+$")


def scan() -> list[str]:
    from repro.pram.shm import orphaned_segments

    return orphaned_segments()


def describe(name: str) -> str:
    """Human-readable provenance of a segment name: its owner pid and, for
    query engines, which reweight generation the arena belonged to."""
    m = _SEGMENT_RE.match(name)
    if not m:
        return name
    epoch, pid = m.groups()
    who = "arena owner"
    if epoch is not None:
        who += f", epoch {epoch} generation"
    return f"{name} ({who} pid {pid})"


def scan_cache(cache_dir: str | None) -> list[str]:
    """Paths of stale build locks and orphaned temp files under the store.

    A ``<key>.lock`` counts only when :class:`repro.cache.AugmentationCache`
    itself would break it (dead pid or over-age) — a live builder's lock is
    healthy, not a leak.  Any ``*.tmp-*`` counts: atomic writes rename or
    unlink theirs before returning, so a survivor is a crashed writer's.
    """
    import pathlib

    from repro.cache import AugmentationCache

    store = AugmentationCache(cache_dir)
    base = pathlib.Path(store.dir)
    if not base.is_dir():
        return []
    stale: list[str] = []
    for path in sorted(base.iterdir()):
        name = path.name
        if ".tmp-" in name:
            stale.append(str(path))
        elif name.endswith(".lock") and name != "index.lock":
            if store._lock_is_stale(path):
                stale.append(str(path))
    return stale


def clean_cache(paths: list[str]) -> None:
    for p in paths:
        try:
            os.unlink(p)
            print(f"removed stale cache file {p}")
        except FileNotFoundError:
            pass


def clean(names: list[str]) -> None:
    from multiprocessing import shared_memory

    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.unlink()
            seg.close()
            print(f"unlinked stale segment {name}")
        except FileNotFoundError:
            pass


def exercise() -> None:
    """Drive the shared-memory arena owner, checking rows against a
    serial pass: an ``shm:2`` query engine (a 64-row batch, a reweight
    that flips it to a new arena generation, a second batch); then a
    crashing task on the ``shm`` pool."""
    import numpy as np

    from repro.core.api import ShortestPathOracle
    from repro.core.config import OracleConfig
    from repro.pram.executor import get_executor
    from repro.separators.grid import decompose_grid
    from repro.workloads.generators import grid_digraph

    rng = np.random.default_rng(0)
    g = grid_digraph((12, 12), rng)
    tree = decompose_grid(g, (12, 12))
    oracle = ShortestPathOracle.build(g, tree)
    srcs = rng.integers(0, g.n, size=64)
    want = oracle.distances(srcs)
    with oracle.query_engine(OracleConfig(executor="shm:2")) as eng:
        if not np.array_equal(eng.query(srcs), want):
            raise SystemExit("shm:2 engine rows differ from serial")
        heavier = oracle.with_new_weights(g.weight + 1.0)
        eng.reweight(heavier.augmentation)
        if not np.array_equal(eng.query(srcs), heavier.distances(srcs)):
            raise SystemExit("shm:2 engine rows differ from serial after reweight")
    # A crashing worker task must not take any segment down with it.
    exe = get_executor("shm:2")
    try:
        exe.map(_crash, [None])
    except RuntimeError:
        pass
    finally:
        exe.close()
    print("exercise complete (shm:2 engine: 64-row batch, reweight, batch; "
          "shm pool: crashed task)")


def _crash(payload):
    raise RuntimeError("deliberate crash for leak check")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exercise", action="store_true",
                    help="run the shm engine workload (incl. a reweight "
                         "and a crashed task) first")
    ap.add_argument("--clean", action="store_true",
                    help="unlink any stale segments / cache files found")
    ap.add_argument("--cache-dir", dest="cache_dir", default=None,
                    help="also scan this augmentation-store directory "
                         "(pass '' for the default store) for stale locks "
                         "and orphaned *.tmp-* files")
    args = ap.parse_args(argv)
    if args.exercise:
        exercise()
    leaks = scan()
    if leaks and args.clean:
        clean(leaks)
        leaks = scan()
    cache_leaks: list[str] = []
    if args.cache_dir is not None:
        cache_leaks = scan_cache(args.cache_dir or None)
        if cache_leaks and args.clean:
            clean_cache(cache_leaks)
            cache_leaks = scan_cache(args.cache_dir or None)
    rc = 0
    if leaks:
        print(f"LEAK: {len(leaks)} stale segment(s) in /dev/shm: "
              f"{[describe(name) for name in leaks]}")
        rc = 1
    else:
        print("no leaked shared-memory segments")
    if args.cache_dir is not None:
        if cache_leaks:
            print(f"LEAK: {len(cache_leaks)} stale cache file(s): {cache_leaks}")
            rc = 1
        else:
            print("no stale cache locks or temp files")
    return rc


if __name__ == "__main__":
    sys.exit(main())
