"""On-disk augmentation store: :class:`AugmentationCache`.

Layout (one directory, default ``~/.cache/repro/aug``, overridable via
``OracleConfig.cache_dir`` / ``REPRO_CACHE_DIR``)::

    <key>.npz            one E⁺ entry — the io.save_augmentation payload
    tree-<digest>.npz    one tree entry — the io.save_tree payload
    <key>.lock           O_EXCL build lock (JSON: pid + created timestamp)
    <key>.tmp-<pid>-<r>  in-flight atomic write (renamed into place)
    index.json           LRU bookkeeping: bytes / created / last_used per key
    index.lock           O_EXCL lock for index.json mutations

Durability and concurrency rules:

* **atomic writes** — entries and the index are written to a temp file in
  the same directory and ``os.replace``-d into place, so a crashed writer
  leaves at worst an orphaned ``*.tmp`` (flagged by
  ``tools/check_shm_leaks.py --cache-dir``), never a truncated entry;
* **no stampede** — a builder takes ``<key>.lock`` with ``O_EXCL`` before
  the expensive build; losers wait for the lock to clear and then load the
  winner's entry.  Locks from dead pids (or older than ``stale_lock_s``)
  are broken, so a SIGKILL'd builder never wedges the key;
* **first writer wins** — :meth:`store` skips the rename when the entry
  already exists (both racers built identical content);
* **bounded size** — after each store the total entry size is clamped to
  ``max_bytes`` (``REPRO_CACHE_MAX_BYTES``) by evicting least-recently-used
  entries per ``index.json``; the index self-heals against a vanished or
  corrupt file by rescanning the directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import secrets
import time
import zipfile

from .keys import TREE_KEY_PREFIX

__all__ = ["AugmentationCache", "BuildLock", "default_cache_dir", "DEFAULT_MAX_BYTES"]

#: Default size bound of the store (override via ``REPRO_CACHE_MAX_BYTES``).
DEFAULT_MAX_BYTES = 2 << 30

#: A lock whose owner pid is gone is broken immediately; an unreadable or
#: same-host-alive lock is broken only after this many seconds.
STALE_LOCK_S = 3600.0


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/aug``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "aug"


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists under another uid
        return True
    return True


def _atomic_write_bytes(path: pathlib.Path, data: bytes) -> None:
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class BuildLock:
    """Held ``<key>.lock`` file; release by :meth:`release` (or context
    exit).  Idempotent — a double release is a no-op."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self._held = True

    def release(self) -> None:
        """Delete the lock file; safe to call more than once."""
        if self._held:
            self._held = False
            with contextlib.suppress(FileNotFoundError):
                self.path.unlink()

    def __enter__(self) -> "BuildLock":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class AugmentationCache:
    """Content-addressed augmentation store over one directory.

    Parameters
    ----------
    cache_dir:
        Store directory (created on first write).  ``None`` →
        :func:`default_cache_dir`.
    max_bytes:
        Total entry-size bound enforced by LRU eviction after each store;
        ``None`` → ``REPRO_CACHE_MAX_BYTES`` or :data:`DEFAULT_MAX_BYTES`.
    stale_lock_s:
        Age beyond which a build lock is broken even if its pid looks
        alive (guards against pid reuse and clock-skewed NFS homes).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        max_bytes: int | None = None,
        stale_lock_s: float = STALE_LOCK_S,
    ) -> None:
        self.dir = pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
        if max_bytes is None:
            max_bytes = int(os.environ.get("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES))
        self.max_bytes = int(max_bytes)
        self.stale_lock_s = float(stale_lock_s)

    # ------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------ #

    def entry_path(self, key: str) -> pathlib.Path:
        """Where ``key``'s entry lives (whether or not it exists yet)."""
        return self.dir / f"{key}.npz"

    def lock_path(self, key: str) -> pathlib.Path:
        """Where ``key``'s build lock lives while a builder holds it."""
        return self.dir / f"{key}.lock"

    @property
    def index_path(self) -> pathlib.Path:
        return self.dir / "index.json"

    def _ensure_dir(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ #
    # Build locks (entry granularity)
    # ------------------------------------------------------------ #

    def _lock_is_stale(self, path: pathlib.Path) -> bool:
        try:
            info = json.loads(path.read_text())
            pid = int(info.get("pid", -1))
            created = float(info.get("created", 0.0))
        except (OSError, ValueError):
            # Unreadable (mid-write or junk): only age can condemn it.
            try:
                created = path.stat().st_mtime
            except OSError:
                return False  # vanished — not ours to break
            return time.time() - created > self.stale_lock_s
        if not _pid_alive(pid):
            return True
        return time.time() - created > self.stale_lock_s

    def try_lock(self, key: str) -> BuildLock | None:
        """Take the build lock for ``key`` (``O_EXCL``), breaking a stale
        one; ``None`` when a live builder holds it."""
        self._ensure_dir()
        path = self.lock_path(key)
        payload = json.dumps({"pid": os.getpid(), "created": time.time()}).encode()
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if attempt == 0 and self._lock_is_stale(path):
                    with contextlib.suppress(FileNotFoundError):
                        path.unlink()
                    continue
                return None
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            return BuildLock(path)
        return None

    def wait_for_entry(
        self, key: str, timeout_s: float = 120.0, poll_s: float = 0.05
    ) -> bool:
        """Wait for a concurrent builder of ``key``: poll until the entry
        appears, the lock clears (builder finished or failed), or the
        timeout elapses.  Returns whether the entry exists."""
        deadline = time.monotonic() + float(timeout_s)
        entry = self.entry_path(key)
        lock = self.lock_path(key)
        while time.monotonic() < deadline:
            if entry.exists():
                return True
            if not lock.exists():
                return entry.exists()
            time.sleep(poll_s)
        return entry.exists()

    # ------------------------------------------------------------ #
    # Load / store
    # ------------------------------------------------------------ #

    def load(self, key: str, *, graph=None, tree=None):
        """``(augmentation, meta)`` for a present entry, else ``None``.

        ``meta`` is the versioned header dict of :func:`repro.io.
        load_augmentation` (``version`` / ``validated`` / ``config``).
        ``graph`` and ``tree`` are the inputs ``key`` was computed from;
        when given, the augmentation reuses them instead of reading the
        entry's copies (the key is a digest of exactly those arrays).
        A corrupt entry is deleted and reported as a miss.
        """
        from ..io import load_augmentation

        return self._read(
            key, lambda path: load_augmentation(path, with_meta=True, graph=graph, tree=tree)
        )

    def load_tree(self, key: str):
        """The separator tree stored under the tree key ``key`` (with its
        ``selection`` and ``refinement`` records), else ``None``; a corrupt
        entry is deleted and reported as a miss."""
        from ..io import load_tree

        return self._read(key, load_tree)

    def store(self, key: str, aug, *, config=None, validated: bool = False) -> bool:
        """Persist ``aug`` under ``key`` atomically; returns whether this
        call wrote the entry (``False`` when another builder already had —
        first writer wins, the payloads are identical by construction)."""
        from ..io import save_augmentation

        return self._write(
            key,
            lambda fh: save_augmentation(fh, aug, config=config, validated=validated),
            {
                "n": int(aug.graph.n),
                "m": int(aug.graph.m),
                "eplus": int(aug.size),
                "method": str(aug.method),
                "semiring": aug.semiring.name,
            },
        )

    def store_tree(self, key: str, tree) -> bool:
        """Persist ``tree`` (and its records) under the tree key ``key``;
        first writer wins, as in :meth:`store`."""
        from ..io import save_tree

        decision = (tree.selection or {}).get("mode_decision") or {}
        return self._write(
            key,
            lambda fh: save_tree(fh, tree),
            {"n": tree.n, "nodes": len(tree.nodes), "tier": decision.get("mode", "exact")},
        )

    def _read(self, key: str, read):
        path = self.entry_path(key)
        if not path.exists():
            return None
        try:
            out = read(path)
        except (ValueError, KeyError, OSError, zipfile.BadZipFile, EOFError):
            # Truncated or foreign file at the entry path: drop it so the
            # next builder repairs the slot (atomic writes make this rare).
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        self._touch(key)
        return out

    def _write(self, key: str, save, meta: dict) -> bool:
        self._ensure_dir()
        path = self.entry_path(key)
        if path.exists():
            self._touch(key)
            return False
        tmp = self.dir / f"{key}.tmp-{os.getpid()}-{secrets.token_hex(4)}"
        try:
            with open(tmp, "wb") as fh:
                save(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
        now = time.time()
        record = {"bytes": int(path.stat().st_size), "created": now, "last_used": now, **meta}
        self._update_index(lambda idx: idx.__setitem__(key, record))
        self.evict(protect=key)
        return True

    # ------------------------------------------------------------ #
    # Index (LRU bookkeeping)
    # ------------------------------------------------------------ #

    def _read_index(self) -> dict:
        try:
            idx = json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            return {}
        return idx if isinstance(idx, dict) else {}

    @contextlib.contextmanager
    def _index_lock(self, timeout_s: float = 2.0):
        """Short-spin ``O_EXCL`` lock for index mutations; yields whether
        the lock was won (callers degrade to best-effort on ``False`` —
        the index self-heals from the directory)."""
        self._ensure_dir()
        path = self.dir / "index.lock"
        deadline = time.monotonic() + timeout_s
        won = False
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                os.close(fd)
                won = True
                break
            except FileExistsError:
                try:
                    if time.time() - path.stat().st_mtime > 30.0:
                        with contextlib.suppress(FileNotFoundError):
                            path.unlink()
                        continue
                except OSError:
                    continue
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.005)
        try:
            yield won
        finally:
            if won:
                with contextlib.suppress(FileNotFoundError):
                    path.unlink()

    def _update_index(self, mutate) -> None:
        with self._index_lock() as won:
            if not won:
                return
            idx = self._read_index()
            mutate(idx)
            _atomic_write_bytes(
                self.index_path, (json.dumps(idx, indent=1, sort_keys=True) + "\n").encode()
            )

    def _touch(self, key: str) -> None:
        now = time.time()

        def bump(idx: dict) -> None:
            entry = idx.get(key)
            if isinstance(entry, dict):
                entry["last_used"] = now

        self._update_index(bump)

    # ------------------------------------------------------------ #
    # Management (ls / stats / clear / eviction)
    # ------------------------------------------------------------ #

    def entries(self) -> list[dict]:
        """One record per on-disk entry, reconciled with the index (files
        missing from the index are synthesized from ``stat``; index rows
        whose file vanished are ignored), oldest ``last_used`` first."""
        if not self.dir.is_dir():
            return []
        idx = self._read_index()
        out = []
        for path in self.dir.glob("*.npz"):
            key = path.stem
            try:
                st = path.stat()
            except OSError:
                continue
            meta = idx.get(key)
            if not isinstance(meta, dict):
                meta = {"bytes": st.st_size, "created": st.st_mtime, "last_used": st.st_mtime}
            rec = dict(meta)
            rec["key"] = key
            rec["kind"] = "tree" if key.startswith(TREE_KEY_PREFIX) else "eplus"
            rec.setdefault("bytes", st.st_size)
            rec.setdefault("last_used", st.st_mtime)
            out.append(rec)
        out.sort(key=lambda r: r.get("last_used", 0.0))
        return out

    def stats(self) -> dict:
        """Store-level summary for ``repro-spsp cache stats`` and the
        server's ``stats`` op."""
        entries = self.entries()
        kinds = [e["kind"] for e in entries]
        return {
            "dir": str(self.dir),
            "entries": len(entries),
            "kinds": {k: kinds.count(k) for k in ("eplus", "tree")},
            "total_bytes": int(sum(e.get("bytes", 0) for e in entries)),
            "max_bytes": self.max_bytes,
        }

    def evict(self, protect: str | None = None) -> list[str]:
        """Clamp total entry size to ``max_bytes`` by deleting least-
        recently-used entries (never the just-written ``protect`` key);
        returns the evicted keys."""
        entries = self.entries()
        total = sum(e.get("bytes", 0) for e in entries)
        evicted: list[str] = []
        for e in entries:
            if total <= self.max_bytes:
                break
            if e["key"] == protect:
                continue
            with contextlib.suppress(OSError):
                self.entry_path(e["key"]).unlink()
            total -= e.get("bytes", 0)
            evicted.append(e["key"])
        if evicted:
            self._update_index(lambda idx: [idx.pop(k, None) for k in evicted])
        return evicted

    def clear(self) -> int:
        """Delete every entry, lock, temp file and the index; returns how
        many *entries* were removed."""
        if not self.dir.is_dir():
            return 0
        removed = 0
        for path in list(self.dir.iterdir()):
            name = path.name
            is_entry = name.endswith(".npz")
            if is_entry or name.endswith(".lock") or ".tmp-" in name or name == "index.json":
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1 if is_entry else 0
        return removed
