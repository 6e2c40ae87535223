"""Content addresses for augmentation cache entries.

A cache key must change exactly when the augmentation's *content* can
change.  E⁺ is a pure function of the graph's edge arrays, the separator
tree, the semiring and the construction method — and of nothing else:
``executor`` is a bit-identical implementation choice, ``validate`` only
checks, ``leaf_size``/``separator`` are already folded into the tree
itself.  So the key is a SHA-256 over a canonical
serialization of those four inputs (plus a format tag so incompatible
layouts never collide across versions).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.semiring import Semiring
from ..core.septree import SeparatorTree

__all__ = ["augmentation_key", "KEY_VERSION"]

#: Bump when the canonical serialization (or the entry payload shape that a
#: key addresses) changes incompatibly — old entries simply stop matching.
KEY_VERSION = 1


def _feed_array(h, array: np.ndarray) -> None:
    """Hash an array unambiguously: dtype, shape, then C-order bytes."""
    a = np.ascontiguousarray(array)
    h.update(a.dtype.str.encode())
    h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    h.update(a.tobytes())


def _feed_str(h, s: str) -> None:
    b = s.encode()
    h.update(len(b).to_bytes(8, "little"))
    h.update(b)


def augmentation_key(
    graph: WeightedDigraph,
    tree: SeparatorTree,
    semiring: Semiring,
    method: str,
) -> str:
    """Hex SHA-256 content address of the augmentation these inputs build.

    Two calls collide iff they would produce the same E⁺ payload: the
    graph arrays are hashed with their dtypes (a float32 and a float64
    reweighting differ), the tree in its flattened canonical form (the
    same offset-table layout :func:`repro.io.save_tree` persists: per-node
    level/parent/children columns, then concatenated vertices, separators
    and boundaries with their offset tables — unambiguous, and hashed as a
    dozen large buffers instead of thousands of per-node feeds), and the
    semiring by its registry name.
    """
    h = hashlib.sha256()
    _feed_str(h, f"repro-aug-v{KEY_VERSION}")
    _feed_str(h, method)
    _feed_str(h, semiring.name)
    h.update(int(graph.n).to_bytes(8, "little"))
    _feed_array(h, graph.src)
    _feed_array(h, graph.dst)
    _feed_array(h, graph.weight)
    h.update(int(tree.n).to_bytes(8, "little"))
    h.update(len(tree.nodes).to_bytes(8, "little"))
    count = len(tree.nodes)
    meta = np.empty((count, 4), dtype=np.int64)
    voff = np.zeros(count + 1, dtype=np.int64)
    soff = np.zeros(count + 1, dtype=np.int64)
    boff = np.zeros(count + 1, dtype=np.int64)
    verts, seps, bounds = [], [], []
    for i, t in enumerate(tree.nodes):
        kids = tuple(t.children) + (-1, -1)
        meta[i] = (t.level, t.parent, kids[0], kids[1])
        verts.append(t.vertices)
        seps.append(t.separator)
        bounds.append(t.boundary)
        voff[i + 1] = voff[i] + t.vertices.shape[0]
        soff[i + 1] = soff[i] + t.separator.shape[0]
        boff[i + 1] = boff[i] + t.boundary.shape[0]
    empty = np.empty(0, dtype=np.int64)
    _feed_array(h, meta)
    for off, chunks in ((voff, verts), (soff, seps), (boff, bounds)):
        _feed_array(h, off)
        _feed_array(h, np.concatenate(chunks) if chunks else empty)
    return h.hexdigest()
