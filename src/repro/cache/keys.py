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
    tree's :class:`~repro.core.septree.FlatTree`, the offset-table layout
    :func:`repro.io.save_tree` persists: per-node level/parent/children
    columns, then concatenated vertices, separators and boundaries with
    their offset tables — unambiguous, and hashed as a dozen large buffers
    instead of thousands of per-node feeds), and the
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
    flat = tree.flat
    _feed_array(h, flat.meta)
    for off, labels in (
        (flat.voff, flat.vertices),
        (flat.soff, flat.separators),
        (flat.boff, flat.boundaries),
    ):
        _feed_array(h, off)
        _feed_array(h, labels)
    return h.hexdigest()
