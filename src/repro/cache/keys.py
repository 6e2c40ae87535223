"""Content addresses for augmentation cache entries.

A cache key must change exactly when the augmentation's *content* can
change.  E⁺ is a pure function of the graph's edge arrays, the separator
tree, the semiring and the construction method — and of nothing else:
``executor`` is a bit-identical implementation choice, ``validate`` only
checks, ``leaf_size``/``separator`` are already folded into the tree
itself.  So the key is a SHA-256 over a canonical
serialization of those four inputs (plus a format tag so incompatible
layouts never collide across versions).

A tree entry is keyed by :func:`tree_key` instead: paper comment (iv)'s
observation that the decomposition depends only on the skeleton, so the
key hashes ``(n, src, dst)`` and the config fields that name the tree,
never the weights.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..core.digraph import WeightedDigraph
from ..core.semiring import Semiring
from ..core.septree import SeparatorTree

__all__ = ["augmentation_key", "tree_key", "KEY_VERSION", "TREE_KEY_PREFIX"]

#: Bump when the canonical serialization (or the entry payload shape that a
#: key addresses) changes incompatibly — old entries simply stop matching.
KEY_VERSION = 1

#: Every tree-entry key starts with this, so a store tells its two entry
#: kinds apart by file name alone.
TREE_KEY_PREFIX = "tree-"


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


def tree_key(graph: WeightedDigraph, config) -> str | None:
    """Content address of the separator tree ``config`` derives for
    ``graph``'s skeleton, or ``None`` when no named spec derives it
    (``mode="direct"``, or a callable ``separator`` outside ``"auto"``).

    Hashes ``n``, ``src`` and ``dst`` (not the weights) and the fields the
    tree depends on: for ``mode="auto"``, the gate's ``DIRECT_GATE``,
    first-pass engines and budget rule; otherwise the ``separator`` name;
    and in both, ``leaf_size`` and the refinement fields.  The tag names
    the engines' code generation as well: bump it when an engine's output
    for the same inputs changes, or old entries keep serving old trees.
    """
    if config.mode == "auto":
        from ..core.api import DIRECT_GATE
        from ..separators.quality import FIRST_PASS_ENGINES

        spec = ["auto", DIRECT_GATE, list(FIRST_PASS_ENGINES), "budget n**2 if gate > 0"]
    elif config.mode == "direct" or callable(config.separator):
        return None
    else:
        spec = ["separator", config.separator]
    spec += [int(config.leaf_size), bool(config.refine_separators),
             int(config.refine_max_nodes)]
    h = hashlib.sha256()
    _feed_str(h, "repro-tree-v1")
    _feed_str(h, json.dumps(spec))
    h.update(int(graph.n).to_bytes(8, "little"))
    _feed_array(h, graph.src)
    _feed_array(h, graph.dst)
    return TREE_KEY_PREFIX + h.hexdigest()
