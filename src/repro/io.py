"""Persistence for graphs, separator trees, and augmentations.

Paper comment (iv): the decomposition "needs to be computed only once for a
group of instances which differ in the weights and direction on edges" —
which only pays off if it can be *stored*.  Everything serializes to a
single ``.npz`` (numpy archive): portable, compressed, no pickle of code
objects.

Augmentation archives carry a versioned header (format 2):

* ``version`` — the :data:`AUG_FORMAT_VERSION` that wrote the file (absent
  in legacy format-1 archives, which still load);
* ``validated`` — whether the decomposition validity check ran at build
  time, letting a cache hit skip re-validation (``repro.cache``);
* ``config_json`` — the build's :class:`~repro.core.config.OracleConfig`,
  so ``save → load → query_engine`` keeps the original ``executor`` and
  serving choices instead of silently reverting to defaults.  Keys a
  newer build no longer knows (such as the retired ``kernel``,
  ``hopset_beta`` and ``approx_gate``) are dropped on load.

Archives of the retired (1+ε) hopset mode (a ``hopset_json`` member) are
refused with a pointed error; a direct-tier archive (``method="direct"``)
loads as a :class:`~repro.core.direct.DirectAugmentation`.
"""

from __future__ import annotations

import json

import numpy as np

from .core.augment import Augmentation, NodeDistances
from .core.digraph import WeightedDigraph
from .core.direct import DirectAugmentation
from .core.semiring import SEMIRINGS
from .core.septree import FlatTree, SeparatorTree

__all__ = [
    "AUG_FORMAT_VERSION",
    "save_graph",
    "load_graph",
    "save_tree",
    "load_tree",
    "save_augmentation",
    "load_augmentation",
]

#: Version written into every new augmentation archive.  Readers accept
#: ``<=`` this (1 = legacy headerless payload) and refuse newer files
#: loudly instead of misreading them.
AUG_FORMAT_VERSION = 2


def save_graph(path, g: WeightedDigraph) -> None:
    """Write a graph to ``path`` (.npz)."""
    np.savez_compressed(path, kind="graph", n=g.n, src=g.src, dst=g.dst, weight=g.weight)


def load_graph(path) -> WeightedDigraph:
    """Read a graph written by :func:`save_graph`."""
    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "graph":
            raise ValueError(f"{path} is not a saved graph")
        return WeightedDigraph(int(z["n"]), z["src"], z["dst"], z["weight"])


def save_tree(path, tree: SeparatorTree) -> None:
    """Write a separator tree to ``path`` (.npz).

    Node arrays are stored flattened with offset tables (the tree's
    :class:`~repro.core.septree.FlatTree`; npz holds flat arrays best);
    parent/level/children are small int arrays.
    """
    flat = tree.flat
    np.savez_compressed(
        path,
        kind="septree",
        n=tree.n,
        vertices=flat.vertices,
        separators=flat.separators,
        boundaries=flat.boundaries,
        voff=flat.voff, soff=flat.soff, boff=flat.boff,
        parents=flat.meta[:, 1], levels=flat.meta[:, 0],
        child0=flat.meta[:, 2], child1=flat.meta[:, 3],
    )


def load_tree(path) -> SeparatorTree:
    """Read a separator tree written by :func:`save_tree`."""
    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "septree":
            raise ValueError(f"{path} is not a saved separator tree")
        # Materialize every member exactly once: ``NpzFile.__getitem__``
        # decompresses the whole member per access, so indexing ``z[...]``
        # inside the node loop is quadratic (tens of seconds for a few
        # thousand nodes — the cache's whole win would drown in it).
        n = int(z["n"])
        flat = FlatTree(
            meta=np.stack([z["levels"], z["parents"], z["child0"], z["child1"]], axis=1).astype(
                np.int64, copy=False
            ),
            **{k: z[k] for k in ("voff", "vertices", "soff", "separators", "boff", "boundaries")},
        )
    return SeparatorTree.from_flat(flat, n)


def _serializable_config(config) -> dict | None:
    """A JSON-able ``OracleConfig.to_dict()``, degrading the two fields
    that may hold live objects (an executor instance, a callable
    separator) to their spec-string defaults instead of failing the save."""
    if config is None:
        return None
    sanitized = config
    if not (config.executor is None or isinstance(config.executor, str)):
        sanitized = sanitized.replace(executor="serial")
    if config.separator is not None and not isinstance(config.separator, str):
        sanitized = sanitized.replace(separator="auto")
    return sanitized.to_dict()


def save_augmentation(path, aug: Augmentation, *, config=None, validated: bool = False) -> None:
    """Write an augmentation's edge set (not the per-node matrices) plus the
    owning graph and tree — enough to rebuild schedules and query.

    ``config`` (an :class:`~repro.core.config.OracleConfig`) and
    ``validated`` go into the format-2 header so loads can restore the
    build's knobs and skip already-paid validation.
    """
    tree = aug.tree
    payload = dict(
        kind="augmentation",
        version=np.int64(AUG_FORMAT_VERSION),
        validated=np.bool_(validated),
        method=aug.method,
        semiring=aug.semiring.name,
        aug_src=aug.src, aug_dst=aug.dst, aug_weight=aug.weight,
        leaf_idx=np.array(sorted(aug.leaf_diameters)),
        leaf_diam=np.array([aug.leaf_diameters[k] for k in sorted(aug.leaf_diameters)]),
        g_n=aug.graph.n, g_src=aug.graph.src, g_dst=aug.graph.dst,
        g_weight=aug.graph.weight,
    )
    cfg_dict = _serializable_config(config)
    if cfg_dict is not None:
        payload["config_json"] = json.dumps(cfg_dict, sort_keys=True)
    import io as _io

    buf = _io.BytesIO()
    save_tree(buf, tree)
    payload["tree_blob"] = np.frombuffer(buf.getvalue(), dtype=np.uint8)
    np.savez_compressed(path, **payload)


def load_augmentation(
    path,
    *,
    with_meta: bool = False,
    graph: WeightedDigraph | None = None,
    tree: SeparatorTree | None = None,
):
    """Read an augmentation written by :func:`save_augmentation`.

    Per-node distance matrices are not persisted (rebuild with
    ``keep_node_distances=True`` when the k-pair oracle is needed).
    With ``with_meta``, also return the header dict ``{"version",
    "validated", "config"}`` (``config`` is the saved build-config dict,
    or ``None`` for legacy archives).

    A caller that already holds the archive's graph and tree — a cache hit,
    whose key is a digest of exactly those arrays — passes them as
    ``graph`` and ``tree``: the augmentation then uses them as they are,
    and the archive's ``g_*`` and ``tree_blob`` members are never read.
    """
    import io as _io

    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "augmentation":
            raise ValueError(f"{path} is not a saved augmentation")
        version = int(z["version"]) if "version" in z.files else 1
        if version > AUG_FORMAT_VERSION:
            raise ValueError(
                f"{path} has augmentation format {version}; this build reads "
                f"<= {AUG_FORMAT_VERSION}"
            )
        if "hopset_json" in z.files:
            raise ValueError(
                f"{path} holds a (1+eps) hopset, which was removed; rebuild "
                f"the oracle with mode='direct', which answers exactly"
            )
        meta = {
            "version": version,
            "validated": bool(z["validated"]) if "validated" in z.files else False,
            "config": json.loads(str(z["config_json"])) if "config_json" in z.files else None,
        }
        semiring = SEMIRINGS[str(z["semiring"])]
        if graph is None:
            graph = WeightedDigraph(int(z["g_n"]), z["g_src"], z["g_dst"], z["g_weight"])
        if tree is None:
            tree = load_tree(_io.BytesIO(z["tree_blob"].tobytes()))
        leaf_diameters = dict(
            zip(z["leaf_idx"].astype(np.int64).tolist(), z["leaf_diam"].astype(np.int64).tolist())
        )
        weight = z["aug_weight"].astype(semiring.dtype, copy=False)
        method = str(z["method"])
        cls = DirectAugmentation if method == "direct" else Augmentation
        aug = cls(
            graph=graph,
            tree=tree,
            semiring=semiring,
            src=z["aug_src"],
            dst=z["aug_dst"],
            weight=weight,
            leaf_diameters=leaf_diameters,
            node_distances={},
            method=method,
        )
        return (aug, meta) if with_meta else aug
