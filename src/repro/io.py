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
from .core.septree import SeparatorTree, SepTreeNode

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

    Node arrays are stored flattened with offset tables (npz holds flat
    arrays best); parent/level/children are small int arrays.
    """
    verts, seps, bounds = [], [], []
    voff, soff, boff = [0], [0], [0]
    parents, levels, child0, child1 = [], [], [], []
    for t in tree.nodes:
        verts.append(t.vertices)
        seps.append(t.separator)
        bounds.append(t.boundary)
        voff.append(voff[-1] + t.vertices.shape[0])
        soff.append(soff[-1] + t.separator.shape[0])
        boff.append(boff[-1] + t.boundary.shape[0])
        parents.append(t.parent)
        levels.append(t.level)
        kids = list(t.children) + [-1, -1]
        child0.append(kids[0])
        child1.append(kids[1])
    np.savez_compressed(
        path,
        kind="septree",
        n=tree.n,
        vertices=np.concatenate(verts) if verts else np.empty(0, np.int64),
        separators=np.concatenate(seps) if seps else np.empty(0, np.int64),
        boundaries=np.concatenate(bounds) if bounds else np.empty(0, np.int64),
        voff=np.array(voff), soff=np.array(soff), boff=np.array(boff),
        parents=np.array(parents), levels=np.array(levels),
        child0=np.array(child0), child1=np.array(child1),
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
        vertices, separators, boundaries = z["vertices"], z["separators"], z["boundaries"]
        voff, soff, boff = z["voff"], z["soff"], z["boff"]
        parents, levels = z["parents"], z["levels"]
        child0, child1 = z["child0"], z["child1"]
    nodes = []
    for i in range(parents.shape[0]):
        kids = tuple(int(c) for c in (child0[i], child1[i]) if c >= 0)
        nodes.append(
            SepTreeNode(
                idx=i,
                level=int(levels[i]),
                parent=int(parents[i]),
                vertices=vertices[voff[i] : voff[i + 1]],
                separator=separators[soff[i] : soff[i + 1]],
                boundary=boundaries[boff[i] : boff[i + 1]],
                children=kids,
            )
        )
    return SeparatorTree(nodes, n)


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


def load_augmentation(path, *, with_meta: bool = False):
    """Read an augmentation written by :func:`save_augmentation`.

    Per-node distance matrices are not persisted (rebuild with
    ``keep_node_distances=True`` when the k-pair oracle is needed).
    With ``with_meta``, also return the header dict ``{"version",
    "validated", "config"}`` (``config`` is the saved build-config dict,
    or ``None`` for legacy archives).
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
        graph = WeightedDigraph(int(z["g_n"]), z["g_src"], z["g_dst"], z["g_weight"])
        tree = load_tree(_io.BytesIO(z["tree_blob"].tobytes()))
        leaf_diameters = {
            int(k): int(d) for k, d in zip(z["leaf_idx"], z["leaf_diam"])
        }
        weight = z["aug_weight"].astype(semiring.dtype, copy=False)
        cls = DirectAugmentation if str(z["method"]) == "direct" else Augmentation
        aug = cls(
            graph=graph,
            tree=tree,
            semiring=semiring,
            src=z["aug_src"],
            dst=z["aug_dst"],
            weight=weight,
            leaf_diameters=leaf_diameters,
            node_distances={},
            method=str(z["method"]),
        )
        return (aug, meta) if with_meta else aug
