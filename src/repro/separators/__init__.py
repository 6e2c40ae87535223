"""Separator oracles and decomposition builders — one engine per family the
paper names, plus the flow refiner that post-processes any of them.

Registered engines (``decompose(graph, engine=...)``):

- ``spectral`` — Fiedler-vector sweep cuts; the general-purpose default
  (``auto`` is an alias for it).
- ``planar`` — Lipton–Tarjan-style BFS-level cuts for (near-)planar inputs.
- ``treewidth`` — min-degree elimination bags for tree-like graphs.
- ``multilevel`` — coarsen/cut/uncoarsen with local refinement.
- ``lipton_tarjan`` — the textbook fundamental-cycle planar separator.
- ``flow`` — max-flow min-vertex-cut refinement of the best first-pass
  engine (:mod:`repro.separators.quality` picks it); smallest |S(t)|, at
  extra build cost.

``grid`` and ``geometric`` also exist but need extra arguments (the grid
shape, the point coordinates) — call :func:`repro.separators.grid.
decompose_grid` / :func:`repro.separators.geometric.decompose_geometric`
directly.  Every builder accepts a plain :data:`~repro.core.septree.
SeparatorFn` callable too, via :func:`repro.core.septree.
build_separator_tree`.
"""

from __future__ import annotations

import importlib

from ..core.digraph import WeightedDigraph
from ..core.septree import SeparatorTree

__all__ = ["available_engines", "decompose", "resolve_engine"]

#: engine name → (module, decompose-function attribute).  Modules import
#: lazily so e.g. the spectral path never pays for the multilevel machinery.
_ENGINE_MODULES: dict[str, tuple[str, str]] = {
    "spectral": ("repro.separators.spectral", "decompose_spectral"),
    "planar": ("repro.separators.planar", "decompose_planar"),
    "treewidth": ("repro.separators.treewidth", "decompose_treewidth"),
    "multilevel": ("repro.separators.multilevel", "decompose_multilevel"),
    "lipton_tarjan": ("repro.separators.lipton_tarjan", "decompose_lipton_tarjan"),
    "flow": ("repro.separators.flow", "decompose_flow"),
}

_ALIASES = {None: "spectral", "auto": "spectral"}


def available_engines() -> tuple[str, ...]:
    """Names accepted by :func:`decompose` (aliases excluded)."""
    return tuple(sorted(_ENGINE_MODULES))


def _engine_error(name: object) -> ValueError:
    """A helpful error for an unknown engine name: lists every registered
    engine plus the extra-argument families."""
    have = ", ".join(available_engines())
    return ValueError(
        f"unknown separator engine {name!r}; registered engines: {have} "
        f"('auto' aliases spectral; 'grid' and 'geometric' need shape/point "
        f"arguments — call their decompose_* directly; a SeparatorFn "
        f"callable is also accepted)"
    )


def resolve_engine(name: str | None):
    """The ``decompose_*`` callable for an engine name (or alias)."""
    name = _ALIASES.get(name, name)
    try:
        module, attr = _ENGINE_MODULES[name]
    except (KeyError, TypeError):
        raise _engine_error(name) from None
    return getattr(importlib.import_module(module), attr)


def decompose(
    graph: WeightedDigraph,
    engine: str | None = "auto",
    *,
    leaf_size: int = 8,
    **kwargs,
) -> SeparatorTree:
    """Build a separator tree with the named engine."""
    return resolve_engine(engine)(graph, leaf_size=leaf_size, **kwargs)
