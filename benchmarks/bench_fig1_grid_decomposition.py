"""F1 — Figure 1: the separator decomposition tree of the 9×9 grid.

The paper's Figure 1 shows the 9×9 grid split by its middle column, then
middle rows, recursively.  We regenerate that decomposition, record its
structure (separator sizes √k-shaped, logarithmic height, balanced splits),
and benchmark decomposition construction: ``decompose_grid``'s box
arithmetic against the generic recursive builder it reproduces."""

from __future__ import annotations

import importlib.util
import time

import numpy as np

from repro.analysis.tables import render_table
from repro.core.septree import build_separator_tree
from repro.separators.grid import decompose_grid, grid_separator_fn
from repro.separators.quality import assess
from repro.workloads.generators import grid_digraph

#: Acceptance bar: the box construction is at least this many times faster
#: than the generic builder on the 40×40 grid.
BOX_SPEEDUP = 4.0


def test_fig1_nine_by_nine(benchmark, report):
    g = grid_digraph((9, 9), np.random.default_rng(0))
    tree = benchmark(lambda: decompose_grid(g, (9, 9), leaf_size=4))
    tree.validate(g)
    root = tree.root
    # The paper's figure: the root separator is the middle column/row of 9.
    assert root.separator.shape[0] == 9
    coords = np.stack(np.unravel_index(root.separator, (9, 9)), axis=1)
    # All on one hyperplane at the median coordinate (4).
    axis = 0 if np.unique(coords[:, 0]).size == 1 else 1
    assert np.unique(coords[:, axis]).size == 1
    assert int(coords[0, axis]) == 4

    rows = []
    for t in tree.nodes:
        if t.level <= 2:
            rows.append([
                t.idx, t.level, t.size, t.separator.shape[0], t.boundary.shape[0],
                "leaf" if t.is_leaf else "internal",
            ])
    table = render_table(
        ["node", "level", "|V(t)|", "|S(t)|", "|B(t)|", "kind"],
        rows,
        title="F1: top of the 9x9 grid separator tree (paper Fig. 1)",
    )
    q = assess(tree)
    report("F1-grid-decomposition", table + "\n\n" + q.summary())
    assert q.height <= 8
    assert q.max_separator <= 9


def test_fig1_separator_is_hyperplane_at_every_level(benchmark, report):
    """Every internal separator the oracle produces is a grid hyperplane
    restricted to the node's vertex set (the structure Fig. 1 depicts)."""
    g = grid_digraph((9, 9), np.random.default_rng(0))
    fn = grid_separator_fn((9, 9))
    tree = decompose_grid(g, (9, 9), leaf_size=4)
    planar_count = 0
    for t in tree.nodes:
        if t.is_leaf or t.separator.size == 0:
            continue
        coords = np.stack(np.unravel_index(t.separator, (9, 9)), axis=1)
        if any(np.unique(coords[:, a]).size == 1 for a in range(2)):
            planar_count += 1
    internal = sum(1 for t in tree.nodes if not t.is_leaf)
    report(
        "F1-hyperplane-check",
        f"{planar_count}/{internal} internal separators are axis hyperplanes "
        "(non-hyperplane cases come from the degenerate-box fallback)",
    )
    assert planar_count >= 0.9 * internal
    benchmark(lambda: fn(*g.induced_subgraph(np.arange(g.n))))


def _best_of(fn, reps: int = 5) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_box_tree_vs_generic_builder(report, provenance):
    """E-grid-decompose: ``decompose_grid`` (box arithmetic) against
    ``build_separator_tree`` with ``grid_separator_fn`` (one induced
    subgraph and component labelling per node) on the same full lattice;
    both return the same tree."""
    rows, speedups = [], {}
    for side in (40, 56, 80):
        shape = (side, side)
        g = grid_digraph(shape, None)
        box_s = _best_of(lambda: decompose_grid(g, shape))
        generic_s = _best_of(lambda: build_separator_tree(g, grid_separator_fn(shape)))
        speedups[side] = generic_s / box_s
        nodes = len(decompose_grid(g, shape).nodes)
        rows.append([
            f"{side}x{side}", nodes, f"{box_s * 1e3:.1f}", f"{generic_s * 1e3:.1f}",
            f"{speedups[side]:.1f}x",
        ])
    table = render_table(
        ["grid", "nodes", "box ms", "generic ms", "speedup"],
        rows,
        title="E-grid-decompose: decompose_grid vs the generic builder (leaf_size 8, best of 5)",
    )
    host = (
        f"{provenance['line']}, numba "
        f"{'present' if importlib.util.find_spec('numba') else 'absent'}; "
        f"gate: speedup >= {BOX_SPEEDUP:g}x at 40x40"
    )
    report("E-grid-decompose", table + "\n\n" + host)
    assert speedups[40] >= BOX_SPEEDUP, speedups
