"""F2 + E-diam — Figure 2 (right shortcuts) and Theorem 3.1(ii).

Figure 2 shows a level-labeled path and the right shortcuts the diameter
proof follows; E-diam validates the quantitative consequence: the measured
minimum-weight diameter of G⁺ is ≤ 4·d_G + 2ℓ + 1 and *much* smaller than
diam(G) — the entire point of the augmentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.leaves_up import augment_leaves_up
from repro.core.shortcuts import is_bitonic_with_pairs, shortcut_chain
from repro.core.sssp import measured_diameter
from repro.kernels.bellman_ford import min_weight_diameter
from repro.separators.grid import decompose_grid
from repro.separators.planar import decompose_planar
from repro.workloads.generators import delaunay_digraph, grid_digraph


def test_fig2_right_shortcuts_on_grid_paths(report):
    g = grid_digraph((9, 9), np.random.default_rng(0))
    tree = decompose_grid(g, (9, 9), leaf_size=4)
    rng = np.random.default_rng(7)
    adj = g.out_adj
    rows = []
    for walk_id in range(200):
        walk = [int(rng.integers(g.n))]
        for _ in range(50):
            nbrs = adj.neighbors(walk[-1])
            walk.append(int(nbrs[rng.integers(nbrs.size)]))
        levels = tree.vertex_level[np.array(walk)]
        chain = shortcut_chain(levels)
        chain_levels = [int(levels[i]) for i in chain]
        assert is_bitonic_with_pairs(chain_levels)
        assert len(chain) - 1 <= 4 * tree.height + 1
        if walk_id < 5:
            rows.append([walk_id, len(walk), len(chain) - 1, 4 * tree.height + 1,
                         str(chain_levels[:12])])
    table = render_table(
        ["walk", "path edges", "chain edges", "bound 4d_G+1", "chain levels"],
        rows,
        title="F2: right-shortcut chains on random 9x9-grid walks",
    )
    report("F2-right-shortcuts", table)
    walk = list(range(9)) + [17 - i for i in range(9)]
    levels = tree.vertex_level[np.array(walk)]


@pytest.mark.parametrize("family", ["grid", "delaunay"])
def test_ediam_diameter_bound_and_shrinkage(report, family):
    rows = []
    rng = np.random.default_rng(3)
    cases = [(8, 8), (12, 12), (16, 16)] if family == "grid" else [64, 128, 256]
    for case in cases:
        if family == "grid":
            g = grid_digraph(case, rng)
            tree = decompose_grid(g, case, leaf_size=4)
        else:
            g, _ = delaunay_digraph(case, rng)
            tree = decompose_planar(g, leaf_size=6)
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        before = min_weight_diameter(g)
        after = measured_diameter(aug)
        assert after <= aug.diameter_bound
        rows.append([g.n, before, after, aug.diameter_bound, tree.height, aug.ell])
    table = render_table(
        ["n", "diam(G)", "diam(G+)", "bound 4d_G+2l+1", "d_G", "l"],
        rows,
        title=f"E-diam ({family}): Theorem 3.1(ii) — measured vs bound",
    )
    report(f"E-diam-{family}", table)
    # The augmentation must shrink the diameter substantially at the top size.
    assert rows[-1][2] < rows[-1][1]
