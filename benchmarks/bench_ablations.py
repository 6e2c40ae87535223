"""A1–A4 — ablations of the design decisions called out in DESIGN.md §2.

A1: full-S child inclusion vs the paper's literal N(V_i)-restricted rule.
A2: leaves-up (Alg 4.1) vs doubling (Alg 4.3) — work/time (depth in
    bench_table1_depth).
A3: scheduled vs naive Bellman–Ford on G⁺ — per-source work/time.
A4: leaf-size sweep — ℓ vs tree size trade.

Wall clocks compare their two sides in rotating rounds."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.sssp import measured_diameter, sssp_naive, sssp_scheduled
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.core.septree import build_separator_tree
from repro.workloads.generators import grid_digraph

ROUNDS = 4


def test_a1_inclusion_rule(report):
    """On grids the two rules coincide (every hyperplane vertex touches both
    sides), so the ablation runs on a Delaunay graph with the planar engine,
    where ring/cycle separator vertices are often adjacent to one side only."""
    from repro.kernels.dijkstra import dijkstra
    from repro.separators.planar import planar_separator_fn
    from repro.workloads.generators import delaunay_digraph

    rng = np.random.default_rng(0)
    g, _ = delaunay_digraph(400, rng)
    rows = []
    for full in (True, False):
        tree = build_separator_tree(
            g, planar_separator_fn(), leaf_size=8, full_separator_inclusion=full
        )
        led = Ledger()
        aug = augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
        # Correctness under either rule.
        assert np.allclose(sssp_scheduled(aug, 0), dijkstra(g, 0))
        rows.append([
            "full-S" if full else "literal N(V_i)",
            tree.total_label_size(), tree.height, aug.size, led.work,
        ])
    table = render_table(
        ["rule", "Σ|V(t)|", "height", "|E+|", "preprocess work"],
        rows,
        title="A1: child inclusion rule (Delaunay n=400, planar separators) — "
              "the literal rule is slightly leaner; full-S keeps Algorithm "
              "4.1's precondition unconditional (DESIGN.md A1)",
    )
    report("A1-inclusion", table)


def test_a2_leaves_up_vs_doubling_time(timed, report):
    rng = np.random.default_rng(1)
    shape = (32, 32)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    res = timed({
        "leaves_up": lambda: augment_leaves_up(g, tree, keep_node_distances=False),
        "doubling": lambda: augment_doubling(g, tree, keep_node_distances=False),
    }, ROUNDS)
    a1, a2 = res.outputs["leaves_up"], res.outputs["doubling"]
    t_lu, t_db = res.median("leaves_up"), res.median("doubling")
    assert np.array_equal(a1.src, a2.src) and np.allclose(a1.weight, a2.weight)
    l1, l2 = Ledger(), Ledger()
    augment_leaves_up(g, tree, ledger=l1, keep_node_distances=False)
    augment_doubling(g, tree, ledger=l2, keep_node_distances=False)
    report("A2-wallclock",
           f"32x32 grid: leaves-up {t_lu:.3f}s (work {l1.work:.3g}, depth {l1.depth:.3g}); "
           f"doubling {t_db:.3f}s (work {l2.work:.3g}, depth {l2.depth:.3g}), medians of "
           f"{ROUNDS} rotating rounds; identical E+ — the work/depth trade of Table 1's "
           "two preprocessing rows")


def test_a3_scheduled_vs_naive(timed, report):
    rng = np.random.default_rng(2)
    shape = (40, 40)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    aug = augment_leaves_up(g, tree, keep_node_distances=False)
    schedule = build_schedule(aug)
    ls, ln = Ledger(), Ledger()
    ds = sssp_scheduled(aug, [0], schedule=schedule, ledger=ls)
    dn = sssp_naive(aug, [0], ledger=ln)
    assert np.allclose(ds, dn)
    res = timed({
        "scheduled": lambda: sssp_scheduled(aug, [0], schedule=schedule),
        "naive": lambda: sssp_naive(aug, [0]),
    }, ROUNDS)
    t_s, t_n = res.median("scheduled"), res.median("naive")
    report("A3-schedule",
           f"40x40 grid per-source: scheduled work {ls.work:.3g} / {t_s * 1e3:.2f} ms vs "
           f"naive work {ln.work:.3g} / {t_n * 1e3:.2f} ms (medians of {ROUNDS} rotating "
           f"rounds) — work ratio {ln.work / ls.work:.2f}x (paper: (ℓ+d_G) vs O(1) "
           "scans per E+ edge)")
    assert ls.work < ln.work


def test_a5_remark44_shared_pairing(timed, report):
    """Remark 4.4: the shared pairing table eliminates the redundancy of
    per-node doubling — distinct vs Σ_t |V_H(t)|² pairs, and wall-clock."""
    from repro.core.doubling_shared import SharedEdgeTable, augment_doubling_shared
    from repro.core.semiring import MIN_PLUS

    rng = np.random.default_rng(4)
    rows = []
    for shape in [(12, 12), (20, 20), (32, 32)]:
        g = grid_digraph(shape, rng)
        tree = decompose_grid(g, shape)
        table = SharedEdgeTable(g, tree, MIN_PLUS)
        res = timed({
            "shared": lambda: augment_doubling_shared(g, tree, keep_node_distances=False),
            "per-node": lambda: augment_doubling(g, tree, keep_node_distances=False),
        }, ROUNDS)
        shared, std = res.outputs["shared"], res.outputs["per-node"]
        t_sh, t_std = res.median("shared"), res.median("per-node")
        assert np.array_equal(shared.src, std.src)
        rows.append([
            g.n, table.distinct_pair_count(), table.redundant_pair_count(),
            round(table.redundant_pair_count() / table.distinct_pair_count(), 2),
            round(t_sh, 3), round(t_std, 3),
        ])
    table_str = render_table(
        ["n", "distinct pairs", "Σ per-node pairs", "redundancy", "shared s", "per-node s"],
        rows,
        title="A5 (Remark 4.4): shared pairing table vs per-node doubling, medians of "
              f"{ROUNDS} rotating rounds",
    )
    report("A5-remark44", table_str)
    # The redundancy factor Remark 4.4 removes must be substantial.
    assert rows[-1][3] > 2.0


def test_a4_leaf_size_sweep(report):
    rng = np.random.default_rng(3)
    shape = (28, 28)
    g = grid_digraph(shape, rng)
    rows = []
    for leaf_size in (2, 4, 8, 16, 32):
        tree = decompose_grid(g, shape, leaf_size=leaf_size)
        led = Ledger()
        aug = augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
        diam = measured_diameter(aug)
        rows.append([
            leaf_size, len(tree.nodes), tree.height, aug.ell, aug.size,
            aug.diameter_bound, diam, led.work,
        ])
        assert diam <= aug.diameter_bound
    table = render_table(
        ["leaf size", "nodes", "d_G", "l", "|E+|", "bound", "diam(G+)", "work"],
        rows,
        title="A4: leaf-size trade on a 28x28 grid — larger leaves shrink the "
              "tree but grow the ℓ term of the diameter bound",
    )
    report("A4-leaf-size", table)
