"""A1–A4 — ablations of the design decisions called out in DESIGN.md §2.

A1: full-S child inclusion vs the paper's literal N(V_i)-restricted rule.
A2: leaves-up (Alg 4.1) vs doubling (Alg 4.3) vs the shared pairing table
    (Remark 4.4) — work/time on six graphs (depth in bench_table1_depth).
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


def _a2_graphs():
    """The six A2 graphs: two grids, the programmable family at three μ,
    and a Delaunay graph on its planar tree."""
    from repro.separators.planar import decompose_planar
    from repro.workloads.generators import delaunay_digraph
    from repro.workloads.synthetic import separator_programmable_family

    rng = np.random.default_rng(1)
    for side in (24, 40):
        g = grid_digraph((side, side), rng)
        yield f"grid {side}²", g, decompose_grid(g, (side, side))
    for mu in (0.33, 0.5, 0.67):
        g, tree = separator_programmable_family(600, mu, rng)
        yield f"μ={mu} n=600", g, tree
    g, _ = delaunay_digraph(1000, rng)
    yield "Delaunay n=1000 (planar tree)", g, decompose_planar(g)


def test_a2_leaves_up_vs_doubling_time(timed, report):
    """The three E⁺ builders on six graphs: Algorithm 4.1 (leaves-up),
    Algorithm 4.3 (doubling) and Remark 4.4 (shared pairing table).  All
    three give the same query answers; doubling buys
    depth with a log factor of work, which a host with few cores pays in
    wall time."""
    from repro.core.doubling_shared import augment_doubling_shared

    builders = {
        "leaves_up": augment_leaves_up,
        "doubling": augment_doubling,
        "doubling_shared": augment_doubling_shared,
    }
    rows = []
    for name, g, tree in _a2_graphs():
        res = timed({
            side: (lambda fn=fn: fn(g, tree, keep_node_distances=False))
            for side, fn in builders.items()
        }, ROUNDS)
        # Remark 4.4 pairs across nodes, so its E⁺ may hold tighter or
        # extra shortcuts; the answers agree to float rounding.
        srcs = [0, g.n // 2]
        want = sssp_scheduled(res.outputs["leaves_up"], srcs)
        for side in ("doubling", "doubling_shared"):
            assert np.allclose(sssp_scheduled(res.outputs[side], srcs), want,
                               rtol=1e-12, atol=1e-12)
        ledgers = {side: Ledger() for side in builders}
        for side, fn in builders.items():
            fn(g, tree, ledger=ledgers[side], keep_node_distances=False)
        rows.append([
            name, g.n,
            *(res.span(res.quartiles(side), 3) for side in builders),
            *(f"{ledgers[side].work:.3g} / {ledgers[side].depth:.3g}" for side in builders),
        ])
    table = render_table(
        ["graph", "n", "leaves_up s", "doubling s", "doubling_shared s",
         "leaves_up work / depth", "doubling work / depth",
         "doubling_shared work / depth"],
        rows,
        title="A2: the three E⁺ builders, wall medians [quartiles] of "
              f"{ROUNDS} rotating rounds; the same answers — the work/depth trade "
              "of Table 1's two preprocessing rows",
    )
    report("A2-wallclock", table)


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
