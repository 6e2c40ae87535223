"""E-size — Theorem 5.1(iii): |E⁺| = O(n + n^{2μ}) and |E| = O(n + n^{2μ}).

Sweep n per grid family and fit the exponent of |E⁺|: ≈ max(1, 2μ)
(with the log factor at 2μ = 1).  Also the flow-refinement acceptance
gate: on the μ-programmed family, flow-refining the spectral tree must
shrink |E⁺| by ≥ 15%.  Results accumulate in ``BENCH_eplus.json``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.complexity import fit_exponent, fit_exponent_with_log
from repro.analysis.tables import render_table
from repro.core.leaves_up import augment_leaves_up
from repro.separators import decompose
from repro.separators.flow import refine_tree
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph
from repro.workloads.synthetic import separator_programmable_family

#: Flow-refinement sweep: μ values, graph size, and the acceptance bound
#: (fraction of |E⁺| the refined tree must shave off the spectral build).
REFINE_MUS = (1 / 3, 0.5, 2 / 3)
REFINE_N = 900
REDUCTION_BOUND = 0.15


FAMILIES = {
    "grid2d": dict(
        shapes=[(18, 18), (26, 26), (38, 38), (54, 54), (76, 76), (108, 108)], mu=0.5, logs=1
    ),
    "grid3d": dict(shapes=[(5, 5, 5), (7, 7, 7), (9, 9, 9), (11, 11, 11), (13, 13, 13)], mu=2 / 3, logs=0),
    "path": dict(shapes=[(300,), (800, 1), (2000, 1), (5000, 1)], mu=0.0, logs=0),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_eplus_size_exponent(report, record_json, family):
    cfg = FAMILIES[family]
    rows, sizes, eplus = [], [], []
    for shape in cfg["shapes"]:
        rng = np.random.default_rng(0)
        g = grid_digraph(shape, rng)
        tree = decompose_grid(g, shape)
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        sizes.append(g.n)
        eplus.append(aug.size)
        rows.append([g.n, g.m, aug.size, aug.size / g.n])
    fit = (
        fit_exponent_with_log(sizes, eplus) if cfg["logs"] else fit_exponent(sizes, eplus)
    )
    expected = max(1.0, 2 * cfg["mu"])
    table = render_table(
        ["n", "m", "|E+|", "|E+|/n"],
        rows,
        title=(
            f"E-size {family} (μ={cfg['mu']:.2f}): |E+| ~ {fit}"
            f"{'·log n' if cfg['logs'] else ''} — paper: n^{expected:.2f}"
        ),
    )
    report(f"E-size-{family}", table + f"\n\nfitted {fit.exponent:.3f} vs theory {expected:.2f}")
    record_json("BENCH_eplus.json", f"exponent_{family}", {
        "mu": cfg["mu"],
        "n": sizes,
        "eplus": [int(e) for e in eplus],
        "fitted_exponent": fit.exponent,
        "expected_exponent": expected,
    })
    assert abs(fit.exponent - expected) < 0.4


@pytest.mark.parametrize("mu", REFINE_MUS)
def test_eplus_flow_refinement_reduction(report, record_json, mu):
    """The flow-refinement acceptance gate: refining the spectral tree of a
    μ-programmed digraph shrinks |E⁺| by ≥ 15% (the quadratic
    separator-clique term compounds the per-node |S| wins)."""
    rng = np.random.default_rng(2026)
    g, _ = separator_programmable_family(REFINE_N, mu, rng)
    tree = decompose(g, "spectral")
    base = augment_leaves_up(g, tree, keep_node_distances=False)
    refined_tree, rec = refine_tree(g, tree)
    refined = augment_leaves_up(g, refined_tree, keep_node_distances=False)
    reduction = (base.size - refined.size) / base.size
    table = render_table(
        ["tree", "|E+|", "Σ|S|", "refine s"],
        [
            ["spectral", base.size, int(tree.separator_sizes().sum()), "-"],
            [
                "flow-refined",
                refined.size,
                int(refined_tree.separator_sizes().sum()),
                round(rec["wall_s"], 2),
            ],
        ],
        title=(
            f"E-size flow refinement (μ={mu:.2f}, n={g.n}): "
            f"|E+| −{100 * reduction:.1f}%"
        ),
    )
    report(f"E-size-refine-mu{mu:.2f}", table)
    record_json("BENCH_eplus.json", f"refine_mu{mu:.2f}", {
        "mu": mu,
        "n": g.n,
        "eplus_unrefined": int(base.size),
        "eplus_refined": int(refined.size),
        "reduction": reduction,
        "hops": rec.get("hops"),
        "fallback": rec["fallback"],
        "refine_wall_s": rec["wall_s"],
    })
    assert rec["fallback"] is None, rec
    assert reduction >= REDUCTION_BOUND, (
        f"flow refinement shaved only {100 * reduction:.1f}% of |E+| "
        f"at mu={mu:.2f} (bound {100 * REDUCTION_BOUND:.0f}%)"
    )
