"""E-engines — the decomposition engines compared on one planar input.

The paper takes the decomposition as *input* (comment iv); this bench shows
what each of our engines delivers on the same Delaunay graph — measured μ̂,
height, worst balance, construction time, and the |E⁺| each induces — so
every other experiment's "which decomposition was used" question has a
reference table.  Construction times are medians of rotating rounds over
the engines."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.core.leaves_up import augment_leaves_up
from repro.separators.geometric import decompose_geometric
from repro.separators.lipton_tarjan import decompose_lipton_tarjan
from repro.separators.multilevel import decompose_multilevel
from repro.separators.planar import decompose_planar
from repro.separators.quality import assess
from repro.separators.spectral import decompose_spectral
from repro.workloads.generators import delaunay_digraph

ROUNDS = 5


def test_engine_comparison(timed, report):
    rng = np.random.default_rng(0)
    g, pts = delaunay_digraph(600, rng)
    engines = {
        "planar (hybrid)": lambda: decompose_planar(g),
        "lipton-tarjan": lambda: decompose_lipton_tarjan(g),
        "spectral": lambda: decompose_spectral(g),
        "multilevel": lambda: decompose_multilevel(g),
        "geometric": lambda: decompose_geometric(g, pts),
    }
    res = timed(engines, ROUNDS)
    rows = []
    for name in engines:
        tree, dt = res.outputs[name], res.median(name)
        tree.validate(g)
        q = assess(tree)
        aug = augment_leaves_up(g, tree, keep_node_distances=False)
        rows.append([
            name, f"{q.mu_hat:.2f}", q.height, f"{q.worst_balance:.2f}",
            q.max_separator, aug.size, f"{dt:.2f}",
        ])
    table = render_table(
        ["engine", "μ̂", "height", "worst balance", "max|S|", "|E+|", "build s"],
        rows,
        title="E-engines: decomposition engines on Delaunay n=600 "
              "(all validated, all exact — quality/cost differ)",
    )
    report("E-engines", table)
    # Every engine must stay within the planar regime.
    assert all(float(r[1]) < 0.85 for r in rows)
