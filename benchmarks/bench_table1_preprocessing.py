"""T1-pre — Table 1, preprocessing rows.

Paper claim: computing E⁺ costs O((n + n^{3μ}) log n) work (Algorithm 4.3;
Algorithm 4.1 drops the log n at a d_G-factor more depth), i.e. work
exponent max(1, 3μ)·(1 + o(1)):

* 2-D grids, μ = 1/2 → exponent ≈ 1.5
* 3-D grids, μ = 2/3 → exponent ≈ 2.0
* paths,     μ = 0   → exponent ≈ 1.0

We sweep n per family, record ledger work, fit the exponent after dividing
out one log factor, and wall-clock the largest instance per family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.complexity import fit_exponent_with_log
from repro.analysis.tables import render_table
from repro.core.leaves_up import augment_leaves_up
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph
from repro.separators.quality import assess

FAMILIES = {
    "grid2d": dict(shapes=[(18, 18), (26, 26), (38, 38), (54, 54), (76, 76), (108, 108)], mu=0.5),
    "grid3d": dict(shapes=[(5, 5, 5), (7, 7, 7), (9, 9, 9), (11, 11, 11), (13, 13, 13)], mu=2 / 3),
    "path": dict(shapes=[(200,), (500, 1), (1200, 1), (3000, 1)], mu=0.0),
}


def _preprocess_work(shape, seed=0):
    rng = np.random.default_rng(seed)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    led = Ledger()
    aug = augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
    return g, tree, aug, led


@pytest.mark.parametrize("family", list(FAMILIES))
def test_t1_preprocessing_work_exponent(report, family):
    cfg = FAMILIES[family]
    rows, sizes, works = [], [], []
    for shape in cfg["shapes"]:
        g, tree, aug, led = _preprocess_work(shape)
        sizes.append(g.n)
        works.append(led.work)
        rows.append([g.n, tree.height, aug.size, led.work, led.depth])
    fit = fit_exponent_with_log(sizes, works)
    expected = max(1.0, 3 * cfg["mu"])
    table = render_table(
        ["n", "height", "|E+|", "ledger work", "ledger depth"],
        rows,
        title=(
            f"T1-pre {family} (μ={cfg['mu']:.2f}): work/log n ~ {fit} — "
            f"paper: n^{expected:.2f}·polylog"
        ),
    )
    report(f"T1-pre-{family}", table + f"\n\nfitted exponent {fit.exponent:.3f} "
           f"vs theory {expected:.2f}; decomposition: {assess(tree).summary()}")
    # The shape must hold within a generous tolerance (small-n polylog bends
    # the fit upward for μ=0 and μ=1/2 families).
    assert abs(fit.exponent - expected) < 0.45, (fit, expected)
    # Wall-clock the largest instance's augmentation.
    shape = cfg["shapes"][-1]
    rng = np.random.default_rng(1)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
