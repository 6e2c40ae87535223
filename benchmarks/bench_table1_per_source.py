"""T1-src — Table 1, work-per-source row.

Paper claim: after preprocessing, each source costs O(n + n^{2μ}) work
(O(n log n) at μ = 1/2): exponent max(1, 2μ).

* 2-D grids, μ = 1/2 → n log n (exponent ≈ 1 after dividing the log)
* 3-D grids, μ = 2/3 → n^{4/3}
* paths,     μ = 0   → n

Also sweeps the source count s at fixed n: per-source cost must be flat
(the s·(n + n^{2μ}) claim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.complexity import fit_exponent, fit_exponent_with_log
from repro.analysis.tables import render_table
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.sssp import sssp_scheduled
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

FAMILIES = {
    "grid2d": dict(
        shapes=[(18, 18), (26, 26), (38, 38), (54, 54), (76, 76), (108, 108)], mu=0.5, logs=1
    ),
    "grid3d": dict(shapes=[(5, 5, 5), (7, 7, 7), (9, 9, 9), (11, 11, 11), (13, 13, 13)], mu=2 / 3, logs=0),
    "path": dict(shapes=[(300,), (800, 1), (2000, 1), (5000, 1)], mu=0.0, logs=0),
}


def _build(shape, seed=0):
    rng = np.random.default_rng(seed)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    aug = augment_leaves_up(g, tree, keep_node_distances=False)
    return g, aug, build_schedule(aug)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_t1_per_source_work_exponent(report, family):
    cfg = FAMILIES[family]
    rows, sizes, works = [], [], []
    for shape in cfg["shapes"]:
        g, aug, schedule = _build(shape)
        led = Ledger()
        sssp_scheduled(aug, [0], schedule=schedule, ledger=led)
        sizes.append(g.n)
        works.append(led.work)
        rows.append([g.n, aug.size, schedule.edge_scans, led.work])
    fit = (
        fit_exponent_with_log(sizes, works)
        if cfg["logs"]
        else fit_exponent(sizes, works)
    )
    expected = max(1.0, 2 * cfg["mu"])
    suffix = "·log n" if cfg["logs"] else ""
    table = render_table(
        ["n", "|E+|", "schedule scans", "per-source work"],
        rows,
        title=(
            f"T1-src {family} (μ={cfg['mu']:.2f}): work ~ {fit}{suffix} — "
            f"paper: n^{expected:.2f}{suffix}"
        ),
    )
    report(f"T1-src-{family}", table + f"\n\nfitted exponent {fit.exponent:.3f} vs theory {expected:.2f}")
    assert abs(fit.exponent - expected) < 0.4, (fit, expected)
    g, aug, schedule = _build(cfg["shapes"][-1])


def test_t1_multi_source_scales_linearly_in_s(report):
    """s sources cost s × one source (work), and vectorization makes the
    wall-clock grow sublinearly in s."""
    g, aug, schedule = _build((40, 40))
    rows = []
    per_source = []
    for s in (1, 2, 4, 8, 16):
        led = Ledger()
        srcs = list(range(s))
        sssp_scheduled(aug, srcs, schedule=schedule, ledger=led)
        per_source.append(led.work / s)
        rows.append([s, led.work, led.work / s])
    table = render_table(["s", "total work", "work / source"], rows,
                         title="T1-src source-count sweep (n=1600 grid)")
    report("T1-src-sweep", table)
    assert np.allclose(per_source, per_source[0])
