"""T1-time — Table 1, parallel-time column (and ablation A2).

Paper claims (EREW PRAM): Algorithm 4.3 preprocesses in O(log²n) time;
Algorithm 4.1 in O(log³n) (one O(log²n) phase per tree level); queries run
in O(log²n) time.  The ledger's depth counter *is* that model time, so we
sweep n and check depth grows polylogarithmically — the fitted exponent of
depth vs n must be near zero, and depth/log²n roughly flat (4.3) versus
depth/log³n roughly flat (4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.complexity import fit_exponent
from repro.analysis.tables import render_table
from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.sssp import sssp_scheduled
from repro.pram.machine import Ledger
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

SHAPES = [(12, 12), (18, 18), (26, 26), (38, 38)]


def _depths(shape, method):
    rng = np.random.default_rng(0)
    g = grid_digraph(shape, rng)
    tree = decompose_grid(g, shape)
    led = Ledger()
    build = augment_leaves_up if method == "leaves_up" else augment_doubling
    aug = build(g, tree, ledger=led, keep_node_distances=False)
    qled = Ledger()
    sssp_scheduled(aug, [0], schedule=build_schedule(aug), ledger=qled)
    return g.n, led.depth, qled.depth


@pytest.mark.parametrize("method", ["leaves_up", "doubling"])
def test_t1_preprocessing_depth_polylog(report, method):
    rows, sizes, depths, qdepths = [], [], [], []
    for shape in SHAPES:
        n, d, qd = _depths(shape, method)
        sizes.append(n)
        depths.append(d)
        qdepths.append(qd)
        log2 = np.log2(n)
        rows.append([n, d, d / log2**2, d / log2**3, qd, qd / log2**2])
    fit = fit_exponent(sizes, depths)
    qfit = fit_exponent(sizes, qdepths)
    table = render_table(
        ["n", "pre depth", "pre/log²n", "pre/log³n", "query depth", "query/log²n"],
        rows,
        title=(
            f"T1-time ({method}): preprocessing depth ~ {fit}, query depth ~ {qfit} "
            "— paper: polylog (exponent → 0)"
        ),
    )
    report(f"T1-time-{method}", table)
    # Polylog growth: the power-law exponent must be far below linear.
    assert fit.exponent < 0.45
    assert qfit.exponent < 0.35


def test_t1_doubling_shallower_than_leaves_up(report):
    """Ablation A2's depth side: Algorithm 4.3 saves a d_G factor of depth
    over Algorithm 4.1, paying a log-factor of work."""
    rows = []
    for shape in SHAPES:
        rng = np.random.default_rng(0)
        g = grid_digraph(shape, rng)
        tree = decompose_grid(g, shape)
        l1, l2 = Ledger(), Ledger()
        augment_leaves_up(g, tree, ledger=l1, keep_node_distances=False)
        augment_doubling(g, tree, ledger=l2, keep_node_distances=False)
        rows.append([g.n, l1.depth, l2.depth, l1.work, l2.work])
    rng = np.random.default_rng(0)
    g = grid_digraph(SHAPES[0], rng)
    tree = decompose_grid(g, SHAPES[0])
    table = render_table(
        ["n", "4.1 depth", "4.3 depth", "4.1 work", "4.3 work"],
        rows,
        title="A2: leaves-up (4.1) vs doubling (4.3) depth/work trade",
    )
    report("A2-depth-work", table)
    # At the largest size the structural trade must be visible.
    assert rows[-1][2] < rows[-1][1]  # doubling is shallower
    assert rows[-1][4] > rows[-1][3]  # and works harder


def test_t1_brent_speedup_curves(report):
    """Table-1's time column on finite machines: Brent curves from the
    ledgers of both preprocessing algorithms."""
    from repro.analysis.tables import render_table
    from repro.pram.simulation import brent_curve

    rng = np.random.default_rng(0)
    g = grid_digraph((38, 38), rng)
    tree = decompose_grid(g, (38, 38))
    rows = []
    for name, build in (("4.1 leaves-up", augment_leaves_up),
                        ("4.3 doubling", augment_doubling)):
        led = Ledger()
        build(g, tree, ledger=led, keep_node_distances=False)
        curve = brent_curve(led, processors=[1, 16, 256, 4096, 65536])
        rows.append([
            name, f"{led.work:.3g}", f"{led.depth:.3g}",
            f"{curve.parallelism:.0f}",
            f"{curve.speedup[1]:.1f}", f"{curve.speedup[2]:.1f}",
            f"{curve.speedup[3]:.1f}",
        ])
    table = render_table(
        ["algorithm", "work", "depth", "parallelism W/D",
         "speedup@16", "@256", "@4096"],
        rows,
        title="T1-time: Brent finite-processor speedups (38x38 grid)",
    )
    report("T1-brent", table)
    rng = np.random.default_rng(0)


def _brent_ledger(g, tree):
    led = Ledger()
    augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
    return led
