"""E-tvpi — the Cohen–Megiddo application (§1): two-variable linear
inequalities over separator-friendly interaction graphs.

Shape: the shortest-path engine inside the solver pays Õ(n^{1+2μ} + mn) on a
k^μ-decomposable constraint graph instead of Õ(n³) — here measured as the
ledger work of feasibility + solution vs the n³ dense-path-algebra
alternative, plus wall-clock scaling of the end-to-end solver."""

from __future__ import annotations

import numpy as np

from repro.analysis.complexity import fit_exponent_with_log
from repro.analysis.tables import render_table
from repro.apps.tvpi import (
    DifferenceConstraint,
    UTVPIConstraint,
    solve_difference_system,
    solve_utvpi_system,
)
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph


def grid_system(side, rng):
    """Difference constraints whose interaction graph is the side×side
    grid (both directions per lattice edge, random slacks)."""
    cons = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                cons.append(DifferenceConstraint(v, v + 1, float(rng.uniform(0.5, 2))))
                cons.append(DifferenceConstraint(v + 1, v, float(rng.uniform(0.5, 2))))
            if r + 1 < side:
                cons.append(DifferenceConstraint(v, v + side, float(rng.uniform(0.5, 2))))
                cons.append(DifferenceConstraint(v + side, v, float(rng.uniform(0.5, 2))))
    return side * side, cons


def test_tvpi_difference_scaling(report):
    rng = np.random.default_rng(0)
    rows, sizes, works = [], [], []
    for side in (10, 14, 20, 28):
        n, cons = grid_system(side, rng)
        g = grid_digraph((side, side), rng)  # same skeleton: reuse grid tree
        tree = decompose_grid(g, (side, side))
        from repro.pram.machine import Ledger
        from repro.apps.tvpi import difference_graph

        cg = difference_graph(n, cons)
        led = Ledger()
        from repro.core.leaves_up import augment_leaves_up
        from repro.core.scheduler import build_schedule

        aug = augment_leaves_up(cg, tree, ledger=led, keep_node_distances=False)
        schedule = build_schedule(aug)
        pot = np.zeros(n)
        schedule.run(pot[None, :], ledger=led)
        sizes.append(n)
        works.append(led.work)
        rows.append([n, len(cons), led.work, float(n) ** 3])
    fit = fit_exponent_with_log(sizes, works)
    table = render_table(
        ["n vars", "constraints", "solver ledger work", "dense n^3"],
        rows,
        title=f"E-tvpi difference systems on grids: work ~ {fit}·log n — paper: n^{{1+2μ}} = n^2 → here the SSSP core is n^{{3μ}}=n^1.5",
    )
    report("E-tvpi-scaling", table + f"\n\nfitted {fit.exponent:.3f}; dense alternative exponent 3.0")
    assert fit.exponent < 2.0


def test_tvpi_solution_quality(report):
    rng = np.random.default_rng(3)
    n, cons = grid_system(12, rng)
    g = grid_digraph((12, 12), rng)
    tree = decompose_grid(g, (12, 12))
    res = solve_difference_system(n, cons, tree)
    assert res.feasible and res.check(cons)
    # Infeasible variant gets a certificate.
    bad = cons + [DifferenceConstraint(0, 1, -9.0), DifferenceConstraint(1, 0, -9.0)]
    res2 = solve_difference_system(n, bad, tree)
    assert not res2.feasible and res2.certificate
    report("E-tvpi-quality",
           f"grid 12x12 difference system: feasible solved+verified; "
           f"infeasible variant certified by a negative cycle of length "
           f"{len(res2.certificate) - 1}")


def test_tvpi_utvpi_end_to_end(report):
    rng = np.random.default_rng(6)
    side = 8
    n = side * side
    cons = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                cons.append(UTVPIConstraint(1, v, -1, v + 1, float(rng.uniform(0.5, 2))))
                cons.append(UTVPIConstraint(-1, v, 1, v + 1, float(rng.uniform(0.5, 2))))
            if r + 1 < side:
                cons.append(UTVPIConstraint(1, v, 1, v + side, float(rng.uniform(4, 9))))
    res = solve_utvpi_system(n, cons)
    assert res.feasible and res.check(cons)
    report("E-tvpi-utvpi",
           f"UTVPI system with {len(cons)} constraints on {n} variables: "
           "solved via the doubled separator tree; all constraints verified")
