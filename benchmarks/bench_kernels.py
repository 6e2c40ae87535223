"""E-kern — the min-plus product's two paths: broadcast vs pruned.

:func:`~repro.kernels.minplus.semiring_matmul` broadcasts products of at
most ``AUTO_SMALL_OPS`` ⊗-operations and prunes larger ones.  Experiments,
all recorded in ``benchmarks/results/BENCH_kernels.json``:

* **micro curves** — one doubling square per path on one-hop and closed
  (dense) matrices from the grid and Delaunay workloads and on random
  matrices with 50% ∞ fill, over a size sweep from 16² to past the
  machine's ~190² cache cliff.  The 16², 32² and 64² rows sit on both sides
  of the size rule, so each row says which path the rule picks and whether
  that path was the faster one; the record names the crossover.
* **macro** — end-to-end :func:`~repro.core.doubling.augment_doubling` of
  the 56×56 grid per path, on two decompositions: the default fine grid
  tree (μ=1/2 — every product is tiny, the broadcast path is the right call
  and the rule must not regress it) and a coarse high-μ tree (fat band
  separators — the Table-1 μ→1 regime, where node matrices are a few
  hundred² and the pruned path wins ≥1.5×).  Augmentation edges are
  checked bit-identical across paths.

A path is forced through the module constant, the way the tests force
it: ``AUTO_SMALL_OPS = inf`` broadcasts every product, ``-1`` prunes every
one.  The paths of one cell run in rotating rounds, and the macro bar reads
the median per-round ratio.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.doubling import augment_doubling
from repro.core.semiring import MIN_PLUS
from repro.core.septree import build_separator_tree
from repro.kernels import minplus
from repro.kernels.minplus import semiring_closure, semiring_matmul
from repro.separators.grid import decompose_grid
from repro.workloads.generators import delaunay_digraph, grid_digraph

SIDE = 56

#: Forced paths: the value of ``minplus.AUTO_SMALL_OPS`` that forces each.
PATHS = {"reference": np.inf, "pruned": -1}

#: Rotating rounds per micro cell, and per macro tree (a coarse-tree
#: doubling takes tens of seconds, so its rounds run without a warm-up).
MICRO_ROUNDS = 4
MACRO_ROUNDS = 2

#: Micro-sweep operand sizes: both sides of the size rule (n³ ≤ 2¹⁵ means
#: n ≤ 32) and across the ~190² broadcast cache cliff.
MICRO_SIZES = [16, 32, 64, 100, 196, 324]

#: Coarse high-μ decomposition of the 56×56 grid: a fat band separator.
FAT_BAND = 4
FAT_LEAF = 300

#: Acceptance bar on the coarse-tree doubling augmentation: the pruned path
#: must beat the broadcast path by ≥1.5×.
MACRO_SPEEDUP = 1.5


def _forced(monkeypatch, path: str, fn):
    """``fn`` as a zero-argument call with every product forced onto
    ``path``."""

    def run():
        monkeypatch.setattr(minplus, "AUTO_SMALL_OPS", PATHS[path])
        try:
            return fn()
        finally:
            monkeypatch.undo()

    return run


def _rule_path(n: int) -> str:
    return "reference" if float(n) ** 3 <= minplus.AUTO_SMALL_OPS else "pruned"


def _one_hop_matrix(g) -> np.ndarray:
    """Dense one-hop min-plus matrix of ``g`` — the shape of an early
    doubling iterate (mostly +inf)."""
    w = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(w, 0.0)
    np.minimum.at(w, (g.src, g.dst), g.weight)
    return w


def fat_grid_tree(g, side: int, band: int = FAT_BAND, leaf_size: int = FAT_LEAF):
    """High-μ decomposition of a side×side grid: separators are ``band``
    adjacent rows/columns, so V_H(t) is a few hundred vertices — the
    regime where the augmentation's products leave the cache."""

    def fat_sep(sub, global_ids):
        r, c = global_ids // side, global_ids % side
        coord = r if (r.max() - r.min() >= c.max() - c.min()) else c
        mid = (coord.min() + coord.max()) // 2
        lo = mid - band // 2
        return np.nonzero((coord >= lo) & (coord < lo + band))[0]

    return build_separator_tree(g, fat_sep, leaf_size=leaf_size)


@pytest.fixture(scope="module")
def grid_workload():
    rng = np.random.default_rng(0)
    g = grid_digraph((SIDE, SIDE), rng)
    return g


def _micro_operands(family: str, n: int):
    """``(label, matrix)`` pairs of one family at size ``n`` (grids round
    to the nearest square side, so their n is the actual vertex count)."""
    rng = np.random.default_rng(n)
    if family == "random":
        a = rng.uniform(1.0, 99.0, (n, n))
        a[rng.random((n, n)) < 0.5] = np.inf
        return [("50% inf", a)]
    if family == "grid":
        side = int(round(n**0.5))
        g = grid_digraph((side, side), rng)
    else:
        g, _ = delaunay_digraph(n, rng)
    one_hop = _one_hop_matrix(g)
    return [("one-hop", one_hop), ("closed", semiring_closure(one_hop))]


def test_micro_kernel_curves(timed, report, record_json, monkeypatch):
    """One doubling square per path on sparse, dense and half-filled
    operands; every row is checked bit-identical across paths."""
    rows = []
    record = {}
    rule_right = {}
    for family in ("grid", "delaunay", "random"):
        for size in MICRO_SIZES:
            for label, a in _micro_operands(family, size):
                n = a.shape[0]
                want = semiring_matmul(a, a, MIN_PLUS)
                res = timed({
                    path: _forced(monkeypatch, path, lambda: semiring_matmul(a, a, MIN_PLUS))
                    for path in PATHS
                }, MICRO_ROUNDS)
                for path in PATHS:
                    assert np.array_equal(res.outputs[path], want), (family, n, label, path)
                times = {path: res.median(path) for path in PATHS}
                rule = _rule_path(n)
                faster = min(times, key=times.get)
                rule_right[f"{family}-{n}-{label}"] = rule == faster
                ratio = res.ratio_quartiles("reference", "pruned")[1]
                rows.append([
                    family, n, label,
                    round(times["reference"] * 1e3, 3),
                    round(times["pruned"] * 1e3, 3),
                    round(ratio, 2), rule, faster,
                ])
                record[f"{family}-{n}-{label}"] = {
                    "n": n,
                    "times_ms": res.record(1e3),
                    "speedup_pruned": ratio,
                    "rule_path": rule,
                    "faster_path": faster,
                }
    record["auto_small_ops"] = minplus.AUTO_SMALL_OPS
    record["rule_picks_faster"] = sum(rule_right.values())
    record["rows"] = len(rule_right)
    table = render_table(
        ["family", "n", "iterate", "reference ms", "pruned ms", "pruned x",
         "rule picks", "faster"],
        rows,
        title=(
            "E-kern micro: one min-plus square per path (bit-identity checked), "
            f"medians of {MICRO_ROUNDS} rotating rounds; the rule broadcasts "
            f"n^3 <= {minplus.AUTO_SMALL_OPS} and picks the faster path on "
            f"{record['rule_picks_faster']}/{record['rows']} rows"
        ),
    )
    report("E-kern-micro", table)
    record_json("BENCH_kernels.json", "micro", record)


def test_macro_doubling_augmentation(timed, grid_workload, report, record_json, monkeypatch):
    """End-to-end Algorithm 4.3 per path on the 56×56 grid, fine and coarse
    trees; asserts bit-identical E⁺ and the ≥1.5× coarse-tree bar."""
    g = grid_workload
    trees = {
        "fine (mu=1/2 grid tree)": decompose_grid(g, (SIDE, SIDE)),
        "coarse (high-mu fat-band tree)": fat_grid_tree(g, SIDE),
    }
    rows = []
    record = {}
    for tree_label, tree in trees.items():
        def build():
            return augment_doubling(g, tree, keep_node_distances=False)

        sides = {path: _forced(monkeypatch, path, build) for path in PATHS}
        res = timed({**sides, "rule": build}, MACRO_ROUNDS, warmup=0)
        base = res.outputs["reference"]
        for path in ("pruned", "rule"):
            assert np.array_equal(base.src, res.outputs[path].src), path
            assert np.array_equal(base.dst, res.outputs[path].dst), path
            assert np.array_equal(base.weight, res.outputs[path].weight), path
        pruned_x = res.ratio_quartiles("reference", "pruned")
        rule_x = res.ratio_quartiles("reference", "rule")
        rows.append([
            tree_label, base.size,
            *(round(res.median(p), 2) for p in res.samples),
            round(pruned_x[1], 2), round(rule_x[1], 2),
        ])
        record[tree_label.split(" ")[0]] = {
            "eplus": base.size,
            "times_s": res.record(),
            "speedup_pruned": pruned_x[1],
            "speedup_pruned_quartiles": pruned_x,
            "speedup_rule": rule_x[1],
        }
    table = render_table(
        ["tree", "|E+|", "reference s", "pruned s", "rule s", "pruned x", "rule x"],
        rows,
        title=f"E-kern macro: augment_doubling(56x56 grid) per path, medians of "
              f"{MACRO_ROUNDS} rotating rounds — E+ bit-identical",
    )
    report("E-kern-macro", table)
    record_json("BENCH_kernels.json", "macro", record)
    speedup = record["coarse"]["speedup_pruned"]
    assert speedup >= MACRO_SPEEDUP, (
        f"coarse-tree pruned speedup {speedup:.2f}x < {MACRO_SPEEDUP}x"
    )
